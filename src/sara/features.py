"""Feature-file ingestion and the pipeline's text outputs.

Feature files use a small binary container (conventional extension
``.sarf``), little endian throughout::

    magic    4 bytes   b"SARF"
    version  u32       1
    n        u32       keypoint count
    d        u32       local descriptor dimension
    d_g      u32       global descriptor dimension
    width    u32       image width, pixels
    height   u32       image height, pixels
    flags    u8, u8    has_intrinsics, has_scores; each 0 or 1
    K        9   f64   row-major, only if has_intrinsics
    xy       n x 2 f32 keypoint positions, (x, y) pixels
    score    n     f32 only if has_scores
    desc     n x d f32 local descriptors, unit rows
    gdesc    d_g   f32 global descriptor, unit norm

The dataset manifest is JSON with keys ``descriptor_dim``, ``global_dim``
and an ordered ``entries`` array of ``{image_id, path, intrinsics?}``.
Entry order defines the canonical node indices used everywhere else.
Relative paths are resolved against the manifest's directory.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    CorruptFile,
    DimensionMismatch,
    DuplicateImageId,
    MissingFile,
    NormalizationFailure,
    OutOfBoundsKeypoint,
)

MAGIC = b"SARF"
VERSION = 1

# a read keeps descriptor rows within _NORM_REPAIR of unit norm, repairs
# rows up to _NORM_REJECT off and refuses a file with a row beyond
_NORM_REJECT = 1e-3
_NORM_REPAIR = 1e-6


@dataclass(frozen=True)
class ImageFeatures:
    """Per-image detection output plus a global retrieval descriptor."""

    image_id: str
    keypoints: np.ndarray            # (n, 2) float32, pixel coordinates
    descriptors: np.ndarray          # (n, d) float32, unit rows
    global_desc: np.ndarray          # (d_g,) float32, unit norm
    image_size: tuple[int, int]      # (width, height)
    scores: np.ndarray | None = None       # (n,) float32 in [0, 1]
    intrinsics: np.ndarray | None = None   # (3, 3) float64

    @property
    def n_keypoints(self) -> int:
        return int(self.keypoints.shape[0])

    def validate(self) -> None:
        """Check the structural invariants; raise on violation."""
        bad = _non_finite(self.keypoints, self.scores, self.descriptors, self.global_desc)
        if bad:
            raise ValueError(f"{self.image_id}: non-finite {bad}")
        n = self.keypoints.shape[0]
        if self.keypoints.ndim != 2 or self.keypoints.shape[1] != 2:
            raise ValueError("keypoints must be (n, 2)")
        if self.descriptors.ndim != 2 or self.descriptors.shape[0] != n:
            raise ValueError("descriptor count must match keypoint count")
        if self.scores is not None and self.scores.shape != (n,):
            raise ValueError("score count must match keypoint count")
        if self.global_desc.ndim != 1:
            raise ValueError("global descriptor must be 1-D")
        self._check_values()
        if not _unit_norms(self.descriptors, 1e-4)[1]:
            raise NormalizationFailure(f"{self.image_id}: local descriptors not unit norm")
        if not _unit_norms(self.global_desc[None, :], 1e-4)[1]:
            raise NormalizationFailure(f"{self.image_id}: global descriptor not unit norm")

    def _check_values(self) -> None:
        """Image size, keypoint bounds, score range and intrinsics: the checks
        a read repeats after its descriptor norms are checked or repaired."""
        w, h = self.image_size
        if w <= 0 or h <= 0:
            raise ValueError("image size must be positive")
        if self.n_keypoints:
            x, y = self.keypoints[:, 0], self.keypoints[:, 1]
            if (x < 0).any() or (x >= w).any() or (y < 0).any() or (y >= h).any():
                raise OutOfBoundsKeypoint(
                    f"{self.image_id}: keypoint outside [0,{w}) x [0,{h})")
        if self.scores is not None and self.scores.size:
            if (self.scores < 0).any() or (self.scores > 1).any():
                raise ValueError("scores must lie in [0, 1]")
        if self.intrinsics is not None:
            _check_intrinsics(self.intrinsics)


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest image; intrinsics, when given, must pass
    ``_check_intrinsics`` or construction raises ValueError."""

    image_id: str
    path: Path
    intrinsics: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.intrinsics is not None:
            _check_intrinsics(self.intrinsics)


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]
    descriptor_dim: int
    global_dim: int

    @property
    def image_ids(self) -> list[str]:
        return [e.image_id for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def _by_id(self) -> dict[str, ManifestEntry]:
        # built once per manifest; the first entry wins a repeated id
        return {e.image_id: e for e in reversed(self.entries)}


def _check_intrinsics(K: np.ndarray) -> None:
    """Raise ValueError unless K is a finite, invertible 3x3 matrix with
    positive focal lengths."""
    if K.shape != (3, 3) or not np.isfinite(K).all():
        raise ValueError("intrinsics must be a finite 3x3 matrix")
    if K[0, 0] <= 0 or K[1, 1] <= 0:
        raise ValueError("focal lengths must be positive")
    # the robust search maps pixels through np.linalg.inv(K), which
    # raises exactly when this LU determinant is 0
    if np.linalg.det(K) == 0:
        raise ValueError("intrinsics must be invertible")


def _non_finite(keypoints, scores, descriptors, global_desc) -> str | None:
    """Name of the first field with a NaN or infinite value, else None;
    NaN passes every range and norm comparison, so it is caught here."""
    for what, values in (("keypoint", keypoints), ("score", scores),
                         ("local descriptor", descriptors), ("global descriptor", global_desc)):
        if values is not None and not np.isfinite(values).all():
            return what
    return None


def _unit_norms(rows: np.ndarray, tol: float) -> tuple[np.ndarray, bool]:
    """Each row's squared norm ``s`` of the 2-d array ``rows``, and whether
    every row's norm is within ``tol`` of 1.

    One pass sums the squares in float64 without a float64 copy. A NaN or
    infinite value makes its row's ``s`` NaN or inf, which fails the test.
    """
    s = np.einsum("ij,ij->i", rows, rows, dtype=np.float64)
    # |s - (1 + tol^2)| <= 2 tol is (1 - tol)^2 <= s <= (1 + tol)^2
    return s, bool(np.abs(s - (1.0 + tol * tol)).max(initial=0.0) <= 2.0 * tol)


def write_features(features: ImageFeatures, path: str | Path) -> None:
    """Serialize one image's features to the binary container."""
    features.validate()
    n, d = features.descriptors.shape
    d_g = features.global_desc.shape[0]
    w, h = features.image_size
    has_k = features.intrinsics is not None
    has_s = features.scores is not None
    parts = [
        MAGIC,
        struct.pack("<IIIIII", VERSION, n, d, d_g, w, h),
        struct.pack("<BB", int(has_k), int(has_s)),
    ]
    if has_k:
        parts.append(np.ascontiguousarray(features.intrinsics, dtype="<f8").tobytes())
    parts.append(np.ascontiguousarray(features.keypoints, dtype="<f4").tobytes())
    if has_s:
        parts.append(np.ascontiguousarray(features.scores, dtype="<f4").tobytes())
    parts.append(np.ascontiguousarray(features.descriptors, dtype="<f4").tobytes())
    parts.append(np.ascontiguousarray(features.global_desc, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_features(path: str | Path, image_id: str | None = None) -> ImageFeatures:
    """Parse a feature file; validates finiteness, bounds and descriptor norms."""
    if isinstance(path, str):   # a Path, as a manifest entry holds, is taken as given
        path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError as exc:
        raise MissingFile(str(path)) from exc
    if len(raw) < 30 or raw[:4] != MAGIC:
        raise CorruptFile(f"{path}: bad magic or truncated header")
    version, n, d, d_g, w, h = struct.unpack_from("<IIIIII", raw, 4)
    if version != VERSION:
        raise CorruptFile(f"{path}: unsupported version {version}")
    has_k, has_s = raw[28], raw[29]
    if has_k > 1 or has_s > 1:
        raise CorruptFile(f"{path}: flag bytes {has_k}, {has_s}; each must be 0 or 1")
    off = 30
    expected = off + 72 * has_k + 4 * (n * 2 + n * has_s + n * d + d_g)
    if len(raw) != expected:
        raise CorruptFile(f"{path}: size {len(raw)}, expected {expected}")

    def take(count: int, dtype: str) -> np.ndarray:
        nonlocal off
        itemsize = np.dtype(dtype).itemsize
        out = np.frombuffer(raw, dtype=dtype, count=count, offset=off).copy()
        off += count * itemsize
        return out

    K = take(9, "<f8").reshape(3, 3) if has_k else None
    kps = take(n * 2, "<f4").reshape(n, 2)
    scores = take(n, "<f4") if has_s else None
    desc = take(n * d, "<f4").reshape(n, d)
    gdesc = take(d_g, "<f4")
    ident = image_id if image_id is not None else path.stem
    bad = _non_finite(kps, scores, None, None)
    if bad:
        raise CorruptFile(f"{path}: non-finite {bad}")
    s, ok = _unit_norms(desc, _NORM_REPAIR)
    gs, gok = _unit_norms(gdesc[None, :], _NORM_REPAIR)
    if not (ok and gok):
        checked = (("local descriptor", desc, s, ok),
                   ("global descriptor", gdesc[None, :], gs, gok))
        # both arrays' finiteness first: an infinite row would read as off-norm
        for what, _, sq, _ in checked:
            if not np.isfinite(sq).all():
                raise CorruptFile(f"{path}: non-finite {what}")
        for what, rows, sq, unit in checked:
            norms = np.sqrt(sq)
            worst = float(np.abs(norms - 1.0).max(initial=0.0))
            if worst > _NORM_REJECT:
                raise NormalizationFailure(
                    f"{ident}: {what} norm off by {worst:.2e} (tolerance {_NORM_REJECT})")
            if not unit:
                # in place, in float64, rounded once to float32; ``rows`` is
                # this read's own copy, or a view of it
                np.divide(rows, norms[:, None], out=rows, casting="unsafe")
    feats = ImageFeatures(
        image_id=ident, keypoints=kps, descriptors=desc, global_desc=gdesc,
        image_size=(int(w), int(h)), scores=scores, intrinsics=K)
    try:
        feats._check_values()
    except ValueError as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    return feats


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and check a dataset manifest; opens no feature file.

    Checks the JSON structure, that the dimensions are integers, that
    entries are well-formed, that intrinsics are 3x3 arrays of JSON
    numbers (not strings or booleans) that ``ManifestEntry`` accepts,
    and that image ids are unique and free of whitespace (the pair list
    separates ids by a space); relative paths are resolved. Whether a
    referenced file exists, parses and has the manifest's dimensions is
    checked by ``load_features`` when it reads the file.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CorruptFile(f"{path}: top level must be an object")
    for key in ("descriptor_dim", "global_dim", "entries"):
        if key not in data:
            raise CorruptFile(f"{path}: missing key {key!r}")
    d, d_g = data["descriptor_dim"], data["global_dim"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (d, d_g)):
        raise CorruptFile(f"{path}: descriptor dimensions must be integers, not {d!r}, {d_g!r}")
    if not isinstance(data["entries"], list):
        raise CorruptFile(f"{path}: 'entries' must be a list")
    entries = []
    seen: set[str] = set()
    root = path.parent
    for pos, item in enumerate(data["entries"]):
        if not (isinstance(item, dict) and isinstance(item.get("image_id"), str)
                and isinstance(item.get("path"), str)):
            raise CorruptFile(f"{path}: entry {pos} needs string 'image_id' and 'path'")
        image_id = item["image_id"]
        if not image_id or any(c.isspace() for c in image_id):
            raise CorruptFile(f"{path}: image id {image_id!r} is empty or has whitespace")
        if image_id in seen:
            raise DuplicateImageId(image_id)
        seen.add(image_id)
        fpath = Path(item["path"])
        if not fpath.is_absolute():
            fpath = root / fpath
        K = item.get("intrinsics")
        try:
            if K is not None:
                # JSON numbers only: a float64 cast would also take "900" and true
                if not all(type(v) in (int, float) for v in np.ravel(np.array(K, dtype=object))):
                    raise ValueError("intrinsics must be an array of numbers")
                K = np.array(K, dtype=np.float64)
            entries.append(ManifestEntry(image_id=image_id, path=fpath, intrinsics=K))
        except (ValueError, OverflowError) as exc:
            raise CorruptFile(f"{path}: {image_id}: {exc}") from exc
    return DatasetManifest(entries=tuple(entries), descriptor_dim=d, global_dim=d_g)


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    """Write a manifest; paths are stored relative to the manifest when possible."""
    path = Path(path)
    items = []
    for e in manifest.entries:
        try:
            rel = e.path.relative_to(path.parent)
        except ValueError:
            rel = e.path
        item: dict = {"image_id": e.image_id, "path": str(rel)}
        if e.intrinsics is not None:
            item["intrinsics"] = e.intrinsics.tolist()
        items.append(item)
    doc = {
        "descriptor_dim": manifest.descriptor_dim,
        "global_dim": manifest.global_dim,
        "entries": items,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def load_features(manifest: DatasetManifest, image_id: str) -> ImageFeatures:
    """Load one image's features; manifest intrinsics, which ``ManifestEntry``
    checked, replace the file's. The file is read and checked whole first,
    so its own invalid intrinsics are refused even when overridden."""
    entry = manifest._by_id.get(image_id)
    if entry is None:
        raise MissingFile(f"image id {image_id!r} not in manifest")
    feats = read_features(entry.path, image_id=image_id)
    (n, d), d_g = feats.descriptors.shape, feats.global_desc.shape[0]
    if n and d != manifest.descriptor_dim:
        raise DimensionMismatch(
            f"{image_id}: descriptor dim {d} != manifest {manifest.descriptor_dim}")
    if d_g != manifest.global_dim:
        raise DimensionMismatch(f"{image_id}: global dim {d_g} != manifest {manifest.global_dim}")
    if entry.intrinsics is not None:
        feats = replace(feats, intrinsics=entry.intrinsics)
    return feats


def write_pair_list(edges, path: str | Path) -> None:
    """Write match pairs, one ``idA idB`` line each, idA < idB, lines sorted.

    Output is deterministic for a given edge set regardless of input order.
    """
    lines = []
    for a, b in edges:
        a, b = str(a), str(b)
        if a == b:
            raise ValueError(f"self-pair {a!r}")
        if any(c.isspace() for c in a + b):
            raise ValueError("image ids must not contain whitespace")
        lines.append(f"{min(a, b)} {max(a, b)}")
    lines.sort()
    Path(path).write_text("".join(line + "\n" for line in lines))


def write_graph_report(graph, scores, image_ids, path: str | Path) -> None:
    """Write the selected-edge report as deterministic JSON.

    ``graph`` is a ViewGraph, ``scores`` the pair-score map it was built
    from, ``image_ids`` the canonical node-index-to-id list. Parallax is
    reported in degrees.
    """
    edges = []
    for (i, j), role in graph.selected_edges:
        score = scores.get((i, j))
        if score is None:
            raise ValueError(f"selected edge ({i}, {j}) has no score")
        edges.append({
            "a": image_ids[i],
            "b": image_ids[j],
            "role": role.value,
            "overlap": score.overlap,
            "parallax_deg": math.degrees(score.parallax),
            "parallax_floored": score.parallax_floored,
            "weight": score.weight,
            "inliers": score.inlier_count,
        })
    doc = {"summary": graph.summary(), "edges": edges}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
