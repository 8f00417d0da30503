"""Synthetic multi-view scenes with exact ground truth.

Scenes put cameras on an orbit looking at a point cloud sampled in a
unit-ish shell around the origin. Points carry outward radial normals
and behave like samples on a convex surface: a point is visible only
when it projects inside the frame with positive depth AND the ray to the
camera stays within a maximum angle of the point's normal, which kills
grazing views and gives antipodal cameras near-zero covisibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GenerationFailure
from .features import DatasetManifest, ImageFeatures, ManifestEntry, write_features, write_manifest

# largest angle between a point's normal and its ray to a camera that sees it
_MAX_VIEW_ANGLE = math.radians(75.0)
# scene draws before generate_orbit_scene gives up
_MAX_RETRIES = 10
# world up direction of every camera
_UP = np.array([0.0, 0.0, 1.0])
# image width and height in pixels, and focal length in pixels, of every camera
_IMAGE_SIZE = (1024, 768)
_FOCAL = 900.0


@dataclass(frozen=True)
class CameraPose:
    rotation: np.ndarray    # (3, 3) world-to-camera
    center: np.ndarray      # (3,) world
    intrinsics: np.ndarray  # (3, 3)


@dataclass(frozen=True)
class SyntheticScene:
    cameras: tuple[CameraPose, ...]
    points: np.ndarray             # (m, 3)
    point_descriptors: np.ndarray  # (m, d) unit rows
    visibility: np.ndarray         # (n_cameras, m) bool
    image_size: tuple[int, int]
    noise_px: float
    noise_desc: float
    seed: int

    @property
    def n_cameras(self) -> int:
        return len(self.cameras)


@dataclass(frozen=True)
class OraclePairTruth:
    overlap_fraction: float
    median_parallax: float      # radians, lower median over covisible points
    rotation: np.ndarray        # camera i frame to camera j frame
    translation: np.ndarray     # unit norm, zero for i == j


def look_at(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation with +z toward the target and world +z up."""
    z = np.asarray(target, dtype=np.float64) - center
    z = z / np.linalg.norm(z)
    x = np.cross(_UP, z)
    nx = np.linalg.norm(x)
    if nx < 1e-12:
        raise ValueError("up direction parallel to viewing direction")
    x = x / nx
    y = np.cross(z, x)
    return np.stack([x, y, z])


def project(camera: CameraPose, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixel projections and camera-frame depths for a point array."""
    pc = (points - camera.center) @ camera.rotation.T
    depth = pc[:, 2]
    safe = np.where(np.abs(depth) > 1e-12, depth, 1.0)
    uv1 = (pc / safe[:, None]) @ camera.intrinsics.T
    return uv1[:, :2], depth


def compute_visibility(cameras, points: np.ndarray, image_size: tuple[int, int]) -> np.ndarray:
    """Frustum test plus the convex-surface grazing-angle test.

    Point normals are the outward radial directions from the origin.
    """
    w, h = image_size
    normals = points / np.linalg.norm(points, axis=1, keepdims=True)
    cos_max = math.cos(_MAX_VIEW_ANGLE)
    vis = np.zeros((len(cameras), len(points)), dtype=bool)
    for idx, camera in enumerate(cameras):
        uv, depth = project(camera, points)
        in_frame = (depth > 1e-6) & (uv[:, 0] >= 0) & (uv[:, 0] < w) \
            & (uv[:, 1] >= 0) & (uv[:, 1] < h)
        to_cam = camera.center[None, :] - points
        to_cam = to_cam / np.linalg.norm(to_cam, axis=1, keepdims=True)
        facing = np.einsum("ij,ij->i", normals, to_cam) >= cos_max
        vis[idx] = in_frame & facing
    return vis


def generate_orbit_scene(n_cameras: int, n_points: int, radius: float = 5.0,
                         noise_px: float = 0.0, seed: int = 0, *,
                         noise_desc: float = 0.0, descriptor_dim: int = 32,
                         min_visible: int = 20) -> SyntheticScene:
    """Evenly spaced orbit of cameras looking at the origin.

    Points are drawn uniformly in a spherical shell (radii 0.4 to 1.0).
    Regenerates with a derived seed until every camera sees at least
    ``min_visible`` points; raises GenerationFailure after bounded retries.
    """
    if n_cameras < 2:
        raise ValueError("need at least 2 cameras")
    if n_points < 50:
        raise ValueError("need at least 50 points")
    if not 0 <= seed < 2**63:   # dump_scene stores it as int64
        raise ValueError(f"seed must be in [0, 2**63), got {seed}")
    if not (math.isfinite(radius) and radius > 1.0):
        raise ValueError(f"radius must be finite and exceed the unit point shell, got {radius}")
    for name, value in (("noise_px", noise_px), ("noise_desc", noise_desc)):
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    w, h = _IMAGE_SIZE
    K = np.array([[_FOCAL, 0.0, w / 2.0], [0.0, _FOCAL, h / 2.0], [0.0, 0.0, 1.0]])
    phis = 2.0 * math.pi * np.arange(n_cameras) / n_cameras
    cameras = tuple(
        CameraPose(rotation=look_at(c, np.zeros(3)), center=c, intrinsics=K)
        for c in (radius * np.column_stack(
            [np.cos(phis), np.sin(phis), np.zeros(n_cameras)]))
    )
    for attempt in range(_MAX_RETRIES):
        rng = np.random.default_rng([seed, attempt])
        directions = rng.normal(size=(n_points, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = np.cbrt(rng.uniform(0.4 ** 3, 1.0, size=n_points))
        points = directions * radii[:, None]
        descriptors = rng.normal(size=(n_points, descriptor_dim))
        descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)
        vis = compute_visibility(cameras, points, _IMAGE_SIZE)
        if int(vis.sum(axis=1).min()) >= min_visible:
            return SyntheticScene(
                cameras=cameras, points=points, point_descriptors=descriptors,
                visibility=vis, image_size=_IMAGE_SIZE, noise_px=noise_px,
                noise_desc=noise_desc, seed=seed)
    raise GenerationFailure(
        f"{_MAX_RETRIES} attempts, some camera sees fewer than {min_visible} points")


def render_features(scene: SyntheticScene) -> list[ImageFeatures]:
    """Noisy measurements of a scene, one ImageFeatures per camera.

    Keypoints are projections of the camera's visible points in ascending
    point order, perturbed by the scene's pixel noise. Local descriptors
    are the point descriptors under Gaussian perturbation, re-normalized;
    the global descriptor is the normalized sum of visible point
    descriptors, so identical visibility sets give identical globals.
    """
    rng = np.random.default_rng([scene.seed, 7])
    w, h = scene.image_size
    out = []
    for idx, camera in enumerate(scene.cameras):
        vis = np.flatnonzero(scene.visibility[idx])
        uv, _ = project(camera, scene.points[vis])
        if scene.noise_px > 0.0:
            uv = uv + rng.normal(scale=scene.noise_px, size=uv.shape)
        uv[:, 0] = np.clip(uv[:, 0], 0.0, w - 1e-3)
        uv[:, 1] = np.clip(uv[:, 1], 0.0, h - 1e-3)
        desc = scene.point_descriptors[vis]
        if scene.noise_desc > 0.0:
            desc = desc + rng.normal(scale=scene.noise_desc, size=desc.shape)
            desc = desc / np.linalg.norm(desc, axis=1, keepdims=True)
        gsum = scene.point_descriptors[vis].sum(axis=0)
        gnorm = np.linalg.norm(gsum)
        if gnorm < 1e-12:
            raise GenerationFailure(f"camera {idx}: degenerate global descriptor")
        out.append(ImageFeatures(
            image_id=f"view_{idx:04d}",
            keypoints=uv.astype(np.float32),
            descriptors=desc.astype(np.float32),
            global_desc=(gsum / gnorm).astype(np.float32),
            image_size=scene.image_size,
            scores=None,
            intrinsics=camera.intrinsics.copy()))
    return out


def oracle_pair_truth(scene: SyntheticScene, i: int, j: int) -> OraclePairTruth:
    """Exact overlap, lower-median parallax, and relative pose for (i, j)."""
    if i == j:
        return OraclePairTruth(overlap_fraction=1.0, median_parallax=0.0,
                               rotation=np.eye(3), translation=np.zeros(3))
    vi, vj = scene.visibility[i], scene.visibility[j]
    ni, nj = int(vi.sum()), int(vj.sum())
    covis = np.flatnonzero(vi & vj)
    overlap = len(covis) / math.sqrt(ni * nj) if ni and nj else 0.0
    if len(covis):
        ci, cj = scene.cameras[i].center, scene.cameras[j].center
        pts = scene.points[covis]
        a = ci[None, :] - pts
        b = cj[None, :] - pts
        cross = np.linalg.norm(np.cross(a, b), axis=1)
        dot = np.einsum("ij,ij->i", a, b)
        angles = np.sort(np.arctan2(cross, dot))
        median = float(angles[(angles.size - 1) // 2])
    else:
        median = 0.0
    Ri, Rj = scene.cameras[i].rotation, scene.cameras[j].rotation
    ci, cj = scene.cameras[i].center, scene.cameras[j].center
    rotation = Rj @ Ri.T
    translation = Rj @ (ci - cj)
    norm = np.linalg.norm(translation)
    if norm > 1e-12:
        translation = translation / norm
    return OraclePairTruth(overlap_fraction=overlap, median_parallax=median,
                           rotation=rotation, translation=translation)


def dump_scene(scene: SyntheticScene, out_dir: str | Path) -> Path:
    """Write rendered features, a manifest, and a ground-truth sidecar.

    Returns the manifest path. The sidecar (``truth.npz``) holds camera
    rotations/centers/intrinsics, points, and the visibility matrix.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    features = render_features(scene)
    entries = []
    for feats in features:
        path = out_dir / f"{feats.image_id}.sarf"
        write_features(feats, path)
        entries.append(ManifestEntry(image_id=feats.image_id, path=path))
    manifest = DatasetManifest(
        entries=tuple(entries),
        descriptor_dim=scene.point_descriptors.shape[1],
        global_dim=scene.point_descriptors.shape[1])
    manifest_path = out_dir / "manifest.json"
    write_manifest(manifest, manifest_path)
    np.savez(
        out_dir / "truth.npz",
        rotations=np.stack([c.rotation for c in scene.cameras]),
        centers=np.stack([c.center for c in scene.cameras]),
        intrinsics=np.stack([c.intrinsics for c in scene.cameras]),
        points=scene.points,
        visibility=scene.visibility,
        noise_px=np.float64(scene.noise_px),
        seed=np.int64(scene.seed))
    return manifest_path
