"""Shared fixtures-adjacent helpers: scene builders and small math oracles.

Everything here is deliberately independent of the library internals where it
serves as an oracle (spearman, rotation distance, chord angles, the exhaustive
maximum spanning forest, a quick-find Kruskal); the scene builders reuse
sara.synth because they only need *a* scene, not a reference answer.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from sara.config import DEG
from sara.synth import CameraPose, compute_visibility, generate_orbit_scene, look_at

WIDTH, HEIGHT = 1024, 768
K_DEFAULT = np.array([[900.0, 0.0, 512.0], [0.0, 900.0, 384.0], [0.0, 0.0, 1.0]])


def skew(v: np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def essential_from_pose(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """E = [t]x R, scaled to Frobenius norm sqrt(2) to match estimator output."""
    e = skew(translation) @ rotation
    return e * (math.sqrt(2.0) / np.linalg.norm(e))


def essential_distance(estimated: np.ndarray, reference: np.ndarray) -> float:
    """Frobenius distance up to the unavoidable sign flip."""
    return min(np.linalg.norm(estimated - reference),
               np.linalg.norm(estimated + reference))


def rot_geodesic(ra: np.ndarray, rb: np.ndarray) -> float:
    """Angle of the relative rotation, radians."""
    c = (np.trace(ra @ rb.T) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return math.atan2(np.linalg.norm(np.cross(u, v)), float(np.dot(u, v)))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def look_at_rot(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation, +z toward target.  Independent of synth.look_at."""
    z = target - center
    z = z / np.linalg.norm(z)
    up = np.array([0.0, 0.0, 1.0])
    x = np.cross(up, z)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross(np.array([1.0, 0.0, 0.0]), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return np.stack([x, y, z])


def project_pixels(points: np.ndarray, rotation: np.ndarray, center: np.ndarray,
                   intrinsics: np.ndarray) -> np.ndarray:
    cam = (points - center) @ rotation.T
    uvw = cam @ intrinsics.T
    return uvw[:, :2] / uvw[:, 2:3]


def to_corrs(kp_a: np.ndarray, kp_b: np.ndarray, similarity: float = 1.0):
    """Row i of kp_a matched with row i of kp_b, as a correspondence array."""
    from sara.epipolar import correspondences
    idx = np.arange(len(kp_a))
    return correspondences(idx, idx, kp_a, kp_b, np.full(len(kp_a), similarity))


def robust_search(corrs, calib=None, iterations: int = 32, inlier_threshold: float = 2.0,
                  rng: np.random.Generator | None = None):
    """One pair's robust search, a ``short_ransac`` call on one search, with
    the generator ``default_rng(0)`` unless ``rng`` is given. Returns the
    model, and raises the NoModelFound or CheiralityAmbiguity the search
    returns instead."""
    from sara.epipolar import TwoViewModel, short_ransac
    rng = np.random.default_rng(0) if rng is None else rng
    result, = short_ransac([(corrs, calib, rng)], iterations, inlier_threshold)
    if not isinstance(result, TwoViewModel):
        raise result
    return result


def lapack_minimal_solve(At: np.ndarray):
    """The minimal eight-point solve as LAPACK forms it, a drop-in for
    ``sara.epipolar._minimal_solve``, which takes each (8, 9) design matrix
    transposed, stack last, as (9, 8, h): the null vector of A is Q's last
    column in the complete QR of A^T, the rank-2 step a 3x3 SVD with
    sigma_3 set to 0, and a set is solvable where min |R_kk| > 1e-10 max
    |R_kk|."""
    Q, R = np.linalg.qr(np.moveaxis(At, 2, 0), mode="complete")
    d = np.abs(np.diagonal(R, axis1=1, axis2=2))
    solvable = (d.max(axis=1) > 0.0) & (d.min(axis=1) > d.max(axis=1) * 1e-10)
    U, s, Vt = np.linalg.svd(Q[:, :, -1].reshape(-1, 3, 3))
    s[:, 2] = 0.0
    return (U * s[:, None, :]) @ Vt, solvable


def stack_last(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """(h, m, 2) point sets of images a and b as the (2, 2, m, h) stack that
    ``sara.epipolar._fundamental_stack`` takes (image, coordinate, point,
    set): a strided view of one copy."""
    return np.stack([pa, pb]).transpose(0, 3, 2, 1)


def per_count_refits(sets):
    """Eight-point fits of ``sets``, (pa, pb) pairs of (n, 2) points, as the
    robust search refit its winners before its refit became one call: one
    stacked solve per distinct n, in the (h, n, 2) layout. Hartley takes a
    sequential centroid sum and numpy's pairwise sum of the distances; the
    null vector is the SVD's, made rank-2 by a 3x3 SVD with sigma_3 set to
    0, and a set is degenerate where sigma_8 <= 1e-10 sigma_1 or its points
    coincide. At n == 8 the solve is ``lapack_minimal_solve``, which equals
    the closed form only up to rounding. Returns (models, ok) in input
    order."""
    models, ok = [None] * len(sets), [None] * len(sets)
    sizes = [len(pa) for pa, _ in sets]
    for n in dict.fromkeys(sizes):
        same = [k for k, size in enumerate(sizes) if size == n]
        pts = np.stack([np.stack([sets[k][i] for k in same]) for i in (0, 1)])
        h = len(same)
        c = np.moveaxis(pts, 2, 0).copy().sum(axis=0) / n
        centered = pts - c[:, :, None, :]
        sq = centered * centered
        mean_dist = np.sqrt(sq[..., 0] + sq[..., 1]).sum(axis=2) / n
        coincident = mean_dist < 1e-9
        s = math.sqrt(2.0) / np.where(coincident, 1.0, mean_dist)
        T = np.zeros((2, h, 3, 3))
        T[..., 0, 0] = T[..., 1, 1] = s
        T[..., :2, 2] = -s[..., None] * c
        T[..., 2, 2] = 1.0
        xa, xb = centered * s[..., None, None]
        A = np.empty((h, n, 9))
        A[..., 0:2], A[..., 2] = xb[..., :1] * xa, xb[..., 0]
        A[..., 3:5], A[..., 5] = xb[..., 1:] * xa, xb[..., 1]
        A[..., 6:8], A[..., 8] = xa, 1.0
        if n == 8:
            F, solvable = lapack_minimal_solve(A.transpose(2, 1, 0))
        else:
            _, sv, Vt = np.linalg.svd(A, full_matrices=False)
            solvable = (sv[:, 0] > 0.0) & (sv[:, 7] > sv[:, 0] * 1e-10)
            U, sf, Vft = np.linalg.svd(Vt[:, -1].reshape(-1, 3, 3))
            sf[:, 2] = 0.0
            F = (U * sf[:, None, :]) @ Vft
        F = np.swapaxes(T[1], 1, 2) @ F @ T[0]
        flat = F.reshape(-1, 1, 9)
        F /= np.sqrt(flat @ np.swapaxes(flat, 1, 2))
        flat = F.reshape(-1, 9)
        lead = flat[np.arange(h), np.argmax(np.abs(flat), axis=1)]
        F = np.where(lead[:, None, None] < 0.0, -F, F)
        for k, model, good in zip(same, F, ~coincident.any(axis=0) & solvable):
            models[k], ok[k] = model, bool(good)
    return models, ok


@dataclasses.dataclass
class TwoViewCase:
    """A synthetic calibrated pair with ground truth."""

    kp_a: np.ndarray
    kp_b: np.ndarray
    rotation: np.ndarray          # world->cam for each view
    rotation_b: np.ndarray
    center_a: np.ndarray
    center_b: np.ndarray
    points: np.ndarray
    rel_rotation: np.ndarray      # cam a -> cam b
    rel_translation: np.ndarray   # unit direction
    intrinsics: np.ndarray

    @property
    def correspondences(self) -> np.ndarray:
        return np.hstack([self.kp_a, self.kp_b])

    def oracle_angles(self) -> np.ndarray:
        to_a = self.center_a - self.points
        to_b = self.center_b - self.points
        cross = np.linalg.norm(np.cross(to_a, to_b), axis=1)
        dot = np.einsum("ij,ij->i", to_a, to_b)
        return np.arctan2(cross, dot)


def gen_frustum_pair(rng: np.random.Generator, n: int = 120,
                     separation_deg: float | None = None,
                     dist: float = 5.0, noise_px: float = 0.0) -> TwoViewCase:
    """Two cameras on a circle looking at the origin, scene points filling the
    first camera's image plane.

    Filling the frame matters: the eight-point solve degrades sharply when the
    observed points subtend only a few degrees, regardless of baseline.
    """
    sep = (separation_deg if separation_deg is not None
           else rng.uniform(20.0, 60.0)) * DEG
    ca = np.array([dist, 0.0, 0.0])
    cb = dist * np.array([math.cos(sep), math.sin(sep), 0.0])
    ra = look_at_rot(ca, np.zeros(3))
    rb = look_at_rot(cb, np.zeros(3))
    kinv = np.linalg.inv(K_DEFAULT)

    # oversample in view a, keep the ones that also land inside view b
    m = n * 3
    uv = np.column_stack([
        rng.uniform(30.0, WIDTH - 30.0, m),
        rng.uniform(30.0, HEIGHT - 30.0, m),
        np.ones(m),
    ])
    depth = rng.uniform(dist - 1.0, dist + 1.0, m)
    pts = ((uv @ kinv.T) * depth[:, None]) @ ra + ca

    cam_b = (pts - cb) @ rb.T
    uv_b = cam_b @ K_DEFAULT.T
    good = cam_b[:, 2] > 0.1
    with np.errstate(invalid="ignore", divide="ignore"):
        pb = uv_b[:, :2] / uv_b[:, 2:3]
    good &= (pb[:, 0] > 1) & (pb[:, 0] < WIDTH - 1)
    good &= (pb[:, 1] > 1) & (pb[:, 1] < HEIGHT - 1)
    idx = np.flatnonzero(good)[:n]
    if len(idx) < n:
        raise AssertionError(f"frustum generator kept {len(idx)}/{n} points")

    pts = pts[idx]
    kp_a = uv[idx, :2].copy()
    kp_b = pb[idx]
    if noise_px > 0:
        kp_a = kp_a + rng.normal(0.0, noise_px, kp_a.shape)
        kp_b = kp_b + rng.normal(0.0, noise_px, kp_b.shape)

    t_rel = rb @ (ca - cb)
    return TwoViewCase(
        kp_a=kp_a, kp_b=kp_b,
        rotation=ra, rotation_b=rb, center_a=ca, center_b=cb, points=pts,
        rel_rotation=rb @ ra.T, rel_translation=t_rel / np.linalg.norm(t_rel),
        intrinsics=K_DEFAULT.copy(),
    )


def features_from_case(case, seed: int = 0, n_junk: int = 0, d: int = 64,
                       with_intrinsics: bool = True, ids=("a", "b")):
    """Wrap a TwoViewCase as a pair of ImageFeatures.

    Matching points share one descriptor per point (noise-free), so mutual
    nearest neighbors recover the planted correspondence; optional junk
    keypoints get independent descriptors.
    """
    from sara.features import ImageFeatures

    rng = np.random.default_rng(seed)
    n = len(case.kp_a)

    def unit(shape):
        v = rng.normal(size=shape)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    shared = unit((n, d))
    out = []
    for which, kp in zip(ids, (case.kp_a, case.kp_b)):
        desc = np.vstack([shared, unit((n_junk, d))]) if n_junk else shared.copy()
        junk_kp = np.column_stack([rng.uniform(0, WIDTH, n_junk),
                                   rng.uniform(0, HEIGHT, n_junk)])
        keypoints = np.vstack([kp, junk_kp]) if n_junk else kp.copy()
        out.append(ImageFeatures(
            image_id=which,
            keypoints=np.clip(keypoints, 0, [WIDTH - 1e-3, HEIGHT - 1e-3]).astype(np.float32),
            descriptors=desc.astype(np.float32),
            global_desc=unit(d).astype(np.float32),
            image_size=(WIDTH, HEIGHT),
            intrinsics=case.intrinsics.copy() if with_intrinsics else None))
    return out


def make_weak_scene(seed: int = 11):
    """Orbit scene plus one high-altitude camera that overlaps everything only
    obliquely.  Returns (scene, planted_index)."""
    base = generate_orbit_scene(12, 500, seed=seed)
    center = np.array([0.4, 0.0, 6.0])
    extra = CameraPose(rotation=look_at(center, np.zeros(3)), center=center,
                       intrinsics=base.cameras[0].intrinsics.copy())
    cameras = base.cameras + (extra,)
    vis = compute_visibility(cameras, base.points, base.image_size)
    scene = dataclasses.replace(base, cameras=cameras, visibility=vis)
    return scene, len(base.cameras)


def spearman(x, y) -> float:
    """Spearman rank correlation with average ties.  Plain numpy, no scipy."""
    def ranks(v):
        v = np.asarray(v, dtype=float)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1, dtype=float)
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx ** 2).sum() * (ry ** 2).sum()))
    if denom == 0:
        return 0.0
    return float((rx * ry).sum() / denom)


def _joining(edges, n_nodes: int):
    """The ``edges``, taken in order, that join two different components.

    Quick-find: every node carries its component's label, and a join
    relabels the whole second component.
    """
    label = list(range(n_nodes))
    for a, b in edges:
        la, lb = label[a], label[b]
        if la != lb:
            label = [la if x == lb else x for x in label]
            yield a, b


def _joins(edges, n_nodes: int) -> int:
    """How many of ``edges``, taken in order, join two different components."""
    return sum(1 for _ in _joining(edges, n_nodes))


def reference_kruskal(weights: dict, n_nodes: int) -> list:
    """Maximum spanning forest edges in acceptance order: Kruskal over quick-find.

    Edges are taken by descending weight, ties by ascending (i, j), and an
    edge is kept when it joins two components.
    """
    return list(_joining(sorted(weights, key=lambda e: (-weights[e], e)), n_nodes))


def oracle_mst(weights: dict, n_nodes: int) -> float:
    """Exhaustive maximum spanning-forest weight for graphs of at most 7 nodes.

    A forest spanning a graph of c components has n - c edges, so this
    enumerates every (n - c)-edge subset and keeps the heaviest acyclic one
    (a subset is acyclic when each of its edges joins two components).
    """
    if n_nodes > 7:
        raise ValueError(f"{n_nodes} nodes exceeds the exhaustive limit of 7")
    edges = list(weights.items())
    size = _joins(weights, n_nodes)
    return float(max(sum(w for _, w in subset)
                     for subset in itertools.combinations(edges, size)
                     if _joins((e for e, _ in subset), n_nodes) == size))
