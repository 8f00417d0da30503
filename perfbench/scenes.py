"""Seeded synthetic scenes for the pair-selection benchmark.

The benchmark owns its scene generator so that its inputs stay the same
when the program's own synthetic-scene module changes. A scene is an
orbit of cameras around a point cloud in a spherical shell, optionally
hidden among low-texture distractor images. Points are treated as
samples on a convex surface: a camera sees a point when it projects into
the frame in front of the camera and the ray to the camera lies within
75 degrees of the point's outward normal.

``write_scene`` writes the feature files and manifest the program reads;
the ``Scene`` itself keeps every array the correctness checks need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_SIZE = (1024, 768)
FOCAL = 900.0
ORBIT_RADIUS = 5.0
MAX_VIEW_ANGLE = math.radians(75.0)


@dataclass(frozen=True)
class SceneSpec:
    n_views: int              # orbit cameras
    n_points: int             # 3-d points in the shell
    descriptor_dim: int
    noise_px: float           # keypoint noise, pixels
    calibrated: bool          # write intrinsics into the feature files
    n_distractors: int = 0    # low-texture images unrelated to the orbit
    distractor_keypoints: int = 5


@dataclass(frozen=True)
class Scene:
    spec: SceneSpec
    seed: int
    rotations: np.ndarray      # (v, 3, 3) world-to-camera, orbit views
    centers: np.ndarray        # (v, 3)
    K: np.ndarray              # (3, 3) shared intrinsics
    points: np.ndarray         # (m, 3)
    visibility: np.ndarray     # (v, m) bool
    orbit_index: np.ndarray    # (v,) manifest index of each orbit view
    image_ids: list            # manifest order
    keypoints: list            # per image, (n, 2) float32
    descriptors: list          # per image, (n, d) float32 unit rows
    globals_: np.ndarray       # (N, d) float32 unit rows

    @property
    def n_images(self) -> int:
        return len(self.image_ids)


def _look_at(center: np.ndarray) -> np.ndarray:
    z = -center / np.linalg.norm(center)
    x = np.cross(np.array([0.0, 0.0, 1.0]), z)
    x /= np.linalg.norm(x)
    return np.stack([x, np.cross(z, x), z])


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _project(R, c, K, points):
    pc = (points - c) @ R.T
    uv = (pc / pc[:, 2:3]) @ K.T
    return uv[:, :2], pc[:, 2]


def make_scene(spec: SceneSpec, seed: int) -> Scene:
    """Build a scene; the same (spec, seed) gives bit-identical arrays."""
    rng = np.random.default_rng([seed, 0x5A4A])
    w, h = IMAGE_SIZE
    K = np.array([[FOCAL, 0.0, w / 2.0], [0.0, FOCAL, h / 2.0], [0.0, 0.0, 1.0]])
    phis = 2.0 * math.pi * np.arange(spec.n_views) / spec.n_views
    centers = ORBIT_RADIUS * np.column_stack(
        [np.cos(phis), np.sin(phis), np.zeros(spec.n_views)])
    rotations = np.stack([_look_at(c) for c in centers])

    normals = _unit(rng.normal(size=(spec.n_points, 3)))
    radii = np.cbrt(rng.uniform(0.4 ** 3, 1.0, size=spec.n_points))
    points = normals * radii[:, None]
    point_desc = _unit(rng.normal(size=(spec.n_points, spec.descriptor_dim)))

    visibility = np.zeros((spec.n_views, spec.n_points), dtype=bool)
    cos_max = math.cos(MAX_VIEW_ANGLE)
    view_kps, view_desc, view_glob = [], [], []
    for v in range(spec.n_views):
        uv, depth = _project(rotations[v], centers[v], K, points)
        to_cam = _unit(centers[v] - points)
        vis = ((depth > 1e-6) & (uv[:, 0] >= 0) & (uv[:, 0] < w) & (uv[:, 1] >= 0)
               & (uv[:, 1] < h) & (np.einsum("ij,ij->i", normals, to_cam) >= cos_max))
        visibility[v] = vis
        kp = uv[vis] + rng.normal(scale=spec.noise_px, size=(int(vis.sum()), 2))
        kp[:, 0] = np.clip(kp[:, 0], 0.0, w - 1e-3)
        kp[:, 1] = np.clip(kp[:, 1], 0.0, h - 1e-3)
        view_kps.append(kp.astype(np.float32))
        view_desc.append(point_desc[vis].astype(np.float32))
        g = point_desc[vis].sum(axis=0)
        view_glob.append(g / np.linalg.norm(g))

    n_total = spec.n_views + spec.n_distractors
    orbit_index = np.sort(rng.choice(n_total, size=spec.n_views, replace=False))
    keypoints: list = [None] * n_total
    descriptors: list = [None] * n_total
    globals_ = np.zeros((n_total, spec.descriptor_dim))
    for v, idx in enumerate(orbit_index):
        keypoints[idx], descriptors[idx], globals_[idx] = view_kps[v], view_desc[v], view_glob[v]
    is_orbit = np.zeros(n_total, dtype=bool)
    is_orbit[orbit_index] = True
    for idx in np.flatnonzero(~is_orbit):
        m = spec.distractor_keypoints
        keypoints[idx] = (rng.uniform(size=(m, 2)) * [w - 1, h - 1]).astype(np.float32)
        descriptors[idx] = _unit(rng.normal(size=(m, spec.descriptor_dim))).astype(np.float32)
        globals_[idx] = _unit(rng.normal(size=(1, spec.descriptor_dim)))[0]
    return Scene(
        spec=spec, seed=seed, rotations=rotations, centers=centers, K=K, points=points,
        visibility=visibility, orbit_index=orbit_index,
        image_ids=[f"img_{i:05d}" for i in range(n_total)],
        keypoints=keypoints, descriptors=descriptors,
        globals_=globals_.astype(np.float32))


def write_scene(scene: Scene, out_dir: Path) -> Path:
    """Write the feature files and the manifest; return the manifest path."""
    from sara.features import DatasetManifest, ImageFeatures, ManifestEntry, \
        write_features, write_manifest

    out_dir.mkdir(parents=True, exist_ok=True)
    K = scene.K if scene.spec.calibrated else None
    entries = []
    for idx, image_id in enumerate(scene.image_ids):
        path = out_dir / f"{image_id}.sarf"
        write_features(ImageFeatures(
            image_id=image_id, keypoints=scene.keypoints[idx],
            descriptors=scene.descriptors[idx], global_desc=scene.globals_[idx],
            image_size=IMAGE_SIZE, intrinsics=K), path)
        entries.append(ManifestEntry(image_id=image_id, path=path))
    manifest = out_dir / "manifest.json"
    d = scene.spec.descriptor_dim
    write_manifest(DatasetManifest(entries=tuple(entries), descriptor_dim=d, global_dim=d),
                   manifest)
    return manifest
