#!/usr/bin/env python3
# Robust two-view estimation checked against a known pose.
#
# Correspondences come from projecting the same points through two
# cameras of a synthetic scene, so the recovered rotation, translation
# direction and triangulation angles can be compared with exact answers.

import numpy as np

from sara.epipolar import TwoViewModel, correspondences, sampson_errors, short_ransac
from sara.synth import generate_orbit_scene, oracle_pair_truth, project

scene = generate_orbit_scene(12, 800, seed=4)
cam_a, cam_b = scene.cameras[0], scene.cameras[1]
both = np.flatnonzero(scene.visibility[0] & scene.visibility[1])
pts = scene.points[both]
uv_a, _ = project(cam_a, pts)
uv_b, _ = project(cam_b, pts)

# half a pixel of detector noise
rng = np.random.default_rng(0)
uv_a = uv_a + rng.normal(0.0, 0.5, uv_a.shape)
uv_b = uv_b + rng.normal(0.0, 0.5, uv_b.shape)
ids = np.arange(len(both))
corrs = correspondences(ids, ids, uv_a, uv_b, np.ones(len(both)))

# one robust search here, or many at once: each ends in its model, or in
# the NoModelFound / CheiralityAmbiguity that stopped it
model, = short_ransac([(corrs, (cam_a.intrinsics, cam_b.intrinsics),
                        np.random.default_rng(1))])
if not isinstance(model, TwoViewModel):
    raise SystemExit(f"no model: {model!r}")
truth = oracle_pair_truth(scene, 0, 1)

cos_r = (np.trace(truth.rotation @ model.rotation.T) - 1.0) / 2.0
rot_err = np.degrees(np.arccos(np.clip(cos_r, -1.0, 1.0)))
t_est = model.translation / np.linalg.norm(model.translation)
cos_t = np.clip(t_est @ truth.translation, -1.0, 1.0)
trans_err = np.degrees(np.arccos(cos_t))

model_type = "fundamental" if model.rotation is None else "essential"
print(f"model type: {model_type}, inliers {model.inliers.size}/{len(corrs)}")
print(f"rotation error:    {rot_err:.4f} deg")
print(f"translation error: {trans_err:.4f} deg (direction only, scale is unobservable)")
print(f"median triangulation angle: "
      f"{np.degrees(np.median(model.triangulation_angles)):.2f} deg "
      f"(oracle {np.degrees(truth.median_parallax):.2f})")

# residuals of the accepted correspondences under the final model; the
# essential matrix lives in normalized coordinates, so map it back to the
# pixel frame before asking for pixel distances
F = np.linalg.inv(cam_b.intrinsics).T @ model.matrix @ np.linalg.inv(cam_a.intrinsics)
errs = np.sqrt(sampson_errors(F, corrs.x_a, corrs.x_b)[model.inliers])
print(f"inlier Sampson distance: mean {np.mean(errs):.3f} px, max {np.max(errs):.3f} px")
