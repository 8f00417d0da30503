import dataclasses
import math

import numpy as np
import pytest

from helpers import angle_between
from sara.config import DEG
from sara.errors import GenerationFailure
from sara.features import load_features, load_manifest
from sara.scorer import mutual_nn_matches
from sara.synth import (CameraPose, compute_visibility, dump_scene,
                        generate_orbit_scene, look_at, oracle_pair_truth, project,
                        render_features)


class TestLookAt:
    def test_points_at_target(self):
        center = np.array([3.0, -2.0, 1.5])
        R = look_at(center, np.zeros(3))
        z_world = R.T @ np.array([0.0, 0.0, 1.0])
        expected = -center / np.linalg.norm(center)
        np.testing.assert_allclose(z_world, expected, atol=1e-12)

    def test_orthonormal(self):
        R = look_at(np.array([5.0, 1.0, 2.0]), np.zeros(3))
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)

    def test_parallel_up_rejected(self):
        with pytest.raises(ValueError):
            look_at(np.array([0.0, 0.0, 4.0]), np.zeros(3))


class TestProject:
    def test_center_point_projects_to_principal_point(self):
        scene = generate_orbit_scene(4, 150, seed=0)
        cam = scene.cameras[0]
        uv, depth = project(cam, np.zeros((1, 3)))
        w, h = scene.image_size
        np.testing.assert_allclose(uv[0], [w / 2.0, h / 2.0], atol=1e-9)
        assert depth[0] == pytest.approx(np.linalg.norm(cam.center))

    def test_negative_depth_reported(self):
        scene = generate_orbit_scene(4, 150, seed=0)
        cam = scene.cameras[0]
        behind = cam.center + (cam.center - np.zeros(3))
        _, depth = project(cam, behind[None, :])
        assert depth[0] < 0


class TestOrbitScene:
    def test_four_camera_square(self):
        scene = generate_orbit_scene(4, 150, radius=5.0, seed=0)
        centers = [c.center for c in scene.cameras]
        assert all(np.linalg.norm(c) == pytest.approx(5.0) for c in centers)
        assert angle_between(centers[0], centers[1]) == pytest.approx(math.pi / 2)
        assert angle_between(centers[0], centers[2]) == pytest.approx(math.pi)

    def test_fixed_camera_model(self):
        scene = generate_orbit_scene(5, 100, seed=0)
        K = np.array([[900.0, 0.0, 512.0], [0.0, 900.0, 384.0], [0.0, 0.0, 1.0]])
        assert scene.image_size == (1024, 768)
        for camera in scene.cameras:
            np.testing.assert_array_equal(camera.intrinsics, K)

    def test_min_visible_guarantee(self):
        scene = generate_orbit_scene(20, 400, seed=0)
        assert scene.visibility.sum(axis=1).min() >= 20

    def test_same_seed_identical(self):
        a = generate_orbit_scene(6, 100, seed=3)
        b = generate_orbit_scene(6, 100, seed=3)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.point_descriptors, b.point_descriptors)
        np.testing.assert_array_equal(a.visibility, b.visibility)
        for ca, cb in zip(a.cameras, b.cameras):
            np.testing.assert_array_equal(ca.rotation, cb.rotation)
            np.testing.assert_array_equal(ca.center, cb.center)

    def test_different_seed_differs(self):
        a = generate_orbit_scene(6, 100, seed=3)
        b = generate_orbit_scene(6, 100, seed=4)
        assert not np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("kwargs", [
        dict(n_cameras=1, n_points=100),
        dict(n_cameras=4, n_points=10),
        dict(n_cameras=4, n_points=100, radius=0.5),
    ])
    def test_parameter_guards(self, kwargs):
        with pytest.raises(ValueError):
            generate_orbit_scene(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_out_of_range_named(self, seed):
        with pytest.raises(ValueError, match="seed"):
            generate_orbit_scene(4, 100, seed=seed)

    @pytest.mark.parametrize("radius", [1.0, math.nan, math.inf, -math.inf])
    def test_radius_must_be_finite_beyond_the_shell(self, radius):
        with pytest.raises(ValueError, match="radius"):
            generate_orbit_scene(4, 100, radius=radius)

    @pytest.mark.parametrize("field", ["noise_px", "noise_desc"])
    @pytest.mark.parametrize("value", [-1.0, -0.5, -1e-12, math.nan, math.inf, -math.inf])
    def test_noise_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=field):
            generate_orbit_scene(4, 100, **{field: value})

    def test_impossible_visibility_fails(self):
        # a huge minimum-visible requirement cannot be met
        with pytest.raises(GenerationFailure):
            generate_orbit_scene(4, 150, seed=0, min_visible=151)

    def test_points_inside_shell(self):
        scene = generate_orbit_scene(4, 200, seed=1)
        radii = np.linalg.norm(scene.points, axis=1)
        assert radii.min() >= 0.4 - 1e-12
        assert radii.max() <= 1.0 + 1e-12


class TestRenderFeatures:
    def test_noise_free_keypoints_exact(self, orbit20, orbit20_features):
        for idx in (0, 7, 19):
            vis = np.flatnonzero(orbit20.visibility[idx])
            uv, _ = project(orbit20.cameras[idx], orbit20.points[vis])
            np.testing.assert_allclose(
                orbit20_features[idx].keypoints, uv.astype(np.float32), atol=1e-4)

    def test_descriptors_match_points(self, orbit20, orbit20_features):
        vis = np.flatnonzero(orbit20.visibility[3])
        expected = orbit20.point_descriptors[vis].astype(np.float32)
        np.testing.assert_allclose(orbit20_features[3].descriptors, expected,
                                   atol=1e-6)

    def test_identical_visibility_identical_globals(self, orbit20):
        # duplicating a camera pose duplicates its visibility row
        cameras = orbit20.cameras + (orbit20.cameras[0],)
        vis = compute_visibility(cameras, orbit20.points, orbit20.image_size)
        scene = dataclasses.replace(orbit20, cameras=cameras, visibility=vis)
        feats = render_features(scene)
        np.testing.assert_array_equal(vis[0], vis[-1])
        np.testing.assert_array_equal(feats[0].global_desc, feats[-1].global_desc)
        cos = float(feats[0].global_desc @ feats[-1].global_desc)
        assert cos == pytest.approx(1.0, abs=1e-6)

    def test_noise_free_mutual_nn_recovers_covisible(self, orbit20, orbit20_features):
        i, j = 4, 5
        fa, fb = orbit20_features[i], orbit20_features[j]
        vis_a = np.flatnonzero(orbit20.visibility[i])
        vis_b = np.flatnonzero(orbit20.visibility[j])
        covis = set(vis_a) & set(vis_b)
        matches = mutual_nn_matches(fa, fb, b=fa.n_keypoints + fb.n_keypoints)
        matched_points = {(vis_a[c.idx_a], vis_b[c.idx_b]) for c in matches}
        for p in covis:
            assert (p, p) in matched_points

    def test_valid_features(self, orbit20_features):
        for feats in orbit20_features:
            feats.validate()
        assert [f.image_id for f in orbit20_features] == \
            [f"view_{i:04d}" for i in range(20)]

    def test_pixel_noise_perturbs(self):
        noisy = dataclasses.replace(generate_orbit_scene(4, 100, seed=2), noise_px=1.0)
        clean = render_features(dataclasses.replace(noisy, noise_px=0.0))
        perturbed = render_features(noisy)
        delta = perturbed[0].keypoints - clean[0].keypoints
        assert 0.0 < np.abs(delta).max() < 6.0

    def test_zero_global_descriptor_fails(self):
        # the last camera's visible point descriptors are centred, so they sum to 0
        scene = generate_orbit_scene(4, 100, seed=2)
        desc = scene.point_descriptors.copy()
        vis = scene.visibility[3]
        desc[vis] -= desc[vis].mean(axis=0)
        with pytest.raises(GenerationFailure, match="camera 3: degenerate global"):
            render_features(dataclasses.replace(scene, point_descriptors=desc))

    def test_descriptor_noise_perturbs(self):
        noisy = dataclasses.replace(generate_orbit_scene(4, 100, seed=2), noise_desc=0.1)
        clean = render_features(dataclasses.replace(noisy, noise_desc=0.0))
        perturbed, again = render_features(noisy), render_features(noisy)
        for c, p, a in zip(clean, perturbed, again):
            assert p.descriptors.dtype == np.float32
            np.testing.assert_allclose(np.linalg.norm(p.descriptors, axis=1), 1.0, atol=1e-6)
            assert not np.array_equal(p.descriptors, c.descriptors)
            assert p.descriptors.tobytes() == a.descriptors.tobytes()
            # globals come from the noise-free point descriptors
            assert p.global_desc.tobytes() == c.global_desc.tobytes()
            np.testing.assert_array_equal(p.keypoints, c.keypoints)


class TestOracleTruth:
    def test_self_pair(self, orbit20):
        truth = oracle_pair_truth(orbit20, 3, 3)
        assert truth.overlap_fraction == 1.0
        assert truth.median_parallax == 0.0
        np.testing.assert_array_equal(truth.rotation, np.eye(3))
        np.testing.assert_array_equal(truth.translation, np.zeros(3))

    def test_antipodal_disjoint(self):
        scene = generate_orbit_scene(36, 400, seed=0)
        truth = oracle_pair_truth(scene, 0, 18)
        vis = scene.visibility
        assert not (vis[0] & vis[18]).any()
        assert truth.overlap_fraction == 0.0
        assert truth.median_parallax == 0.0

    def test_adjacent_parallax_matches_chord_construction(self):
        # 36 cameras, 10 degrees apart on the orbit: check each covisible
        # point against the law-of-cosines angle for the chord
        scene = generate_orbit_scene(36, 400, radius=5.0, seed=0)
        ci, cj = scene.cameras[0].center, scene.cameras[1].center
        chord = 2.0 * 5.0 * math.sin(5.0 * DEG)
        assert np.linalg.norm(ci - cj) == pytest.approx(chord)
        covis = np.flatnonzero(scene.visibility[0] & scene.visibility[1])
        angles = []
        for p in scene.points[covis]:
            d1, d2 = np.linalg.norm(ci - p), np.linalg.norm(cj - p)
            cos_t = (d1 ** 2 + d2 ** 2 - chord ** 2) / (2.0 * d1 * d2)
            angles.append(math.acos(min(1.0, max(-1.0, cos_t))))
        angles.sort()
        truth = oracle_pair_truth(scene, 0, 1)
        assert truth.median_parallax == pytest.approx(
            angles[(len(angles) - 1) // 2], abs=1e-12)

    def test_relative_pose_composition(self, orbit20):
        truth = oracle_pair_truth(orbit20, 2, 9)
        ri, rj = orbit20.cameras[2].rotation, orbit20.cameras[9].rotation
        np.testing.assert_allclose(truth.rotation, rj @ ri.T, atol=1e-12)
        expected_t = rj @ (orbit20.cameras[2].center - orbit20.cameras[9].center)
        expected_t /= np.linalg.norm(expected_t)
        np.testing.assert_allclose(truth.translation, expected_t, atol=1e-12)
        assert np.linalg.norm(truth.translation) == pytest.approx(1.0)

    def test_overlap_formula(self, orbit20):
        truth = oracle_pair_truth(orbit20, 0, 1)
        vi, vj = orbit20.visibility[0], orbit20.visibility[1]
        expected = (vi & vj).sum() / math.sqrt(vi.sum() * vj.sum())
        assert truth.overlap_fraction == pytest.approx(expected, rel=1e-15)


class TestDumpScene:
    def test_dump_layout_and_reload(self, tmp_path):
        scene = generate_orbit_scene(6, 100, seed=5)
        manifest_path = dump_scene(scene, tmp_path / "ds")
        files = sorted(p.name for p in (tmp_path / "ds").iterdir())
        assert "manifest.json" in files
        assert "truth.npz" in files
        assert sum(name.endswith(".sarf") for name in files) == 6

        manifest = load_manifest(manifest_path)
        assert len(manifest) == 6
        feats = load_features(manifest, "view_0003")
        assert feats.intrinsics is not None
        vis = np.flatnonzero(scene.visibility[3])
        assert feats.n_keypoints == len(vis)

        truth = np.load(tmp_path / "ds" / "truth.npz")
        np.testing.assert_array_equal(truth["points"], scene.points)
        np.testing.assert_array_equal(truth["visibility"], scene.visibility)
        assert truth["rotations"].shape == (6, 3, 3)
        assert truth["centers"].shape == (6, 3)
        assert float(truth["noise_px"]) == scene.noise_px
        assert int(truth["seed"]) == scene.seed

    def test_dump_deterministic_bytes(self, tmp_path):
        for name in ("d1", "d2"):
            dump_scene(generate_orbit_scene(5, 80, seed=7, noise_px=0.5),
                       tmp_path / name)
        for fname in sorted(p.name for p in (tmp_path / "d1").iterdir()):
            b1 = (tmp_path / "d1" / fname).read_bytes()
            b2 = (tmp_path / "d2" / fname).read_bytes()
            assert b1 == b2, fname
