import dataclasses
import math
import sys

import numpy as np
import pytest

from helpers import (K_DEFAULT, WIDTH, HEIGHT, essential_distance,
                     essential_from_pose, gen_frustum_pair, look_at_rot, per_count_refits,
                     project_pixels, random_rotation, robust_search, rot_geodesic,
                     stack_last, to_corrs)
import sara.epipolar as epipolar
from sara.epipolar import (_MATCH_DTYPE, TwoViewModel, _draw_samples, _fix_sign,
                           _fundamental_stack, _minimal_solve, _rank2, _winners, correspondences,
                           recover_pose, sampson_errors, short_ransac, triangulate_angles)
from sara.errors import CheiralityAmbiguity, InsufficientCorrespondences, NoModelFound

I3 = np.eye(3)
# a pixel threshold under which every finite Sampson error is an inlier, so
# the robust search's refit is the direct fit on all correspondences
EVERY_MATCH_PX = 1e9


def normalize(pts, K):
    """Pixels to normalized camera coordinates, as a calibrated search maps them for its pose."""
    return (np.column_stack([pts, np.ones(len(pts))]) @ np.linalg.inv(K).T)[:, :2]


def fit_fundamental(corrs):
    """Eight-point fit on all of ``corrs``, which must not be degenerate."""
    F, ok = _fundamental_stack(stack_last(corrs.x_a[None], corrs.x_b[None]))
    assert ok[0]
    return F[0]


def fit_essential(corrs, K_a, K_b):
    """Direct calibrated fit on all of ``corrs``, as a robust search whose
    threshold admits every match."""
    return robust_search(corrs, calib=(K_a, K_b), inlier_threshold=EVERY_MATCH_PX)


def random_pose_case(seed, n=20):
    """Two look-at cameras around a unit cloud, exact normalized coords."""
    r = np.random.default_rng(seed)
    ca = r.normal(size=3)
    ca *= r.uniform(3.0, 6.0) / np.linalg.norm(ca)
    cb = r.normal(size=3)
    cb *= r.uniform(3.0, 6.0) / np.linalg.norm(cb)
    ra, rb = look_at_rot(ca, np.zeros(3)), look_at_rot(cb, np.zeros(3))
    pts = r.uniform(-1, 1, size=(n * 2, 3))
    za = ((pts - ca) @ ra.T)[:, 2]
    zb = ((pts - cb) @ rb.T)[:, 2]
    pts = pts[(za > 0.5) & (zb > 0.5)][:n]
    rel_r = rb @ ra.T
    rel_t = rb @ (ca - cb)
    rel_t = rel_t / np.linalg.norm(rel_t)
    cam_a = (pts - ca) @ ra.T
    cam_b = (pts - cb) @ rb.T
    na = cam_a[:, :2] / cam_a[:, 2:3]
    nb = cam_b[:, :2] / cam_b[:, 2:3]
    return na, nb, rel_r, rel_t


def one_pose(E, na, nb):
    """(R, t, angles) of ``recover_pose`` on a stack of one, every match an
    inlier; the CheiralityAmbiguity it returns is raised."""
    result, = recover_pose(E[None], na[None], nb[None], np.ones((1, len(na)), dtype=bool))
    if isinstance(result, CheiralityAmbiguity):
        raise result
    return result


def pure_rotation_pair(n):
    """Pixels of n points seen from one center under two rotations. With zero
    baseline all correspondences satisfy a homography, and the epipolar
    constraint has no unique rank-8 solution."""
    ca = np.array([5.0, 0.0, 0.0])
    ra = look_at_rot(ca, np.zeros(3))
    rb = random_rotation(np.random.default_rng(1)) @ ra
    pts = np.random.default_rng(4).normal(size=(n, 3))
    return project_pixels(pts, ra, ca, K_DEFAULT), project_pixels(pts, rb, ca, K_DEFAULT)


class TestFundamental:
    def test_exact_minimal_sample(self):
        case = gen_frustum_pair(np.random.default_rng(0), n=8)
        corrs = to_corrs(case.kp_a, case.kp_b)
        F = fit_fundamental(corrs)
        assert sampson_errors(F, corrs.x_a, corrs.x_b).max() < 1e-8

    def test_generalizes_to_held_out(self):
        case = gen_frustum_pair(np.random.default_rng(1), n=60)
        corrs = to_corrs(case.kp_a, case.kp_b)
        F = fit_fundamental(corrs[:30])
        assert sampson_errors(F, corrs.x_a[30:], corrs.x_b[30:]).max() < 1e-8

    def test_unit_frobenius_and_rank2(self):
        case = gen_frustum_pair(np.random.default_rng(2), n=24)
        F = fit_fundamental(to_corrs(case.kp_a, case.kp_b))
        assert np.linalg.norm(F) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.svd(F, compute_uv=False)[2] < 1e-12

    def test_coincident_points_degenerate(self):
        kp = np.tile(np.array([[100.0, 200.0]]), (8, 1))
        _, ok = _fundamental_stack(stack_last(kp[None], (kp + 5.0)[None]))
        assert not ok[0]

    def test_pure_rotation_degenerate(self):
        kp_a, kp_b = pure_rotation_pair(30)
        _, ok = _fundamental_stack(stack_last(kp_a[None], kp_b[None]))
        assert not ok[0]

    def test_minimal_qr_agrees_with_svd(self):
        # 200 generic 8-sets, half noisy views of a scene and half uniform junk
        sets = []
        for seed in range(200):
            r = np.random.default_rng(seed)
            if seed % 2:
                case = gen_frustum_pair(r, n=8, noise_px=0.5)
                sets.append((case.kp_a, case.kp_b))
            else:
                sets.append(tuple(np.column_stack([r.uniform(0, WIDTH, 8), r.uniform(0, HEIGHT, 8)])
                                  for _ in range(2)))
        models, ok = _fundamental_stack(stack_last(*(np.stack(p) for p in zip(*sets))))
        assert ok.all()
        for (pa, pb), model in zip(sets, models):
            (Ta, na, _), (Tb, nb, _) = hartley(pa), hartley(pb)
            A = design(na, nb)
            (fh, householder_ok), (fq, qr_ok) = householder_null(A), qr_null(A)
            fs, svd_ok = svd_null(A)
            assert householder_ok and qr_ok and svd_ok
            # the numpy reflectors applied to e9 are LAPACK's Q e9, whose
            # reflectors take the same signs, and the SVD's null vector up to
            # rounding: at most 1.4e-14 and 2.7e-14 here
            assert np.abs(fh - fq).max() < 1e-13
            assert min(np.abs(fh - fs).max(), np.abs(fh + fs).max()) < 1e-12
            assert min(np.abs(fq - fs).max(), np.abs(fq + fs).max()) < 1e-12
            Fc, Fs = ref_fundamental(pa, pb), ref_fundamental(pa, pb, svd_null, svd_rank2)
            assert model.tobytes() == Fc.tobytes()
            # de-normalization scales a difference in the normalized frame by up
            # to ||Ta|| ||Tb|| ||G||, G the normalized-frame model whose
            # de-normalization is the unit F; most sets keep that gain below
            # 100, and one here reaches 8190
            G = np.linalg.inv(Tb).T @ Fc @ np.linalg.inv(Ta)
            gain = np.linalg.norm(Ta, 2) * np.linalg.norm(Tb, 2) * np.linalg.norm(G)
            assert np.abs(Fc - Fs).max() <= 1e-14 * gain

    @pytest.mark.parametrize("family", ["repeated_point", "coincident", "pure_rotation"])
    def test_minimal_degenerate_rejected_by_both_criteria(self, family):
        if family == "repeated_point":
            case = gen_frustum_pair(np.random.default_rng(60), n=8, noise_px=0.5)
            pa, pb = case.kp_a.copy(), case.kp_b.copy()
            pa[1], pb[1] = pa[0], pb[0]
        elif family == "coincident":
            pa = np.tile(np.array([[100.0, 200.0]]), (8, 1))
            pb = pa + 5.0
        else:
            pa, pb = pure_rotation_pair(8)
        (_, na, _), (_, nb, _) = hartley(pa), hartley(pb)
        A = design(na, nb)
        assert not householder_null(A)[1]
        assert not qr_null(A)[1]
        assert not svd_null(A)[1]
        _, ok = _fundamental_stack(stack_last(pa[None], pb[None]))
        assert not ok[0]

    def test_rank2_step_on_hard_inputs(self):
        # spectra that vanish, meet or nearly meet, 64 random orientations
        # each, a zero row and exact diagonal matrices, in one stack. Every
        # result is finite and rank-2 and equals the scalar reference bit for
        # bit. Where sigma_2 - sigma_3 >= 1e-6 sigma_1 it lies within 100 eps
        # sigma_1^2 / (sigma_2 - sigma_3) of the SVD projection: the size of
        # LAPACK's own error in sigma_3's singular vector, times 100
        r = np.random.default_rng(63)

        def orientations():
            return np.linalg.qr(r.normal(size=(64, 3, 3)))[0]

        spectra = [(1.0, 0.5, 0.0), (1.0, 0.3, 1e-14), (1.0, 0.2, 0.2), (0.7, 0.7, 0.7),
                   (1.0, 0.5 + 1e-6, 0.5 - 1e-6), (1.0, 2e-6, 5e-7), (1.0, 1.0, 0.5)]
        zero_row = r.normal(size=(64, 3, 3))
        zero_row[:, 1] = 0.0
        exact = [np.eye(3), np.diag([2.0, 1.0, 1.0]), np.diag([1.0, 1.0, 2.0]),
                 np.diag([3.0, 2.0, 1.0]), np.zeros((3, 3))]
        G = np.concatenate([orientations() * np.array(s) @ orientations() for s in spectra]
                           + [zero_row, exact])
        F = _rank2(G)
        assert np.isfinite(F).all()
        U, sg, Vt = np.linalg.svd(G)
        assert (np.linalg.svd(F, compute_uv=False)[:, 2] <= 1e-12 * sg[:, 0]).all()
        gap = sg[:, 1] - sg[:, 2]
        checked = (gap > 0.0) & (gap >= 1e-6 * sg[:, 0])
        sg[:, 2] = 0.0
        err = np.abs(F - (U * sg[:, None, :]) @ Vt).max(axis=(1, 2))
        bound = 100 * np.finfo(float).eps * sg[:, 0] ** 2 / np.where(checked, gap, 1.0)
        assert (err <= bound)[checked].all()
        # the bound holds on every spectrum but the two that meet, and on the
        # zero rows and the distinct diagonal
        assert checked.sum() == 64 * 6 + 1
        for g, f in zip(G, F):
            assert closed_form_rank2(g).tobytes() == f.tobytes()

    def test_strided_stack_equals_one_set_solves(self):
        # sets of 23, 8, 9, 40, 23 and 8 points cut from one point array by
        # fancy indexing and zero-padded, as short_ransac cuts its refits,
        # and the same sets unpadded in a strided view when their sizes are
        # equal: each set's model keeps the bits of a contiguous one-set solve
        rng = np.random.default_rng(21)
        case = gen_frustum_pair(rng, n=60, noise_px=0.5)
        joined = np.zeros((2, 2, 61))
        joined[0, :, :60], joined[1, :, :60] = case.kp_a.T, case.kp_b.T
        subsets = [np.sort(rng.choice(60, n, replace=False)) for n in (23, 8, 9, 40, 23, 8)]
        sizes = np.array([len(idx) for idx in subsets])
        padded = np.full((sizes.max(), len(subsets)), 60)
        for k, idx in enumerate(subsets):
            padded[:len(idx), k] = idx
        models, ok = _fundamental_stack(joined[:, :, padded], sizes)
        assert ok.all()
        for idx, model in zip(subsets, models):
            one, one_ok = _fundamental_stack(np.ascontiguousarray(joined[:, :, idx, None]))
            assert one_ok[0]
            assert model.tobytes() == one[0].tobytes()
        for n in (23, 8):
            same = [idx for idx in subsets if len(idx) == n]
            strided = stack_last(case.kp_a[same], case.kp_b[same])
            assert not strided.flags.c_contiguous
            want = [model for idx, model in zip(subsets, models) if len(idx) == n]
            assert _fundamental_stack(strided)[0].tobytes() == np.stack(want).tobytes()

    def test_minimal_solve_equals_scalar_reference_and_stack_of_one(self):
        # 8-sets of scene views, junk, a repeated point, coincident points (a
        # zero column in the QR) and a pure rotation, in one stack: each
        # set's rank-2 model and mask equal the scalar reference of the
        # arithmetic bit for bit, and a stack of one
        sets = []
        for seed in range(40):
            r = np.random.default_rng(seed)
            case = gen_frustum_pair(r, n=8, noise_px=0.5)
            sets.append((case.kp_a, case.kp_b))
            sets.append(tuple(np.column_stack([r.uniform(0, WIDTH, 8), r.uniform(0, HEIGHT, 8)])
                              for _ in range(2)))
        repeated_a, repeated_b = sets[0][0].copy(), sets[0][1].copy()
        repeated_a[1], repeated_b[1] = repeated_a[0], repeated_b[0]
        coincident = np.tile(np.array([[100.0, 200.0]]), (8, 1))
        sets += [(repeated_a, repeated_b), (coincident, coincident + 5.0), pure_rotation_pair(8)]
        designs = [design(hartley(pa)[1], hartley(pb)[1]) for pa, pb in sets]
        At = np.stack(designs, axis=2).transpose(1, 0, 2).copy()   # (9, 8, h)
        G, solvable = _minimal_solve(At.copy())
        assert np.isfinite(G).all()
        assert solvable.sum() == len(sets) - 3 and not solvable[-3:].any()
        for k, A in enumerate(designs):
            f, accepted = householder_null(A)
            assert solvable[k] == accepted
            assert G[k].tobytes() == closed_form_rank2(f.reshape(3, 3)).tobytes()
            one, one_ok = _minimal_solve(At[:, :, k:k + 1].copy())
            assert one.tobytes() == G[k:k + 1].tobytes() and one_ok[0] == solvable[k]

    def test_minimal_null_vector_on_hard_spectra(self, monkeypatch):
        # 8x9 design matrices with sigma_1 / sigma_8 from 10 to 1e9, 64
        # random orientations each, in one stack: each null vector the
        # reflectors give lies within 100 eps sigma_1 / sigma_8 of LAPACK's
        # complete-QR Q e9 (same sign) and of the SVD's null vector (either
        # sign), the size of a backward-stable solver's own error times 100.
        # The worst seen is 0.45 eps sigma_1 / sigma_8
        r = np.random.default_rng(64)
        designs, conds, nulls = [], [], []
        for cond in (1e1, 1e3, 1e5, 1e7, 1e9):
            for _ in range(64):
                U = np.linalg.qr(r.normal(size=(8, 8)))[0]
                V = np.linalg.qr(r.normal(size=(9, 9)))[0]
                sv = np.sort(np.exp(r.uniform(0.0, math.log(cond), 8)))[::-1]
                sv[0], sv[-1] = cond, 1.0
                designs.append((U * sv) @ V[:8])
                conds.append(cond)
                nulls.append(V[8])
        rank2, seen = epipolar._rank2, []
        monkeypatch.setattr(epipolar, "_rank2", lambda G: seen.append(G.copy()) or rank2(G))
        _, solvable = _minimal_solve(np.stack(designs, axis=2).transpose(1, 0, 2).copy())
        assert solvable.all()
        eps = np.finfo(float).eps
        for A, cond, fs, f in zip(designs, conds, nulls, seen[0].reshape(-1, 9)):
            fq = qr_null(A)[0]
            bound = 100 * eps * cond
            assert np.abs(f - fq).max() <= bound
            assert min(np.abs(f - fs).max(), np.abs(f + fs).max()) <= bound

    def test_deterministic(self):
        case = gen_frustum_pair(np.random.default_rng(5), n=16)
        corrs = to_corrs(case.kp_a, case.kp_b)
        f1 = fit_fundamental(corrs)
        f2 = fit_fundamental(corrs.copy())
        np.testing.assert_array_equal(f1, f2)


class TestEssential:
    def test_matches_pose_construction(self):
        na, nb, R, t = random_pose_case(10)
        E = fit_essential(to_corrs(na, nb), I3, I3).matrix
        assert essential_distance(E, essential_from_pose(R, t)) < 1e-9

    def test_sideways_translation_gives_skew(self):
        # R = I, t = +x: E is the cross-product matrix of (1, 0, 0)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(24, 3)) + np.array([0.0, 0.0, 4.0])
        t = np.array([1.0, 0.0, 0.0])
        cam_b = pts + t
        na = pts[:, :2] / pts[:, 2:3]
        nb = cam_b[:, :2] / cam_b[:, 2:3]
        E = fit_essential(to_corrs(na, nb), I3, I3).matrix
        expected = essential_from_pose(np.eye(3), t)
        assert essential_distance(E, expected) < 1e-9
        assert abs(E[1, 2]) == pytest.approx(1.0, abs=1e-9)
        assert E[1, 2] == pytest.approx(-E[2, 1], abs=1e-9)

    def test_essential_singular_values(self):
        case = gen_frustum_pair(np.random.default_rng(12), n=40)
        E = fit_essential(to_corrs(case.kp_a, case.kp_b),
                          case.intrinsics, case.intrinsics).matrix
        s = np.linalg.svd(E, compute_uv=False)
        assert s[0] == pytest.approx(1.0, abs=1e-12)
        assert s[1] == pytest.approx(1.0, abs=1e-12)
        assert s[2] < 1e-12

    def test_pixel_intrinsics_equivalent(self):
        case = gen_frustum_pair(np.random.default_rng(13), n=40)
        E = fit_essential(to_corrs(case.kp_a, case.kp_b),
                          case.intrinsics, case.intrinsics).matrix
        expected = essential_from_pose(case.rel_rotation, case.rel_translation)
        assert essential_distance(E, expected) < 1e-9

    def test_one_px_noise_wide_baseline(self):
        # direct (non-robust) fit should still land within half a degree
        errors = []
        for seed in range(10):
            case = gen_frustum_pair(np.random.default_rng(300 + seed), n=120,
                                    separation_deg=60.0, noise_px=1.0)
            corrs = to_corrs(case.kp_a, case.kp_b)
            model = fit_essential(corrs, case.intrinsics, case.intrinsics)
            errors.append(math.degrees(rot_geodesic(model.rotation, case.rel_rotation)))
        assert np.median(errors) < 0.5


class TestSampson:
    def test_exact_is_zero(self):
        case = gen_frustum_pair(np.random.default_rng(20), n=20)
        corrs = to_corrs(case.kp_a, case.kp_b)
        F = fit_fundamental(corrs)
        assert (sampson_errors(F, corrs.x_a, corrs.x_b) < 1e-12).all()

    def test_tracks_epipolar_distance(self):
        # offset a true correspondence 2 px across its epipolar line; the
        # oracle is the smaller of the two exact point-to-line distances
        case = gen_frustum_pair(np.random.default_rng(21), n=20,
                                separation_deg=40.0)
        corrs = to_corrs(case.kp_a, case.kp_b)
        F = fit_fundamental(corrs)
        for i in range(20):
            line_b = F @ np.append(case.kp_a[i], 1.0)
            nvec = line_b[:2] / np.linalg.norm(line_b[:2])
            xb = case.kp_b[i] + 2.0 * nvec
            (err,) = sampson_errors(F, case.kp_a[i:i + 1], xb[None])
            d_b = abs(np.append(xb, 1.0) @ line_b) / np.linalg.norm(line_b[:2])
            line_a = F.T @ np.append(xb, 1.0)
            d_a = abs(np.append(case.kp_a[i], 1.0) @ line_a) / np.linalg.norm(line_a[:2])
            oracle = min(d_a, d_b) ** 2
            assert oracle / 2.0 <= err <= oracle * 2.0

    def test_epipole_is_inf(self):
        # forward motion puts both epipoles at the principal point
        E = essential_from_pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
        assert sampson_errors(E, np.zeros((1, 2)), np.zeros((1, 2)))[0] == math.inf

    def test_zero_row_is_inf_and_keeps_the_other_rows(self):
        # short_ransac pads each search's points with all-zero homogeneous
        # rows: against any (s, h, 3, 3) model stack their error is +inf, so
        # no padding row is an inlier, and the real rows keep the bits of
        # an unpadded pass
        r = np.random.default_rng(23)
        for s, h, m, pad in ((1, 1, 8, 1), (3, 32, 50, 1), (4, 7, 20, 31)):
            M = r.normal(size=(s, h, 3, 3)) * 10.0 ** r.uniform(-6, 6, size=(s, h, 1, 1))
            ha, hb = np.zeros((2, s, 1, m + pad, 3))
            ha[..., :m, :2], hb[..., :m, :2] = r.uniform(0, WIDTH, size=(2, s, 1, m, 2))
            ha[..., :m, 2] = hb[..., :m, 2] = 1.0
            with np.errstate(all="raise"):
                padded = epipolar._sampson(M, ha, hb)
            assert padded.shape == (s, h, m + pad)
            assert (padded[..., m:] == math.inf).all()
            unpadded = epipolar._sampson(M, ha[..., :m, :].copy(), hb[..., :m, :].copy())
            assert padded[..., :m].tobytes() == unpadded.tobytes()

    def test_one_model_or_a_stack(self):
        # a (3, 3) model gives (m,) errors, an (h, 3, 3) stack (h, m); each
        # stacked row has the bits of its model's own call
        case = gen_frustum_pair(np.random.default_rng(22), n=40, noise_px=1.0)
        corrs = to_corrs(case.kp_a, case.kp_b)
        models, _ = _fundamental_stack(stack_last(corrs.x_a[:24].reshape(3, 8, 2),
                                                  corrs.x_b[:24].reshape(3, 8, 2)))
        stacked = sampson_errors(models, corrs.x_a, corrs.x_b)
        assert stacked.shape == (3, 40)
        for h in range(3):
            single = sampson_errors(models[h], corrs.x_a, corrs.x_b)
            assert single.shape == (40,)
            np.testing.assert_array_equal(stacked[h], single)


class TestShortRansac:
    def test_clean_uncalibrated(self):
        case = gen_frustum_pair(np.random.default_rng(30), n=50)
        corrs = to_corrs(case.kp_a, case.kp_b)
        model = robust_search(corrs, rng=np.random.default_rng(0))
        assert model.rotation is None and model.translation is None
        np.testing.assert_array_equal(model.inliers, np.arange(50))

    def test_clean_calibrated(self):
        case = gen_frustum_pair(np.random.default_rng(31), n=50)
        corrs = to_corrs(case.kp_a, case.kp_b)
        model = robust_search(corrs, calib=(case.intrinsics, case.intrinsics),
                              rng=np.random.default_rng(0))
        assert model.rotation is not None
        np.testing.assert_array_equal(model.inliers, np.arange(50))
        assert rot_geodesic(model.rotation, case.rel_rotation) < 1e-6
        assert np.linalg.norm(model.translation - case.rel_translation) < 1e-6
        assert model.triangulation_angles.shape == (50,)

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_forty_percent_outliers(self, calibrated):
        # 30 planted inliers, 20 uniform junk points
        case = gen_frustum_pair(np.random.default_rng(1000), n=30,
                                separation_deg=35.0)
        r2 = np.random.default_rng(2000)
        junk_a = np.column_stack([r2.uniform(0, WIDTH, 20), r2.uniform(0, HEIGHT, 20)])
        junk_b = np.column_stack([r2.uniform(0, WIDTH, 20), r2.uniform(0, HEIGHT, 20)])
        corrs = to_corrs(np.vstack([case.kp_a, junk_a]), np.vstack([case.kp_b, junk_b]))
        calib = (case.intrinsics, case.intrinsics) if calibrated else None
        model = robust_search(corrs, calib=calib, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(model.inliers, np.arange(30))

    def test_too_few(self):
        case = gen_frustum_pair(np.random.default_rng(32), n=8)
        with pytest.raises(InsufficientCorrespondences):
            robust_search(to_corrs(case.kp_a, case.kp_b)[:7])

    def test_all_junk_no_model(self):
        rng = np.random.default_rng(33)
        kp_a = np.column_stack([rng.uniform(0, WIDTH, 40), rng.uniform(0, HEIGHT, 40)])
        kp_b = np.column_stack([rng.uniform(0, WIDTH, 40), rng.uniform(0, HEIGHT, 40)])
        with pytest.raises(NoModelFound):
            robust_search(to_corrs(kp_a, kp_b), calib=(K_DEFAULT, K_DEFAULT),
                          rng=np.random.default_rng(0))

    def test_inliers_satisfy_threshold(self):
        # by construction: stored inliers are recomputed against the refit model
        case = gen_frustum_pair(np.random.default_rng(34), n=80, noise_px=1.5)
        corrs = to_corrs(case.kp_a, case.kp_b)
        threshold = 3.0
        model = robust_search(corrs, iterations=64, inlier_threshold=threshold,
                              rng=np.random.default_rng(0))
        errs = sampson_errors(model.matrix, corrs.x_a, corrs.x_b)
        assert (errs[model.inliers] < threshold ** 2).all()

    @pytest.mark.parametrize("unequal_focal", [False, True], ids=["equal_focal", "doubled_focal"])
    def test_calibrated_inliers_are_the_pixel_threshold_matches(self, unequal_focal):
        # the stored inliers are exactly the matches within the pixel
        # threshold of K_b^-T E K_a^-1, also where image b's focal length is
        # twice image a's
        if unequal_focal:
            case = gen_frustum_pair(np.random.default_rng(0), n=80, noise_px=1.5)
            corrs, K_a, K_b = doubled_focal(case)
            threshold = 2.0
        else:
            case = gen_frustum_pair(np.random.default_rng(35), n=80, noise_px=1.0)
            corrs, K_a, K_b = to_corrs(case.kp_a, case.kp_b), case.intrinsics, case.intrinsics
            threshold = 4.0
        model = robust_search(corrs, calib=(K_a, K_b), inlier_threshold=threshold,
                              rng=np.random.default_rng(0))
        pixel = np.linalg.inv(K_b).T @ model.matrix @ np.linalg.inv(K_a)
        errs = sampson_errors(pixel, corrs.x_a, corrs.x_b)
        np.testing.assert_array_equal(model.inliers, np.flatnonzero(errs < threshold ** 2))

    def test_deterministic_given_seed(self):
        case = gen_frustum_pair(np.random.default_rng(36), n=60, noise_px=1.0)
        corrs = to_corrs(case.kp_a, case.kp_b)
        m1 = robust_search(corrs, rng=np.random.default_rng(9), inlier_threshold=4.0)
        m2 = robust_search(corrs, rng=np.random.default_rng(9), inlier_threshold=4.0)
        np.testing.assert_array_equal(m1.inliers, m2.inliers)
        np.testing.assert_array_equal(m1.matrix, m2.matrix)


class TestCorrespondences:
    @pytest.mark.parametrize("m", [0, 1, 50])
    def test_equals_fromarrays(self, m):
        r = np.random.default_rng(m)
        idx_a, idx_b = r.permutation(m), r.permutation(m)
        x_a = r.uniform(0.0, WIDTH, size=(m, 2)).astype(np.float32)
        x_b = r.uniform(0.0, HEIGHT, size=(m, 2))
        sim = r.uniform(-1.0, 1.0, size=m)
        got = correspondences(idx_a, idx_b, x_a, x_b, sim)
        want = np.rec.fromarrays([idx_a, idx_b, x_a, x_b, sim], dtype=_MATCH_DTYPE)
        assert isinstance(got, np.recarray) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        if m:
            assert got[m - 1].idx_b == idx_b[-1]
            np.testing.assert_array_equal(got.x_a, x_a.astype(np.float64))


class TestRecoverPose:
    def test_random_poses_recovered_exactly(self):
        for seed in range(1000):
            na, nb, R, t = random_pose_case(seed)
            if len(na) < 10:
                continue
            E = essential_from_pose(R, t)
            rr, tr, _ = one_pose(E, na, nb)
            assert np.linalg.norm(rr - R) < 1e-9
            assert np.linalg.norm(tr - t) < 1e-9

    def test_forward_motion_identity(self):
        rng = np.random.default_rng(40)
        pts = rng.uniform(-1, 1, size=(20, 3)) + np.array([0.0, 0.0, 5.0])
        t = np.array([0.0, 0.0, 1.0])
        cam_b = pts + t
        na = pts[:, :2] / pts[:, 2:3]
        nb = cam_b[:, :2] / cam_b[:, 2:3]
        E = essential_from_pose(np.eye(3), t)
        R, tr, _ = one_pose(E, na, nb)
        assert np.linalg.norm(R - np.eye(3)) < 1e-9
        assert np.linalg.norm(tr - t) < 1e-9

    def test_parallel_rays_ambiguous(self):
        # identical pixels in both views cannot vote for any decomposition:
        # the ambiguity is returned, never raised, so it holds no traceback
        rng = np.random.default_rng(41)
        na = rng.uniform(-0.5, 0.5, size=(20, 2))
        E = essential_from_pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        result, = recover_pose(E[None], na[None], na[None], np.ones((1, 20), dtype=bool))
        assert isinstance(result, CheiralityAmbiguity)
        assert str(result) == "best decomposition sees 0/20 points in front"
        assert result.__traceback__ is None

    def test_minority_behind_left_out(self):
        # 4 of 20 points sit behind both cameras: they fall out of the
        # in-front mask, and the 16 in front still pick the true pose
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1, 1, size=(20, 3))
        pts[:, 2] = np.where(np.arange(20) < 4, -1.0, 1.0) * rng.uniform(4.0, 6.0, 20)
        c, s = math.cos(0.1), math.sin(0.1)
        R = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        t = np.array([1.0, 0.2, 0.0]) / math.hypot(1.0, 0.2)
        cam_b = pts @ R.T + t
        na = pts[:, :2] / pts[:, 2:3]
        nb = cam_b[:, :2] / cam_b[:, 2:3]
        rr, tr, angles = one_pose(essential_from_pose(R, t), na, nb)
        assert np.linalg.norm(rr - R) < 1e-9
        assert np.linalg.norm(tr - t) < 1e-9
        theta, in_front = triangulate_angles(rr, tr, na, nb)
        np.testing.assert_array_equal(in_front, np.arange(20) >= 4)
        np.testing.assert_array_equal(angles, theta)


    def test_one_stacked_triangulation(self, monkeypatch):
        # structure, not timing: the four decompositions of every row go to
        # triangulate_angles together, as one (s, 4, 3, 3) / (s, 4, 3) stack
        # over all m matches of each row, (s, 1, m, 2)
        triangulate, calls = triangulate_angles, []

        def recording(R, t, na, nb):
            calls.append((np.shape(R), np.shape(t), np.shape(na), np.shape(nb)))
            return triangulate(R, t, na, nb)

        monkeypatch.setattr("sara.epipolar.triangulate_angles", recording)
        cases = [random_pose_case(seed) for seed in (3, 5, 6)]
        assert {len(na) for na, *_ in cases} == {20}
        E = np.stack([essential_from_pose(R, t) for _, _, R, t in cases])
        na, nb = (np.stack([case[k] for case in cases]) for k in (0, 1))
        inliers = np.ones((3, 20), dtype=bool)
        inliers[1, :6] = False
        poses = recover_pose(E, na, nb, inliers)
        assert calls == [((3, 4, 3, 3), (3, 4, 3), (3, 1, 20, 2), (3, 1, 20, 2))]
        for (rr, tr, angles), (_, _, R, t), mask in zip(poses, cases, inliers):
            assert np.linalg.norm(rr - R) < 1e-9 and np.linalg.norm(tr - t) < 1e-9
            assert angles.shape == (mask.sum(),)

    def test_stack_equals_inlier_rows_alone(self):
        # each row of a stacked call, with its inlier mask, holds the bits of
        # a stack of one on that row's inlier matches alone: the search's
        # own inliers, and random subsets that move every kept match to
        # another position in its array
        r = np.random.default_rng(43)
        E, na, nb, masks = [], [], [], []
        for seed in range(600, 640):
            corrs, K = with_outliers(seed, 35, 15, noise_px=0.5, separation_deg=30.0)
            try:
                model = robust_search(corrs, calib=(K, K), rng=philox(seed))
            except NoModelFound:
                continue
            subset = r.random(50) < r.uniform(0.2, 0.9)
            for mask in (np.isin(np.arange(50), model.inliers), subset):
                if mask.sum() >= 8:
                    E.append(model.matrix)
                    na.append(normalize(corrs.x_a, K))
                    nb.append(normalize(corrs.x_b, K))
                    masks.append(mask)
        assert len(E) >= 40
        E, na, nb, masks = map(np.stack, (E, na, nb, masks))
        stacked = recover_pose(E, na, nb, masks)
        assert not any(isinstance(x, CheiralityAmbiguity) for x in stacked)
        for k, (R, t, angles) in enumerate(stacked):
            keep = masks[k]
            alone, = recover_pose(E[k:k + 1], na[k:k + 1, keep], nb[k:k + 1, keep],
                                  np.ones((1, keep.sum()), dtype=bool))
            for got, want in zip((R, t, angles), alone):
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_ambiguous_row_keeps_the_others(self):
        # a row of parallel rays in the middle of a stack returns its
        # ambiguity, and the rows around it keep a stack of one's bits
        rows = [random_pose_case(seed) for seed in (3, 5, 6)]
        parallel = np.random.default_rng(41).uniform(-0.5, 0.5, size=(20, 2))
        E = np.stack([essential_from_pose(rows[0][2], rows[0][3]),
                      essential_from_pose(np.eye(3), np.array([1.0, 0.0, 0.0])),
                      essential_from_pose(rows[2][2], rows[2][3])])
        na = np.stack([rows[0][0], parallel, rows[2][0]])
        nb = np.stack([rows[0][1], parallel, rows[2][1]])
        inliers = np.ones((3, 20), dtype=bool)
        results = recover_pose(E, na, nb, inliers)
        assert isinstance(results[1], CheiralityAmbiguity)
        assert results[1].__traceback__ is None
        for k in (0, 2):
            alone, = recover_pose(E[k:k + 1], na[k:k + 1], nb[k:k + 1], inliers[k:k + 1])
            for got, want in zip(results[k], alone):
                assert got.tobytes() == want.tobytes()


class TestTriangulateAngles:
    def test_isoceles_right_angle(self):
        # baseline 1, point on the perpendicular bisector at depth 0.5
        t = np.array([-1.0, 0.0, 0.0])     # camera b sits at +x
        theta, in_front = triangulate_angles(np.eye(3), t, np.array([[1.0, 0.0]]),
                                             np.array([[-1.0, 0.0]]))
        assert theta[0] == pytest.approx(math.pi / 2, abs=1e-9)
        assert in_front[0]

    def test_matches_scene_oracle(self):
        case = gen_frustum_pair(np.random.default_rng(50), n=60)
        scale = np.linalg.norm(case.center_b - case.center_a)
        theta, in_front = triangulate_angles(
            case.rel_rotation, case.rel_translation * scale,
            normalize(case.kp_a, case.intrinsics), normalize(case.kp_b, case.intrinsics))
        np.testing.assert_allclose(theta, case.oracle_angles(), atol=1e-9)
        assert in_front.all()

    def test_parallel_rays_zero(self):
        rng = np.random.default_rng(51)
        kp = np.column_stack([rng.uniform(0, WIDTH, 15), rng.uniform(0, HEIGHT, 15)])
        n = normalize(kp, K_DEFAULT)
        theta, in_front = triangulate_angles(np.eye(3), np.array([1e-13, 0.0, 0.0]), n, n)
        np.testing.assert_array_equal(theta, np.zeros(15))
        assert not in_front.any()

    def test_scale_invariance(self):
        # doubling the whole scene (baseline included) leaves angles unchanged
        case = gen_frustum_pair(np.random.default_rng(52), n=40)
        na, nb = normalize(case.kp_a, case.intrinsics), normalize(case.kp_b, case.intrinsics)
        scale = np.linalg.norm(case.center_b - case.center_a)
        t1 = case.rel_translation * scale
        a1, front1 = triangulate_angles(case.rel_rotation, t1, na, nb)
        a2, front2 = triangulate_angles(case.rel_rotation, 2.0 * t1, na, nb)
        np.testing.assert_allclose(a1, a2, atol=1e-9)
        np.testing.assert_array_equal(front1, front2)

    def test_pose_stack_equals_single_poses(self):
        # the true pose, its mirror -t (every point behind a camera) and a
        # wrong rotation with both signs of t; under the true pose the first
        # 5 matches are made parallel rays
        case = gen_frustum_pair(np.random.default_rng(54), n=40, noise_px=0.5)
        na, nb = normalize(case.kp_a, case.intrinsics), normalize(case.kp_b, case.intrinsics)
        R, t = case.rel_rotation, case.rel_translation
        rotated = np.column_stack([na[:5], np.ones(5)]) @ R.T
        nb[:5] = rotated[:, :2] / rotated[:, 2:]
        wrong = random_rotation(np.random.default_rng(55)) @ R
        Rs, ts = np.stack([R, R, wrong, wrong]), np.stack([t, -t, t, -t])
        theta, in_front = triangulate_angles(Rs, ts, na, nb)
        assert theta.shape == in_front.shape == (4, 40)
        for k in range(4):
            one_theta, one_front = triangulate_angles(Rs[k], ts[k], na, nb)
            assert theta[k].tobytes() == one_theta.tobytes()
            np.testing.assert_array_equal(in_front[k], one_front)
        # the stack covers the cases it is built for
        assert (theta[0, :5] == 0.0).all() and not in_front[0, :5].any()
        assert in_front[0, 5:].all() and not in_front[1].any()

    def test_search_stack_equals_one_pose_calls(self):
        # s searches' (s, 1, m, 2) points under their own (s, 4) poses: every
        # row holds the bits of that search's one-pose call
        cases = [gen_frustum_pair(np.random.default_rng(seed), n=30, noise_px=0.5)
                 for seed in range(56, 61)]
        na = np.stack([normalize(c.kp_a, c.intrinsics) for c in cases])
        nb = np.stack([normalize(c.kp_b, c.intrinsics) for c in cases])
        wrong = [random_rotation(np.random.default_rng(seed)) for seed in range(61, 66)]
        Rs = np.stack([[c.rel_rotation, c.rel_rotation, w @ c.rel_rotation, w @ c.rel_rotation]
                       for c, w in zip(cases, wrong)])
        ts = np.stack([[c.rel_translation, -c.rel_translation] * 2 for c in cases])
        theta, in_front = triangulate_angles(Rs, ts, na[:, None], nb[:, None])
        assert theta.shape == in_front.shape == (5, 4, 30)
        for k in range(5):
            for pose in range(4):
                one_theta, one_front = triangulate_angles(Rs[k, pose], ts[k, pose], na[k], nb[k])
                assert theta[k, pose].tobytes() == one_theta.tobytes()
                np.testing.assert_array_equal(in_front[k, pose], one_front)
        assert in_front[:, 0].all() and not in_front[:, 1].any()

    def test_range(self):
        case = gen_frustum_pair(np.random.default_rng(53), n=60, noise_px=2.0)
        theta, _ = triangulate_angles(case.rel_rotation, case.rel_translation,
                                      normalize(case.kp_a, case.intrinsics),
                                      normalize(case.kp_b, case.intrinsics))
        assert (theta >= 0.0).all() and (theta <= math.pi).all()


# --- per-hypothesis reference for the batched robust search ---------------
# The robust search draws, solves and scores all hypotheses of a pair as
# stacked arrays. The reference below does it one hypothesis at a time with
# single-matrix numpy calls, and the batched search must match it bit for bit.

def ref_fisher_yates(rng, n):
    idx = np.arange(n)
    for i in range(8):
        j = i + int(rng.integers(n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:8].copy()


def ref_fix_sign(M):
    return -M if M.flat[int(np.argmax(np.abs(M)))] < 0 else M


def qr_null(A):
    """Null vector of an (8, 9) design matrix from the complete QR of A^T,
    LAPACK's Q, and whether the diagonal-ratio test accepts the set."""
    Q, R = np.linalg.qr(A.T, mode="complete")
    d = np.abs(np.diag(R))
    return Q[:, -1], bool(d.max() > 0.0 and d.min() > d.max() * 1e-10)


def householder_null(A):
    """Null vector of an (8, 9) design matrix as the minimal solve forms it,
    in scalar arithmetic: A^T = QR by eight Householder reflectors, then the
    reflectors applied to e9, the last first, every norm and dot product
    added in index order; and whether the diagonal-ratio test accepts the
    set."""
    cols = A.tolist()   # column k of A^T is row k of A
    d, taus = [], []
    for k in range(8):
        x = cols[k][k:]
        ss = x[0] * x[0]
        for xi in x[1:]:
            ss += xi * xi
        norm = math.sqrt(ss)
        # R_kk opposite a_kk in sign; a zero column takes beta = -1, v = e1
        beta = -math.copysign(norm if norm > 0.0 else 1.0, x[0])
        d.append(norm)
        taus.append((beta - x[0]) / beta)
        v = [1.0] + [xi / (x[0] - beta) for xi in x[1:]]
        cols[k][k:] = v
        for col in cols[k + 1:]:
            w = col[k]
            for j in range(1, 9 - k):
                w += v[j] * col[k + j]
            w *= taus[k]
            for j in range(9 - k):
                col[k + j] -= w * v[j]
    f = [0.0] * 8 + [1.0]
    for k in range(7, -1, -1):
        v = cols[k][k:]
        w = f[k]
        for j in range(1, 9 - k):
            w += v[j] * f[k + j]
        w *= taus[k]
        for j in range(9 - k):
            f[k + j] -= w * v[j]
    return np.array(f), bool(max(d) > 0.0 and min(d) > max(d) * 1e-10)


def svd_null(A):
    """Least-squares null vector of an (m, 9) design matrix from its SVD, and
    whether the singular-value-ratio test accepts the set."""
    _, s, Vt = np.linalg.svd(A)
    return Vt[-1], bool(s[0] > 0.0 and s[7] > s[0] * 1e-10)


def svd_rank2(G):
    """Nearest rank-2 matrix to a 3x3 G: its SVD with sigma_3 set to 0."""
    U, s, Vt = np.linalg.svd(G)
    return (U * np.array([s[0], s[1], 0.0])) @ Vt


def scalar_cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def scalar_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def scalar_unit(a):
    n = math.sqrt(scalar_dot(a, a))
    return [x / n for x in a]


def closed_form_rank2(G):
    """Nearest rank-2 matrix to one 3x3 G as the minimal solve forms it, in
    scalar arithmetic: the root of G^T G's cubic at the better separated
    end of its spectrum, the largest cross product of two rows of G^T G -
    lambda I, and from the largest root a 2x2 rotation on the plane normal
    to its eigenvector."""
    g = G.tolist()
    B = [[g[0][i] * g[0][j] + g[1][i] * g[1][j] + g[2][i] * g[2][j] for j in range(3)]
         for i in range(3)]
    q = (B[0][0] + B[1][1] + B[2][2]) / 3.0
    c00, c11, c22 = B[0][0] - q, B[1][1] - q, B[2][2] - q
    b01, b02, b12 = B[0][1], B[0][2], B[1][2]
    p = math.sqrt((c00 * c00 + c11 * c11 + c22 * c22
                   + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
    s = p if p > 0.0 else 1.0
    d00, d01, d02, d11, d12, d22 = c00 / s, b01 / s, b02 / s, c11 / s, b12 / s, c22 / s
    r = min(max((d00 * (d11 * d22 - d12 * d12) - d01 * (d01 * d22 - d12 * d02)
                 + d02 * (d01 * d12 - d11 * d02)) / 2.0, -1.0), 1.0)
    top = r >= 0.0
    lam = q + 2.0 * p * float(np.cos(np.arccos(r) / 3.0 + (0.0 if top else 2.0 * math.pi / 3.0)))
    M = [[B[i][j] - lam if i == j else B[i][j] for j in range(3)] for i in range(3)]
    candidates = [scalar_cross(M[0], M[1]), scalar_cross(M[0], M[2]), scalar_cross(M[1], M[2])]
    norms = [scalar_dot(c, c) for c in candidates]
    w = candidates[norms.index(max(norms))]
    if not any(w):
        w = [w[0], w[1], 1.0]
    w = scalar_unit(w)
    magnitudes = [abs(x) for x in w]
    axis = [0.0, 0.0, 0.0]
    axis[magnitudes.index(min(magnitudes))] = 1.0
    a = scalar_unit(scalar_cross(w, axis))
    b = scalar_cross(w, a)
    Ga, Gb = [scalar_dot(row, a) for row in g], [scalar_dot(row, b) for row in g]
    t = np.arctan2(2.0 * scalar_dot(Ga, Gb), scalar_dot(Ga, Ga) - scalar_dot(Gb, Gb)) / 2.0
    v = [float(np.cos(t)) * y - float(np.sin(t)) * x for x, y in zip(a, b)] if top else w
    return np.array([[x - scalar_dot(row, v) * y for x, y in zip(row, v)] for row in g])


def design(na, nb):
    (x1, y1), (x2, y2) = na.T, nb.T
    return np.column_stack([x2 * x1, x2 * y1, x2, y2 * x1, y2 * y1, y2,
                            x1, y1, np.ones(len(na))])


def hartley(pts):
    """(T, normalized points, coincident) of one image's points, normalized as
    the batched solve normalizes them."""
    c = pts.mean(axis=0)
    mean_dist = float(np.linalg.norm(pts - c, axis=1).mean())
    coincident = mean_dist < 1e-9
    s = math.sqrt(2.0) / (1.0 if coincident else mean_dist)
    T = np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])
    return T, (pts - c) * s, coincident


def ref_fundamental(pa, pb, null=None, rank2=None):
    """Normalized eight-point solve of one point set; None when degenerate.

    ``null`` is the null-vector routine and ``rank2`` the rank-2 step; by
    default the minimal solve's reflectors and closed form for exactly 8
    points and SVDs above, the rule the batched solve follows.
    """
    minimal = len(pa) == 8
    null = null or (householder_null if minimal else svd_null)
    rank2 = rank2 or (closed_form_rank2 if minimal else svd_rank2)
    (Ta, na, coincident_a), (Tb, nb, coincident_b) = hartley(pa), hartley(pb)
    if coincident_a or coincident_b:
        return None
    f, accepted = null(design(na, nb))
    if not accepted:
        return None
    F = Tb.T @ rank2(f.reshape(3, 3)) @ Ta
    F /= np.linalg.norm(F)
    return ref_fix_sign(F)


def ref_sampson(M, pa, pb):
    ha = np.column_stack([pa, np.ones(len(pa))])
    hb = np.column_stack([pb, np.ones(len(pb))])
    Ma, Mtb = ha @ M.T, hb @ M
    num = np.einsum("ij,ij->i", hb, Ma) ** 2
    den = Ma[:, 0] ** 2 + Ma[:, 1] ** 2 + Mtb[:, 0] ** 2 + Mtb[:, 1] ** 2
    out = np.full(len(pa), np.inf)
    nz = den > 0.0
    out[nz] = num[nz] / den[nz]
    return out


def ref_select(corrs, iterations, threshold, rng):
    """(pa, pb, best, stats) of a one-hypothesis-at-a-time search in
    pixels: ``best`` is (row, model, inlier mask) of the winning
    hypothesis, or None where no hypothesis keeps 8 inliers."""
    pa = np.array([c.x_a for c in corrs], dtype=np.float64)
    pb = np.array([c.x_b for c in corrs], dtype=np.float64)
    stats = {"degenerate": 0, "counts": []}
    best = None
    for row in range(iterations):
        idx = ref_fisher_yates(rng, len(corrs))
        M = ref_fundamental(pa[idx], pb[idx])
        if M is None:
            stats["degenerate"] += 1
            continue
        errs = ref_sampson(M, pa, pb)
        mask = errs < threshold ** 2
        count = int(mask.sum())
        stats["counts"].append(count)
        if count < 8:
            continue
        total = float(errs[mask].sum())
        if best is None or count > best[0] or (count == best[0] and total < best[1]):
            best = (count, total, row, M, mask)
    return pa, pb, None if best is None else best[2:], stats


def ref_project(M):
    U, _, Vt = np.linalg.svd(M)
    return ref_fix_sign((U * np.array([1.0, 1.0, 0.0])) @ Vt)


def ref_final(F, calib):
    """The model a search stores for its fundamental matrix F: F itself, or
    with intrinsics the essential matrix K_b^T F K_a, projected."""
    return F if calib is None else ref_project(calib[1].T @ F @ calib[0])


def ref_pixel(M, calib):
    """The pixel-frame model a stored model recounts its inliers on: M
    itself, or with intrinsics K_b^-T M K_a^-1."""
    return M if calib is None else np.linalg.inv(calib[1]).T @ M @ np.linalg.inv(calib[0])


def ref_refit(pa, pb, best, calib):
    """(refit, final model) of a winner: the refit is None where degenerate,
    and the final model is then the winning hypothesis, mapped to E when calibrated."""
    _, M, mask = best
    refit = ref_fundamental(pa[mask], pb[mask])
    return refit, ref_final(M if refit is None else refit, calib)


def ref_short_ransac(corrs, calib, iterations, threshold, rng):
    """(matrix, inliers, stats) of a one-hypothesis-at-a-time search, or
    (None, None, stats) where the search finds no model."""
    pa, pb, best, stats = ref_select(corrs, iterations, threshold, rng)
    if best is None:
        return None, None, stats
    _, M = ref_refit(pa, pb, best, calib)
    inliers = np.flatnonzero(ref_sampson(ref_pixel(M, calib), pa, pb) < threshold ** 2)
    if inliers.size < 8:
        return None, None, stats
    return M, inliers, stats


def assert_same_result(got, want):
    """Two ``short_ransac`` results hold the same bits: models with the same
    matrix, inliers, rotation, translation and angles, or failures of the
    same type with the same message."""
    assert type(got) is type(want)
    if not isinstance(want, TwoViewModel):
        assert str(got) == str(want)
        return
    for field in dataclasses.fields(TwoViewModel):
        x, y = getattr(got, field.name), getattr(want, field.name)
        assert (x is None) == (y is None), field.name
        if x is not None:
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field.name


def assert_same_final(got, want):
    """Two final models, or two searches without a winner, hold the same bits."""
    assert (got is None) == (want is None)
    if got is not None:
        assert got.tobytes() == want.tobytes()


def results_and_winners(searches, iterations=32, threshold=2.0):
    """(results, winners, finals) of one ``short_ransac`` call. Each
    search's winning hypothesis row, None where no hypothesis keeps 8
    inliers, is read by a spy on ``_winners``, which the select stage calls
    once. Each search's final model in pixels, the one its inliers are
    recounted against (K_b^-T E K_a^-1 for an essential matrix E), or None
    without a winner, is read by a spy on ``_sampson``: the finish recounts
    the searches with a winner in one call, on an (s, 3, 3) stack of
    models in search order."""
    pick, picked = epipolar._winners, []
    score, recounted = epipolar._sampson, []

    def recount(M, ha, hb):
        if M.ndim == 3:
            recounted.append(M)
        return score(M, ha, hb)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(epipolar, "_winners", lambda *args: picked.append(pick(*args)) or picked[-1])
        patch.setattr(epipolar, "_sampson", recount)
        results = short_ransac(searches, iterations, threshold)
    winners, = picked
    found = [k for k, row in enumerate(winners) if row is not None]
    assert len(recounted) == (1 if found else 0)
    finals = dict(zip(found, recounted[0] if found else []))
    return results, winners, [finals.get(k) for k in range(len(searches))]


def philox(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 3], dtype=np.uint64)))


def with_outliers(seed, n_in, n_out, **kw):
    case = gen_frustum_pair(np.random.default_rng(seed), n=n_in, **kw)
    r = np.random.default_rng(seed + 1)
    junk_a = np.column_stack([r.uniform(0, WIDTH, n_out), r.uniform(0, HEIGHT, n_out)])
    junk_b = np.column_stack([r.uniform(0, WIDTH, n_out), r.uniform(0, HEIGHT, n_out)])
    perm = r.permutation(n_in + n_out)
    corrs = to_corrs(np.vstack([case.kp_a, junk_a])[perm], np.vstack([case.kp_b, junk_b])[perm])
    return corrs, case.intrinsics


def duplicated_points(seed):
    # 12 copies of one correspondence beside 39 other true ones: about half the
    # 8-subsets repeat a point, and their design matrices drop below rank 8
    case = gen_frustum_pair(np.random.default_rng(seed), n=40, noise_px=0.3)
    perm = np.random.default_rng(seed + 1).permutation(51)
    kp_a = np.vstack([np.repeat(case.kp_a[:1], 12, axis=0), case.kp_a[1:]])[perm]
    kp_b = np.vstack([np.repeat(case.kp_b[:1], 12, axis=0), case.kp_b[1:]])[perm]
    return to_corrs(kp_a, kp_b), case.intrinsics


def clean(seed):
    # every hypothesis keeps all 30 points: the inlier counts all tie
    case = gen_frustum_pair(np.random.default_rng(seed), n=30, noise_px=0.2)
    return to_corrs(case.kp_a, case.kp_b), case.intrinsics


def doubled_focal(case):
    """(corrs, K_a, K_b) of a frustum pair with image b seen at twice image
    a's focal length: K_b, a new array, doubles the case's focal length,
    and b's keypoints are scaled by 2 about the principal point."""
    K_b = case.intrinsics.copy()
    K_b[0, 0] *= 2.0
    K_b[1, 1] *= 2.0
    center = case.intrinsics[:2, 2]
    return to_corrs(case.kp_a, center + 2.0 * (case.kp_b - center)), case.intrinsics, K_b


class TestBatchedSearch:
    @pytest.mark.parametrize("n", [8, 9, 13, 50, 200])
    def test_draw_equals_sequential_fisher_yates(self, n):
        for seed in range(40):
            batched_rng, sequential_rng = philox(seed), philox(seed)
            rows = int(np.random.default_rng(seed).integers(1, 40))
            got = _draw_samples([batched_rng], [n], rows)
            want = np.array([ref_fisher_yates(sequential_rng, n) for _ in range(rows)])
            np.testing.assert_array_equal(got, want)
            # the stream is left at the same position
            assert batched_rng.integers(1 << 62) == sequential_rng.integers(1 << 62)

    def test_draw_across_searches_equals_one_search_draws(self):
        # searches of several sizes in one swap loop: each search's rows and
        # generator state equal a draw of that search alone
        sizes = [50, 8, 13, 50, 9]
        for seed in range(20):
            rows = int(np.random.default_rng(seed).integers(1, 40))
            stacked = [philox(seed + k) for k in range(len(sizes))]
            alone = [philox(seed + k) for k in range(len(sizes))]
            got = _draw_samples(stacked, sizes, rows).reshape(len(sizes), rows, 8)
            for k, n in enumerate(sizes):
                np.testing.assert_array_equal(got[k], _draw_samples([alone[k]], [n], rows))
                assert stacked[k].integers(1 << 62) == alone[k].integers(1 << 62)

    def test_stacked_searches_equal_one_search_stacks(self, monkeypatch):
        # match counts 50, 51, 30, 50, 20 and 8, each calibrated and not, one
        # scene with a repeated point and one without a model: every search's
        # final model and its result keep their bits whatever they are
        # stacked with. The 8-match searches carry the most padding, and
        # their refits on 8 inliers take the closed-form minimal solve
        def eight(seed):
            case = gen_frustum_pair(np.random.default_rng(seed), n=8, noise_px=0.3)
            return to_corrs(case.kp_a, case.kp_b), case.intrinsics

        searches = []
        for seed, scene in enumerate([lambda s: with_outliers(s, 30, 20, separation_deg=35.0),
                                      duplicated_points, clean,
                                      lambda s: with_outliers(s, 35, 15, separation_deg=20.0),
                                      lambda s: with_outliers(s, 0, 20), eight]):
            for calibrated in (False, True):
                corrs, K = scene(200 + seed)
                searches.append((corrs, (K, K) if calibrated else None, 10 * seed + calibrated))
        counts = sorted(len(corrs) for corrs, _, _ in searches)
        assert counts == [8] * 2 + [20] * 2 + [30] * 2 + [50] * 4 + [51] * 2
        solve, solved = epipolar._fundamental_stack, []

        def solving(P, sizes=None):
            models, ok = solve(P, sizes)
            solved.append((None if sizes is None else sizes.tolist(), ok))
            return models, ok

        monkeypatch.setattr(epipolar, "_fundamental_stack", solving)
        stacked, winners, finals = results_and_winners([(corrs, calib, philox(key))
                                                        for corrs, calib, key in searches])
        assert not solved[0][1].all()   # the repeated point
        assert solved[1][0][-2:] == [8, 8]   # both 8-match searches refit on 8 inliers
        outcomes = set()
        for (corrs, calib, key), got, row, final in zip(searches, stacked, winners, finals):
            alone, alone_rows, alone_finals = results_and_winners([(corrs, calib, philox(key))])
            assert_same_result(got, alone[0])
            assert_same_final(final, alone_finals[0])
            assert [row] == alone_rows
            try:
                want = robust_search(corrs, calib=calib, rng=philox(key))
            except NoModelFound:
                assert isinstance(got, NoModelFound)
                outcomes.add("no_model")
                continue
            assert got.matrix.tobytes() == want.matrix.tobytes()
            np.testing.assert_array_equal(got.inliers, want.inliers)
            outcomes.add("model")
        assert outcomes == {"model", "no_model"}

    def test_group_stage_equals_stacks_of_one(self, monkeypatch):
        # one call holding every branch of the stages: calibrated and
        # uncalibrated searches with unequal match counts, a calibrated
        # search whose two K differ, count ties of several sizes, an
        # 8-inlier refit beside larger ones, a degenerate refit and a search
        # where no hypothesis keeps 8 inliers
        exact = gen_frustum_pair(np.random.default_rng(70), n=40)
        eight = gen_frustum_pair(np.random.default_rng(71), n=8, noise_px=0.3)
        kept = gen_frustum_pair(np.random.default_rng(72), n=25, noise_px=0.5)
        r = np.random.default_rng(73)
        junk_a, junk_b = (np.column_stack([r.uniform(0, WIDTH, 6), r.uniform(0, HEIGHT, 6)])
                          for _ in range(2))
        scenes = {
            "outliers": with_outliers(100, 30, 20, separation_deg=35.0),
            "outliers_uncal": with_outliers(101, 30, 20, separation_deg=35.0),
            "clean": clean(102),
            # noise-free: every all-true sample keeps the same 40 inliers
            "exact": (to_corrs(np.vstack([exact.kp_a, junk_a]),
                                   np.vstack([exact.kp_b, junk_b])), exact.intrinsics),
            "eight": (to_corrs(eight.kp_a, eight.kp_b), eight.intrinsics),
            "degenerate_refit": (to_corrs(kept.kp_a, kept.kp_b), kept.intrinsics),
            "no_model": with_outliers(105, 0, 20),
        }
        calibrated = {"outliers", "clean", "eight", "degenerate_refit", "no_model"}
        searches = [(name, corrs, (K, K) if name in calibrated else None, 300 + k)
                    for k, (name, (corrs, K)) in enumerate(scenes.items())]
        # two distinct K objects, with as many matches as "clean"
        corrs, K_a, K_b = doubled_focal(gen_frustum_pair(np.random.default_rng(74), n=30,
                                                         noise_px=0.5))
        searches.append(("unequal_focal", corrs, (K_a, K_b), 300 + len(searches)))

        # a refit that holds the first pixel of "degenerate_refit" is
        # reported degenerate: the stage must keep that search's winning
        # hypothesis
        marker = scenes["degenerate_refit"][0].x_a[0]
        solve = epipolar._fundamental_stack

        def planted(P, sizes=None):
            models, ok = solve(P, sizes)
            if sizes is None:   # the select stage
                return models, ok
            holds = (P[0] == marker[:, None, None]).all(axis=0).any(axis=0)
            return models, ok & ~((sizes > 8) & holds)

        project, projected = epipolar._project_essential, []

        def recording(F):
            projected.append((F, project(F)))
            return projected[-1][1]

        monkeypatch.setattr(epipolar, "_fundamental_stack", planted)
        monkeypatch.setattr(epipolar, "_project_essential", recording)
        stacked, winners, finals = results_and_winners([(corrs, calib, philox(key))
                                                        for _, corrs, calib, key in searches])
        # one projection for the call, over its calibrated searches that
        # found a winner: all but "no_model", and "unequal_focal"
        assert len(projected) == 1 and len(projected[0][0]) == len(calibrated)
        group_in, group_out = (iter(x) for x in projected.pop())

        tie_sizes, failures = {}, set()
        for (name, corrs, calib, key), got, row, got_final in zip(searches, stacked, winners,
                                                                  finals):
            alone, alone_rows, alone_finals = results_and_winners([(corrs, calib, philox(key))])
            assert_same_result(got, alone[0])
            assert_same_final(got_final, alone_finals[0])
            assert [row] == alone_rows
            if calib is not None and row is not None:
                # the refit a stack of one projects, and its projection
                refit_in, refit_out = projected.pop()
                assert next(group_in).tobytes() == refit_in[0].tobytes()
                assert next(group_out).tobytes() == refit_out[0].tobytes()
            pa, pb, best, stats = ref_select(corrs, 32, 2.0, philox(key))
            if best is None:
                assert name == "no_model" and row is None and got_final is None
                assert isinstance(got, NoModelFound)
                assert str(got) == "no hypothesis reached 8 inliers"
                failures.add(str(got))
                continue
            assert row == best[0]
            refit, final = ref_refit(pa, pb, best, calib)
            if name == "degenerate_refit":
                assert refit is not None    # degenerate only as planted
                final = ref_final(best[1], calib)
            # the finish: the recount in pixels against the final model,
            # then the 8-inlier floor
            pixel = ref_pixel(final, calib)
            assert got_final.tobytes() == pixel.tobytes()
            kept = np.flatnonzero(ref_sampson(pixel, pa, pb) < 2.0 ** 2)
            if kept.size < 8:
                assert isinstance(got, NoModelFound)
                assert str(got) == "refit model keeps fewer than 8 inliers"
                failures.add(str(got))
            else:
                assert isinstance(got, TwoViewModel)
                assert got.matrix.tobytes() == final.tobytes()
                np.testing.assert_array_equal(got.inliers, kept)
                assert (got.rotation is None) == (calib is None)
            tie_sizes[name] = stats["counts"].count(max(stats["counts"]))
            if name == "eight":
                assert int(best[2].sum()) == 8
            else:
                assert int(best[2].sum()) > 8
        assert not projected
        # a search without a winner, and one whose final model fails the recount
        assert failures == {"no hypothesis reached 8 inliers",
                            "refit model keeps fewer than 8 inliers"}
        # count ties of four sizes: 2, 12, 14 and all 32 rows
        assert tie_sizes["eight"] == 32
        assert len({size for size in tie_sizes.values() if size > 1}) >= 4

    def test_refit_stage_is_one_fit_call(self, monkeypatch):
        # one call runs each stage once over six searches: the first scene
        # finds no model, two 8-match scenes refit on exactly 8 inliers (the
        # closed form), and three clean scenes keep all 30 points. The refit
        # of the first clean scene is planted degenerate, so it keeps its
        # winning hypothesis
        eights = [gen_frustum_pair(np.random.default_rng(seed), n=8, noise_px=0.3)
                  for seed in (71, 72)]
        scenes = ([with_outliers(105, 0, 20)]
                  + [(to_corrs(c.kp_a, c.kp_b), c.intrinsics) for c in eights]
                  + [clean(seed) for seed in (102, 103, 104)])
        searches = [(corrs, (K, K) if k % 2 else None, 400 + k)
                    for k, (corrs, K) in enumerate(scenes)]
        degenerate = 3
        marker = searches[degenerate][0].x_a[0]
        solve, solved = epipolar._fundamental_stack, []

        def planted(P, sizes=None):
            solved.append((P.shape, None if sizes is None else sizes.tolist()))
            models, ok = solve(P, sizes)
            if sizes is None:
                return models, ok
            holds = (P[0] == marker[:, None, None]).all(axis=0).any(axis=0)
            return models, ok & ~((sizes > 8) & holds)

        project, projected = epipolar._project_essential, []
        recover, recovered = epipolar.recover_pose, []
        score, scored = epipolar._sampson, []
        monkeypatch.setattr(epipolar, "_fundamental_stack", planted)
        monkeypatch.setattr(epipolar, "_sampson",
                            lambda M, ha, hb: scored.append(M.shape) or score(M, ha, hb))
        monkeypatch.setattr(epipolar, "_project_essential",
                            lambda F: projected.append(len(F)) or project(F))
        monkeypatch.setattr(epipolar, "recover_pose", lambda E, na, nb, inliers: recovered.append(
            na.shape[:2]) or recover(E, na, nb, inliers))
        stacked, winners, finals = results_and_winners([(corrs, calib, philox(key))
                                                        for corrs, calib, key in searches])
        # one select solve of every search's hypotheses and one Sampson pass
        # over them all, then one refit solve of the five searches with a
        # winner, zero-padded to 30 points with each set's size, one
        # projection of the three calibrated ones and one recount pass
        assert solved == [((2, 2, 8, len(searches) * 32), None),
                          ((2, 2, 30, 5), [8, 8, 30, 30, 30])]
        assert projected == [3]
        assert scored == [(len(searches), 32, 3, 3), (5, 3, 3)]
        assert winners[0] is None and None not in winners[1:]
        # of the calibrated searches, 1 keeps fewer than 8 inliers after its
        # projection, and 3 and 5 share one pose recovery, on points padded
        # to the call's 30 matches and the refit's padding row
        assert isinstance(stacked[1], NoModelFound)
        assert recovered == [(2, 31)]

        for k, ((corrs, calib, key), got, row, final) in enumerate(zip(searches, stacked, winners,
                                                                       finals)):
            alone, alone_rows, alone_finals = results_and_winners([(corrs, calib, philox(key))])
            assert_same_result(got, alone[0])
            assert_same_final(final, alone_finals[0])
            assert [row] == alone_rows
            if k == degenerate:
                pa, pb, best, _ = ref_select(corrs, 32, 2.0, philox(key))
                assert ref_refit(pa, pb, best, calib)[0] is not None   # degenerate only as planted
                assert final.tobytes() == ref_pixel(ref_final(best[1], calib), calib).tobytes()

    def test_one_refit_call_equals_per_count_refits(self, monkeypatch):
        # a window whose winners keep 8, 9, 13 and 50 inliers, calibrated and
        # not, refit in one call on zero-padded sets: every refit above 8
        # points has the bits of one stacked solve per inlier count, the
        # refit before it became one call, and the 8-inlier one those of the
        # closed form's scalar reference
        searches = []
        for seed, n, calibrated in ((71, 8, False), (74, 9, False), (75, 13, False),
                                    (76, 50, False), (71, 13, True), (78, 50, True)):
            case = gen_frustum_pair(np.random.default_rng(seed), n=n, noise_px=0.3)
            searches.append((to_corrs(case.kp_a, case.kp_b),
                             (case.intrinsics, case.intrinsics) if calibrated else None,
                             philox(600)))
        solve, refits = epipolar._fundamental_stack, []

        def recording(P, sizes=None):
            models, ok = solve(P, sizes)
            if sizes is not None:
                refits.append((P, sizes, models, ok))
            return models, ok

        monkeypatch.setattr(epipolar, "_fundamental_stack", recording)
        results = short_ransac(searches)
        assert all(isinstance(result, TwoViewModel) for result in results)
        (P, sizes, models, ok), = refits
        assert sizes.tolist() == [8, 9, 13, 50, 13, 50] and ok.all()
        assert P.shape == (2, 2, 50, 6) and not P[:, :, 8:, 0].any()
        sets = [(P[0, :, :n, k].T, P[1, :, :n, k].T) for k, n in enumerate(sizes)]
        want, want_ok = per_count_refits(sets)
        assert all(want_ok)
        for (pa, pb), model, reference in zip(sets, models, want):
            if len(pa) > 8:
                assert model.tobytes() == reference.tobytes()
            else:
                assert model.tobytes() == ref_fundamental(pa, pb).tobytes()
                assert np.abs(model - reference).max() < 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "a sample's own 8 points meet the 8-inlier floor, so uncalibrated junk keeps a model "
        "(ROADMAP item 2)"))
    def test_uncalibrated_junk_finds_no_model(self):
        # 20 uniform-random matches without intrinsics, the all_junk scene of
        # test_equals_per_hypothesis_reference: no search should find a
        # model, yet 6 of the 10 seeds return one, each on 8 inliers
        results = [short_ransac([(with_outliers(seed, 0, 20)[0], None, philox(seed))])[0]
                   for seed in range(100, 110)]
        assert all(isinstance(result, NoModelFound) for result in results)

    def test_one_shot_iterable_equals_list(self):
        # a generator of searches is read once, and gives the list's results
        scenes = [with_outliers(100, 30, 20, separation_deg=35.0), clean(102)]

        def searches():
            return ((corrs, (K, K) if k else None, philox(k)) for k, (corrs, K) in enumerate(scenes))

        listed = short_ransac(list(searches()))
        generated = short_ransac(searches())
        assert len(generated) == len(listed) == 2
        assert all(isinstance(result, TwoViewModel) for result in listed)
        for got, want in zip(generated, listed):
            assert_same_result(got, want)

    def test_fewer_than_eight_matches_raise_before_any_draw(self):
        corrs, K = with_outliers(100, 30, 20, separation_deg=35.0)
        rngs = [philox(1), philox(2)]
        with pytest.raises(InsufficientCorrespondences, match="7 < 8"):
            short_ransac([(corrs, (K, K), rngs[0]), (corrs[:7], None, rngs[1])])
        # neither generator was drawn from
        assert [r.integers(1 << 62) for r in rngs] == [philox(k).integers(1 << 62) for k in (1, 2)]

    @pytest.mark.parametrize("kwargs, message", [
        ({"iterations": 0}, "iterations"), ({"iterations": -1}, "iterations"),
        ({"iterations": True}, "iterations"), ({"iterations": 32.0}, "iterations"),
        ({"inlier_threshold": -2.0}, "inlier_threshold"),
        ({"inlier_threshold": 0.0}, "inlier_threshold"),
        ({"inlier_threshold": math.nan}, "inlier_threshold"),
        ({"inlier_threshold": math.inf}, "inlier_threshold"),
    ], ids=["iterations_0", "iterations_-1", "iterations_bool", "iterations_float",
            "threshold_-2", "threshold_0", "threshold_nan", "threshold_inf"])
    @pytest.mark.parametrize("calibrated", [False, True])
    def test_bad_arguments_raise_before_any_draw(self, kwargs, message, calibrated):
        corrs, K = with_outliers(100, 30, 20, separation_deg=35.0)
        rng = philox(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            short_ransac([(corrs, (K, K) if calibrated else None, rng)], **kwargs)
        np.testing.assert_equal(rng.bit_generator.state, state)

    def test_no_searches(self):
        assert short_ransac([]) == []

    def test_finishing_a_mixed_group(self):
        # calibrated and uncalibrated searches of unequal match counts in one
        # stack: only the calibrated ones end with a pose
        searches = []
        for seed, (n_in, n_out) in enumerate([(30, 5), (40, 10), (45, 0)]):
            corrs, K = with_outliers(110 + seed, n_in, n_out, separation_deg=35.0)
            searches += [(corrs, None, philox(2 * seed)), (corrs, (K, K), philox(2 * seed + 1))]
        for (corrs, calib, _), model in zip(searches, short_ransac(searches)):
            assert isinstance(model, TwoViewModel)
            posed = [model.rotation, model.translation, model.triangulation_angles]
            assert [x is None for x in posed] == [calib is None] * 3

    def test_cheirality_failure_stays_in_its_search(self, monkeypatch):
        # one call of six searches, one uncalibrated, with 50 and 35
        # matches: the five calibrated searches recover their poses in one
        # call, on points padded to 51 rows, and a spy plants an ambiguity on
        # that call's second row, the third search. That search returns the
        # planted instance, and every other search keeps the bits of the
        # same window without the failure
        scenes = [with_outliers(110 + seed, n_in, n_out, separation_deg=35.0)
                  for seed, (n_in, n_out) in enumerate([(40, 10), (40, 10), (45, 5), (35, 15),
                                                        (30, 5), (45, 5)])]

        def window():
            return [(corrs, None if k == 1 else (K, K), philox(500 + k))
                    for k, (corrs, K) in enumerate(scenes)]

        clean_results = short_ransac(window())
        assert all(isinstance(r, TwoViewModel) for r in clean_results)
        recover, calls = epipolar.recover_pose, []
        failure = CheiralityAmbiguity("planted")

        def planting(E, na, nb, inliers):
            calls.append(na.shape[:2])
            poses = recover(E, na, nb, inliers)
            if len(calls) == 1:
                assert E[1].tobytes() == clean_results[2].matrix.tobytes()
                poses[1] = failure
            return poses

        score, scored = epipolar._sampson, []
        monkeypatch.setattr(epipolar, "recover_pose", planting)
        monkeypatch.setattr(epipolar, "_sampson",
                            lambda M, ha, hb: scored.append(M.shape) or score(M, ha, hb))
        results = short_ransac(window())
        # one select pass, one recount pass and one pose recovery
        assert scored == [(6, 32, 3, 3), (6, 3, 3)]
        assert calls == [(5, 51)]
        assert results[2] is failure and failure.__traceback__ is None
        for k in (0, 1, 3, 4, 5):
            assert_same_result(results[k], clean_results[k])

    @pytest.mark.parametrize("calibrated", [False, True])
    @pytest.mark.parametrize("scene, want", [
        (lambda s: with_outliers(s, 30, 20, separation_deg=35.0), "model"),
        (duplicated_points, "degenerate"),
        (clean, "tied"),
        (lambda s: with_outliers(s, 0, 20), "no_model"),
    ], ids=["forty_percent_outliers", "duplicated_points", "tied_counts", "all_junk"])
    def test_equals_per_hypothesis_reference(self, scene, want, calibrated):
        seen = 0
        for seed in range(100, 110):
            corrs, K = scene(seed)
            calib = (K, K) if calibrated else None
            ref_rng, rng = philox(seed), philox(seed)
            M, inliers, stats = ref_short_ransac(corrs, calib, 32, 2.0, ref_rng)
            if M is None:
                with pytest.raises(NoModelFound):
                    robust_search(corrs, calib=calib, rng=rng)
            else:
                model = robust_search(corrs, calib=calib, rng=rng)
                assert model.matrix.tobytes() == M.tobytes()
                np.testing.assert_array_equal(model.inliers, inliers)
            assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)
            seen += {"model": M is not None,
                     "degenerate": M is not None and stats["degenerate"] > 0,
                     "tied": stats["counts"].count(max(stats["counts"], default=0)) > 1,
                     "no_model": M is None}[want]
        # the scene exercises the branch it is named after
        assert seen >= 3

    def test_stack_masks_degenerate_sets(self):
        case = gen_frustum_pair(np.random.default_rng(60), n=24, noise_px=0.5)
        good_a, good_b = case.kp_a[:8], case.kp_b[:8]
        coincident = np.repeat(case.kp_a[:1], 8, axis=0)
        repeated_a, repeated_b = good_a.copy(), good_b.copy()
        repeated_a[1], repeated_b[1] = repeated_a[0], repeated_b[0]
        pa = np.stack([coincident, good_a, repeated_a, case.kp_a[8:16]])
        pb = np.stack([good_b, good_b, repeated_b, case.kp_b[8:16]])
        models, ok = _fundamental_stack(stack_last(pa, pb))
        np.testing.assert_array_equal(ok, [False, True, False, True])
        assert ref_fundamental(pa[0], pb[0]) is None
        assert ref_fundamental(pa[2], pb[2]) is None
        for h in (1, 3):
            assert models[h].tobytes() == ref_fundamental(pa[h], pb[h]).tobytes()

    def test_fix_sign_ties_take_the_first_entry(self):
        # entries tied in magnitude with opposite signs: the first in
        # row-major order sets the sign, as the take_along_axis rule reads it
        r = np.random.default_rng(61)
        M = r.uniform(-1.0, 1.0, size=(64, 3, 3))
        for k, (i, j) in enumerate(r.choice(9, size=(64, 2))):
            if i != j:
                M.reshape(64, 9)[k, [i, j]] = 2.0 * np.array([1.0, -1.0]) * r.choice([-1.0, 1.0])
        flat = M.reshape(-1, 9)
        lead = np.take_along_axis(flat, np.argmax(np.abs(flat), axis=1)[:, None], axis=1)
        want = np.where(lead.reshape(-1, 1, 1) < 0.0, -M, M)
        assert _fix_sign(M).tobytes() == want.tobytes()
        for k in range(64):
            assert _fix_sign(M[k]).tobytes() == ref_fix_sign(M[k]).tobytes()

    def test_minimal_samples_skip_svd(self, monkeypatch):
        # structure, not timing: the select stage's minimal solve calls no
        # LAPACK QR (its reflectors are numpy's) and runs no SVD, neither on
        # its (8, 9) design matrices nor on its (h, 3, 3) models, while the
        # overdetermined refit, the essential projection and the pose
        # decomposition still use one
        svd, qr, solve, calls = np.linalg.svd, np.linalg.qr, epipolar._fundamental_stack, []

        def svd_recording(a, *args, **kwargs):
            calls.append(("svd", sys._getframe(1).f_code.co_name, np.shape(a)))
            return svd(a, *args, **kwargs)

        def qr_recording(a, mode="reduced"):
            calls.append(("qr " + mode, sys._getframe(1).f_code.co_name, np.shape(a)))
            return qr(a, mode=mode)

        def solving(P, sizes=None):
            calls.append(("solve", "short_ransac", P.shape))
            return solve(P, sizes)

        monkeypatch.setattr("sara.epipolar.np.linalg.svd", svd_recording)
        monkeypatch.setattr("sara.epipolar.np.linalg.qr", qr_recording)
        monkeypatch.setattr(epipolar, "_fundamental_stack", solving)
        corrs, K = with_outliers(100, 30, 20, separation_deg=35.0)
        model = robust_search(corrs, calib=(K, K), rng=philox(100))
        assert model.rotation is not None
        select, refit = calls[0][2], calls[1][2]
        assert select == (2, 2, 8, 32) and refit[2] > 8 and refit[3] == 1
        assert calls == [
            ("solve", "short_ransac", select),
            ("solve", "short_ransac", refit),
            ("svd", "_fundamental_stack", (1, refit[2], 9)),
            ("svd", "_fundamental_stack", (1, 3, 3)),
            ("svd", "_project_essential", (1, 3, 3)),
            ("svd", "recover_pose", (1, 3, 3))]

    def test_winner_rule_on_near_tied_totals(self):
        # every row holds the same inlier errors in its own order and at its
        # own positions: counts tie, and totals differ only by rounding or not
        # at all, so both later tie-breaks decide. The searches of a stack
        # hold 8 to 399 inliers each
        for seed in range(60):
            r = np.random.default_rng(seed)
            tops = r.integers(8, 400, size=4)
            m = int(tops.max()) + 10
            errs = np.full((4, 32, m), 1e9)
            ok = r.random((4, 32)) > 0.1
            for stack_errs, top in zip(errs, tops):
                values = r.uniform(0.0, 4.0, top) * 10.0 ** r.uniform(-3.0, 3.0, top)
                for row in stack_errs:
                    row[np.sort(r.choice(m, top, replace=False))] = r.permutation(values)
            masks = errs < 1e8
            want = []
            for stack_errs, stack_masks, stack_ok in zip(errs, masks, ok):
                best = None
                for h in np.flatnonzero(stack_ok):
                    total = float(stack_errs[h][stack_masks[h]].sum())
                    if best is None or total < best[1]:
                        best = (h, total)
                want.append(best[0])
            assert _winners(errs, masks, ok) == want

    def test_tie_totals_equal_per_row_sums(self):
        # _winners totals a search's tied rows in one sum(axis=1) over their
        # compacted inlier errors: numpy must sum each row as it sums the row
        # alone, for every inlier count a search can hold
        r = np.random.default_rng(62)
        for top in range(1, 400):
            n_tied = int(r.integers(2, 33))
            errs = r.uniform(0.0, 4.0, (n_tied, top + 7)) * 10.0 ** r.uniform(-6.0, 3.0, (n_tied, top + 7))
            masks = np.zeros(errs.shape, dtype=bool)
            for row in masks:
                row[r.choice(top + 7, top, replace=False)] = True
            stacked = errs[masks].reshape(n_tied, top).sum(axis=1)
            assert stacked.tobytes() == np.array([e[k].sum() for e, k in zip(errs, masks)]).tobytes()

    def test_winner_rule_needs_eight_inliers(self):
        errs = np.array([[0.0] * 7 + [9.0], [0.0] * 8])
        masks = errs < 1.0
        stack = np.stack([errs, errs])
        assert _winners(stack, np.stack([masks, masks]),
                        np.array([[True, False], [True, True]])) == [None, 1]


# --- two-pass reference for pose recovery and triangulation ----------------
# Pose recovery triangulates each decomposition once on the normalized inlier
# coordinates the search already holds, and keeps the winner's angles. The
# reference below builds the rays from the pixels and K instead, picks the
# pose first, then rebuilds the rays and triangulates the winner again; the
# search must match it bit for bit.

def ref_rays(pts, K):
    v = np.column_stack([normalize(pts, K), np.ones(len(pts))])
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def ref_midpoint(R, t, da, db_cam):
    Cb = -(R.T @ t)
    db = db_cam @ R
    b = np.einsum("ij,ij->i", da, db)
    d, e = da @ -Cb, db @ -Cb
    denom = 1.0 - b * b
    ok = np.abs(denom) > 1e-12
    safe = np.where(ok, denom, 1.0)
    s = np.where(ok, (b * e - d) / safe, 0.0)
    u = np.where(ok, (e - b * d) / safe, 0.0)
    return 0.5 * (s[:, None] * da + Cb[None, :] + u[:, None] * db), ok


def ref_pose_then_angles(E, kept, K_a, K_b):
    """(R, t, angles): pose from four triangulations, then the winner's angles."""
    da, db_cam = ref_rays(kept.x_a, K_a), ref_rays(kept.x_b, K_b)
    U, _, Vt = np.linalg.svd(E)
    U = -U if np.linalg.det(U) < 0 else U
    Vt = -Vt if np.linalg.det(Vt) < 0 else Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    best = None
    for R in (U @ W @ Vt, U @ W.T @ Vt):
        for t in (U[:, 2], -U[:, 2]):
            X, ok = ref_midpoint(R, t, da, db_cam)
            count = int((ok & (X[:, 2] > 0.0) & ((X @ R.T + t)[:, 2] > 0.0)).sum())
            if best is None or count > best[0]:
                best = (count, R, t)
    _, R, t = best
    da, db_cam = ref_rays(kept.x_a, K_a), ref_rays(kept.x_b, K_b)
    X, ok = ref_midpoint(R, t, da, db_cam)
    vb = X + R.T @ t
    theta = np.arctan2(np.linalg.norm(np.cross(X, vb), axis=1), np.einsum("ij,ij->i", X, vb))
    degenerate = (np.linalg.norm(X, axis=1) < 1e-12) | (np.linalg.norm(vb, axis=1) < 1e-12)
    theta[~ok | degenerate] = 0.0
    return R, t, theta


class TestPoseReference:
    def test_equals_two_pass_reference(self):
        seen = 0
        for seed in range(200, 320):
            r = np.random.default_rng(seed)
            corrs, K = with_outliers(seed, int(r.integers(20, 80)), int(r.integers(0, 10)),
                                     noise_px=float(r.uniform(0.0, 0.5)))
            try:
                model = robust_search(corrs, calib=(K, K), rng=philox(seed))
            except NoModelFound:
                continue
            R, t, theta = ref_pose_then_angles(model.matrix, corrs[model.inliers], K, K)
            assert np.array_equal(model.rotation, R)
            assert np.array_equal(model.translation, t)
            assert np.array_equal(model.triangulation_angles, theta)
            seen += 1
        assert seen >= 100
