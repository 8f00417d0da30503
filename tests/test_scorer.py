import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import features_from_case, gen_frustum_pair, rot_geodesic, spearman, to_corrs
from sara import scorer
from sara.config import DEG, SaraConfig
from sara.epipolar import correspondences
from sara.features import ImageFeatures
from sara.retrieval import cosine_knn
from sara.scorer import (PairScore, RejectReason, lower_median,
                         mutual_nn_matches, score_all, score_pair)
from sara.synth import generate_orbit_scene, oracle_pair_truth, render_features


def unit_rows(rng, n, d=64):
    v = rng.normal(size=(n, d))
    return (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)


def image_from(kp, desc, image_id="x", size=(1024, 768), intrinsics=None):
    rng = np.random.default_rng(0)
    g = rng.normal(size=32)
    return ImageFeatures(image_id=image_id, keypoints=np.asarray(kp, dtype=np.float32),
                         descriptors=desc, global_desc=(g / np.linalg.norm(g)).astype(np.float32),
                         image_size=size, intrinsics=intrinsics)


def assert_same_score(a, b):
    """Equal scalar fields and bit-equal model arrays."""
    assert (a.overlap, a.parallax, a.weight, a.rejected) == \
        (b.overlap, b.parallax, b.weight, b.rejected)
    assert (a.model is None) == (b.model is None)
    if a.model is not None:
        for field in dataclasses.fields(a.model):
            x, y = getattr(a.model, field.name), getattr(b.model, field.name)
            assert (x is None) == (y is None), field.name
            if x is not None:
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), \
                    field.name


def argmax_mutual_nn(fa, fb, b):
    """Reference: mutual nearest neighbours from two plain argmax calls."""
    if fa.n_keypoints == 0 or fb.n_keypoints == 0:
        return correspondences([], [], np.empty((0, 2)), np.empty((0, 2)), [])
    sims = fa.descriptors @ fb.descriptors.T
    best_ab, best_ba = np.argmax(sims, axis=1), np.argmax(sims, axis=0)
    p = np.flatnonzero(best_ba[best_ab] == np.arange(fa.n_keypoints))
    q = best_ab[p]
    s = sims[p, q]
    keep = np.lexsort((q, p, -s))[:b]
    p, q = p[keep], q[keep]
    return correspondences(p, q, fa.keypoints[p], fb.keypoints[q], s[keep])


def assert_matches_reference(fa, fb, b=1000):
    for x, y in ((fa, fb), (fb, fa)):
        got, want = mutual_nn_matches(x, y, b), argmax_mutual_nn(x, y, b)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestLowerMedian:
    def test_odd(self):
        assert lower_median([3.0, 1.0, 2.0]) == 2.0

    def test_even_takes_lower(self):
        assert lower_median([1.0, 2.0, 3.0, 4.0]) == 2.0

    def test_single(self):
        assert lower_median([5.0]) == 5.0

    def test_array_input(self):
        assert lower_median(np.array([9.0, 7.0, 8.0, 6.0])) == 7.0


class TestMutualNN:
    def test_identical_sets_all_match(self):
        rng = np.random.default_rng(0)
        desc = unit_rows(rng, 30)
        kp = np.column_stack([rng.uniform(0, 1000, 30), rng.uniform(0, 700, 30)])
        fa = image_from(kp, desc, "a")
        fb = image_from(kp, desc, "b")
        matches = mutual_nn_matches(fa, fb, b=50)
        assert len(matches) == 30
        assert all(c.idx_a == c.idx_b for c in matches)
        assert all(c.similarity == pytest.approx(1.0, abs=1e-5) for c in matches)

    def test_against_brute_force(self):
        rng = np.random.default_rng(1)
        da, db = unit_rows(rng, 25), unit_rows(rng, 40)
        fa = image_from(np.zeros((25, 2)), da, "a")
        fb = image_from(np.zeros((40, 2)), db, "b")
        matches = mutual_nn_matches(fa, fb, b=100)
        sims = fa.descriptors @ fb.descriptors.T
        expected = []
        for i in range(25):
            j = int(np.argmax(sims[i]))
            if int(np.argmax(sims[:, j])) == i:
                expected.append((i, j, sims[i, j]))
        expected.sort(key=lambda t: (-t[2], t[0], t[1]))
        assert [(c.idx_a, c.idx_b) for c in matches] == [(i, j) for i, j, _ in expected]

    def test_budget_keeps_highest_similarity(self):
        # 120 planted matches with distinct similarities cos(theta_i)
        n, d = 120, 256
        e = np.eye(d, dtype=np.float64)
        thetas = np.linspace(0.05, 1.2, n)
        da = e[:n]
        db = np.cos(thetas)[:, None] * e[:n] + np.sin(thetas)[:, None] * e[n:2 * n]
        fa = image_from(np.zeros((n, 2)), da.astype(np.float32), "a")
        fb = image_from(np.zeros((n, 2)), db.astype(np.float32), "b")
        matches = mutual_nn_matches(fa, fb, b=50)
        assert len(matches) == 50
        assert {c.idx_a for c in matches} == set(range(50))  # smallest angles
        sims = [c.similarity for c in matches]
        assert sims == sorted(sims, reverse=True)

    def test_tie_breaks_toward_lower_index(self):
        d = np.eye(4, dtype=np.float32)
        desc_a = d[[0, 0, 1]]          # keypoints 0 and 1 are duplicates
        desc_b = d[[0, 2]]
        fa = image_from(np.zeros((3, 2)), desc_a, "a")
        fb = image_from(np.zeros((2, 2)), desc_b, "b")
        matches = mutual_nn_matches(fa, fb, b=10)
        assert [(c.idx_a, c.idx_b) for c in matches] == [(0, 0)]

    def test_top_b_equals_build_all_then_sort(self):
        # duplicated descriptors tie both the argmax and the final order;
        # the reference builds every mutual match, sorts, then truncates
        rng = np.random.default_rng(7)
        eye = np.eye(16)
        tilt = np.cos(np.array([0.0, 0.3, 0.6]))
        k, t = rng.integers(0, 12, size=40), rng.integers(0, 3, size=40)
        # rows of a: one of 12 axes tilted toward axis 15 by one of three
        # angles, so mutual matches on different axes share a similarity
        da = (tilt[t, None] * eye[k] + np.sqrt(1.0 - tilt[t, None] ** 2) * eye[15])
        da = da.astype(np.float32)
        db = eye[rng.integers(0, 12, size=35)].astype(np.float32)
        kp_a = rng.uniform(0, 1000, size=(40, 2))
        kp_b = rng.uniform(0, 1000, size=(35, 2))
        fa, fb = image_from(kp_a, da, "a"), image_from(kp_b, db, "b")
        sims = fa.descriptors @ fb.descriptors.T
        best_ab, best_ba = np.argmax(sims, axis=1), np.argmax(sims, axis=0)
        everything = sorted(
            ((-sims[p, q], p, q) for p, q in enumerate(best_ab) if best_ba[q] == p))
        assert len({s for s, _, _ in everything}) < len(everything)  # ties present
        for b in (1, 3, 5, len(everything), 100):
            got = mutual_nn_matches(fa, fb, b=b)
            want = everything[:b]
            assert [(c.idx_a, c.idx_b, -c.similarity) for c in got] == \
                [(int(p), int(q), float(s)) for s, p, q in want]
            for c in got:
                assert c.x_a.tobytes() == kp_a[c.idx_a].astype(np.float32).astype(np.float64).tobytes()
                assert c.x_b.tobytes() == kp_b[c.idx_b].astype(np.float32).astype(np.float64).tobytes()

    def test_empty(self):
        rng = np.random.default_rng(2)
        fa = image_from(np.zeros((0, 2)), unit_rows(rng, 0), "a")
        fb = image_from(np.zeros((5, 2)), unit_rows(rng, 5), "b")
        for got in (mutual_nn_matches(fa, fb, b=10), mutual_nn_matches(fb, fa, b=10)):
            assert len(got) == 0
            assert got.x_a.shape == got.x_b.shape == (0, 2)
            assert got.dtype.names == ("idx_a", "idx_b", "x_a", "x_b", "similarity")

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_argmax_with_planted_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        n_a, n_b = (int(n) for n in rng.integers(20, 60, size=2))
        # descriptors on a coarse grid tie often; copied rows and columns tie exactly
        da, db = np.round(unit_rows(rng, n_a, 8) * 2), np.round(unit_rows(rng, n_b, 8) * 2)
        da[rng.integers(0, n_a, 10)] = da[rng.integers(0, n_a, 10)]
        db[rng.integers(0, n_b, 10)] = db[rng.integers(0, n_b, 10)]
        db[rng.integers(0, n_b, 8)] = da[rng.integers(0, n_a, 8)]
        for v in (da, db):
            v[~v.any(axis=1), 0] = 1.0   # rounding can zero a row
        da /= np.linalg.norm(da, axis=1, keepdims=True)
        db /= np.linalg.norm(db, axis=1, keepdims=True)
        fa = image_from(rng.uniform(0, 700, (n_a, 2)), da.astype(np.float32), "a")
        fb = image_from(rng.uniform(0, 700, (n_b, 2)), db.astype(np.float32), "b")
        sims = fa.descriptors @ fb.descriptors.T
        assert ((sims == sims.max(axis=0)).sum(axis=0) > 1).any()   # column ties present
        assert len(argmax_mutual_nn(fa, fb, 1000)) > 0
        assert_matches_reference(fa, fb)

    def test_earlier_non_candidate_row_ties_column_maximum(self):
        # both rows attain column 0's maximum 0.6, but row 0's best column
        # is 1; column 0's best row is still row 0, so (1, 0) is not mutual
        da = np.array([[0.6, 0.8, 0.0], [0.6, 0.0, 0.8]], dtype=np.float32)
        db = np.eye(3, dtype=np.float32)[:2]
        fa = image_from(np.zeros((2, 2)), da, "a")
        fb = image_from(np.zeros((2, 2)), db, "b")
        got = mutual_nn_matches(fa, fb, b=10)
        assert [(int(c.idx_a), int(c.idx_b)) for c in got] == [(0, 1)]
        assert_matches_reference(fa, fb)

    @pytest.mark.parametrize("k,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
    def test_first_hit_when_every_column_ties(self, k, seed):
        # a holds k distinct descriptors, each repeated, so every column of
        # the column-maximum mask has several hits and the lowest one wins
        rng = np.random.default_rng(seed)
        distinct = unit_rows(rng, k, 16)
        da = distinct[rng.permutation(np.arange(24) % k)]
        db = np.concatenate([distinct, unit_rows(rng, 17, 16)])[rng.permutation(17 + k)]
        fa = image_from(rng.uniform(0, 700, (24, 2)), da, "a")
        fb = image_from(rng.uniform(0, 700, (17 + k, 2)), db, "b")
        sims = fa.descriptors @ fb.descriptors.T
        assert ((sims == sims.max(axis=0)).sum(axis=0) > 1).all()
        assert len(mutual_nn_matches(fa, fb, 1000)) > 0
        assert_matches_reference(fa, fb)

    def test_first_hit_rows_whose_best_column_lies_elsewhere(self):
        # row 0 is the first hit of column 0 and row 1 of column 2, but
        # each row's own best column is another (1 and 3); rows 3 and 4,
        # whose best columns are 0 and 2, are therefore not mutual
        s = math.sqrt(0.32)
        da = np.array([[0.6, 0.8, 0.0, 0.0, 0.0, 0.0],
                       [0.0, 0.0, 0.6, 0.8, 0.0, 0.0],
                       [0.6, 0.0, 0.0, 0.0, 0.8, 0.0],
                       [0.6, 0.0, 0.0, 0.0, s, s],
                       [0.0, 0.0, 0.6, 0.0, s, s]], dtype=np.float32)
        db = np.eye(6, dtype=np.float32)
        fa = image_from(np.zeros((5, 2)), da, "a")
        fb = image_from(np.zeros((6, 2)), db, "b")
        sims = fa.descriptors @ fb.descriptors.T
        first_hit = np.argmax(sims == sims.max(axis=0), axis=0)
        elsewhere = np.argmax(sims, axis=1)[first_hit] != np.arange(6)
        assert elsewhere.sum() > 1
        got = mutual_nn_matches(fa, fb, b=10)
        assert sorted((int(c.idx_a), int(c.idx_b)) for c in got) == [(0, 1), (1, 3), (2, 4)]
        assert_matches_reference(fa, fb)

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_column_ties_across_row_blocks(self, monkeypatch, rows):
        # blocks of a few rows, so a column's tied maxima lie in several
        # blocks; the earliest tied row must keep the column
        rng = np.random.default_rng(rows)
        distinct = unit_rows(rng, 3, 16)
        da = np.concatenate([distinct[np.arange(21) % 3], unit_rows(rng, 6, 16)])
        da = da[rng.permutation(27)]
        db = np.concatenate([distinct, unit_rows(rng, 8, 16)])[rng.permutation(11)]
        monkeypatch.setattr(scorer, "_BLOCK_BYTES", rows * 4 * len(db))
        fa = image_from(rng.uniform(0, 700, (27, 2)), da, "a")
        fb = image_from(rng.uniform(0, 700, (11, 2)), db, "b")
        sims = fa.descriptors @ fb.descriptors.T
        tied = sims == sims.max(axis=0)
        blocks = [np.unique(np.flatnonzero(col) // rows) for col in tied.T]
        assert sum(len(b) > 1 for b in blocks) >= 3
        got = mutual_nn_matches(fa, fb, 1000)
        assert len(got) >= 3
        best_ba = np.argmax(sims, axis=0)
        assert all(best_ba[int(c.idx_b)] == int(c.idx_a) for c in got)
        assert_matches_reference(fa, fb)

    @pytest.mark.parametrize("n_a,n_b", [(1, 9), (9, 1), (1, 1), (0, 9), (9, 0), (0, 0)])
    def test_equals_argmax_on_degenerate_shapes(self, n_a, n_b):
        rng = np.random.default_rng(n_a * 10 + n_b)
        fa = image_from(rng.uniform(0, 700, (n_a, 2)), unit_rows(rng, n_a, 16), "a")
        fb = image_from(rng.uniform(0, 700, (n_b, 2)), unit_rows(rng, n_b, 16), "b")
        assert_matches_reference(fa, fb)

    def test_similarity_is_the_float32_product_widened(self):
        rng = np.random.default_rng(12)
        fa = image_from(rng.uniform(0, 700, (90, 2)), unit_rows(rng, 90, 128), "a")
        fb = image_from(rng.uniform(0, 700, (70, 2)), unit_rows(rng, 70, 128), "b")
        sims = fa.descriptors @ fb.descriptors.T
        assert sims.dtype == np.float32
        got = mutual_nn_matches(fa, fb, 1000)
        assert len(got) > 0
        want = sims[got.idx_a, got.idx_b].astype(np.float64)
        assert got.similarity.dtype == np.float64
        assert got.similarity.tobytes() == want.tobytes()

    def test_peak_memory_one_similarity_matrix(self):
        # one float32 matrix plus row-block temporaries; a bool mask of the
        # matrix, transposed as an argmax along axis 0 copies it, reaches
        # 1.25x, a transposed float32 copy 2x and a float64 product 2x
        n_a, n_b = 1500, 1400
        rng = np.random.default_rng(3)
        fa = image_from(np.zeros((n_a, 2)), unit_rows(rng, n_a, 32), "a")
        fb = image_from(np.zeros((n_b, 2)), unit_rows(rng, n_b, 32), "b")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            mutual_nn_matches(fa, fb, b=50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * n_a * n_b * 4

    def test_workspace_gives_the_same_bits(self):
        rng = np.random.default_rng(11)
        fa = image_from(rng.uniform(0, 700, (300, 2)), unit_rows(rng, 300, 32), "a")
        fb = image_from(rng.uniform(0, 700, (170, 2)), unit_rows(rng, 170, 32), "b")
        # larger than either product, and filled with leftovers of another pair
        work = rng.normal(size=300 * 170 + 999).astype(np.float32)
        for x, y in ((fa, fb), (fb, fa)):
            got = mutual_nn_matches(x, y, 60, work)
            want = mutual_nn_matches(x, y, 60)
            assert len(got) > 0
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
            # callers may keep every pair's matches while the workspace is reused
            assert not np.shares_memory(got, work)


class TestScorePair:
    def setup_method(self):
        self.case = gen_frustum_pair(np.random.default_rng(7), n=90,
                                     separation_deg=30.0)
        self.fa, self.fb = features_from_case(self.case, seed=1)
        self.cfg = SaraConfig()

    def test_accepted_pair_fields(self):
        s = score_pair(self.fa, self.fb, self.cfg)
        assert s.rejected is None
        assert s.model is not None and s.model.rotation is not None
        assert 0.0 < s.overlap <= 1.0
        assert s.parallax > self.cfg.tau_p
        assert not s.parallax_floored
        assert s.inlier_count == s.model.inliers.size

    def test_overlap_formula(self):
        s = score_pair(self.fa, self.fb, self.cfg)
        expected = s.inlier_count / math.sqrt(
            self.fa.n_keypoints * self.fb.n_keypoints)
        assert s.overlap == pytest.approx(expected, rel=1e-15)

    def test_weight_formula(self):
        s = score_pair(self.fa, self.fb, self.cfg)
        # the paper's plain product, exactly
        assert s.weight == s.overlap * min(s.parallax, self.cfg.parallax_cap)

    def test_parallax_cap_saturates(self):
        wide = gen_frustum_pair(np.random.default_rng(8), n=90,
                                separation_deg=55.0)
        fa, fb = features_from_case(wide, seed=2)
        s = score_pair(fa, fb, self.cfg)
        assert s.parallax > self.cfg.parallax_cap      # raw value kept
        assert s.weight == pytest.approx(
            s.overlap * self.cfg.parallax_cap, rel=1e-12)

    def test_near_duplicate_rejected_by_parallax(self):
        near = gen_frustum_pair(np.random.default_rng(9), n=90,
                                separation_deg=0.06)   # baseline ~0.1% of depth
        fa, fb = features_from_case(near, seed=3)
        s = score_pair(fa, fb, self.cfg)
        assert s.rejected is RejectReason.BELOW_PARALLAX
        assert s.weight == 0.0
        assert s.parallax < self.cfg.tau_p
        assert s.overlap >= self.cfg.tau_o             # parallax was the trigger

    def test_too_few_mutual(self):
        tiny = gen_frustum_pair(np.random.default_rng(10), n=9)
        fa, fb = features_from_case(tiny, seed=4)
        fa = dataclasses.replace(fa, keypoints=fa.keypoints[:5],
                                 descriptors=fa.descriptors[:5])
        s = score_pair(fa, fb, self.cfg)
        assert s.rejected is RejectReason.TOO_FEW_MUTUAL_NN
        assert s.weight == 0.0 and s.model is None

    def test_geometric_junk_no_model(self):
        rng = np.random.default_rng(11)
        desc = unit_rows(rng, 60)
        kp_a = np.column_stack([rng.uniform(0, 1024, 60), rng.uniform(0, 768, 60)])
        kp_b = np.column_stack([rng.uniform(0, 1024, 60), rng.uniform(0, 768, 60)])
        K = np.array([[900.0, 0, 512], [0, 900, 384], [0, 0, 1]])
        fa = image_from(kp_a, desc, "a", intrinsics=K)
        fb = image_from(kp_b, desc, "b", intrinsics=K)
        s = score_pair(fa, fb, self.cfg)
        assert s.rejected is RejectReason.NO_MODEL
        assert s.weight == 0.0

    def test_low_overlap_rejected(self):
        # 8 genuine matches drowned in 1200 keypoints per image; the filler
        # descriptors are constant per image so they cannot match mutually
        small = gen_frustum_pair(np.random.default_rng(12), n=8,
                                 separation_deg=30.0)
        rng = np.random.default_rng(5)
        shared = unit_rows(rng, 8, d=64).astype(np.float64)
        filler = unit_rows(rng, 2, d=64).astype(np.float64)
        n_junk = 1192
        feats = []
        for which, kp, fill in (("a", small.kp_a, filler[0]), ("b", small.kp_b, filler[1])):
            junk_kp = np.column_stack([rng.uniform(0, 1024, n_junk),
                                       rng.uniform(0, 768, n_junk)])
            feats.append(image_from(
                np.vstack([kp, junk_kp]),
                np.vstack([shared, np.tile(fill, (n_junk, 1))]).astype(np.float32),
                which, intrinsics=small.intrinsics.copy()))
        s = score_pair(feats[0], feats[1], self.cfg)
        assert s.rejected is RejectReason.BELOW_OVERLAP
        assert 0.0 < s.overlap < self.cfg.tau_o
        assert s.parallax >= self.cfg.tau_p   # overlap check fires first

    def test_uncalibrated_parallax_floored(self):
        fa, fb = features_from_case(self.case, seed=1, with_intrinsics=False)
        s = score_pair(fa, fb, self.cfg)
        assert s.rejected is None
        assert s.parallax_floored
        assert s.parallax == self.cfg.tau_p
        assert s.model.rotation is None
        assert s.weight == s.overlap * self.cfg.tau_p

    def test_record_holds_primary_facts_only(self):
        assert [f.name for f in dataclasses.fields(PairScore)] == [
            "overlap", "parallax", "weight", "model", "rejected"]
        bare = PairScore(overlap=0.0, parallax=0.0, weight=0.0,
                         rejected=RejectReason.NO_MODEL)
        assert bare.inlier_count == 0 and not bare.parallax_floored


class TestScorePairOnScene:
    @pytest.mark.parametrize("a, b", [(0, 1), (1, 0)])
    def test_adjacent_parallax_matches_oracle(self, orbit20, orbit20_features, a, b):
        # the pose is image b relative to image a, in either argument order
        s = score_pair(orbit20_features[a], orbit20_features[b], SaraConfig())
        truth = oracle_pair_truth(orbit20, a, b)
        assert s.rejected is None
        assert abs(s.parallax - truth.median_parallax) < 1.0 * DEG
        assert rot_geodesic(s.model.rotation, truth.rotation) < 1.0 * DEG

    def test_top_b_cut_among_ties_keeps_true_matches(self):
        # noise-free 128-d descriptors: about 150 true matches per adjacent
        # pair share a similarity of 1 up to rounding, so the float32 bits
        # pick the top b among them, and every pick is a true match
        scene = generate_orbit_scene(4, 2000, noise_px=0.5, seed=1, descriptor_dim=128)
        features = render_features(scene)
        point_ids = [np.flatnonzero(row) for row in scene.visibility]
        b = SaraConfig().b
        for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            tied = mutual_nn_matches(features[i], features[j], 10**9).similarity > 1 - 1e-6
            assert tied.sum() > 2 * b
            m = mutual_nn_matches(features[i], features[j], b)
            assert len(m) == b and (m.similarity > 1 - 1e-6).all()
            np.testing.assert_array_equal(point_ids[i][m.idx_a], point_ids[j][m.idx_b])

    def test_adjacent_beats_antipodal(self, orbit20_features):
        cfg = SaraConfig()
        adjacent = score_pair(orbit20_features[0], orbit20_features[1], cfg)
        antipodal = score_pair(orbit20_features[0], orbit20_features[10], cfg)
        assert adjacent.weight > antipodal.weight

    def test_estimated_overlap_tracks_oracle(self, orbit20, orbit20_features):
        # rank agreement over one camera's candidates; generous budget so
        # inlier counts are not clipped
        cfg = SaraConfig(b=150)
        est, oracle = [], []
        for j in range(1, 20):
            s = score_pair(orbit20_features[0], orbit20_features[j], cfg)
            est.append(s.overlap)
            oracle.append(oracle_pair_truth(orbit20, 0, j).overlap_fraction)
        assert spearman(est, oracle) > 0.8


class TestScoreAll:
    def test_empty_candidates(self, orbit20_features):
        assert score_all(orbit20_features, set(), SaraConfig()) == {}

    def test_accepts_candidate_set(self, orbit20_features):
        vectors = np.stack([f.global_desc for f in orbit20_features]).astype(np.float64)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        candidates = cosine_knn(vectors, k=3)
        cfg = SaraConfig()
        scores = score_all(orbit20_features, candidates, cfg)
        assert set(scores) == set(candidates)
        n = len(orbit20_features)
        for (i, j), s in scores.items():
            assert_same_score(s, score_pair(orbit20_features[i], orbit20_features[j], cfg,
                                            i * n + j))

    def test_one_workspace_across_keypoint_counts(self, orbit20_features):
        # largest product first, so later pairs run over the earlier ones' leftovers
        features = [dataclasses.replace(f, keypoints=f.keypoints[:m], descriptors=f.descriptors[:m])
                    for f, m in zip(orbit20_features[:3], (400, 260, 130))]
        assert len({f.n_keypoints for f in features}) == 3
        cfg = SaraConfig()
        scores = score_all(features, {(0, 1), (0, 2), (1, 2)}, cfg)
        assert sum(s.model is not None for s in scores.values()) >= 2
        for (i, j), s in scores.items():
            assert_same_score(s, score_pair(features[i], features[j], cfg, i * 3 + j))

    @pytest.mark.parametrize("group_pairs", [1, 3, None], ids=["one", "three", "unbounded"])
    def test_group_bound_keeps_every_score(self, orbit20_features, monkeypatch, group_pairs):
        # image 2 keeps 5 keypoints, so its pairs stop before the search and
        # sit between searched ones in a group; image 4 has no intrinsics
        cfg = SaraConfig()
        few, bare = orbit20_features[2], orbit20_features[4]
        features = list(orbit20_features[:7])
        features[2] = dataclasses.replace(
            few, keypoints=few.keypoints[:5], descriptors=few.descriptors[:5],
            scores=None if few.scores is None else few.scores[:5])
        features[4] = dataclasses.replace(bare, intrinsics=None)
        monkeypatch.setattr(scorer, "_GROUP_HYPOTHESES", sys.maxsize if group_pairs is None
                            else group_pairs * cfg.ransac_iterations)
        n = len(features)
        scores = score_all(features, {(i, j) for i in range(n) for j in range(i + 1, n)}, cfg)
        reasons = {s.rejected for s in scores.values()}
        assert {None, RejectReason.TOO_FEW_MUTUAL_NN, RejectReason.NO_MODEL} <= reasons
        assert any(s.parallax_floored for s in scores.values())
        for (i, j), s in scores.items():
            assert_same_score(s, score_pair(features[i], features[j], cfg, i * n + j))

    def test_peak_memory_bounded_by_group(self, orbit20_features):
        # 160 pairs against 40: the 120 more scores the result holds take
        # about 0.25 MB, while one stack over every pair would add about 13 MB
        pairs = sorted((i, j) for i in range(20) for j in range(i + 1, 20))
        peaks = []
        for count in (40, 160):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                score_all(orbit20_features, pairs[:count], SaraConfig())
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2 ** 19

    def test_generator_built_only_for_robust_search(self, orbit20_features, monkeypatch):
        # the last image keeps 5 keypoints, so its pairs stop before the search
        few = orbit20_features[5]
        features = list(orbit20_features[:5]) + [dataclasses.replace(
            few, keypoints=few.keypoints[:5], descriptors=few.descriptors[:5],
            scores=None if few.scores is None else few.scores[:5])]
        streams = []
        build = scorer._pair_rng

        def counted(seed, stream):
            streams.append(stream)
            return build(seed, stream)

        monkeypatch.setattr(scorer, "_pair_rng", counted)
        n = len(features)
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
        scores = score_all(features, pairs, SaraConfig())
        searched = sorted(i * n + j for (i, j), s in scores.items()
                          if s.rejected is not RejectReason.TOO_FEW_MUTUAL_NN)
        assert sum(s.rejected is RejectReason.TOO_FEW_MUTUAL_NN
                   for s in scores.values()) == n - 1
        assert searched and sorted(streams) == searched

    def test_pairs_below_eight_keypoints_skip_the_matcher(self, orbit20_features, monkeypatch):
        # image 3 keeps 7 keypoints and image 4 keeps 8: only image 3's
        # pairs are decided without matching, as matching would decide them
        features = [dataclasses.replace(f, keypoints=f.keypoints[:m], descriptors=f.descriptors[:m],
                                        scores=None if f.scores is None else f.scores[:m])
                    for f, m in zip(orbit20_features[:5], (400, 400, 400, 7, 8))]
        seen = []
        match = scorer.mutual_nn_matches

        def counted(fa, fb, b, work=None):
            seen.append((fa.image_id, fb.image_id))
            return match(fa, fb, b, work)

        monkeypatch.setattr(scorer, "mutual_nn_matches", counted)
        cfg = SaraConfig()
        n = len(features)
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
        scores = score_all(features, pairs, cfg)
        small = features[3].image_id
        assert len(seen) == len(pairs) - (n - 1)
        assert all(small not in ids for ids in seen)
        assert any(features[4].image_id in ids for ids in seen)
        for (i, j), s in scores.items():
            if 3 in (i, j):
                assert s == PairScore(overlap=0.0, parallax=0.0, weight=0.0,
                                      rejected=RejectReason.TOO_FEW_MUTUAL_NN)
                assert_same_score(s, score_pair(features[i], features[j], cfg, i * n + j))
                assert len(match(features[i], features[j], cfg.b)) < 8

    def test_rejection_reasons_recheckable(self, orbit20_features):
        cfg = SaraConfig()
        pairs = {(i, j) for i in range(20) for j in range(i + 1, 20)}
        scores = score_all(orbit20_features, pairs, cfg)
        seen = set()
        for s in scores.values():
            if s.rejected is None:
                assert s.overlap >= cfg.tau_o and s.parallax >= cfg.tau_p
                assert s.weight > 0.0
            elif s.rejected is RejectReason.BELOW_OVERLAP:
                assert s.overlap < cfg.tau_o
            elif s.rejected is RejectReason.BELOW_PARALLAX:
                assert s.overlap >= cfg.tau_o and s.parallax < cfg.tau_p
            if s.rejected is not None:
                assert s.weight == 0.0
                seen.add(s.rejected)
        assert RejectReason.NO_MODEL in seen   # antipodal pairs cannot fit
