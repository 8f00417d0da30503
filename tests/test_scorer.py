import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import (features_from_case, gen_frustum_pair, lapack_minimal_solve, rot_geodesic,
                     spearman, to_corrs)
from sara import epipolar, scorer
from sara.config import DEG, SaraConfig
from sara.epipolar import correspondences
from sara.errors import CheiralityAmbiguity
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

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            lower_median([])


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
        for b in (1, 2, 50, 1000):
            assert_matches_reference(fa, fb, b)

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
        # the walk takes rows in (-row maximum, row) order, a few at a time,
        # so tied row maxima and a column's tied maxima lie in several of
        # its steps; the earliest tied row must keep the column
        rng = np.random.default_rng(rows)
        distinct = unit_rows(rng, 3, 16)
        da = np.concatenate([distinct[np.arange(21) % 3], unit_rows(rng, 6, 16)])
        da = da[rng.permutation(27)]
        db = np.concatenate([distinct, unit_rows(rng, 8, 16)])[rng.permutation(11)]
        monkeypatch.setattr(scorer, "_BLOCK_BYTES", rows * 4 * len(da))
        fa = image_from(rng.uniform(0, 700, (27, 2)), da, "a")
        fb = image_from(rng.uniform(0, 700, (11, 2)), db, "b")
        sims = fa.descriptors @ fb.descriptors.T
        row_max = sims.max(axis=1)
        step = np.empty(27, dtype=int)   # each row's walk step at b = 1000
        step[np.argsort(-row_max, kind="stable")] = np.arange(27) // rows
        tied = sims == sims.max(axis=0)
        blocks = [np.unique(step[col]) for col in tied.T]
        assert sum(len(b) > 1 for b in blocks) >= 3
        assert any(len(np.unique(step[row_max == m])) > 1 for m in np.unique(row_max))
        got = mutual_nn_matches(fa, fb, 1000)
        assert len(got) >= 3
        best_ba = np.argmax(sims, axis=0)
        assert all(best_ba[int(c.idx_b)] == int(c.idx_a) for c in got)
        assert_matches_reference(fa, fb)

    @pytest.mark.parametrize("block_rows", [1, 3, None])
    def test_hub_column_gives_one_match(self, monkeypatch, block_rows):
        # every row of a is nearest to column 5 of b; only the row that
        # column prefers matches, and every later step drops its rows as
        # taken before the gather
        rng = np.random.default_rng(4)
        hub = unit_rows(rng, 1, 16)[0]
        da = hub + 0.3 * unit_rows(rng, 40, 16)
        da = (da / np.linalg.norm(da, axis=1, keepdims=True)).astype(np.float32)
        db = unit_rows(rng, 12, 16)
        db[5] = hub
        if block_rows is not None:
            monkeypatch.setattr(scorer, "_BLOCK_BYTES", block_rows * 4 * 40)
        fa = image_from(rng.uniform(0, 700, (40, 2)), da, "a")
        fb = image_from(rng.uniform(0, 700, (12, 2)), db, "b")
        sims = fa.descriptors @ fb.descriptors.T
        assert (np.argmax(sims, axis=1) == 5).all()
        for b in (1, 2, 1000):
            got = mutual_nn_matches(fa, fb, b)
            assert [(int(c.idx_a), int(c.idx_b)) for c in got] == [(int(np.argmax(sims[:, 5])), 5)]
            assert_matches_reference(fa, fb, b)

    @pytest.mark.parametrize("b", [1, 2, 10])
    def test_best_column_taken_by_an_earlier_step(self, monkeypatch, b):
        # one row per step: row 2's best column 0 is row 0's, taken two
        # steps earlier, so row 2 is not mutual, though it is the best row
        # of its second column 2; row 1 keeps column 1
        da = np.array([[0.9, 0.0, 0.0, math.sqrt(0.19)],
                       [0.0, 0.85, 0.0, math.sqrt(1 - 0.85 ** 2)],
                       [0.8, 0.0, 0.6, 0.0]], dtype=np.float32)
        db = np.eye(4, dtype=np.float32)[:3]
        monkeypatch.setattr(scorer, "_BLOCK_BYTES", 4 * 3)
        fa = image_from(np.zeros((3, 2)), da, "a")
        fb = image_from(np.zeros((3, 2)), db, "b")
        got = mutual_nn_matches(fa, fb, b)
        assert [(int(c.idx_a), int(c.idx_b)) for c in got] == [(0, 0), (1, 1)][:b]
        assert_matches_reference(fa, fb, b)

    @pytest.mark.parametrize("rows", [1, 2, None])
    def test_equal_row_maxima_lower_row_wins(self, monkeypatch, rows):
        # rows 0-3 share the row maximum 0.6 and row 4's is 0.8, so the
        # walk takes rows 4, 0, 1, 2, 3. Row 2's best column 1 ties row 0's
        # maximum, and the lower row 0 keeps column 1 although its own best
        # is column 0. Row 1's best column 2 ties row 4's value there, but
        # row 4 is the higher row, so row 1 keeps it; row 3 loses it to row 1
        x = math.sqrt(0.32)
        da = np.array([[0.6, 0.6, 0.0, 0.0, 0.0, math.sqrt(0.28)],
                       [0.0, 0.0, 0.6, 0.0, x, x],
                       [0.0, 0.6, 0.0, 0.0, x, x],
                       [0.0, 0.0, 0.6, 0.0, x, x],
                       [0.0, 0.0, 0.6, 0.8, 0.0, 0.0]], dtype=np.float32)
        db = np.eye(6, dtype=np.float32)[:4]
        if rows is not None:
            monkeypatch.setattr(scorer, "_BLOCK_BYTES", rows * 4 * 5)
        fa = image_from(np.zeros((5, 2)), da, "a")
        fb = image_from(np.zeros((4, 2)), db, "b")
        sims = fa.descriptors @ fb.descriptors.T
        assert (sims.max(axis=1)[:4] == sims[0, 0]).all()
        got = mutual_nn_matches(fa, fb, 10)
        assert [(int(c.idx_a), int(c.idx_b)) for c in got] == [(4, 3), (0, 0), (1, 2)]
        assert_matches_reference(fa, fb, 10)

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
        # one float32 matrix plus the walk's vectors and small gathers; a
        # 1 MiB row block's temporaries reach 1.13x, a bool mask of the
        # matrix, transposed as an argmax along axis 0 copies it, 1.25x, a
        # transposed float32 copy 2x and a float64 product 2x
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
        assert peak < 1.1 * n_a * n_b * 4

    def test_peak_memory_bounded_for_any_b(self, monkeypatch):
        # with every mutual match asked for, the walk reaches the matrix's
        # last rows; its gathers stay within _BLOCK_BYTES of similarities,
        # where walking without that cap reaches 4.2x the matrix
        n_a, n_b = 1500, 1400
        rng = np.random.default_rng(3)
        fa = image_from(np.zeros((n_a, 2)), unit_rows(rng, n_a, 32), "a")
        fb = image_from(np.zeros((n_b, 2)), unit_rows(rng, n_b, 32), "b")
        monkeypatch.setattr(scorer, "_BLOCK_BYTES", 1 << 16)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = mutual_nn_matches(fa, fb, b=10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) > 50
        assert peak < 1.1 * n_a * n_b * 4

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


def settling_features(orbit20_features):
    """Eight orbit views; image 2 keeps 5 keypoints and image 5 keeps 12
    whose descriptors repeat 3 rows, so both images' pairs settle
    too_few_mutual_nn: image 2's unmatched, image 5's matched."""
    features = list(orbit20_features[:8])
    few, repeated = features[2], features[5]
    features[2] = dataclasses.replace(
        few, keypoints=few.keypoints[:5], descriptors=few.descriptors[:5],
        scores=None if few.scores is None else few.scores[:5])
    features[5] = dataclasses.replace(
        repeated, keypoints=repeated.keypoints[:12],
        descriptors=repeated.descriptors[np.arange(12) % 3],
        scores=None if repeated.scores is None else repeated.scores[:12])
    return features


@pytest.fixture(scope="module")
def orbit16_features():
    """Features of a 16-view orbit at 0.5 px: 120 pairs, three robust-search windows."""
    return render_features(generate_orbit_scene(16, 400, noise_px=0.5, seed=3))


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

    @pytest.mark.parametrize("window_searches", [1, 3, None], ids=["one", "three", "unbounded"])
    def test_group_bound_keeps_every_score(self, orbit20_features, monkeypatch, window_searches):
        # image 2 keeps 5 keypoints, so its pairs settle before the search,
        # between searched ones; image 4 has no intrinsics. Windows of one
        # search, three searches, or every search in one window
        cfg = SaraConfig()
        few, bare = orbit20_features[2], orbit20_features[4]
        features = list(orbit20_features[:7])
        features[2] = dataclasses.replace(
            few, keypoints=few.keypoints[:5], descriptors=few.descriptors[:5],
            scores=None if few.scores is None else few.scores[:5])
        features[4] = dataclasses.replace(bare, intrinsics=None)
        monkeypatch.setattr(scorer, "_WINDOW_HYPOTHESES", window_searches * cfg.ransac_iterations
                            if window_searches else sys.maxsize)
        n = len(features)
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
        scores = score_all(features, pairs, cfg)
        reasons = {s.rejected for s in scores.values()}
        assert {None, RejectReason.TOO_FEW_MUTUAL_NN, RejectReason.NO_MODEL} <= reasons
        assert any(s.parallax_floored for s in scores.values())
        for (i, j), s in scores.items():
            assert_same_score(s, score_pair(features[i], features[j], cfg, i * n + j))

    def test_settled_pairs_straddle_a_window_boundary(self, orbit20_features, monkeypatch):
        # windows of three searches: pairs settled too_few_mutual_nn, unmatched
        # (image 2 keeps 5 keypoints) and matched (image 5's 12 keypoints
        # repeat 3 descriptors, so at most 3 mutual matches), fall between
        # the last search of one short_ransac call and the first of the next,
        # and every score equals score_pair's
        cfg = SaraConfig()
        features = settling_features(orbit20_features)
        search, calls = scorer.short_ransac, []

        def searching(searches, *args):
            calls.append([pair_of[id(corrs)] for corrs, _, _ in searches])
            return search(searches, *args)

        match, pair_of = scorer.mutual_nn_matches, {}
        index = {f.image_id: k for k, f in enumerate(features)}

        def matching(fa, fb, b, work=None):
            corrs = match(fa, fb, b, work)
            pair_of[id(corrs)] = (index[fa.image_id], index[fb.image_id])
            return corrs

        monkeypatch.setattr(scorer, "short_ransac", searching)
        monkeypatch.setattr(scorer, "mutual_nn_matches", matching)
        monkeypatch.setattr(scorer, "_WINDOW_HYPOTHESES", 3 * cfg.ransac_iterations)
        n = len(features)
        pairs = sorted((i, j) for i in range(n) for j in range(i + 1, n))
        scores = score_all(features, set(pairs), cfg)
        assert [len(call) for call in calls[:-1]] == [3] * (len(calls) - 1)
        straddling = set()
        for before, after in zip(calls, calls[1:]):
            between = pairs[pairs.index(before[-1]) + 1:pairs.index(after[0])]
            assert all(scores[pair].rejected is RejectReason.TOO_FEW_MUTUAL_NN for pair in between)
            straddling |= {image for pair in between for image in pair if image in (2, 5)}
        assert straddling == {2, 5}
        for (i, j), s in scores.items():
            assert_same_score(s, score_pair(features[i], features[j], cfg, i * n + j))

    def test_settled_pairs_share_one_score(self, orbit20_features, monkeypatch):
        # a pair with fewer than 8 mutual matches, matched or not, ends with
        # the call's one shared frozen score, builds no generator and reaches
        # no short_ransac call
        features = settling_features(orbit20_features)
        streams, searched = [], []
        build, search = scorer._pair_rng, scorer.short_ransac

        def counted(seed, stream):
            streams.append(stream)
            return build(seed, stream)

        def searching(searches, *args):
            searched.extend(len(corrs) for corrs, _, _ in searches)
            return search(searches, *args)

        monkeypatch.setattr(scorer, "_pair_rng", counted)
        monkeypatch.setattr(scorer, "short_ransac", searching)
        cfg = SaraConfig()
        n = len(features)
        scores = score_all(features, {(i, j) for i in range(n) for j in range(i + 1, n)}, cfg)
        settled = [pair for pair, s in scores.items()
                   if s.rejected is RejectReason.TOO_FEW_MUTUAL_NN]
        assert len(settled) == 2 * (n - 1) - 1
        shared = scores[settled[0]]
        assert all(scores[pair] is shared for pair in settled)
        assert score_pair(features[2], features[5], cfg) == shared
        assert shared == PairScore(overlap=0.0, parallax=0.0, weight=0.0,
                                   rejected=RejectReason.TOO_FEW_MUTUAL_NN)
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.weight = 1.0
        assert sorted(streams) == sorted(i * n + j for (i, j) in scores.keys() - set(settled))
        assert len(searched) == len(streams) and min(searched) >= epipolar.MIN_MATCHES

    @pytest.mark.parametrize("extra", [0, 1], ids=["equal", "more"])
    def test_window_counts_hypothesis_sets(self, orbit20_features, monkeypatch, extra):
        # ransac_iterations at the window's hypothesis sets, or above them:
        # one search per short_ransac call, each scored as score_pair scores it
        cfg = dataclasses.replace(SaraConfig(),
                                  ransac_iterations=scorer._WINDOW_HYPOTHESES + extra)
        search, calls = scorer.short_ransac, []

        def searching(searches, *args):
            calls.append(len(searches))
            return search(searches, *args)

        monkeypatch.setattr(scorer, "short_ransac", searching)
        features = orbit20_features[:3]
        scores = score_all(features, {(0, 1), (0, 2), (1, 2)}, cfg)
        assert calls == [1, 1, 1]
        assert sum(s.model is not None for s in scores.values()) >= 2
        for (i, j), s in scores.items():
            assert_same_score(s, score_pair(features[i], features[j], cfg, i * 3 + j))

    @pytest.mark.parametrize("calibrated", [True, False], ids=["calibrated", "uncalibrated"])
    def test_outputs_do_not_see_the_hypothesis_solver(self, orbit16_features, monkeypatch,
                                                      calibrated):
        # every pair of a 16-view orbit at 0.5 px, scored once with the
        # shipped minimal solve and once with LAPACK's complete QR and 3x3
        # SVD. The hypotheses differ in their last bits, yet every search
        # picks the same winner, so the scores keep their bits. The one
        # exception is a winner with exactly 8 inliers: its refit is itself a
        # minimal solve, so the stored matrix moves in its last bits. That
        # happens on two uncalibrated pairs of views far apart, whose winners
        # keep only their own 8 sample points
        features = orbit16_features
        if not calibrated:
            features = [dataclasses.replace(f, intrinsics=None) for f in features]
        pairs = {(i, j) for i in range(16) for j in range(i + 1, 16)}
        cfg = SaraConfig()
        shipped = score_all(features, pairs, cfg)
        monkeypatch.setattr(epipolar, "_minimal_solve", lapack_minimal_solve)
        reference = score_all(features, pairs, cfg)
        assert shipped.keys() == reference.keys() == pairs
        assert sum(s.rejected is None for s in shipped.values()) >= 20
        moved = set()
        for pair, score in shipped.items():
            want = reference[pair]
            if score.model is not None and score.model.matrix.tobytes() != want.model.matrix.tobytes():
                moved.add(pair)
                assert score.inlier_count == epipolar.MIN_MATCHES
                assert np.abs(score.model.matrix - want.model.matrix).max() < 1e-15
                score = dataclasses.replace(score, model=dataclasses.replace(
                    score.model, matrix=want.model.matrix))
            assert_same_score(score, want)
        assert moved == (set() if calibrated else {(2, 8), (2, 11)})

    def test_one_robust_search_per_window(self, orbit16_features, monkeypatch):
        # the benchmark times the robust search as the span of
        # scorer.short_ransac: the sorted pairs are matched in order, and
        # one call runs each window of _WINDOW_HYPOTHESES // ransac_iterations
        # pairs with at least 8 matches, the last window the rest. Inside
        # it, two fit calls, the select stage's and one refit of every
        # winner, two Sampson passes, the select stage's and the finish's
        # recount, and one recover_pose call, holding the posed rows' models
        # in search order on points padded to the window's largest match
        # count plus one row. Image 1 keeps 60 keypoints, so a window mixes
        # match counts
        few = orbit16_features[1]
        features = list(orbit16_features)
        features[1] = dataclasses.replace(few, keypoints=few.keypoints[:60],
                                          descriptors=few.descriptors[:60],
                                          scores=None if few.scores is None else few.scores[:60])
        n = len(features)
        pairs = sorted((i, j) for i in range(n) for j in range(i + 1, n))
        index = {f.image_id: k for k, f in enumerate(features)}
        match, search, recover = scorer.mutual_nn_matches, scorer.short_ransac, epipolar.recover_pose
        solve = epipolar._fundamental_stack
        score = epipolar._sampson
        matched, calls, open_calls, poses, fits, passes = [], [], [], [], [], []

        def matching(fa, fb, b, work=None):
            matched.append(((index[fa.image_id], index[fb.image_id]), match(fa, fb, b, work)))
            return matched[-1][1]

        def searching(searches, *args):
            # matched holds every match array, so no id is reused
            pair_of = {id(m): pair for pair, m in matched}
            calls.append([pair_of[id(corrs)] for corrs, _, _ in searches])
            open_calls.append(len(calls))
            try:
                return search(searches, *args)
            finally:
                open_calls.pop()

        def recovering(E, na, nb, inliers):
            results = recover(E, na, nb, inliers)
            assert not any(isinstance(r, CheiralityAmbiguity) for r in results)
            poses.append((list(open_calls), na.shape[1], [M.tobytes() for M in E]))
            return results

        def fitting(P, sizes=None):
            fits.append((list(open_calls), "select" if sizes is None else "refit"))
            return solve(P, sizes)

        def scoring(M, ha, hb):
            passes.append((list(open_calls), "select" if M.ndim == 4 else "recount"))
            return score(M, ha, hb)

        monkeypatch.setattr(scorer, "mutual_nn_matches", matching)
        monkeypatch.setattr(scorer, "short_ransac", searching)
        monkeypatch.setattr(epipolar, "recover_pose", recovering)
        monkeypatch.setattr(epipolar, "_fundamental_stack", fitting)
        monkeypatch.setattr(epipolar, "_sampson", scoring)
        scores = score_all(features, set(pairs), SaraConfig())
        assert [pair for pair, _ in matched] == pairs
        per = scorer._WINDOW_HYPOTHESES // SaraConfig().ransac_iterations
        searched = [pair for pair, m in matched if len(m) >= epipolar.MIN_MATCHES]
        assert len(searched) > 100
        windows = [searched[start:start + per] for start in range(0, len(searched), per)]
        assert len(windows) == 3 and calls == windows
        assert fits == [([w], stage) for w in range(1, len(windows) + 1)
                        for stage in ("select", "refit")]
        assert passes == [([w], stage) for w in range(1, len(windows) + 1)
                          for stage in ("select", "recount")]
        sizes = dict(matched)
        expected, mixed = [], 0
        for w, call in enumerate(calls, start=1):
            posed = [pair for pair in call
                     if scores[pair].model is not None and scores[pair].model.rotation is not None]
            mixed += len({len(sizes[pair]) for pair in posed}) > 1
            expected.append(([w], max(len(sizes[pair]) for pair in call) + 1,
                             [scores[pair].model.matrix.tobytes() for pair in posed]))
        assert mixed > 0
        assert poses == expected

    def test_cheirality_failure_ends_its_pair_no_model(self, orbit16_features, monkeypatch):
        # an ambiguity is planted on the middle row of the first pose
        # recovery of three rows or more: that row's pair ends no_model, and
        # every other pair keeps its score
        features = orbit16_features
        n = len(features)
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
        cfg = SaraConfig()
        clean_scores = score_all(features, pairs, cfg)
        recover, planted = epipolar.recover_pose, []

        def planting(E, na, nb, inliers):
            poses = recover(E, na, nb, inliers)
            if len(E) >= 3 and not planted:
                planted.append(E[len(E) // 2].tobytes())
                poses[len(E) // 2] = CheiralityAmbiguity("planted")
            return poses

        monkeypatch.setattr(epipolar, "recover_pose", planting)
        scores = score_all(features, pairs, cfg)
        failed, = (pair for pair, s in clean_scores.items()
                   if s.model is not None and s.model.matrix.tobytes() in planted)
        assert scores[failed] == PairScore(overlap=0.0, parallax=0.0, weight=0.0,
                                           rejected=RejectReason.NO_MODEL)
        assert clean_scores[failed].rejected is None
        for pair in pairs - {failed}:
            assert_same_score(scores[pair], clean_scores[pair])

    def test_peak_memory_bounded_by_group(self, orbit20_features):
        # 160 pairs against 60, each pair a search, so both fill at least one
        # window: the 100 more scores the result holds take about 0.2 MB,
        # while one window over every pair would add about 12 MB
        pairs = sorted((i, j) for i in range(20) for j in range(i + 1, 20))
        assert 60 >= scorer._WINDOW_HYPOTHESES // SaraConfig().ransac_iterations
        peaks = []
        for count in (60, 160):
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
