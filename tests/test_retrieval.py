import tracemalloc

import numpy as np
import pytest

from sara.errors import InvalidK, TooFewImages
from sara.retrieval import _BLOCK_BYTES, cosine_knn


def unit_rows(rng, n, d=64):
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def brute_force_pairs(vectors, k):
    """Oracle: per-image top-k by similarity, ties broken by lower index."""
    n = len(vectors)
    sims = vectors @ vectors.T
    pairs = set()
    for i in range(n):
        ranked = sorted((j for j in range(n) if j != i),
                        key=lambda j: (-sims[i, j], j))[:k]
        for j in ranked:
            pairs.add((min(i, j), max(i, j)))
    return pairs


def test_two_images_k1():
    rng = np.random.default_rng(0)
    result = cosine_knn(unit_rows(rng, 2), k=1)
    assert result == {(0, 1)}
    assert len(result) == 1


def test_orthogonal_triple():
    # 0 and 1 slightly aligned, 2 orthogonal-ish to both but closer to 0
    v = np.array([
        [1.0, 0.0, 0.0],
        [0.9, np.sqrt(1 - 0.81), 0.0],
        [0.1, 0.0, np.sqrt(1 - 0.01)],
    ])
    result = cosine_knn(v, k=1)
    # union is symmetric: 2 chose 0, so (0, 2) appears even though 0 did not choose 2
    assert result == {(0, 1), (0, 2)}
    assert result == brute_force_pairs(v, 1)


def test_orbit_against_brute_force(orbit20_features):
    vectors = np.stack([f.global_desc for f in orbit20_features]).astype(np.float64)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    result = cosine_knn(vectors, k=5)
    assert result == brute_force_pairs(vectors, 5)


@pytest.mark.parametrize("n,k", [(5, 2), (17, 4), (40, 1), (9, 8)])
def test_random_sets_match_oracle(n, k):
    rng = np.random.default_rng(n * 100 + k)
    v = unit_rows(rng, n, d=16)
    result = cosine_knn(v, k=k)
    assert result == brute_force_pairs(v, k)
    assert all(0 <= i < j < n for i, j in result)
    assert len(result) >= int(np.ceil(n * k / 2))
    assert len(result) <= n * k


def test_full_k_gives_complete_graph():
    rng = np.random.default_rng(5)
    n = 12
    result = cosine_knn(unit_rows(rng, n), k=n - 1)
    assert len(result) == n * (n - 1) // 2


def test_too_few_images():
    rng = np.random.default_rng(0)
    with pytest.raises(TooFewImages):
        cosine_knn(unit_rows(rng, 1), k=1)


@pytest.mark.parametrize("k", [0, -1, 10])
def test_invalid_k(k):
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidK):
        cosine_knn(unit_rows(rng, 10), k=k)


def test_rejects_unnormalized_input():
    rng = np.random.default_rng(0)
    v = unit_rows(rng, 5) * 2.0
    with pytest.raises(ValueError):
        cosine_knn(v, k=2)


def test_rejects_1d_input():
    with pytest.raises(ValueError, match="2-d"):
        cosine_knn(np.ones(4) / 2.0, k=1)


def test_rejects_nan_row():
    # a NaN norm is never "off by more than the tolerance"; let through,
    # this input yields the self-pair (2, 2)
    g = np.eye(4)
    g[2] = np.nan
    with pytest.raises(ValueError, match="unit norm"):
        cosine_knn(g, 1)


def test_deterministic_under_ties():
    # duplicate descriptors force similarity ties; index order must break them
    v = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    r1 = cosine_knn(v, k=2)
    r2 = cosine_knn(v.copy(), k=2)
    assert r1 == r2
    # 3 is equally similar to 0, 1 and 2; the lower indices win, so (2, 3) is absent
    assert r1 == brute_force_pairs(v, 2) == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)}


def argsort_pairs(vectors, k):
    """Reference: the first k columns of a stable descending sort of each row."""
    sims = vectors @ vectors.T
    np.fill_diagonal(sims, -np.inf)
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(len(vectors)), k)
    cols = order.ravel()
    return set(zip(np.minimum(rows, cols).tolist(), np.maximum(rows, cols).tolist()))


@pytest.mark.parametrize("k", [1, 4, 1099])
def test_row_blocks_match_argsort_with_planted_ties(k):
    # n = 1100 spans several selection blocks; exact duplicates make rows
    # whose k-th similarity is shared by more columns than fit in the top k
    rng = np.random.default_rng(7)
    v = unit_rows(rng, 1100, d=8)
    v[[100, 300, 550, 900, 1099]] = v[5]
    v[[2, 700]] = v[1000]
    assert 8 * len(v) ** 2 > 2 * _BLOCK_BYTES
    sims = v @ v.T
    np.fill_diagonal(sims, -np.inf)
    kth = -np.sort(-sims[5])[k - 1]
    assert k == 1099 or (sims[5] == kth).sum() > 1
    assert cosine_knn(v, k=k) == argsort_pairs(v, k)


def test_selection_holds_one_similarity_matrix():
    # the full-row argsort of -sims held three n x n arrays, about 3x
    n = 1500
    v = unit_rows(np.random.default_rng(2), n, d=32)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cosine_knn(v, k=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * n * n * 8
