"""Candidate pair retrieval by exact cosine k-nearest-neighbors.

Global descriptors are unit vectors, so cosine similarity is a plain dot
product. The candidate set is the symmetric union: a pair survives when
either endpoint ranks the other among its top k.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidK, TooFewImages


def cosine_knn(global_descs, k: int) -> frozenset[tuple[int, int]]:
    """Candidate pairs from exact top-k neighbors per image over unit global descriptors.

    Ties in similarity break toward the lower node index. Pairs are
    deduplicated into canonical (i, j) with i < j.
    """
    g = np.asarray(global_descs, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError("global descriptors must be a 2-d array")
    n = g.shape[0]
    if n < 2:
        raise TooFewImages(f"need at least 2 images, got {n}")
    if not 1 <= k <= n - 1:
        raise InvalidK(f"k={k} outside [1, {n - 1}]")
    norms = np.linalg.norm(g, axis=1)
    # written so that a NaN norm, which fails every comparison, is rejected
    if not (np.abs(norms - 1.0) <= 1e-3).all():
        raise ValueError("global descriptors must be unit norm")

    sims = g @ g.T
    np.fill_diagonal(sims, -np.inf)
    # stable argsort on negated sims keeps ascending index among ties
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(n), k)
    cols = order.ravel()
    return frozenset(zip(np.minimum(rows, cols).tolist(), np.maximum(rows, cols).tolist()))
