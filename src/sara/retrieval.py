"""Candidate pair retrieval by exact cosine k-nearest-neighbors.

Global descriptors are unit vectors, so cosine similarity is a plain dot
product. The candidate set is the symmetric union: a pair survives when
either endpoint ranks the other among its top k.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidK, TooFewImages

# bytes of similarity rows per selection block
_BLOCK_BYTES = 1 << 21


def cosine_knn(global_descs, k: int) -> frozenset[tuple[int, int]]:
    """Candidate pairs from exact top-k neighbors per image over unit global descriptors.

    Ties in similarity break toward the lower node index: each row keeps
    every column strictly above its k-th largest similarity, then the
    lowest-index columns equal to it, which is the first k of a stable
    descending sort. The similarities are one full ``g @ g.T`` product
    (a blocked product would change their bits); the selection runs
    over row blocks of about ``_BLOCK_BYTES``, so beyond that one n x n
    matrix it holds a few blocks' worth of memory. Pairs are
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
    pairs: set[tuple[int, int]] = set()
    step = max(1, _BLOCK_BYTES // (8 * n))
    for start in range(0, n, step):
        block = sims[start:start + step]
        # fancy indexing copies the k-th values, so the partitioned copy is freed
        kth = np.partition(block, n - k, axis=1)[:, [n - k]]
        above = block > kth
        ties = block == kth
        ties &= np.cumsum(ties, axis=1, dtype=np.int32) <= k - above.sum(axis=1, keepdims=True)
        rows, cols = np.nonzero(above | ties)
        rows += start
        pairs.update(zip(np.minimum(rows, cols).tolist(), np.maximum(rows, cols).tolist()))
    return frozenset(pairs)
