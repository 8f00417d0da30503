"""Pair informativeness scoring: overlap x parallax.

A pair's overlap is its verified inlier count normalized by the geometric
mean of the two keypoint counts; its parallax is the lower-median
triangulation angle of the inliers. The selection weight is
overlap * min(parallax, cap), and pairs falling below either
threshold are kept with a rejection reason instead of being dropped, so
the decision stays re-checkable from the stored numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import SaraConfig
from .epipolar import (MIN_MATCHES, TwoViewModel, correspondences, ransac_models,
                       short_ransac)
from .errors import EstimationError
from .features import ImageFeatures


class RejectReason(Enum):
    TOO_FEW_MUTUAL_NN = "too_few_mutual_nn"
    NO_MODEL = "no_model"
    BELOW_OVERLAP = "below_overlap"
    BELOW_PARALLAX = "below_parallax"


@dataclass(frozen=True)
class PairScore:
    """Stored scoring outcome for one candidate pair.

    ``parallax`` is the raw lower-median triangulation angle in radians;
    the saturation cap is applied only inside ``weight``. Rejected pairs
    carry weight 0 and the reason; overlap and parallax stay populated
    whenever they were computed so the rejection predicate can be
    re-checked. The pair's image indices are its key in ``score_all``'s
    map; the inlier count and the parallax floor are read off ``model``.
    """

    overlap: float
    parallax: float
    weight: float
    model: TwoViewModel | None = None
    rejected: RejectReason | None = None

    @property
    def inlier_count(self) -> int:
        """Verified inliers of ``model``; 0 without one."""
        return 0 if self.model is None else self.model.inliers.size

    @property
    def parallax_floored(self) -> bool:
        """True for an uncalibrated model, whose parallax is pinned to ``tau_p``."""
        return self.model is not None and self.model.rotation is None


def lower_median(values) -> float:
    """Order statistic at floor((n-1)/2): the lower median for even counts."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("lower_median of empty sequence")
    return float(arr[(arr.size - 1) // 2])


# bytes of similarity rows that mutual_nn_matches reduces at a time
_BLOCK_BYTES = 1 << 20


def mutual_nn_matches(fa: ImageFeatures, fb: ImageFeatures, b: int,
                      work: np.ndarray | None = None) -> np.recarray:
    """Mutual nearest-neighbor correspondences, best-first, at most b.

    A pair (p, q) matches when q is p's best neighbor and p is q's best
    neighbor under cosine similarity, the float32 product of the two
    float32 descriptor arrays; the argmaxes, the column winners and the
    final order all read those float32 values. Ties in the argmax break
    toward lower indices. Column winners come from one pass over row
    blocks of the similarity matrix, each block at most ``_BLOCK_BYTES``:
    a column's winner moves to a later block only where that block's
    column maximum is strictly greater, so a tied column keeps its lowest
    row. For finite similarities, which ``read_features`` and
    ``write_features`` enforce, that equals ``argmax(sims, axis=0)``,
    without the transposed copy of the whole matrix an argmax along axis
    0 makes. The mutual matches come in ascending p, one per p, so a
    stable sort on similarity breaks ties in the final ordering toward
    lower p. Returns a ``correspondences`` record array, of length 0 when
    either image has no keypoints; its ``similarity`` field holds the
    float32 values widened to float64.

    ``work``, a 1-d float32 array of at least n_a * n_b elements, holds
    the similarity matrix when given; without it the matrix is
    allocated. Either way the product is the same full ``np.matmul``,
    so the matches are bit-identical, and the returned array shares no
    memory with ``work``.
    """
    n_a, n_b = fa.n_keypoints, fb.n_keypoints
    if n_a == 0 or n_b == 0:
        return correspondences([], [], np.empty((0, 2)), np.empty((0, 2)), [])
    out = None if work is None else work[:n_a * n_b].reshape(n_a, n_b)
    sims = np.matmul(fa.descriptors, fb.descriptors.T, out=out)
    best_ab = np.argmax(sims, axis=1)   # first occurrence wins ties
    rows = max(1, _BLOCK_BYTES // (sims.itemsize * n_b))
    best_ba = sims[:rows].argmax(axis=0)
    col_max = sims[best_ba, np.arange(n_b)]
    for r0 in range(rows, n_a, rows):
        blk = sims[r0:r0 + rows]
        blk_max = blk.max(axis=0)
        up = np.flatnonzero(blk_max > col_max)
        best_ba[up] = r0 + blk[:, up].argmax(axis=0)
        col_max[up] = blk_max[up]
    p = np.flatnonzero(best_ba[best_ab] == np.arange(n_a))
    q = best_ab[p]
    s = sims[p, q]
    keep = np.argsort(-s, kind="stable")[:b]
    p, q = p[keep], q[keep]
    return correspondences(p, q, fa.keypoints[p], fb.keypoints[q], s[keep])


# hypothesis sets that score_all draws, solves and scores in one stack: 8
# pairs at 32 iterations. It bounds the stacked arrays; scores do not depend on it.
_GROUP_HYPOTHESES = 256


def _pair_rng(seed: int, stream: int) -> np.random.Generator:
    # counter-based generator keyed by (run seed, pair stream id)
    key = np.array([seed, stream & ((1 << 64) - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def score_pair(fa: ImageFeatures, fb: ImageFeatures, config: SaraConfig,
               stream: int = 0) -> PairScore:
    """Score one candidate pair.

    The model estimates image b relative to image a in argument order:
    matches run from ``fa`` to ``fb`` and the pose maps camera a's frame
    to camera b's. ``score_all`` passes each pair as (i, j), i < j in
    manifest order, so image names play no part. Pairs without both
    intrinsics get parallax pinned to the rejection threshold, leaving
    overlap to differentiate them. The robust search draws from a
    counter-based generator keyed by ``(config.seed, stream)``, built only
    when the search runs; pairs with too few mutual matches build none.
    The pair is scored as a group of one, and the result equals
    ``score_all``'s for the same pair and stream.
    """
    return _score_group([(fa, fb, stream)], config, None)[0]


def _score_group(group, config: SaraConfig, work: np.ndarray | None) -> list[PairScore]:
    """Scores of (fa, fb, stream) pairs, in order, from one hypothesis stack.

    Each pair is matched on its own, except a pair whose smaller image
    has fewer than ``MIN_MATCHES`` keypoints: it cannot reach that many
    mutual matches, so it is not matched and ends ``TOO_FEW_MUTUAL_NN``
    as matching would end it. The pairs with at least ``MIN_MATCHES``
    mutual matches then share one ``ransac_models`` call, which draws,
    solves, scores, selects, refits and projects for all of them, and
    each finishes its robust search (inlier recount and pose) in its own
    ``short_ransac`` call on its share.
    """
    matches = {k: mutual_nn_matches(fa, fb, config.b, work)
               for k, (fa, fb, _) in enumerate(group)
               if min(fa.n_keypoints, fb.n_keypoints) >= MIN_MATCHES}
    calibs = [(fa.intrinsics, fb.intrinsics)
              if fa.intrinsics is not None and fb.intrinsics is not None else None
              for fa, fb, _ in group]
    searched = [k for k, m in matches.items() if len(m) >= MIN_MATCHES]
    shares = dict(zip(searched, ransac_models(
        [(matches[k], calibs[k], _pair_rng(config.seed, group[k][2])) for k in searched],
        config.ransac_iterations, config.inlier_threshold_px)))

    scores = []
    for k, (fa, fb, _) in enumerate(group):
        model = reason = None
        if k not in shares:
            reason = RejectReason.TOO_FEW_MUTUAL_NN
        else:
            try:
                model = short_ransac(shares[k])
            except EstimationError:
                reason = RejectReason.NO_MODEL

        overlap = parallax = 0.0
        if model is not None:
            overlap = float(model.inliers.size) / math.sqrt(fa.n_keypoints * fb.n_keypoints)
            parallax = (config.tau_p if calibs[k] is None
                        else lower_median(model.triangulation_angles))
            if overlap < config.tau_o:
                reason = RejectReason.BELOW_OVERLAP
            elif parallax < config.tau_p:
                reason = RejectReason.BELOW_PARALLAX
        weight = 0.0 if reason is not None else overlap * min(parallax, config.parallax_cap)
        scores.append(PairScore(overlap=overlap, parallax=parallax, weight=weight,
                                model=model, rejected=reason))
    return scores


def score_all(features, candidates, config: SaraConfig) -> dict[tuple[int, int], PairScore]:
    """Score every candidate pair, in sorted order on the calling thread.

    ``features`` is the loaded feature list in manifest order;
    ``candidates`` is any iterable of canonical (i, j) pairs indexing into
    it. Pair (i, j) is scored with stream id ``i * n + j``, so its robust
    search draws from its own counter-based generator and each score
    depends only on the pair, the features and the config seed: it equals
    ``score_pair``'s.

    The sorted pairs are scored in groups, each of as many pairs as make
    up ``_GROUP_HYPOTHESES`` hypothesis sets at ``config.ransac_iterations``
    (at least one pair). A group's searches draw, solve, score, select,
    refit and project in stacks, which saves numpy's per-call cost on tiny
    arrays; the bound keeps the stacked arrays from growing with the pair
    count.

    One float32 workspace, sized for the largest n_a * n_b among the
    pairs, holds every pair's similarity matrix in turn, so no matrix is
    freed per pair: after a large free glibc raises its mmap threshold,
    and the next matrices come from a heap it keeps resident.
    """
    n = len(features)
    pairs = sorted(candidates)
    work = np.empty(max((features[i].n_keypoints * features[j].n_keypoints
                         for i, j in pairs), default=0), dtype=np.float32)
    size = max(1, _GROUP_HYPOTHESES // config.ransac_iterations)
    scores = {}
    for start in range(0, len(pairs), size):
        group = pairs[start:start + size]
        scores.update(zip(group, _score_group(
            [(features[i], features[j], i * n + j) for i, j in group], config, work)))
    return scores
