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
from .epipolar import MIN_MATCHES, TwoViewModel, correspondences, short_ransac
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


# bytes of similarities in one step of mutual_nn_matches' best-first walk;
# the gather's int64 flat indices take twice that. Steps shrink as the walked
# prefix grows, so the bound holds for any b.
_BLOCK_BYTES = 1 << 20


def mutual_nn_matches(fa: ImageFeatures, fb: ImageFeatures, b: int,
                      work: np.ndarray | None = None) -> np.recarray:
    """Mutual nearest-neighbor correspondences, best-first, at most b.

    A pair (p, q) matches when q is p's best neighbor and p is q's best
    neighbor under cosine similarity, the float32 product of the two
    float32 descriptor arrays; every decision and the final order read
    those float32 values. Ties break toward lower indices, as argmax
    breaks them along either axis, and the matches come ordered by
    (-similarity, p), cut at ``b``. Returns a ``correspondences`` record
    array, of length 0 when either image has no keypoints; its
    ``similarity`` field holds the float32 values widened to float64.

    No column winner is computed for the whole matrix. The rows are
    walked best-first, in the (-v[p], p) order of a stable sort on each
    row's maximum v[p]. A row r can beat p for p's best column q only if
    it comes before p in that order, since sims[r, q] <= v[r]. So each
    step gathers its rows' best columns over every row up to the step's
    end, in ascending row order, and a row is mutual when it is the
    first maximum of its column there. A row whose best column an
    earlier step's row already has is never mutual and is dropped before
    the gather. Steps start at b rows and double, capped so that one
    gather holds at most ``_BLOCK_BYTES`` of similarities, and the walk
    stops at b mutual rows. For finite similarities, which
    ``read_features`` and ``write_features`` enforce, the result equals
    the one from full argmaxes along both axes, without the transposed
    copy of the matrix an argmax along axis 0 makes.

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
    best = np.argmax(sims, axis=1)   # first occurrence wins ties
    v = sims[np.arange(n_a), best]
    order = np.argsort(-v, kind="stable")
    taken = np.zeros(n_b, dtype=bool)
    flat = sims.reshape(-1)
    found, count, start, step = [order[:0]], 0, 0, max(1, b)
    while count < b and start < n_a:
        stop = min(n_a, start + step)
        stop = min(stop, start + max(1, _BLOCK_BYTES // (sims.itemsize * stop)))
        rows = order[start:stop]
        cols = best[rows]
        fresh = ~taken[cols]
        taken[cols] = True
        rows, cols = rows[fresh], cols[fresh]
        prior = np.sort(order[:stop])
        winner = prior[flat.take(cols[:, None] + prior * n_b).argmax(axis=1)]
        found.append(rows[winner == rows])
        count += found[-1].size
        start, step = stop, 2 * step
    p = np.concatenate(found)[:b]
    q = best[p]
    return correspondences(p, q, fa.keypoints[p], fb.keypoints[q], v[p])


# hypothesis sets per short_ransac call in score_all, which queues this many
# // ransac_iterations searches per call: 48 searches at 32 iterations. The
# search's stacked arrays grow with its hypothesis sets, so this one bound
# caps them and the matches alive at once; scores do not depend on it.
# On orbit_sparse, with the blocked Sampson pass, against 1536 the selection
# runs 10.6% slower at 768 and 1.6% faster at 2048, and the fresh-process
# peak RSS is 1.04 MB lower and 0.91 MB higher (medians of six round-robin
# 8 s runs, 2-core Xeon VM). At 1536 the select stage's hypothesis solve
# already sets a call's traced peak, so a larger window raises it.
_WINDOW_HYPOTHESES = 1536


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
    A pair whose search returns no model ends ``NO_MODEL``. The pair is
    scored as a window of one, and the result equals
    ``score_all``'s for the same pair and stream.
    """
    return _score_pairs([(fa, fb, fa.n_keypoints, fb.n_keypoints, stream)], config, None)[0]


def _score_pairs(pairs, config: SaraConfig, work: np.ndarray | None) -> list[PairScore]:
    """Scores of (fa, fb, n_a, n_b, stream) pairs, in order; n_a and n_b
    are the two images' keypoint counts.

    The pairs are matched one at a time, in order. A pair whose smaller
    image has fewer than ``MIN_MATCHES`` keypoints cannot reach that many
    mutual matches, so it is not matched. A pair with fewer than
    ``MIN_MATCHES`` mutual matches is settled at once: it ends
    ``TOO_FEW_MUTUAL_NN`` with the call's one shared, frozen score and
    builds no generator. Every other pair queues its search, and each
    ``_WINDOW_HYPOTHESES // config.ransac_iterations`` queued searches (at
    least one) run in one ``short_ransac`` call, the rest in one more.
    """
    per = max(1, _WINDOW_HYPOTHESES // config.ransac_iterations)
    too_few = PairScore(overlap=0.0, parallax=0.0, weight=0.0,
                        rejected=RejectReason.TOO_FEW_MUTUAL_NN)
    scores, queued = [], []
    for fa, fb, n_a, n_b, stream in pairs:
        corrs = mutual_nn_matches(fa, fb, config.b, work) if min(n_a, n_b) >= MIN_MATCHES else ()
        if len(corrs) < MIN_MATCHES:
            scores.append(too_few)
            continue
        calib = (None if fa.intrinsics is None or fb.intrinsics is None
                 else (fa.intrinsics, fb.intrinsics))
        queued.append((len(scores), n_a, n_b, (corrs, calib, _pair_rng(config.seed, stream))))
        scores.append(None)
        if len(queued) == per:
            _search(queued, config, scores)
            queued = []
    if queued:
        _search(queued, config, scores)
    return scores


def _search(queued, config: SaraConfig, scores: list) -> None:
    """Runs the queued (position, n_a, n_b, search) searches in one
    ``short_ransac`` call and writes each pair's score at its position in
    ``scores``; a pair ends ``NO_MODEL`` exactly when its result is not a
    model."""
    results = short_ransac([search for *_, search in queued], config.ransac_iterations,
                           config.inlier_threshold_px)
    for (k, n_a, n_b, _), model in zip(queued, results):
        if not isinstance(model, TwoViewModel):
            scores[k] = PairScore(overlap=0.0, parallax=0.0, weight=0.0,
                                  rejected=RejectReason.NO_MODEL)
            continue
        reason = None
        overlap = float(model.inliers.size) / math.sqrt(n_a * n_b)
        parallax = (config.tau_p if model.rotation is None
                    else lower_median(model.triangulation_angles))
        if overlap < config.tau_o:
            reason = RejectReason.BELOW_OVERLAP
        elif parallax < config.tau_p:
            reason = RejectReason.BELOW_PARALLAX
        weight = 0.0 if reason is not None else overlap * min(parallax, config.parallax_cap)
        scores[k] = PairScore(overlap=overlap, parallax=parallax, weight=weight,
                              model=model, rejected=reason)


def score_all(features, candidates, config: SaraConfig) -> dict[tuple[int, int], PairScore]:
    """Score every candidate pair, in sorted order on the calling thread.

    ``features`` is the loaded feature list in manifest order;
    ``candidates`` is any iterable of canonical (i, j) pairs indexing into
    it. Pair (i, j) is scored with stream id ``i * n + j``, so its robust
    search draws from its own counter-based generator and each score
    depends only on the pair, the features and the config seed: it equals
    ``score_pair``'s.

    The sorted pairs are matched in order. A pair with fewer than 8 mutual
    matches is settled at once, with one shared frozen score and no
    generator; the others queue their searches, and every
    ``_WINDOW_HYPOTHESES // config.ransac_iterations`` queued searches (at
    least one) run in one ``short_ransac`` call, the rest in one more. A
    window is counted in searches, not pairs, so most pairs, which settle
    without a search on a large collection, add no call, and a search's
    memory, which grows with its hypothesis sets, stays bounded as the
    pair count or the iterations grow.

    Each image's keypoint count is read once. One float32 workspace,
    sized for the largest n_a * n_b among the pairs, holds every pair's
    similarity matrix in turn, so no matrix is freed per pair: after a
    large free glibc raises its mmap threshold, and the next matrices
    come from a heap it keeps resident.
    """
    n = len(features)
    pairs = sorted(candidates)
    sizes = [f.n_keypoints for f in features]
    work = np.empty(max((sizes[i] * sizes[j] for i, j in pairs), default=0), dtype=np.float32)
    return dict(zip(pairs, _score_pairs(
        ((features[i], features[j], sizes[i], sizes[j], i * n + j) for i, j in pairs),
        config, work)))
