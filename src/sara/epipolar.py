"""Two-view geometry: a short robust model search over eight-point fits,
Sampson scoring, pose recovery, and triangulation parallax angles.

A robust search has two entry points, one per half. ``ransac_models``
starts searches, one or several at once: it draws, solves, scores,
selects, refits and projects. Each search draws from its own generator,
every search's eight-point sets are solved in one stack, the Sampson
errors of searches with equal match counts are computed and compared
together, the winners are refit in one stack per inlier count and the
calibrated refits projected in one call. It returns one ``RansacShare``
per search. ``short_ransac`` finishes one search from its share alone:
it recounts the inliers against the final model and, when calibrated,
recovers the pose. One pair is the two calls in a row::

    model = short_ransac(ransac_models([(corrs, calib, rng)])[0])

``sampson_errors`` scores one model or a stack of them against all
matches at once. In the calibrated branch ``recover_pose`` triangulates
all four decompositions of E in one stacked ``triangulate_angles`` call,
on the normalized inlier coordinates the search already holds, and
returns the winner's angles with its pose.

Conventions. Pixel points are (x, y); homogeneous scale is 1. Models
satisfy x_b^T M x_a = 0 for a correspondence (x_a, x_b). The calibrated
branch works in normalized camera coordinates K^-1 [x y 1]^T; the world
frame is camera a's frame, camera b is X_b = R X + t, so camera b's
center is -R^T t. Translation scale is not observable; t is unit norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CheiralityAmbiguity, InsufficientCorrespondences, NoModelFound

# the eight-point sample size, and so the fewest matches a search takes and
# the fewest inliers a model keeps
MIN_MATCHES = 8

_MATCH_DTYPE = np.dtype([("idx_a", np.intp), ("idx_b", np.intp), ("x_a", np.float64, (2,)),
                         ("x_b", np.float64, (2,)), ("similarity", np.float64)])
_MATCH_RECORD = np.dtype((np.record, _MATCH_DTYPE))


def correspondences(idx_a, idx_b, x_a, x_b, similarity) -> np.recarray:
    """One image pair's putative matches as a record array, one row per match.

    Row k matches keypoint ``idx_a[k]`` of image a at pixel ``x_a[k]`` with
    keypoint ``idx_b[k]`` of image b at ``x_b[k]``; pixels are widened to
    float64. Fields read as whole arrays (``corrs.x_a`` is (m, 2)) and rows
    by attribute (``corrs[k].idx_a``).
    """
    # allocated as a recarray directly: no format parsing (np.recarray(...)),
    # no per-field list (np.rec.fromarrays) and no base array held by a view
    corrs = np.ndarray.__new__(np.recarray, len(idx_a), _MATCH_RECORD)
    corrs["idx_a"], corrs["idx_b"], corrs["similarity"] = idx_a, idx_b, similarity
    corrs["x_a"], corrs["x_b"] = x_a, x_b
    return corrs


@dataclass(frozen=True)
class TwoViewModel:
    """Robust two-view estimate.

    ``matrix`` is an essential matrix in the normalized frame when
    ``rotation`` is set, else a fundamental matrix in the pixel frame.
    ``inliers`` holds ascending indices into the correspondence array the
    model was estimated from. Translation and triangulation angles are set
    together with ``rotation``.
    """

    matrix: np.ndarray
    inliers: np.ndarray
    rotation: np.ndarray | None = None
    translation: np.ndarray | None = None
    triangulation_angles: np.ndarray | None = None


def _search_points(corrs, calib) -> np.ndarray:
    """(2, m, 3) homogeneous points of images a and b, each [x y 1]: pixels,
    or with ``calib`` the first two coordinates of K^-1 [x y 1]^T."""
    h = np.ones((2, len(corrs), 3))
    h[0, :, :2], h[1, :, :2] = corrs.x_a, corrs.x_b
    if calib is not None:
        h = h @ np.swapaxes(np.linalg.inv(np.stack(calib)), 1, 2)
        h[..., 2] = 1.0   # only the first two coordinates count, for any K
    return h


def _fundamental_stack(pa: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized eight-point estimates for a stack of point sets.

    ``pa`` and ``pb`` are (h, m, 2) with m >= 8. Returns (h, 3, 3) rank-2,
    unit-Frobenius models and an (h,) mask that is False where a set is
    degenerate (coincident points, or a design matrix of rank below 8);
    the model of a masked-out set is finite but meaningless. Every
    operation runs on the whole stack, with the same floating-point
    operations per set as a one-set solve, so a set's model does not
    depend on the stack it was solved in. That holds for any input
    layout: the inputs are made C-contiguous first, since numpy's
    reductions may sum in another order over other strides.

    With m > 8 the null vector of the design matrix A comes from an SVD
    and a set needs sigma_8 > 1e-10 sigma_1. With m == 8 it is exact: Q's
    last column in the complete QR of A^T, and a set needs min |R_kk| >
    1e-10 max |R_kk|. That ratio is at least sigma_8 / sigma_1, so the QR
    test accepts every set the SVD test accepts. A batched LU solve raises
    for the whole stack when one set is singular, and fixing f33 = 1
    excludes models where it is 0.
    """
    pa, pb = np.ascontiguousarray(pa), np.ascontiguousarray(pb)
    h, m = pa.shape[:2]
    # Hartley, both images in one pass: centroid to the origin, mean radius
    # to sqrt(2); a mean is sum / m and a norm sqrt(sum of squares), the
    # operations np.mean and np.linalg.norm run
    pts = np.stack([pa, pb])
    c = pts.sum(axis=2) / m
    centered = pts - c[:, :, None, :]
    mean_dist = np.sqrt((centered * centered).sum(axis=3)).sum(axis=2) / m
    coincident = mean_dist < 1e-9
    ok = ~coincident.any(axis=0)
    s = math.sqrt(2.0) / np.where(coincident, 1.0, mean_dist)
    T = np.zeros((2, h, 3, 3))
    T[..., 0, 0] = T[..., 1, 1] = s
    T[..., :2, 2] = -s[..., None] * c
    T[..., 2, 2] = 1.0
    homog = np.ones((2, h, m, 3))
    homog[..., :2] = centered * s[..., None, None]
    # row k of A is the outer product x_b x_a^T of match k, flattened:
    # (x2 x1, x2 y1, x2, y2 x1, y2 y1, y2, x1, y1, 1)
    A = (homog[1, :, :, :, None] * homog[0, :, :, None, :]).reshape(h, m, 9)
    # a stacked solve's peak memory is the decomposition's copies of A: drop
    # the arrays A was built from first
    del pts, centered, homog
    if A.shape[1] == 8:
        # minimal sample: A^T = QR, and Q's last column spans A's null space
        Q, R = np.linalg.qr(np.swapaxes(A, 1, 2), mode="complete")
        d = np.abs(np.diagonal(R, axis1=1, axis2=2))
        ok &= (d.max(axis=1) > 0.0) & (d.min(axis=1) > d.max(axis=1) * 1e-10)
        f = Q[:, :, -1]
    else:
        _, sv, Vt = np.linalg.svd(A, full_matrices=False)
        ok &= (sv[:, 0] > 0.0) & (sv[:, 7] > sv[:, 0] * 1e-10)
        f = Vt[:, -1]
    U, sf, Vft = np.linalg.svd(f.reshape(-1, 3, 3))
    sf[:, 2] = 0.0
    F = (U * sf[:, None, :]) @ Vft
    F = np.swapaxes(T[1], 1, 2) @ F @ T[0]
    flat = F.reshape(-1, 1, 9)
    # a per-set dot product, rounded as np.linalg.norm rounds a single matrix
    F /= np.sqrt(flat @ np.swapaxes(flat, 1, 2))
    return _fix_sign(F), ok


def _fix_sign(M: np.ndarray) -> np.ndarray:
    # deterministic sign: the largest-magnitude entry of each 3x3 model positive
    flat = M.reshape(-1, 9)
    lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)]
    return np.where(lead.reshape(M.shape[:-2] + (1, 1)) < 0.0, -M, M)


def _project_essential(F: np.ndarray) -> np.ndarray:
    U, _, Vt = np.linalg.svd(F)
    # singular values forced to (1, 1, 0): Frobenius norm sqrt(2) by construction
    E = (U * np.array([1.0, 1.0, 0.0])) @ Vt
    return _fix_sign(E)


def sampson_errors(M: np.ndarray, x_a: np.ndarray, x_b: np.ndarray) -> np.ndarray:
    """Squared first-order epipolar errors of m correspondences (x_a, x_b).

    (x_b^T M x_a)^2 / ((M x_a)_1^2 + (M x_a)_2^2 + (M^T x_b)_1^2 + (M^T x_b)_2^2)

    ``x_a`` and ``x_b`` are (m, 2). ``M`` is one (3, 3) model, giving (m,)
    errors, or an (h, 3, 3) stack, giving (h, m). The formula is
    frame-agnostic: squared pixels for pixel points, squared normalized
    coordinates for normalized ones. An error is +inf where the
    denominator vanishes (the point sits at both epipoles).
    """
    return _sampson(M, np.column_stack([x_a, np.ones(len(x_a))]),
                    np.column_stack([x_b, np.ones(len(x_b))]))


def _sampson(M: np.ndarray, ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    # sampson_errors on homogeneous (..., m, 3) points [x y 1], broadcast
    # against the models' leading axes. The two (..., m, 3) products are the
    # largest arrays of a stacked search, so only one is alive at a time; the
    # denominator adds its four squares in the order a + b + c + d rounds them.
    Ma = ha @ np.swapaxes(M, -1, -2)   # rows are (M x_a)^T
    num = np.einsum("...ij,...ij->...i", hb, Ma)
    num *= num
    den = Ma[..., 0] ** 2
    den += Ma[..., 1] ** 2
    del Ma
    Mtb = hb @ M                       # rows are (M^T x_b)^T
    den += Mtb[..., 0] ** 2
    den += Mtb[..., 1] ** 2
    del Mtb
    positive = den > 0.0
    np.divide(num, den, out=num, where=positive)
    num[~positive] = np.inf
    return num


def _draw_samples(rngs, sizes, rows: int) -> np.ndarray:
    """(len(rngs) * rows, MIN_MATCHES) indices: for each search k in turn,
    ``rows`` rows of MIN_MATCHES draws without replacement from range(sizes[k]).

    Partial Fisher-Yates on every row at once. Each search takes all its
    draws from its own generator in one call, in the order row-after-row
    shuffles would take them, so its rows and its generator's next state
    equal those of ``rows`` sequential shuffles. Rows of a smaller search
    leave the padding columns past its size untouched.
    """
    offsets = np.concatenate([rng.integers(np.tile(n - np.arange(MIN_MATCHES), rows))
                              for rng, n in zip(rngs, sizes)]).reshape(-1, MIN_MATCHES)
    idx = np.tile(np.arange(max(sizes)), (len(offsets), 1))
    r = np.arange(len(offsets))
    for i in range(MIN_MATCHES):
        j = i + offsets[:, i]
        picked = idx[r, j]
        idx[r, j] = idx[:, i]
        idx[:, i] = picked
    return idx[:, :MIN_MATCHES]


class RansacShare(NamedTuple):
    """One robust search's share of ``ransac_models``: what ``short_ransac`` finishes."""

    points: np.ndarray         # (2, m, 3) homogeneous points of images a and b
    threshold_sq: float        # squared inlier threshold in the frame of ``points``
    calibrated: bool           # ``points`` are normalized and ``model`` is essential
    model: np.ndarray | None   # the winner's refit, projected to an essential matrix
                               # when calibrated; None if no hypothesis keeps 8 inliers


def _threshold_sq(calib, inlier_threshold: float) -> float:
    # a pixel distance squared; in normalized coordinates it is scaled by the
    # inverse squared mean focal length of the two K
    if calib is None:
        return inlier_threshold ** 2
    K_a, K_b = calib
    fbar = float(np.mean([K_a[0, 0], K_a[1, 1], K_b[0, 0], K_b[1, 1]]))
    return (inlier_threshold / fbar) ** 2


def _winners(errs: np.ndarray, masks: np.ndarray, ok: np.ndarray) -> list[int | None]:
    """Each search's winning hypothesis row, or None where none keeps 8 inliers.

    ``errs`` and ``masks`` are (s, h, m): s searches' Sampson errors and
    inlier masks; ``ok`` is (s, h). Most inliers wins; a tie goes to the
    strictly lower inlier-error total, then to the earlier row. A search's
    tied rows total their inlier errors in one ``sum(axis=1)`` over the
    (n_tied, top) array of those errors, compacted in row order. numpy sums
    each contiguous row pairwise, as it sums one row's inlier errors alone,
    so a total keeps the bits of a one-hypothesis search's.
    """
    counts = np.where(ok, masks.sum(axis=2), 0)
    rows = []
    for e, mask, c, top in zip(errs, masks, counts, counts.max(axis=1).tolist()):
        tied = np.flatnonzero(c == top)
        if top < MIN_MATCHES:
            rows.append(None)
        elif len(tied) == 1:
            rows.append(int(tied[0]))
        else:
            totals = e[tied][mask[tied]].reshape(len(tied), top).sum(axis=1)
            rows.append(int(tied[np.argmin(totals)]))
    return rows


def ransac_models(searches, iterations: int = 32,
                  inlier_threshold: float = 2.0) -> list[RansacShare]:
    """Start robust searches, one or several at once: draw, solve, score,
    select, refit and project. Returns one share per search, in order, for
    ``short_ransac`` to finish; ``[]`` for no searches.

    ``searches`` holds one (corrs, calib, rng) triple per search. Without
    ``calib`` a search fits a fundamental matrix in pixels; with the two
    intrinsics (K_a, K_b) it runs in normalized coordinates, ends in an
    essential matrix, and the square of the pixel ``inlier_threshold`` is
    scaled by the inverse squared mean focal length of the two K. A search
    with fewer than 8 matches raises InsufficientCorrespondences before any
    generator is drawn from.

    Each search draws ``iterations`` uniform 8-subsets from its own ``rng``
    in one call. All are solved in one ``_fundamental_stack``; searches
    with equal match counts are scored in one Sampson pass, and each picks
    the hypothesis with the most inliers under the squared threshold (ties:
    lower inlier-error total, then the earlier draw; see ``_winners``). The
    winners are refit on their inliers in one ``_fundamental_stack`` per
    inlier count, so an 8-inlier refit keeps the exact QR path; a
    degenerate refit keeps the winning hypothesis. The calibrated refits
    are projected onto the essential manifold in one ``_project_essential``
    call. Each share is bit-identical to a stack of one's and to a search
    that solves and scores its hypotheses one at a time in draw order;
    memory grows with the total of iterations x correspondences.

    Hypotheses stay rank-2 fundamental fits even in the calibrated branch:
    the essential-manifold projection is brutal on noisy minimal samples,
    so it applies only to the overdetermined refit.
    """
    for corrs, _, _ in searches:
        if len(corrs) < MIN_MATCHES:
            raise InsufficientCorrespondences(f"{len(corrs)} < {MIN_MATCHES}")
    if not searches:
        return []
    points = [_search_points(corrs, calib) for corrs, calib, _ in searches]
    thresholds = [_threshold_sq(calib, inlier_threshold) for _, calib, _ in searches]
    sizes = [p.shape[1] for p in points]
    samples = _draw_samples([rng for *_, rng in searches], sizes, iterations)
    # one gather: each search's indices shifted to its rows of the joined points
    samples += np.repeat(np.cumsum([0] + sizes[:-1]), iterations)[:, None]
    models, ok = _fundamental_stack(*np.concatenate(points, axis=1)[:, samples, :2])
    models = models.reshape(len(points), iterations, 3, 3)
    ok = ok.reshape(len(points), iterations)
    winners, inliers = [None] * len(points), [None] * len(points)
    for m in dict.fromkeys(sizes):
        group = [k for k, size in enumerate(sizes) if size == m]
        ha, hb = np.stack([points[k] for k in group], axis=1)[:, :, None]
        errs = _sampson(models[group], ha, hb)
        masks = errs < np.array(thresholds)[group, None, None]
        for j, (k, row) in enumerate(zip(group, _winners(errs, masks, ok[group]))):
            if row is not None:
                winners[k], inliers[k] = row, masks[j, row]
        del errs   # before the next match count's pass allocates its own

    final = [None] * len(points)
    found = [k for k, row in enumerate(winners) if row is not None]
    counts = [np.count_nonzero(inliers[k]) for k in found]
    for count in dict.fromkeys(counts):
        same = [k for k, c in zip(found, counts) if c == count]
        refits, refit_ok = _fundamental_stack(
            *np.stack([points[k][:, inliers[k], :2] for k in same], axis=1))
        for k, refit, good in zip(same, refits, refit_ok):
            # a degenerate refit keeps the winning hypothesis as the final model
            final[k] = refit if good else models[k, winners[k]]
    calibrated = [calib is not None for _, calib, _ in searches]
    projected = [k for k in found if calibrated[k]]
    if projected:
        for k, E in zip(projected, _project_essential(np.stack([final[k] for k in projected]))):
            final[k] = E
    return [RansacShare(*share) for share in zip(points, thresholds, calibrated, final)]


def triangulate_angles(R: np.ndarray, t: np.ndarray, na: np.ndarray,
                       nb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint triangulation of normalized correspondences (na, nb), (m, 2).

    Returns each match's triangulation angle, radians in [0, pi], taken at
    the midpoint between the two rays (0 where the rays are near-parallel
    or the midpoint sits on a camera center), and a mask of the matches
    triangulated at positive depth in both cameras. ``R`` (3, 3) and ``t``
    (3,) give one pose, with (m,) outputs; stacks (..., 3, 3) and (..., 3)
    give one (..., m) row per pose, each equal to a one-pose call.
    """
    rays = np.ones((2, len(na), 3))
    rays[0, :, :2], rays[1, :, :2] = na, nb
    rays /= np.linalg.norm(rays, axis=2, keepdims=True)
    da = rays[0]        # rays from camera a's center, the origin
    db = rays[1] @ R    # camera b's rays in camera a's frame (R^T per row)
    Rt = np.swapaxes(R, -1, -2)
    w0 = Rt @ t[..., None]   # (..., 3, 1): C_a - C_b, camera b's center being -R^T t
    b = np.einsum("...ij,...ij->...i", da, db)
    d = (da @ w0)[..., 0]
    e = (db @ w0)[..., 0]
    denom = 1.0 - b * b
    ok = np.abs(denom) > 1e-12
    safe = np.where(ok, denom, 1.0)
    s = np.where(ok, (b * e - d) / safe, 0.0)
    u = np.where(ok, (e - b * d) / safe, 0.0)
    w0 = np.swapaxes(w0, -1, -2)
    X = 0.5 * (s[..., None] * da - w0 + u[..., None] * db)
    vb = X + w0   # from camera b's center
    theta = np.arctan2(np.linalg.norm(np.cross(X, vb), axis=-1),
                       np.einsum("...ij,...ij->...i", X, vb))
    degenerate = (np.linalg.norm(X, axis=-1) < 1e-12) | (np.linalg.norm(vb, axis=-1) < 1e-12)
    theta[~ok | degenerate] = 0.0
    in_front = ok & (X[..., 2] > 0.0) & ((X @ Rt + t[..., None, :])[..., 2] > 0.0)
    return theta, in_front


def recover_pose(E: np.ndarray, na: np.ndarray,
                 nb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick the (R, t) decomposition of E that places points in front.

    The four candidate decompositions are triangulated together, in one
    ``triangulate_angles`` call on the normalized correspondences (na, nb);
    the first with the most points in front of both cameras wins. Returns
    (R, t, triangulation angles). Raises CheiralityAmbiguity unless the
    winner covers a strict majority.
    """
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    # (R1, t), (R1, -t), (R2, t), (R2, -t) with R1 = U W Vt, R2 = U W^T Vt
    R = (U @ np.stack([W, W.T]) @ Vt)[[0, 0, 1, 1]]
    t = U[:, 2] * np.array([[1.0], [-1.0], [1.0], [-1.0]])
    angles, in_front = triangulate_angles(R, t, na, nb)
    counts = in_front.sum(axis=1)
    best = int(np.argmax(counts))
    if counts[best] * 2 <= len(na):
        raise CheiralityAmbiguity(
            f"best decomposition sees {counts[best]}/{len(na)} points in front")
    return R[best], t[best], angles[best]


def short_ransac(share: RansacShare) -> TwoViewModel:
    """Finish one robust search from its ``ransac_models`` share.

    Recounts the inliers against the search's final model, so stored
    inliers satisfy the threshold by construction, needs 8 of them and,
    for a calibrated search, recovers the pose from the normalized inlier
    coordinates. Raises NoModelFound when the search found no model or
    its final model keeps fewer than 8 inliers, and CheiralityAmbiguity
    from ``recover_pose``.
    """
    (ha, hb), threshold_sq, calibrated, M = share
    if M is None:
        raise NoModelFound(f"no hypothesis reached {MIN_MATCHES} inliers")
    inliers = np.flatnonzero(_sampson(M, ha, hb) < threshold_sq)
    if inliers.size < MIN_MATCHES:
        raise NoModelFound(f"refit model keeps fewer than {MIN_MATCHES} inliers")
    if not calibrated:
        return TwoViewModel(matrix=M, inliers=inliers)
    R, t, angles = recover_pose(M, ha[inliers, :2], hb[inliers, :2])
    return TwoViewModel(matrix=M, inliers=inliers, rotation=R, translation=t,
                        triangulation_angles=angles)
