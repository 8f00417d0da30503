"""Two-view geometry: a short robust model search over eight-point fits,
Sampson scoring, pose recovery, and triangulation parallax angles.
``short_ransac`` runs one or several searches in one call; one pair is
``result, = short_ransac([(corrs, calib, rng)])``. A call holds its
searches' pixel points once, in one array padded with zero rows to its
largest match count plus one row. A zero row's Sampson error is +inf
against any model, so padding is never an inlier: every stage gathers
from that array in one fancy index, and the select stage and the finish
each score all their searches in one Sampson pass, which runs in blocks
of searches sized to stay in cache and moves no bit.

Every eight-point fit runs in ``_fundamental_stack``, over a stack of
point sets at once with the stack on the last axis: one call solves every
hypothesis of a ``short_ransac`` call and one refits every winner, on
zero-padded inlier sets. A fit on exactly 8 points, which is every
hypothesis and a refit on 8 inliers, is closed-form and calls neither
LAPACK's QR nor an SVD: Householder reflectors written in numpy give the
null vector and a 3x3 eigensolve the rank-2 step (``_minimal_solve``). A
fit on more points uses SVDs for both, so the models a search stores keep
LAPACK's bits unless they were refit on exactly 8 inliers.

``sampson_errors`` scores one model or a stack of them against all
matches at once. ``recover_pose`` takes a stack of essential matrices
with their searches' normalized matches and inlier masks: it
triangulates all four decompositions of every E in one stacked
``triangulate_angles`` call over all the matches, then counts and
returns only the inliers, each row's winning pose with its angles.

Conventions. Pixel points are (x, y); homogeneous scale is 1. Models
satisfy x_b^T M x_a = 0 for a correspondence (x_a, x_b). Every search
runs in pixels; K enters only at a calibrated search's finish, as E =
K_b^T F K_a on normalized camera coordinates K^-1 [x y 1]^T. The world
frame is camera a's frame, camera b is X_b = R X + t, so camera b's
center is -R^T t. Translation scale is not observable; t is unit norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _fundamental_stack(P: np.ndarray, sizes: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Normalized eight-point estimates for a stack of point sets, the stack
    on the last axis.

    ``P`` is (2, 2, m, h): image, coordinate, point and set, so P[0, :, i,
    k] is point i of set k in image a. Set k holds its first ``sizes[k]``
    points, at least 8, or all m without ``sizes``; zeros pad the rest.
    Returns (h, 3, 3) rank-2, unit-Frobenius models and an (h,) mask that is
    False where a set is degenerate (coincident points, or a design matrix
    of rank below 8); the model of a masked-out set is finite but
    meaningless.

    The Hartley normalization and the transposed design matrix, (9, m, h),
    are built once for the stack. Each step is elementwise or a sum added
    in index order, to which padding adds exact zeros, so a set's bits do
    not depend on its stack, its padding or the strides of ``P``. Per
    distinct size run only the mean distance to the centroid, numpy's
    pairwise sum over a contiguous copy of those sets' distances as np.mean
    sums one set's, and the null vector of A: at size 8 ``_minimal_solve``'s
    closed form, which calls no SVD, and above it an SVD, where a set needs
    sigma_8 > 1e-10 sigma_1. Once for the stack, a 3x3 SVD with sigma_3 set
    to 0 makes the SVD null vectors rank-2, and every model is
    de-normalized, scaled to unit norm and signed.
    """
    _, _, m, h = P.shape
    if sizes is None:
        sizes, by_size = np.full(h, m), [(m, slice(None))]
    else:
        by_size = [(n, np.flatnonzero(sizes == n)) for n in dict.fromkeys(sizes.tolist())]
    # Hartley, both images in one pass: centroid to the origin, mean radius
    # to sqrt(2); a mean is sum / m and a norm sqrt(sum of squares), the
    # operations np.mean and np.linalg.norm run
    c = _ordered_sum(np.moveaxis(P, 2, 0)) / sizes    # (2, 2, h)
    centered = P - c[:, :, None]
    # x^2 + y^2 is one addition, so it rounds as the sum over the last axis would
    sq = centered * centered
    dist = np.sqrt(sq[:, 0] + sq[:, 1])
    mean_dist = np.empty((2, h))
    for n, sets in by_size:
        mean_dist[:, sets] = np.ascontiguousarray(
            dist[:, :n, sets].transpose(0, 2, 1)).sum(axis=2) / n
    del sq, dist
    coincident = mean_dist < 1e-9
    ok = ~coincident.any(axis=0)
    s = math.sqrt(2.0) / np.where(coincident, 1.0, mean_dist)
    T = np.zeros((2, h, 3, 3))
    T[..., 0, 0] = T[..., 1, 1] = s
    T[..., :2, 2] = -s[..., None] * c.transpose(0, 2, 1)
    T[..., 2, 2] = 1.0
    centered *= s[:, None, None]
    (x1, y1), (x2, y2) = centered
    # column k of A^T is row k of A, the outer product x_b x_a^T of match k
    # with x = [x y 1], flattened: (x2 x1, x2 y1, x2, y2 x1, y2 y1, y2, x1, y1, 1)
    At = np.empty((9, m, h))
    At[0], At[1], At[2] = x2 * x1, x2 * y1, x2
    At[3], At[4], At[5] = y2 * x1, y2 * y1, y2
    At[6], At[7], At[8] = x1, y1, 1.0
    # drop the arrays A was built from before the solves allocate theirs
    del centered, x1, y1, x2, y2
    G = np.empty((h, 3, 3))
    solvable = np.empty(h, dtype=bool)
    for n, sets in by_size:
        if n == MIN_MATCHES:
            G[sets], solvable[sets] = _minimal_solve(At[:, :n, sets])
        else:
            _, sv, Vt = np.linalg.svd(At[:, :n, sets].transpose(2, 1, 0), full_matrices=False)
            solvable[sets] = (sv[:, 0] > 0.0) & (sv[:, 7] > sv[:, 0] * 1e-10)
            G[sets] = Vt[:, -1].reshape(-1, 3, 3)
    del At
    least_squares = np.flatnonzero(sizes > MIN_MATCHES)
    if least_squares.size:
        U, sf, Vft = np.linalg.svd(G[least_squares])
        sf[:, 2] = 0.0
        G[least_squares] = (U * sf[:, None, :]) @ Vft
    ok &= solvable
    F = np.swapaxes(T[1], 1, 2) @ G @ T[0]
    flat = F.reshape(-1, 1, 9)
    # a per-set dot product, rounded as np.linalg.norm rounds a single matrix
    F /= np.sqrt(flat @ np.swapaxes(flat, 1, 2))
    return _fix_sign(F), ok


def _minimal_solve(At: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank-2 models of a stack of 8x9 design matrices A, given as A^T,
    (9, 8, h) with the stack last, in their normalized frame, and an (h,)
    mask that is False where A has rank below 8. Overwrites ``At``.

    A^T = QR by eight Householder reflectors H_k = I - tau_k v_k v_k^T
    (Golub & Van Loan, Matrix Computations, 5.2.1), formed in place as
    LAPACK's geqrf stores them: H_k maps rows k.. of column k to R_kk e1,
    R_kk = -sign(a_kk) times their norm, and v_k has a leading 1. No Q is
    formed. A's null space is spanned by Q's last column, which is e9 with
    the reflectors applied, the last first: f[k:] -= tau_k v_k (v_k .
    f[k:]). Every norm and dot product adds its terms in index order and
    every other step is elementwise, so a set's bits do not depend on its
    stack, a stack of one included. A set needs min |R_kk| > 1e-10 max
    |R_kk|; that ratio is at least sigma_8 / sigma_1, so the test accepts
    every set an SVD's sigma_8 > 1e-10 sigma_1 accepts. A zero column
    (rank below 8) takes H_k = I - e1 e1^T, which keeps the masked set
    finite. A batched LU solve would raise for the whole stack when one set
    is singular, and fixing f33 = 1 excludes models where it is 0.
    """
    h = At.shape[2]
    d = np.empty((8, h))
    tau = np.empty((8, h))
    for k in range(8):
        x = At[k:, k]    # column k from the diagonal down: a_kk, then the tail
        norm = np.sqrt(_ordered_sum(x * x), out=d[k])
        # -R_kk: the norm with a_kk's sign, or 1 for a zero column, so that
        # a_kk - R_kk = a_kk + neg adds two terms of one sign
        neg = np.copysign(np.where(norm > 0.0, norm, 1.0), x[0])
        scale = x[0] + neg
        np.divide(scale, neg, out=tau[k])
        x[1:] /= scale
        x[0] = 1.0
        # the reflector on the columns right of k, one row at a time: a
        # (rows, columns, h) temporary would not stay in cache
        rest = At[k:, k + 1:]
        w = rest[0].copy()
        for i in range(1, 9 - k):
            w += x[i] * rest[i]
        w *= tau[k]
        rest[0] -= w
        for i in range(1, 9 - k):
            rest[i] -= w * x[i]
    largest = d.max(axis=0)
    solvable = (largest > 0.0) & (d.min(axis=0) > largest * 1e-10)
    f = np.zeros((9, h))
    f[8] = 1.0
    for k in range(7, -1, -1):
        v = At[k:, k]
        f[k:] -= _ordered_sum(v * f[k:]) * tau[k] * v
    return _rank2(f.T.reshape(-1, 3, 3)), solvable


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    # the rows of terms added in index order, as a loop of scalar additions
    # adds them; numpy's reductions may add pairwise, in an order that
    # depends on the shape and strides
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _rank2(G: np.ndarray) -> np.ndarray:
    """The nearest rank-2 matrices to an (h, 3, 3) stack in Frobenius norm:
    G - (G v) v^T, with v the unit eigenvector of B = G^T G for its
    smallest eigenvalue, which is the SVD's sigma_3 set to 0.

    B's eigenvalues are the roots of its characteristic cubic in the
    trigonometric form (Smith, CACM 1961). A root is only as accurate as
    its distance from the next, so the solve starts from whichever end of
    the spectrum is the better separated. Either way, the unit eigenvector
    of that root lambda is the largest cross product of two rows of B -
    lambda I, or e3 where B = lambda I. From the smallest root that is v;
    from the largest, v is the smaller eigenvector of B on the plane
    normal to it, one 2x2 rotation. v then carries the error of a stable
    eigensolver, eps sigma_1^2 / (sigma_2 - sigma_3) up to a small factor.
    G (I - v v^T) has rank 2 for any unit v, so every result is finite and
    rank-2. The stack runs along the last axis of every array, and every
    step is elementwise, in a fixed order.
    """
    g = G.transpose(1, 2, 0)                    # g[i, j] is the (h,) G_ij
    cols = g.transpose(1, 0, 2)
    B = _dot(g[:, :, None], g[:, None, :])       # B_ij = sum over k of G_ki G_kj
    (b00, b01, b02), (_, b11, b12), (_, _, b22) = B
    q = (b00 + b11 + b22) / 3.0
    c00, c11, c22 = b00 - q, b11 - q, b22 - q
    p = np.sqrt((c00 * c00 + c11 * c11 + c22 * c22
                 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
    # r = det((B - q I) / p) / 2 = cos(3 phi), and the roots are q + 2p
    # cos(phi + 2 pi k / 3): k = 0 the largest, k = 1 the smallest. r >= 0
    # puts the middle root nearer the smallest. p = 0 only where B = q I.
    s = np.where(p > 0.0, p, 1.0)
    d00, d01, d02, d11, d12, d22 = c00 / s, b01 / s, b02 / s, c11 / s, b12 / s, c22 / s
    r = np.clip((d00 * (d11 * d22 - d12 * d12) - d01 * (d01 * d22 - d12 * d02)
                 + d02 * (d01 * d12 - d11 * d02)) / 2.0, -1.0, 1.0)
    top = r >= 0.0
    lam = q + 2.0 * p * np.cos(np.arccos(r) / 3.0 + np.where(top, 0.0, 2.0 * math.pi / 3.0))
    M = B.copy()
    M[(0, 1, 2), (0, 1, 2)] -= lam
    # rows (0, 1), (0, 2) and (1, 2) of the symmetric M crossed, candidates on axis 1
    cross = np.array(_cross(M[:, (0, 0, 1)], M[:, (1, 2, 2)]))
    w = np.take_along_axis(cross, np.argmax(_dot(cross, cross), axis=0)[None, None], axis=1)[:, 0]
    w[2, ~w.any(axis=0)] = 1.0
    w /= np.sqrt(_dot(w, w))
    # a, b: an orthonormal basis of the plane normal to w
    a = np.array(_cross(w, np.eye(3)[:, np.argmin(np.abs(w), axis=0)]))
    a /= np.sqrt(_dot(a, a))
    b = np.array(_cross(w, a))
    # (cos t, sin t) in (a, b) is the larger eigenvector of B's 2x2 block
    # there, whose entries are the dot products of G a and G b
    Ga, Gb = _dot(cols, a[:, None]), _dot(cols, b[:, None])
    t = np.arctan2(2.0 * _dot(Ga, Gb), _dot(Ga, Ga) - _dot(Gb, Gb)) / 2.0
    v = np.where(top, np.cos(t) * b - np.sin(t) * a, w)
    F = g - _dot(cols, v[:, None])[:, None] * v
    return np.ascontiguousarray(F.transpose(2, 0, 1))


def _cross(a, b):
    # a x b of two 3-vectors along the first axis: x = a_y b_z - a_z b_y, and cyclically
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    # a . b of two 3-vectors along the first axis, added in index order
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


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


# bytes of one (..., m, 3) product in a block of _sampson's pass: a block
# fits in L2 (2 MiB per core on the VM below), and a window's products no
# longer grow with its searches. On orbit_sparse at the 1536-set window,
# against one unblocked pass, the fresh-process peak RSS is 1.99 MB lower at
# this cap (128 KiB: 2.03, 1 MiB: 1.66, one search per block: 2.06) and the
# selection runs 1.4% faster (128 KiB: 1.2% faster, 1 MiB: 1.8% faster, one
# search per block: 3.0% slower); medians of six round-robin 8 s runs on a
# 2-core Xeon VM.
_SAMPSON_BYTES = 1 << 18


def _sampson(M: np.ndarray, ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    # sampson_errors on homogeneous (..., m, 3) points [x y 1], broadcast
    # against the models' leading axes. The pass runs in blocks along the
    # first leading axis, each at most _SAMPSON_BYTES per product, into one
    # preallocated error array; an element comes from the same matmul and
    # einsum on the same operands in any block, so blocking moves no bit.
    # Within a block only one of the two products is alive at a time, and
    # the denominator adds its four squares in the order a + b + c + d
    # rounds them.
    shape = np.broadcast_shapes(M.shape[:-2], ha.shape[:-2], hb.shape[:-2]) + ha.shape[-2:-1]
    errs = np.empty(shape)
    lead = len(shape) - 1
    step = max(1, _SAMPSON_BYTES // max(1, 24 * math.prod(shape[1:])))
    for start in range(0, shape[0] if lead else 1, step):
        part = slice(start, start + step) if lead else ...
        # an operand without the first leading axis, or with length 1 there, broadcasts whole
        Mp, ap, bp = (a[part] if a.ndim - 2 == lead and a.shape[0] > 1 else a
                      for a in (M, ha, hb))
        Ma = ap @ np.swapaxes(Mp, -1, -2)   # rows are (M x_a)^T
        num = np.einsum("...ij,...ij->...i", bp, Ma, out=errs[part])
        num *= num
        den = Ma[..., 0] ** 2
        den += Ma[..., 1] ** 2
        del Ma
        Mtb = bp @ Mp                       # rows are (M^T x_b)^T
        den += Mtb[..., 0] ** 2
        den += Mtb[..., 1] ** 2
        del Mtb
        positive = den > 0.0
        np.divide(num, den, out=num, where=positive)
        num[~positive] = np.inf
    return errs


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


def short_ransac(searches, iterations: int = 32, inlier_threshold: float = 2.0
                 ) -> list[TwoViewModel | NoModelFound | CheiralityAmbiguity]:
    """Robust searches, one or several at once: draw, solve, score, select,
    refit, project and finish. Returns one result per search, in order: its
    ``TwoViewModel``, or the NoModelFound or CheiralityAmbiguity that ended
    it, returned, not raised; ``[]`` for no searches.

    ``searches`` holds one (corrs, calib, rng) triple per search. Every
    search selects, refits and recounts its inliers in pixels, against the
    square of the pixel ``inlier_threshold``. Without ``calib`` a search
    ends in a fundamental matrix; with the two intrinsics (K_a, K_b) it
    ends in an essential matrix with a pose. Each distinct K object is
    inverted once per call. Before any generator is drawn from, ValueError
    is raised unless ``iterations`` is an integer >= 1 and
    ``inlier_threshold`` is finite and > 0, and InsufficientCorrespondences
    for a search with fewer than 8 matches.

    The call holds every search's points once, in one array padded with
    zero rows to its largest match count m plus one, and runs each of its
    three stages once over all its searches. *Select*: each search draws
    ``iterations`` uniform 8-subsets from its own ``rng`` in one call, all
    are gathered stack-last and solved in one ``_fundamental_stack``
    (closed-form: no LAPACK QR and no SVD), every hypothesis is scored in
    one Sampson pass, and each search picks the hypothesis with the most
    inliers under the squared threshold (ties: lower inlier-error total,
    then the earlier draw; see ``_winners``). *Refit*: every winner is
    refit on its inliers in one more ``_fundamental_stack`` call, on inlier
    sets zero-padded to the largest count, so an 8-inlier refit takes the
    closed-form minimal solve and the others SVDs, one per distinct inlier
    count; a degenerate refit keeps the winning hypothesis. The calibrated
    searches' models F are mapped to K_b^T F K_a and projected onto the
    essential manifold in one ``_project_essential`` call. *Finish*: the
    final models recount their inliers in pixels in one Sampson pass, an
    essential matrix E as K_b^-T E K_a^-1, so stored inliers satisfy the
    threshold by construction; a search needs 8 of them, and the
    calibrated searches that keep 8 recover their poses in one
    ``recover_pose`` call on their normalized points and inlier masks. A
    search without a winner ends in NoModelFound("no hypothesis reached 8
    inliers"), one whose final model keeps fewer than 8 inliers in
    NoModelFound("refit model keeps fewer than 8 inliers"), and one without
    a majority pose in the CheiralityAmbiguity that ``recover_pose``
    returns for its row. Each result is bit-identical to a call on that
    search alone and to a search that solves and scores its hypotheses one
    at a time in draw order. Memory grows with the searches passed: the
    select stage holds iterations x (m + 1) Sampson errors per search, and
    its Sampson pass computes them in blocks of searches whose products
    hold at most ``_SAMPSON_BYTES`` each, so those products do not grow
    with the call. ``score_all`` bounds the searches by the hypothesis sets
    of its window, and m by ``b``.

    Hypotheses stay rank-2 fundamental fits even for a calibrated search:
    the essential-manifold projection is brutal on noisy minimal samples,
    so it applies only to the overdetermined refit.
    """
    if isinstance(iterations, bool) or not isinstance(iterations, (int, np.integer)) \
            or iterations < 1:
        raise ValueError(f"iterations must be an integer >= 1, not {iterations!r}")
    if not 0.0 < inlier_threshold < math.inf:
        raise ValueError(f"inlier_threshold must be finite and > 0, not {inlier_threshold!r}")
    searches = list(searches)   # read once: any iterable of searches
    for corrs, _, _ in searches:
        if len(corrs) < MIN_MATCHES:
            raise InsufficientCorrespondences(f"{len(corrs)} < {MIN_MATCHES}")
    if not searches:
        return []
    # one inversion for every distinct K object: a window's features share their intrinsics
    distinct = {id(K): K for _, calib, _ in searches if calib is not None for K in calib}
    inverse = (dict(zip(distinct, np.linalg.inv(np.stack(list(distinct.values())))))
               if distinct else {})
    inverses = [None if calib is None else [inverse[id(K)] for K in calib]
                for _, calib, _ in searches]
    sizes = [len(corrs) for corrs, _, _ in searches]
    s, m = len(searches), max(sizes)
    # every search's homogeneous pixel points [x y 1] of images a and b,
    # (2, s, m + 1, 3), then zero rows: at least one per search, the refit's
    # padding point. A zero row's Sampson error is +inf against any model,
    # so no padding row is ever an inlier
    H = np.zeros((2, s, m + 1, 3))
    for k, (corrs, _, _) in enumerate(searches):
        H[:, k, :sizes[k]] = 1.0
        H[0, k, :sizes[k], :2], H[1, k, :sizes[k], :2] = corrs.x_a, corrs.x_b
    # (image, coordinate, search, point): a fit gathers its sets stack-last in one fancy index
    xy = H[..., :2].transpose(0, 3, 1, 2)
    threshold_sq = inlier_threshold ** 2

    samples = _draw_samples([rng for *_, rng in searches], sizes, iterations)
    hypotheses, ok = _fundamental_stack(xy[:, :, np.repeat(np.arange(s), iterations), samples.T])
    hypotheses = hypotheses.reshape(s, iterations, 3, 3)
    errs = _sampson(hypotheses, H[0, :, None], H[1, :, None])
    masks = errs < threshold_sq
    winners = _winners(errs, masks, ok.reshape(s, iterations))
    del errs
    results = [NoModelFound(f"no hypothesis reached {MIN_MATCHES} inliers") if row is None
               else None for row in winners]
    found = [k for k, row in enumerate(winners) if row is not None]
    if not found:
        return results
    rows = [winners[k] for k in found]
    inliers = masks[found, rows]
    del masks
    counts = inliers.sum(axis=1)
    top = counts.max()
    # each winner's inlier rows in index order, then the padding point m
    padded = np.where(np.arange(top) < counts[:, None],
                      np.argsort(~inliers, axis=1, kind="stable")[:, :top], m)
    refits, refit_ok = _fundamental_stack(xy[:, :, found, padded.T], counts)
    # a degenerate refit keeps the winning hypothesis as the final model
    final = np.where(refit_ok[:, None, None], refits, hypotheses[found, rows])
    calibrated = [j for j, k in enumerate(found) if inverses[k] is not None]
    pixel = final
    if calibrated:
        K_a, K_b = np.stack([searches[found[j]][1] for j in calibrated], axis=1)
        final[calibrated] = _project_essential(np.swapaxes(K_b, 1, 2) @ final[calibrated] @ K_a)
        inv_a, inv_b = np.stack([inverses[found[j]] for j in calibrated], axis=1)
        pixel = final.copy()
        pixel[calibrated] = np.swapaxes(inv_b, 1, 2) @ final[calibrated] @ inv_a

    points = H[:, found]
    kept = _sampson(pixel, *points) < threshold_sq
    enough = kept.sum(axis=1) >= MIN_MATCHES
    posed = [j for j in calibrated if enough[j]]
    poses = {}
    if posed:
        inv = np.stack([inverses[found[j]] for j in posed], axis=1)   # (2, p, 3, 3)
        na, nb = (points[:, posed] @ np.swapaxes(inv, 2, 3))[..., :2]
        poses = dict(zip(posed, recover_pose(final[posed], na, nb, kept[posed])))
    for j, k in enumerate(found):
        pose = poses.get(j, (None, None, None))
        if not enough[j]:
            results[k] = NoModelFound(f"refit model keeps fewer than {MIN_MATCHES} inliers")
        elif isinstance(pose, CheiralityAmbiguity):
            results[k] = pose
        else:
            R, t, angles = pose
            results[k] = TwoViewModel(matrix=final[j], inliers=np.flatnonzero(kept[j]),
                                      rotation=R, translation=t, triangulation_angles=angles)
    return results


def triangulate_angles(R: np.ndarray, t: np.ndarray, na: np.ndarray,
                       nb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint triangulation of normalized correspondences (na, nb), (m, 2).

    Returns each match's triangulation angle, radians in [0, pi], taken at
    the midpoint between the two rays (0 where the rays are near-parallel
    or the midpoint sits on a camera center), and a mask of the matches
    triangulated at positive depth in both cameras. ``R`` (3, 3) and ``t``
    (3,) give one pose, with (m,) outputs; stacks (..., 3, 3) and (..., 3)
    give one (..., m) row per pose, each equal to a one-pose call. Points
    (..., m, 2) broadcast against the poses' leading axes, so (s, 1, m, 2)
    points give s searches their own matches under (s, 4) poses.
    """
    rays = np.ones((2,) + na.shape[:-1] + (3,))
    rays[0, ..., :2], rays[1, ..., :2] = na, nb
    rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
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


def recover_pose(E: np.ndarray, na: np.ndarray, nb: np.ndarray,
                 inliers: np.ndarray) -> list[tuple | CheiralityAmbiguity]:
    """For each of s essential matrices, the (R, t) decomposition that
    places its inliers in front of both cameras.

    ``E`` is (s, 3, 3), ``na`` and ``nb`` are (s, m, 2) normalized
    correspondences and ``inliers`` an (s, m) mask. One batched SVD and one
    batched determinant sign fix decompose every E, and one
    ``triangulate_angles`` call triangulates the four decompositions of
    every row on all m of its matches; the inlier mask applies afterwards,
    to the counts in front and to the returned angles. Per row, the first
    decomposition with the most inliers in front wins. Returns one (R, t,
    inlier triangulation angles) per row, or a CheiralityAmbiguity,
    returned and not raised, where the winner does not cover a strict
    majority of the row's inliers. A row's result equals a stack of one's
    on its inlier matches alone, bit for bit.
    """
    U, _, Vt = np.linalg.svd(E)
    UV = np.stack([U, Vt])
    U, Vt = np.where(np.linalg.det(UV)[..., None, None] < 0.0, -UV, UV)
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    # (R1, t), (R1, -t), (R2, t), (R2, -t) with R1 = U W Vt, R2 = U W^T Vt
    R = (U[:, None] @ np.stack([W, W.T]) @ Vt[:, None])[:, [0, 0, 1, 1]]
    t = U[:, None, :, 2] * np.array([[1.0], [-1.0], [1.0], [-1.0]])
    angles, in_front = triangulate_angles(R, t, na[:, None], nb[:, None])
    counts = (in_front & inliers[:, None]).sum(axis=2)
    results = []
    for k, (best, n) in enumerate(zip(np.argmax(counts, axis=1).tolist(),
                                      inliers.sum(axis=1).tolist())):
        if counts[k, best] * 2 <= n:
            results.append(CheiralityAmbiguity(
                f"best decomposition sees {counts[k, best]}/{n} points in front"))
        else:
            results.append((R[k, best].copy(), t[k, best].copy(), angles[k, best][inliers[k]]))
    return results
