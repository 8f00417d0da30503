"""Two-view geometry: a short robust model search over eight-point fits,
Sampson scoring, pose recovery, and triangulation parallax angles.

``short_ransac`` is the one estimator. ``sampson_errors`` scores one model
or a stack of them against all matches at once. In the calibrated branch
``recover_pose`` triangulates each decomposition of E once, through
``triangulate_angles``, on the normalized inlier coordinates the search
already holds, and returns the winner's angles with its pose.

Conventions. Pixel points are (x, y); homogeneous scale is 1. Models
satisfy x_b^T M x_a = 0 for a correspondence (x_a, x_b). The calibrated
branch works in normalized camera coordinates K^-1 [x y 1]^T; the world
frame is camera a's frame, camera b is X_b = R X + t, so camera b's
center is -R^T t. Translation scale is not observable; t is unit norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CheiralityAmbiguity, InsufficientCorrespondences, NoModelFound


_MATCH_DTYPE = np.dtype([("idx_a", np.intp), ("idx_b", np.intp), ("x_a", np.float64, (2,)),
                         ("x_b", np.float64, (2,)), ("similarity", np.float64)])


def correspondences(idx_a, idx_b, x_a, x_b, similarity) -> np.recarray:
    """One image pair's putative matches as a record array, one row per match.

    Row k matches keypoint ``idx_a[k]`` of image a at pixel ``x_a[k]`` with
    keypoint ``idx_b[k]`` of image b at ``x_b[k]``; pixels are widened to
    float64. Fields read as whole arrays (``corrs.x_a`` is (m, 2)) and rows
    by attribute (``corrs[k].idx_a``).
    """
    return np.rec.fromarrays([idx_a, idx_b, x_a, x_b, similarity], dtype=_MATCH_DTYPE)


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

    def swapped(self) -> "TwoViewModel":
        """The same model with the roles of image a and b exchanged."""
        rot = None if self.rotation is None else self.rotation.T
        tr = None if self.translation is None else -(self.rotation.T @ self.translation)
        return TwoViewModel(
            matrix=self.matrix.T.copy(), inliers=self.inliers,
            rotation=rot, translation=tr,
            triangulation_angles=self.triangulation_angles)


def _normalized_coords(points: np.ndarray, K: np.ndarray) -> np.ndarray:
    h = np.column_stack([points, np.ones(len(points))])
    return (h @ np.linalg.inv(K).T)[:, :2]


def _fundamental_stack(pa: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized eight-point estimates for a stack of point sets.

    ``pa`` and ``pb`` are (h, m, 2) with m >= 8. Returns (h, 3, 3) rank-2,
    unit-Frobenius models and an (h,) mask that is False where a set is
    degenerate (coincident points, or a design matrix of rank below 8);
    the model of a masked-out set is finite but meaningless. Every
    operation runs on the whole stack, with the same floating-point
    operations per set as a one-set solve, so a set's model does not
    depend on the stack it was solved in.

    With m > 8 the null vector of the design matrix A comes from an SVD
    and a set needs sigma_8 > 1e-10 sigma_1. With m == 8 it is exact: Q's
    last column in the complete QR of A^T, and a set needs min |R_kk| >
    1e-10 max |R_kk|. That ratio is at least sigma_8 / sigma_1, so the QR
    test accepts every set the SVD test accepts. A batched LU solve raises
    for the whole stack when one set is singular, and fixing f33 = 1
    excludes models where it is 0.
    """
    ok = np.ones(pa.shape[0], dtype=bool)
    transforms, normalized = [], []
    for pts in (pa, pb):
        # Hartley: centroid to the origin, mean radius to sqrt(2)
        c = pts.mean(axis=1)
        centered = pts - c[:, None, :]
        mean_dist = np.linalg.norm(centered, axis=2).mean(axis=1)
        coincident = mean_dist < 1e-9
        ok &= ~coincident
        s = math.sqrt(2.0) / np.where(coincident, 1.0, mean_dist)
        T = np.zeros((pts.shape[0], 3, 3))
        T[:, 0, 0] = T[:, 1, 1] = s
        T[:, 0, 2] = -s * c[:, 0]
        T[:, 1, 2] = -s * c[:, 1]
        T[:, 2, 2] = 1.0
        transforms.append(T)
        normalized.append(centered * s[:, None, None])
    (Ta, Tb), (na, nb) = transforms, normalized
    x1, y1 = na[..., 0], na[..., 1]
    x2, y2 = nb[..., 0], nb[..., 1]
    A = np.stack([
        x2 * x1, x2 * y1, x2,
        y2 * x1, y2 * y1, y2,
        x1, y1, np.ones_like(x1),
    ], axis=-1)
    if A.shape[1] == 8:
        # minimal sample: A^T = QR, and Q's last column spans A's null space
        Q, R = np.linalg.qr(np.swapaxes(A, 1, 2), mode="complete")
        d = np.abs(np.diagonal(R, axis1=1, axis2=2))
        ok &= (d.max(axis=1) > 0.0) & (d.min(axis=1) > d.max(axis=1) * 1e-10)
        f = Q[:, :, -1]
    else:
        _, s, Vt = np.linalg.svd(A)
        ok &= (s[:, 0] > 0.0) & (s[:, 7] > s[:, 0] * 1e-10)
        f = Vt[:, -1]
    U, sf, Vft = np.linalg.svd(f.reshape(-1, 3, 3))
    sf[:, 2] = 0.0
    F = (U * sf[:, None, :]) @ Vft
    F = np.swapaxes(Tb, 1, 2) @ F @ Ta
    flat = F.reshape(-1, 1, 9)
    # a per-set dot product, rounded as np.linalg.norm rounds a single matrix
    F /= np.sqrt(flat @ np.swapaxes(flat, 1, 2))
    return _fix_sign(F), ok


def _fix_sign(M: np.ndarray) -> np.ndarray:
    # deterministic sign: the largest-magnitude entry of each 3x3 model positive
    flat = M.reshape(-1, 9)
    lead = np.take_along_axis(flat, np.argmax(np.abs(flat), axis=1)[:, None], axis=1)
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
    ha = np.column_stack([x_a, np.ones(len(x_a))])
    hb = np.column_stack([x_b, np.ones(len(x_b))])
    Ma = ha @ np.swapaxes(M, -1, -2)   # rows are (M x_a)^T
    Mtb = hb @ M                       # rows are (M^T x_b)^T
    num = np.einsum("ij,...ij->...i", hb, Ma) ** 2
    den = Ma[..., 0] ** 2 + Ma[..., 1] ** 2 + Mtb[..., 0] ** 2 + Mtb[..., 1] ** 2
    return np.divide(num, den, out=np.full(den.shape, np.inf), where=den > 0.0)


def _draw_samples(rng: np.random.Generator, n: int, rows: int) -> np.ndarray:
    """(rows, 8) indices, each row 8 draws without replacement from range(n).

    Partial Fisher-Yates on every row at once. All draws come from one
    call, in the order row-after-row shuffles would take them, so the rows
    and the generator's next state equal those of ``rows`` sequential
    shuffles.
    """
    offsets = rng.integers(np.tile(n - np.arange(8), rows)).reshape(rows, 8)
    idx = np.tile(np.arange(n), (rows, 1))
    r = np.arange(rows)
    for i in range(8):
        j = i + offsets[:, i]
        picked = idx[r, j]
        idx[r, j] = idx[:, i]
        idx[:, i] = picked
    return idx[:, :8]


def _best_hypothesis(errs: np.ndarray, masks: np.ndarray, ok: np.ndarray) -> int | None:
    """Row of the winning hypothesis, or None if none keeps 8 inliers.

    Most inliers wins; a tie goes to the strictly lower inlier-error total,
    then to the earlier row. A total sums the row's inlier errors alone, in
    order, as a one-hypothesis search sums them.
    """
    counts = np.where(ok, masks.sum(axis=1), 0)
    top = int(counts.max(initial=0))
    if top < 8:
        return None
    tied = np.flatnonzero(counts == top)
    totals = [errs[h][masks[h]].sum() for h in tied]
    return int(tied[int(np.argmin(totals))])


def triangulate_angles(R: np.ndarray, t: np.ndarray, na: np.ndarray,
                       nb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint triangulation of normalized correspondences (na, nb), (m, 2).

    Returns each match's triangulation angle, radians in [0, pi], taken at
    the midpoint between the two rays (0 where the rays are near-parallel
    or the midpoint sits on a camera center), and a mask of the matches
    triangulated at positive depth in both cameras.
    """
    ones = np.ones(len(na))
    da = np.column_stack([na, ones])   # rays from camera a's center, the origin
    db = np.column_stack([nb, ones])
    da /= np.linalg.norm(da, axis=1, keepdims=True)
    db /= np.linalg.norm(db, axis=1, keepdims=True)
    db = db @ R   # camera b's rays in camera a's frame (R^T per row)
    w0 = R.T @ t   # C_a - C_b, camera b's center being -R^T t
    b = np.einsum("ij,ij->i", da, db)
    d = da @ w0
    e = db @ w0
    denom = 1.0 - b * b
    ok = np.abs(denom) > 1e-12
    safe = np.where(ok, denom, 1.0)
    s = np.where(ok, (b * e - d) / safe, 0.0)
    u = np.where(ok, (e - b * d) / safe, 0.0)
    X = 0.5 * (s[:, None] * da - w0[None, :] + u[:, None] * db)
    vb = X + w0   # from camera b's center
    theta = np.arctan2(np.linalg.norm(np.cross(X, vb), axis=1), np.einsum("ij,ij->i", X, vb))
    degenerate = (np.linalg.norm(X, axis=1) < 1e-12) | (np.linalg.norm(vb, axis=1) < 1e-12)
    theta[~ok | degenerate] = 0.0
    in_front = ok & (X[:, 2] > 0.0) & ((X @ R.T + t)[:, 2] > 0.0)
    return theta, in_front


def recover_pose(E: np.ndarray, na: np.ndarray,
                 nb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick the (R, t) decomposition of E that places points in front.

    Each of the four candidate decompositions is triangulated once on the
    normalized correspondences (na, nb); the first with the most points in
    front of both cameras wins. Returns (R, t, triangulation angles).
    Raises CheiralityAmbiguity unless the winner covers a strict majority.
    """
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    R1, R2 = U @ W @ Vt, U @ W.T @ Vt
    t = U[:, 2]
    best = None
    for R, tc in ((R1, t), (R1, -t), (R2, t), (R2, -t)):
        angles, in_front = triangulate_angles(R, tc, na, nb)
        count = int(in_front.sum())
        if best is None or count > best[0]:
            best = (count, R, tc, angles)
    count, R, tc, angles = best
    if count * 2 <= len(na):
        raise CheiralityAmbiguity(
            f"best decomposition sees {count}/{len(na)} points in front")
    return R, tc, angles


def short_ransac(corrs, calib: tuple[np.ndarray, np.ndarray] | None = None,
                 iterations: int = 32, inlier_threshold: float = 2.0,
                 rng: np.random.Generator | None = None) -> TwoViewModel:
    """Fixed-iteration robust two-view estimation.

    Hypotheses are eight-point fits on uniform 8-subsets, scored by inlier
    count under the squared Sampson threshold (count ties broken by lower
    total inlier error, then by the earlier draw). The best hypothesis is
    refit once on its inliers and the inlier set is recomputed against the
    refit model, so stored inliers satisfy the threshold by construction.

    All hypotheses are drawn, solved and scored together: one stacked
    eight-point solve and one (iterations, len(corrs)) Sampson matrix, so
    memory grows as iterations x correspondences floats (32 x 50 with the
    default config). The result is bit-identical to solving and scoring
    the hypotheses one at a time in draw order. The minimal samples take
    their null vectors from one batched QR and the refit on more than 8
    inliers from an SVD (see ``_fundamental_stack``), in both branches.

    ``inlier_threshold`` is a pixel distance; with ``calib`` given the
    search runs in normalized coordinates (essential model) and the
    squared threshold is scaled by the inverse squared mean focal length.
    """
    n = len(corrs)
    if n < 8:
        raise InsufficientCorrespondences(f"{n} < 8")
    if rng is None:
        rng = np.random.default_rng(0)
    sa, sb = corrs.x_a, corrs.x_b
    if calib is not None:
        K_a, K_b = calib
        sa, sb = _normalized_coords(sa, K_a), _normalized_coords(sb, K_b)
        fbar = float(np.mean([K_a[0, 0], K_a[1, 1], K_b[0, 0], K_b[1, 1]]))
        threshold_sq = (inlier_threshold / fbar) ** 2
    else:
        threshold_sq = inlier_threshold ** 2

    # hypotheses stay rank-2 fundamental fits even in the calibrated branch:
    # the essential-manifold projection is brutal on noisy minimal samples,
    # so it is applied only to the final overdetermined refit
    samples = _draw_samples(rng, n, iterations)
    models, ok = _fundamental_stack(sa[samples], sb[samples])
    errs = sampson_errors(models, sa, sb)
    masks = errs < threshold_sq
    best = _best_hypothesis(errs, masks, ok)
    if best is None:
        raise NoModelFound("no hypothesis reached 8 inliers")

    mask = masks[best]
    refit, refit_ok = _fundamental_stack(sa[mask][None], sb[mask][None])
    # a degenerate refit keeps the winning hypothesis as the final model
    M = refit[0] if refit_ok[0] else models[best]
    if calib is not None:
        M = _project_essential(M)
    errs = sampson_errors(M, sa, sb)
    inliers = np.flatnonzero(errs < threshold_sq)
    if inliers.size < 8:
        raise NoModelFound("refit model keeps fewer than 8 inliers")

    if calib is None:
        return TwoViewModel(matrix=M, inliers=inliers)
    R, t, angles = recover_pose(M, sa[inliers], sb[inliers])
    return TwoViewModel(matrix=M, inliers=inliers, rotation=R, translation=t,
                        triangulation_angles=angles)
