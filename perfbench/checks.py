"""Correctness checks on one selection, computed apart from the program.

Ground truth comes from the benchmark's own scene arrays (``scenes.Scene``)
and its own numpy code; nothing here calls into ``sara``. Each check
returns a list of problems, empty when the output passes.

Inputs besides the scene:

- ``selected``: ``[(i, j, role)]`` from the graph report, manifest indices;
- ``scores``: ``{(i, j): PairScore}`` as ``score_all`` returned them;
- ``matches``: ``{(id_a, id_b): [Correspondence]}`` as ``mutual_nn_matches``
  returned them.
"""

from __future__ import annotations

import math

import numpy as np

# Calibrated accepted pairs: largest error against the truth. At 0 px noise
# both errors stay below 1e-4 degrees; at 0.5 px most stay below 7 degrees
# (README). A rotation beyond the tolerance makes the pair a failed operation.
ROTATION_TOL_DEG = 10.0
PARALLAX_TOL_DEG = 10.0
REL_TOL = 1e-9


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def _partition(edges, n: int) -> set:
    uf = _UnionFind(n)
    for i, j in edges:
        uf.union(i, j)
    groups: dict[int, list] = {}
    for node in range(n):
        groups.setdefault(uf.find(node), []).append(node)
    return {tuple(g) for g in groups.values()}


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def read_report(doc: dict, image_ids: list) -> list:
    """Selected edges of a graph report as ``[(i, j, role)]`` with i < j."""
    index = {image_id: i for i, image_id in enumerate(image_ids)}
    out = []
    for edge in doc["edges"]:
        i, j = index[edge["a"]], index[edge["b"]]
        out.append((min(i, j), max(i, j), edge["role"]))
    return out


def exact_candidates(globals_: np.ndarray, k: int) -> set:
    """Top-k cosine neighbours per image, ties to the lower index, as i < j pairs."""
    g = globals_.astype(np.float64)
    n = g.shape[0]
    pairs = set()
    for start in range(0, n, 256):   # row blocks keep memory linear in n
        sims = g[start:start + 256] @ g.T
        rows = np.arange(sims.shape[0])
        sims[rows, rows + start] = -np.inf
        kth = -np.partition(-sims, k - 1, axis=1)[:, k - 1:k]
        above = sims > kth
        ties = sims == kth
        need = k - above.sum(axis=1, keepdims=True)
        r, c = np.nonzero(above | (ties & (np.cumsum(ties, axis=1) <= need)))
        r = r + start
        pairs.update(zip(np.minimum(r, c).tolist(), np.maximum(r, c).tolist()))
    return pairs


def check_candidates(selected, candidates: set, n_scored: int) -> list:
    problems = [f"selected pair ({i}, {j}) is not a top-k cosine candidate"
                for i, j, _ in selected if (i, j) not in candidates]
    if n_scored != len(candidates):
        problems.append(f"{n_scored} pairs scored, {len(candidates)} exact candidates")
    return problems


def max_spanning_forest(weights: dict, n: int) -> tuple[float, int]:
    """Kruskal on descending weight: (total weight, edge count)."""
    uf = _UnionFind(n)
    total, count = 0.0, 0
    for (i, j), w in sorted(weights.items(), key=lambda kv: (-kv[1], kv[0])):
        if uf.union(i, j):
            total += w
            count += 1
    return total, count


def accepted_weights(scores: dict) -> dict:
    return {pair: s.weight for pair, s in scores.items() if s.rejected is None}


def check_tree(selected, accepted: dict, n: int) -> list:
    tree = [(i, j) for i, j, role in selected if role == "tree"]
    problems = [f"tree edge ({i}, {j}) is not an accepted pair"
                for i, j in tree if (i, j) not in accepted]
    if problems:
        return problems
    uf = _UnionFind(n)
    if not all(uf.union(i, j) for i, j in tree):
        problems.append("tree edges contain a cycle")
    best, count = max_spanning_forest(accepted, n)
    if len(tree) != count:
        problems.append(f"tree has {len(tree)} edges, a spanning forest has {count}")
    got = sum(accepted[e] for e in tree)
    if not _close(got, best):
        problems.append(f"tree weight {got!r} != maximum spanning forest weight {best!r}")
    return problems


def budgets(config, n: int) -> dict:
    """Per-role caps, from the config fields or their documented defaults."""
    def pick(value, share):
        return math.ceil(share * n) if value is None else value
    return {"tree": n - 1,
            "loop": pick(config.budget_loop, 0.2) if config.use_loops else 0,
            "anchor": pick(config.budget_anchor, 0.05) if config.use_anchors else 0,
            "weak": pick(config.budget_weak_total, 0.1) if config.use_weak else 0}


def check_budgets(selected, config, n: int) -> list:
    caps = budgets(config, n)
    counts = {role: 0 for role in caps}
    problems = []
    for _, _, role in selected:
        if role not in counts:
            problems.append(f"unknown role {role!r}")
            continue
        counts[role] += 1
    problems += [f"{counts[r]} {r} edges exceed the budget {caps[r]}"
                 for r in caps if counts[r] > caps[r]]
    if len({(i, j) for i, j, _ in selected}) != len(selected):
        problems.append("a pair is selected twice")
    tree = counts["tree"]
    limit = tree + caps["loop"] + caps["anchor"] + caps["weak"]
    if len(selected) > limit:
        problems.append(f"{len(selected)} selected > tree {tree} + budgets = {limit}")
    return problems


def check_components(selected, accepted: dict, n: int, n_components: int) -> list:
    want = _partition(accepted, n)
    got = _partition([(i, j) for i, j, _ in selected], n)
    problems = []
    if got != want:
        problems.append(f"selection has {len(got)} components, accepted pairs {len(want)}")
    if n_components != len(want):
        problems.append(f"report says {n_components} components, accepted pairs {len(want)}")
    return problems


def check_formula(report_edges: list, image_ids: list, scores: dict,
                  n_keypoints: list, config) -> list:
    """overlap = inliers / sqrt(n_a n_b); weight = overlap^alpha min(parallax, cap)^beta."""
    def expected(inliers, a, b, parallax):
        overlap = inliers / math.sqrt(n_keypoints[a] * n_keypoints[b])
        weight = overlap ** config.alpha * min(parallax, config.parallax_cap) ** config.beta
        return overlap, weight

    problems = []
    for (i, j), s in scores.items():
        if s.rejected is not None:
            continue
        overlap, weight = expected(s.inlier_count, i, j, s.parallax)
        if not (_close(s.overlap, overlap) and _close(s.weight, weight)):
            problems.append(f"pair ({i}, {j}): overlap {s.overlap!r}, weight {s.weight!r}; "
                            f"formula gives {overlap!r}, {weight!r}")
    index = {image_id: i for i, image_id in enumerate(image_ids)}
    for edge in report_edges:
        a, b = index[edge["a"]], index[edge["b"]]
        overlap, weight = expected(edge["inliers"], a, b, math.radians(edge["parallax_deg"]))
        if not (_close(edge["overlap"], overlap) and _close(edge["weight"], weight)):
            problems.append(f"report edge {edge['a']}-{edge['b']}: overlap {edge['overlap']!r}, "
                            f"weight {edge['weight']!r}; formula gives {overlap!r}, {weight!r}")
    return problems


def _rotation_angle(R: np.ndarray) -> float:
    return math.acos(min(1.0, max(-1.0, (float(np.trace(R)) - 1.0) / 2.0)))


def _views(scene) -> dict:
    """Manifest index -> orbit view index, for the orbit images only."""
    return {int(idx): v for v, idx in enumerate(scene.orbit_index)}


def _covisible(scene, i: int, j: int) -> int:
    view_of = _views(scene)
    if i not in view_of or j not in view_of:
        return 0
    return int((scene.visibility[view_of[i]] & scene.visibility[view_of[j]]).sum())


def _calibrated_accepted(scores: dict):
    return [(pair, s) for pair, s in sorted(scores.items())
            if s.rejected is None and s.model is not None and s.model.rotation is not None]


def rotation_errors(scene, scores: dict) -> dict:
    """Degrees between reported and true relative rotation, accepted calibrated pairs."""
    view_of = _views(scene)
    out = {}
    for (i, j), s in _calibrated_accepted(scores):
        va, vb = view_of[i], view_of[j]
        R_true = scene.rotations[vb] @ scene.rotations[va].T
        out[(i, j)] = math.degrees(_rotation_angle(s.model.rotation.T @ R_true))
    return out


def parallax_errors(scene, scores: dict, matches: dict) -> dict:
    """Degrees between reported parallax and the true lower-median triangulation
    angle at the 3-d points of the pair's inlier matches."""
    view_of = _views(scene)
    point_ids = [np.flatnonzero(row) for row in scene.visibility]
    out = {}
    for (i, j), s in _calibrated_accepted(scores):
        va, vb = view_of[i], view_of[j]
        corrs = matches[(scene.image_ids[i], scene.image_ids[j])]
        X = scene.points[[point_ids[va][corrs[k].idx_a] for k in s.model.inliers]]
        ra = scene.centers[va] - X
        rb = scene.centers[vb] - X
        angles = np.sort(np.arctan2(np.linalg.norm(np.cross(ra, rb), axis=1),
                                    np.einsum("ij,ij->i", ra, rb)))
        out[(i, j)] = math.degrees(abs(s.parallax - float(angles[(angles.size - 1) // 2])))
    return out


def false_matches(scene, matches: dict, b: int) -> list:
    """Matches joining two different 3-d points, in pairs with >= b covisible points.

    Descriptors are noise-free, so true matches have similarity 1 and come
    first; with at least ``b`` of them every kept match must be true.
    """
    view_of = _views(scene)
    index = {image_id: i for i, image_id in enumerate(scene.image_ids)}
    point_ids = [np.flatnonzero(row) for row in scene.visibility]
    out = []
    for (id_a, id_b), corrs in sorted(matches.items()):
        i, j = index[id_a], index[id_b]
        if _covisible(scene, i, j) < b:
            continue
        for c in corrs:
            pa, pb = point_ids[view_of[i]][c.idx_a], point_ids[view_of[j]][c.idx_b]
            if pa != pb:
                out.append((i, j, int(pa), int(pb)))
    return out


def check_geometry(scene, scores: dict, matches: dict, b: int) -> list:
    """Kept matches are true where they must be; parallax is near the truth on
    accepted pairs whose rotation is (rotation misses are failed operations)."""
    problems = [f"pair ({i}, {j}) matches points {x} and {y}"
                for i, j, x, y in false_matches(scene, matches, b)[:5]]
    rotation = rotation_errors(scene, scores)
    for pair, err in parallax_errors(scene, scores, matches).items():
        if rotation[pair] <= ROTATION_TOL_DEG and err > PARALLAX_TOL_DEG:
            problems.append(f"pair {pair}: parallax error {err:.3f} deg > {PARALLAX_TOL_DEG}")
    return problems


def check_distractors(scene, selected) -> list:
    orbit = set(scene.orbit_index.tolist())
    return [f"selected pair ({i}, {j}) touches a distractor"
            for i, j, _ in selected if i not in orbit or j not in orbit]


def failed_pairs(scene, scores: dict, b: int) -> list:
    """Pairs whose outcome contradicts the scene's ground truth.

    A pair fails when it has at least ``b`` covisible points and still
    ends ``no_model``, or when it is accepted with a relative rotation
    more than ``ROTATION_TOL_DEG`` off the truth.
    """
    lost = [pair for pair, s in sorted(scores.items())
            if s.rejected is not None and s.rejected.value == "no_model"
            and _covisible(scene, *pair) >= b]
    wrong = [pair for pair, err in rotation_errors(scene, scores).items()
             if err > ROTATION_TOL_DEG]
    return sorted(lost + wrong)
