"""View-graph construction: maximum-weight spanning tree plus budgeted
augmentation stages, applied in a fixed order.

Stage order is tree, loops, anchors, weak-view support. Loop candidates
are non-tree edges binned by tree-path length between their endpoints
(short up to ``LOOP_SHORT_MAX``, medium up to ``LOOP_MEDIUM_MAX``, long
beyond) and drained round-robin across bins; anchors favor high
parallax-times-weight with an endpoint-diversity rule; weak-view support
tops up views that the tree leaves poorly connected (tree degree at most
``WEAK_DEGREE_MAX``) or poorly supported, with at most ``WEAK_PER_VIEW``
edges each. Every ranking breaks ties by ascending (i, j), so
construction is deterministic whatever the order of the score map.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import SaraConfig
from .errors import EmptyScoreSet
from .scorer import lower_median

LOOP_SHORT_MAX = 4    # chords over at most 4 tree edges close local loops
LOOP_MEDIUM_MAX = 10  # beyond 10 tree edges a chord closes a long, drift-bounding loop
WEAK_DEGREE_MAX = 1   # a tree leaf hangs on one edge, so losing that edge cuts it off
WEAK_PER_VIEW = 2     # two support edges give a weak view a redundant link
WEAK_EPS = 1e-6       # regularizer inside the weak-view priority


class EdgeRole(Enum):
    TREE = "tree"
    LOOP = "loop"
    ANCHOR = "anchor"
    WEAK = "weak"


@dataclass(frozen=True)
class ViewGraph:
    n_nodes: int
    candidate_edges: dict  # (i, j) -> weight, i < j, non-rejected pairs only
    selected_edges: list   # ((i, j), EdgeRole) in selection order
    components: list       # node lists, each ascending, ordered by smallest node

    def selected_pairs(self) -> set:
        return {e for e, _ in self.selected_edges}

    def summary(self) -> dict:
        """Size, role counts, components and reduction against all N(N-1)/2 pairs."""
        by_role: dict[str, int] = {}
        for _, role in self.selected_edges:
            by_role[role.value] = by_role.get(role.value, 0) + 1
        n = self.n_nodes
        total = n * (n - 1) // 2
        n_selected = len(self.selected_edges)
        return {
            "n_nodes": n,
            "n_candidate_edges": len(self.candidate_edges),
            "n_selected_edges": n_selected,
            "edges_by_role": by_role,
            "n_components": len(self.components),
            "reduction_ratio": (1.0 - n_selected / total) if total else 0.0,
        }


def max_spanning_tree(candidates: dict, n_nodes: int) -> list:
    """Kruskal on descending weight; ties break by ascending (i, j).

    Returns the accepted edges in acceptance order. Disconnected input
    yields a spanning forest.
    """
    parent = list(range(n_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]   # path halving
            x = parent[x]
        return x

    tree = []
    for (i, j), _ in sorted(candidates.items(), key=lambda kv: (-kv[1], kv[0])):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree.append((i, j))
            if len(tree) == n_nodes - 1:
                break
    return tree


class TreePaths:
    """Per-component rooted traversal with parent/depth tables.

    ``components`` lists each component's nodes, ascending, ordered by
    smallest node: every component is rooted at its smallest node, in node
    order. ``length(i, j)`` walks the two nodes up to their lowest common
    ancestor and returns the tree-path edge count, or None across
    components. Paths at this scale are short, so the walk-up is cheap.
    """

    def __init__(self, tree_edges, n_nodes: int):
        adj: list[list[int]] = [[] for _ in range(n_nodes)]
        for i, j in tree_edges:
            adj[i].append(j)
            adj[j].append(i)
        self.parent = [-1] * n_nodes
        self.depth = [0] * n_nodes
        self.component = [-1] * n_nodes
        comp = 0
        for root in range(n_nodes):
            if self.component[root] >= 0:
                continue
            queue = deque([root])
            self.component[root] = comp
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if self.component[v] < 0:
                        self.component[v] = comp
                        self.parent[v] = u
                        self.depth[v] = self.depth[u] + 1
                        queue.append(v)
            comp += 1
        self.components: list[list[int]] = [[] for _ in range(comp)]
        for node, c in enumerate(self.component):
            self.components[c].append(node)

    def length(self, i: int, j: int) -> int | None:
        if self.component[i] != self.component[j]:
            return None
        steps = 0
        while self.depth[i] > self.depth[j]:
            i = self.parent[i]
            steps += 1
        while self.depth[j] > self.depth[i]:
            j = self.parent[j]
            steps += 1
        while i != j:
            i, j = self.parent[i], self.parent[j]
            steps += 2
        return steps


def add_loops(selected, candidates: dict, paths: TreePaths, budget: int) -> list:
    """Budgeted loop closures, round-robin across path-length bins.

    Non-tree candidates whose endpoints share a component are binned by
    tree-path length (short, medium, long per the ``LOOP_*`` bounds) and
    ranked within their bin by weight (the per-bin gain factor is
    constant). Every bin's r-th edge, in long, medium, short order,
    comes before any bin's (r+1)-th; the first ``budget`` edges are taken.
    """
    if budget <= 0:
        return []
    taken = {e for e, _ in selected}
    bins: tuple[list, ...] = ([], [], [])   # long, medium, short
    for edge, w in candidates.items():
        length = None if edge in taken else paths.length(*edge)
        if length is not None:
            b = 2 if length <= LOOP_SHORT_MAX else 1 if length <= LOOP_MEDIUM_MAX else 0
            bins[b].append((-w, edge))
    keyed = sorted((rank, b, neg_w, edge) for b, members in enumerate(bins)
                   for rank, (neg_w, edge) in enumerate(sorted(members)))
    return [(edge, EdgeRole.LOOP) for *_, edge in keyed[:budget]]


def add_anchors(selected, candidates: dict, scores, budget: int) -> list:
    """Budgeted high-parallax anchors with an endpoint-diversity rule.

    Remaining candidates are ranked by parallax * weight (descending,
    ties by ascending (i, j)); a candidate is skipped when both endpoints
    already touch a previously added anchor.
    """
    if budget <= 0:
        return []
    taken = {e for e, _ in selected}
    ranked = []
    for edge, w in candidates.items():
        if edge in taken:
            continue
        score = scores[edge].parallax * w
        ranked.append((edge, score))
    ranked.sort(key=lambda es: (-es[1], es[0]))
    touched: set[int] = set()
    added = []
    for edge, _ in ranked:
        if len(added) >= budget:
            break
        i, j = edge
        if i in touched and j in touched:
            continue
        added.append((edge, EdgeRole.ANCHOR))
        touched.update(edge)
    return added


def add_weak_view_support(selected, candidates: dict, tree, n_nodes: int,
                          budget_total: int) -> list:
    """Support edges for weak views, weakest views first.

    A view's confidence kappa is the lower median of its incident
    ``tree`` edge weights, 0 for a view the tree leaves isolated. A view is
    weak if its tree degree is at most ``WEAK_DEGREE_MAX`` or its kappa
    sits below the 25th percentile of all views'. Views are served in
    descending priority 1 / ((1 + degree) (WEAK_EPS + kappa)), ties by
    node; each receives up to ``WEAK_PER_VIEW`` of its incident remaining
    candidates (best weight first), subject to the global cap.
    """
    if budget_total <= 0:
        return []
    tree_weights: list[list[float]] = [[] for _ in range(n_nodes)]
    for i, j in tree:
        tree_weights[i].append(candidates[(i, j)])
        tree_weights[j].append(candidates[(i, j)])
    kappas = [lower_median(ws) if ws else 0.0 for ws in tree_weights]
    cutoff = float(np.percentile(kappas, 25.0)) if kappas else 0.0
    weak = sorted((-1.0 / ((1.0 + len(ws)) * (WEAK_EPS + kappa)), node)
                  for node, (ws, kappa) in enumerate(zip(tree_weights, kappas))
                  if len(ws) <= WEAK_DEGREE_MAX or kappa < cutoff)

    taken = {e for e, _ in selected}
    incident: list[list] = [[] for _ in range(n_nodes)]   # best weight first
    for _, edge in sorted((-w, e) for e, w in candidates.items() if e not in taken):
        incident[edge[0]].append(edge)
        incident[edge[1]].append(edge)
    added: dict = {}   # edge -> role, in insertion order
    for _, node in weak:
        fresh = [edge for edge in incident[node] if edge not in added]
        for edge in fresh[:min(WEAK_PER_VIEW, budget_total - len(added))]:
            added[edge] = EdgeRole.WEAK
    return list(added.items())


def build_view_graph(scores, n_nodes: int, config: SaraConfig) -> ViewGraph:
    """Assemble the selected edge set: tree, then loops, anchors, weak support.

    ``scores`` maps canonical (i, j) pairs to PairScores; rejected pairs
    are excluded from candidacy. A disconnected candidate graph gives a
    spanning forest, whose trees are listed in ``components``; this
    function logs nothing about it.
    """
    if not scores:
        raise EmptyScoreSet("no scored pairs")
    candidates = {edge: s.weight for edge, s in scores.items() if s.rejected is None}
    tree = max_spanning_tree(candidates, n_nodes)
    selected = [(edge, EdgeRole.TREE) for edge in tree]
    paths = TreePaths(tree, n_nodes)
    selected += add_loops(selected, candidates, paths, config.budget("budget_loop", n_nodes))
    selected += add_anchors(selected, candidates, scores,
                            config.budget("budget_anchor", n_nodes))
    selected += add_weak_view_support(selected, candidates, tree, n_nodes,
                                      config.budget("budget_weak_total", n_nodes))
    return ViewGraph(n_nodes=n_nodes, candidate_edges=candidates,
                     selected_edges=selected, components=paths.components)
