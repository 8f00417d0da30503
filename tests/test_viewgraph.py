import itertools
import logging
from collections import deque

import numpy as np
import pytest

from helpers import oracle_mst, reference_kruskal
from sara.config import SaraConfig
from sara.errors import EmptyScoreSet
from sara.retrieval import cosine_knn
from sara.scorer import PairScore, RejectReason, score_all
from sara.pipeline import _warn_disconnected
from sara.viewgraph import (LOOP_MEDIUM_MAX, LOOP_SHORT_MAX, WEAK_PER_VIEW, EdgeRole,
                            TreePaths, add_anchors, add_loops, add_weak_view_support,
                            build_view_graph, max_spanning_tree)


def fake_scores(weights, parallax=None, rejected=frozenset()):
    """PairScore map from raw weights; parallax defaults to 0.1 rad."""
    out = {}
    for (i, j), w in weights.items():
        out[(i, j)] = PairScore(
            overlap=min(1.0, w), weight=w,
            parallax=(parallax or {}).get((i, j), 0.1),
            rejected=RejectReason.NO_MODEL if (i, j) in rejected else None)
    return out


def random_weights(rng, n_nodes, density=0.7):
    weights = {}
    for i, j in itertools.combinations(range(n_nodes), 2):
        if rng.uniform() < density:
            weights[(i, j)] = float(rng.uniform(0.01, 1.0))
    return weights


@pytest.fixture(scope="module")
def scored_orbit(orbit20_features):
    vectors = np.stack([f.global_desc for f in orbit20_features]).astype(np.float64)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    candidates = cosine_knn(vectors, k=5)
    return score_all(orbit20_features, candidates, SaraConfig())


class TestMaxSpanningTree:
    def test_triangle(self):
        weights = {(0, 1): 3.0, (1, 2): 2.0, (0, 2): 1.0}
        tree = max_spanning_tree(weights, 3)
        assert tree == [(0, 1), (1, 2)]
        assert sum(weights[e] for e in tree) == 5.0

    def test_matches_exhaustive_oracle(self):
        # density 0.3 draws mostly disconnected graphs, so forests are checked too
        forests = 0
        for density in (0.7, 0.3):
            for seed in range(20):
                rng = np.random.default_rng(seed)
                n = int(rng.integers(3, 8))
                weights = random_weights(rng, n, density)
                tree = max_spanning_tree(weights, n)
                forests += len(tree) < n - 1
                assert sum(weights[e] for e in tree) == pytest.approx(oracle_mst(weights, n))
        assert forests > 0

    def test_equals_reference_kruskal_on_tied_weights(self):
        # weights from {1, 2, 3} tie often, so the ascending (i, j) rule
        # decides most acceptances, whatever order the map holds its edges in;
        # the whole edge list is compared in order
        kinds = set()
        for seed in range(80):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 61))
            density = float(rng.uniform(0.1, 0.7))
            edges = [e for e in itertools.combinations(range(n), 2) if rng.uniform() < density]
            weights = {edges[k]: float(rng.integers(1, 4)) for k in rng.permutation(len(edges))}
            tree = max_spanning_tree(weights, n)
            assert tree == reference_kruskal(weights, n)
            kinds.add(len(tree) == n - 1)
        assert kinds == {True, False}   # connected and disconnected draws

    @pytest.mark.parametrize("mirrored", [False, True], ids=["from_first", "from_last"])
    def test_equals_reference_kruskal_on_long_chains(self, mirrored):
        # a 2,000-node path whose weights fall along it is accepted edge by
        # edge from one end, so unions chain; right after each path edge, a
        # chord from that end closes a cycle, so its find walks the chain
        n = 2000
        node = (lambda k: n - 1 - k) if mirrored else (lambda k: k)

        def edge(a, b):
            return tuple(sorted((node(a), node(b))))

        weights = {edge(i, i + 1): 2.0 * (n - i) for i in range(n - 1)}
        weights.update({edge(0, i + 1): 2.0 * (n - i) - 1.0 for i in range(1, n - 1)})
        tree = max_spanning_tree(weights, n)
        assert tree == reference_kruskal(weights, n)
        assert tree == [edge(i, i + 1) for i in range(n - 1)]

    def test_tie_break_ascending(self):
        # equal weights on a 12-cycle: Kruskal keeps the lexicographically
        # first 11 edges, leaving (10, 11) as the only chord
        weights = {(i, (i + 1) % 12): 1.0 for i in range(11)}
        weights[(0, 11)] = 1.0
        weights = {tuple(sorted(e)): w for e, w in weights.items()}
        tree = max_spanning_tree(weights, 12)
        assert len(tree) == 11
        assert (10, 11) not in tree

    def test_forest_on_disconnected(self):
        weights = {(0, 1): 1.0, (1, 2): 0.9, (0, 2): 0.8,
                   (3, 4): 1.0, (4, 5): 0.9, (3, 5): 0.8}
        tree = max_spanning_tree(weights, 6)
        assert len(tree) == 4
        assert set(tree) == {(0, 1), (1, 2), (3, 4), (4, 5)}


class TestTreePaths:
    def test_path_graph(self):
        paths = TreePaths([(0, 1), (1, 2), (2, 3)], 4)
        assert paths.length(0, 3) == 3
        assert paths.length(0, 1) == 1
        assert paths.length(1, 3) == 2
        assert paths.length(2, 2) == 0

    def test_star(self):
        paths = TreePaths([(0, 1), (0, 2), (0, 3)], 4)
        assert paths.length(1, 2) == 2
        assert paths.length(0, 3) == 1

    def test_cross_component_none(self):
        paths = TreePaths([(0, 1), (2, 3)], 4)
        assert paths.length(0, 2) is None
        assert len(paths.components) == 2

    def test_random_tree_against_bfs(self):
        rng = np.random.default_rng(3)
        n = 50
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        edges = [tuple(sorted(e)) for e in edges]
        paths = TreePaths(edges, n)
        adj = [[] for _ in range(n)]
        for i, j in edges:
            adj[i].append(j)
            adj[j].append(i)

        def bfs(src, dst):
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    if u == dst:
                        return dist[u]
                    for v in adj[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
            return None

        for _ in range(200):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            assert paths.length(i, j) == bfs(i, j)


def weak_support(tree_weights: dict, extra: dict, n_nodes: int, budget: int = 10) -> list:
    """Edges add_weak_view_support picks, in order, for a tree given as
    {edge: weight} and the non-tree candidates ``extra``."""
    tree = list(tree_weights)
    selected = [(e, EdgeRole.TREE) for e in tree]
    added = add_weak_view_support(selected, {**tree_weights, **extra}, tree, n_nodes, budget)
    assert all(role is EdgeRole.WEAK for _, role in added)
    return [e for e, _ in added]


class TestNodeConfidence:
    """A view's tree degree and confidence kappa, the lower median of its
    incident tree-edge weights, as seen in the order weak views are served."""

    def test_path_medians(self):
        # path 0-1-2-3: kappa is [3, 3, 2, 2] (lower medians of {3, 4} and
        # {4, 2}), so no view falls below the 25th percentile and only the
        # two leaves are weak; at equal degree leaf 3, with the lower kappa,
        # is served before leaf 0
        tree = {(0, 1): 3.0, (1, 2): 4.0, (2, 3): 2.0}
        extra = {(0, 2): 0.5, (1, 3): 0.5, (0, 3): 0.1}
        assert weak_support(tree, extra, 4, budget=1) == [(1, 3)]
        assert weak_support(tree, extra, 4) == [(1, 3), (0, 3), (0, 2)]

    def test_isolated_node(self):
        # view 3 is outside the tree: degree 0 and kappa 0 put it ahead of
        # the two degree-1 leaves, whose kappa 0.1 gives them priority 5,
        # though the leaves' candidate weighs more
        tree = {(0, 1): 0.1, (1, 2): 0.1}
        extra = {(0, 2): 0.9, (0, 3): 0.2, (2, 3): 0.3}
        assert weak_support(tree, extra, 4, budget=1) == [(2, 3)]
        assert weak_support(tree, extra, 4) == [(2, 3), (0, 3), (0, 2)]

    def test_priority_degree_ratio(self):
        # the priority is 1 / ((1 + degree) (eps + kappa)): hub 0 (degree 3,
        # kappa 1, priority 1/4) waits behind leaf 11 (degree 1, kappa 1.5,
        # priority 1/3) although its kappa is lower
        tree = {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 5.0, (10, 11): 1.5}
        tree.update({(v, v + 1): 5.0 for v in range(3, 10)})
        extra = {(0, 6): 0.2, (4, 11): 0.1}
        assert weak_support(tree, extra, 12, budget=1) == [(4, 11)]
        assert weak_support(tree, extra, 12, budget=2) == [(4, 11), (0, 6)]


def round_robin_loops(selected, candidates, paths, budget):
    """Reference loop stage: per-bin queues drained one edge per bin per pass."""
    taken = {e for e, _ in selected}
    bins = {"short": [], "medium": [], "long": []}
    for edge, w in candidates.items():
        length = None if edge in taken else paths.length(*edge)
        if length is None:
            continue
        if length <= LOOP_SHORT_MAX:
            bins["short"].append((edge, w))
        elif length <= LOOP_MEDIUM_MAX:
            bins["medium"].append((edge, w))
        else:
            bins["long"].append((edge, w))
    queues = {key: deque(sorted(edges, key=lambda ew: (-ew[1], ew[0])))
              for key, edges in bins.items()}
    added = []
    while len(added) < budget and any(queues.values()):
        for key in ("long", "medium", "short"):
            if len(added) < budget and queues[key]:
                added.append((queues[key].popleft()[0], EdgeRole.LOOP))
    return added


class TestAddLoops:
    def make_path_tree(self, n=12):
        # heavy path edges become the tree; light chords stay candidates
        weights = {(i, i + 1): 10.0 + i * 0.01 for i in range(n - 1)}
        return weights

    def test_zero_budget(self):
        weights = self.make_path_tree()
        weights[(0, 11)] = 1.0
        tree = max_spanning_tree(weights, 12)
        selected = [(e, EdgeRole.TREE) for e in tree]
        assert add_loops(selected, weights, TreePaths(tree, 12), 0) == []

    def test_no_chords(self):
        weights = self.make_path_tree()
        tree = max_spanning_tree(weights, 12)
        selected = [(e, EdgeRole.TREE) for e in tree]
        assert add_loops(selected, weights, TreePaths(tree, 12), 5) == []

    def test_round_robin_long_medium_short(self):
        weights = self.make_path_tree()
        weights[(0, 3)] = 1.0    # path length 3: short
        weights[(0, 8)] = 1.0    # path length 8: medium
        weights[(0, 11)] = 1.0   # path length 11: long
        tree = max_spanning_tree(weights, 12)
        selected = [(e, EdgeRole.TREE) for e in tree]
        added = add_loops(selected, weights, TreePaths(tree, 12), 3)
        assert added == [((0, 11), EdgeRole.LOOP), ((0, 8), EdgeRole.LOOP),
                         ((0, 3), EdgeRole.LOOP)]

    def test_budget_cuts_round(self):
        weights = self.make_path_tree()
        weights[(0, 3)] = 1.0
        weights[(0, 8)] = 1.0
        weights[(0, 11)] = 1.0
        tree = max_spanning_tree(weights, 12)
        selected = [(e, EdgeRole.TREE) for e in tree]
        added = add_loops(selected, weights, TreePaths(tree, 12), 2)
        assert [e for e, _ in added] == [(0, 11), (0, 8)]

    def test_second_pass_drains_remaining(self):
        weights = self.make_path_tree()
        weights[(0, 2)] = 1.0    # short
        weights[(1, 4)] = 2.0    # short, higher weight
        weights[(0, 8)] = 1.0    # medium
        weights[(0, 11)] = 1.0   # long
        tree = max_spanning_tree(weights, 12)
        selected = [(e, EdgeRole.TREE) for e in tree]
        added = add_loops(selected, weights, TreePaths(tree, 12), 5)
        assert [e for e, _ in added] == [(0, 11), (0, 8), (1, 4), (0, 2)]

    def test_within_bin_weight_order(self):
        weights = self.make_path_tree()
        weights[(0, 2)] = 1.0
        weights[(1, 4)] = 2.0
        tree = max_spanning_tree(weights, 12)
        selected = [(e, EdgeRole.TREE) for e in tree]
        added = add_loops(selected, weights, TreePaths(tree, 12), 1)
        assert [e for e, _ in added] == [(1, 4)]

    def test_matches_round_robin_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            # few distinct weights, so rankings tie and fall back to (i, j)
            weights = {e: float(rng.choice([0.25, 0.5, 1.0]))
                       for e in itertools.combinations(range(n), 2) if rng.random() < 0.3}
            tree = max_spanning_tree(weights, n)
            selected = [(e, EdgeRole.TREE) for e in tree]
            paths = TreePaths(tree, n)
            for budget in (0, 1, 2, 5, 17, len(weights)):
                assert (add_loops(selected, weights, paths, budget)
                        == round_robin_loops(selected, weights, paths, budget))

    def test_equal_weight_cycle_single_chord(self):
        weights = {tuple(sorted((i, (i + 1) % 12))): 1.0 for i in range(12)}
        tree = max_spanning_tree(weights, 12)
        selected = [(e, EdgeRole.TREE) for e in tree]
        added = add_loops(selected, weights, TreePaths(tree, 12), 3)
        assert added == [((10, 11), EdgeRole.LOOP)]


class TestOracleMst:
    def test_triangle(self):
        weights = {(0, 1): 3.0, (1, 2): 2.0, (0, 2): 1.0}
        assert oracle_mst(weights, 3) == pytest.approx(5.0)

    def test_k4_matches_kruskal(self):
        rng = np.random.default_rng(9)
        weights = {e: float(rng.uniform(0.1, 1.0))
                   for e in itertools.combinations(range(4), 2)}
        tree = max_spanning_tree(weights, 4)
        assert oracle_mst(weights, 4) == pytest.approx(
            sum(weights[e] for e in tree))

    def test_too_large(self):
        weights = {(i, i + 1): 1.0 for i in range(7)}
        with pytest.raises(ValueError, match="limit of 7"):
            oracle_mst(weights, 8)

    def test_forest_weight(self):
        # two components plus an isolated node: the forest keeps 3 of 4 edges
        weights = {(0, 1): 1.0, (1, 2): 0.5, (0, 2): 0.25, (3, 4): 2.0}
        assert oracle_mst(weights, 6) == 3.5
        assert oracle_mst({(0, 1): 1.0}, 4) == 1.0


class TestAddAnchors:
    def test_zero_budget(self):
        scores = fake_scores({(0, 1): 0.5})
        assert add_anchors([], {(0, 1): 0.5}, scores, 0) == []

    def test_parallax_weight_product_ranks(self):
        weights = {(0, 1): 0.2, (2, 3): 0.4}
        scores = fake_scores(weights, parallax={(0, 1): 0.5, (2, 3): 0.2})
        added = add_anchors([], weights, scores, 2)
        # 0.5 * 0.2 = 0.10 beats 0.2 * 0.4 = 0.08
        assert [e for e, _ in added] == [(0, 1), (2, 3)]
        assert all(role is EdgeRole.ANCHOR for _, role in added)

    def test_endpoint_diversity(self):
        weights = {(0, 1): 1.0, (0, 2): 0.9, (1, 2): 0.8, (3, 4): 0.1}
        scores = fake_scores(weights, parallax={e: 0.5 for e in weights})
        added = add_anchors([], weights, scores, 3)
        # (1, 2) is skipped: both endpoints already anchored
        assert [e for e, _ in added] == [(0, 1), (0, 2), (3, 4)]

    def test_zero_parallax_ties_break_by_index(self):
        weights = {(2, 3): 0.9, (0, 5): 0.1, (0, 1): 0.5}
        scores = fake_scores(weights, parallax={e: 0.0 for e in weights})
        added = add_anchors([], weights, scores, 2)
        assert [e for e, _ in added] == [(0, 1), (0, 5)]

    def test_skips_already_selected(self):
        weights = {(0, 1): 1.0, (2, 3): 0.5}
        scores = fake_scores(weights, parallax={e: 0.5 for e in weights})
        selected = [((0, 1), EdgeRole.TREE)]
        added = add_anchors(selected, weights, scores, 2)
        assert [e for e, _ in added] == [(2, 3)]

    def test_orbit_anchors_prefer_wide_baselines(self, orbit20, scored_orbit):
        cfg = SaraConfig(budget_anchor=3)
        graph = build_view_graph(scored_orbit, 20, cfg)
        anchors = [e for e, role in graph.selected_edges if role is EdgeRole.ANCHOR]
        assert anchors

        def baseline(edge):
            ci = orbit20.cameras[edge[0]].center
            cj = orbit20.cameras[edge[1]].center
            return float(np.linalg.norm(ci - cj))

        others = [e for e in graph.candidate_edges
                  if e not in graph.selected_pairs()]
        assert others
        assert (np.median([baseline(e) for e in anchors])
                > np.median([baseline(e) for e in others]))


class TestAddWeakSupport:
    def star_setup(self, n_leaves=5):
        tree_edges = [(0, i) for i in range(1, n_leaves + 1)]
        weights = {e: 1.0 for e in tree_edges}
        # leaf-to-leaf candidates the support stage can draw from
        for i in range(1, n_leaves):
            weights[(i, i + 1)] = 0.5 + 0.01 * i
        selected = [(e, EdgeRole.TREE) for e in tree_edges]
        return selected, weights, tree_edges, n_leaves + 1

    def test_leaves_weak_hub_not(self):
        selected, weights, tree, n = self.star_setup()
        added = add_weak_view_support(selected, weights, tree, n, 10)
        touched = {n for e, _ in added for n in e}
        assert touched and touched <= set(range(1, 6))
        assert all(role is EdgeRole.WEAK for _, role in added)

    def test_per_view_budget(self):
        # on an equal-weight path only the two ends are weak; end 0 has
        # three candidates to interior views and takes its best two
        tree = {(v, v + 1): 1.0 for v in range(5)}
        extra = {(0, 2): 0.2, (0, 3): 0.3, (0, 4): 0.4}
        assert WEAK_PER_VIEW == 2
        assert weak_support(tree, extra, 6) == [(0, 4), (0, 3)]

    def test_global_cap(self):
        selected, weights, tree, n = self.star_setup()
        added = add_weak_view_support(selected, weights, tree, n, 2)
        assert len(added) == 2

    def test_zero_budgets(self):
        selected, weights, tree, n = self.star_setup()
        assert add_weak_view_support(selected, weights, tree, n, 0) == []

    def test_weakest_first(self):
        # node 3 isolated in tree (degree 0) must be served before leaves
        tree = {(0, 1): 1.0, (0, 2): 1.0}
        extra = {(1, 3): 0.3, (2, 3): 0.4, (1, 2): 0.5}
        # node 3's best incident candidates come first: (2, 3) then (1, 3)
        assert weak_support(tree, extra, 4, budget=2) == [(2, 3), (1, 3)]


class TestBuildViewGraph:
    def test_empty_scores(self):
        with pytest.raises(EmptyScoreSet):
            build_view_graph({}, 4, SaraConfig())

    def test_rejected_pairs_excluded(self):
        weights = {(0, 1): 1.0, (1, 2): 0.9, (0, 2): 0.8}
        scores = fake_scores(weights, rejected={(0, 2)})
        graph = build_view_graph(scores, 3, SaraConfig())
        assert (0, 2) not in graph.candidate_edges
        assert graph.selected_pairs() == {(0, 1), (1, 2)}

    def test_two_nodes(self):
        scores = fake_scores({(0, 1): 0.7})
        graph = build_view_graph(scores, 2, SaraConfig())
        assert graph.selected_edges == [((0, 1), EdgeRole.TREE)]

    def test_zero_budgets_give_spanning_forest(self):
        rng = np.random.default_rng(4)
        weights = random_weights(rng, 15, density=0.6)
        cfg = SaraConfig(budget_loop=0, budget_anchor=0, budget_weak_total=0)
        graph = build_view_graph(fake_scores(weights), 15, cfg)
        roles = {role for _, role in graph.selected_edges}
        assert roles == {EdgeRole.TREE}
        assert len(graph.selected_edges) == 15 - len(graph.components)

    def test_stage_toggles(self):
        rng = np.random.default_rng(5)
        weights = random_weights(rng, 15, density=0.8)
        cfg = SaraConfig(budget_loop=0, budget_anchor=0)
        graph = build_view_graph(fake_scores(weights), 15, cfg)
        roles = {role for _, role in graph.selected_edges}
        assert EdgeRole.LOOP not in roles and EdgeRole.ANCHOR not in roles

    def test_disconnected_warns(self, caplog):
        # the builder only lists the forest's trees; the pipeline warns
        weights = {(0, 1): 1.0, (1, 2): 0.9, (0, 2): 0.8,
                   (3, 4): 1.0, (4, 5): 0.9, (3, 5): 0.8}
        with caplog.at_level(logging.DEBUG):
            graph = build_view_graph(fake_scores(weights), 6, SaraConfig())
            assert not caplog.records
            _warn_disconnected(graph.components[:1])
            assert not caplog.records
            _warn_disconnected(graph.components)
        assert graph.components == [[0, 1, 2], [3, 4, 5]]
        (record,) = caplog.records
        assert (record.name, record.levelno) == ("sara.pipeline", logging.WARNING)
        assert record.getMessage() == (
            "candidate graph is disconnected: 2 components [[0, 1, 2], [3, 4, 5]]")
        tree_edges = [e for e, r in graph.selected_edges if r is EdgeRole.TREE]
        assert len(tree_edges) == 4

    def test_disconnected_warning_is_bounded(self, caplog):
        # a 20-node chain, then 3980 isolated nodes: 3981 components
        weights = {(i, i + 1): 1.0 for i in range(19)}
        graph = build_view_graph(fake_scores(weights), 4000, SaraConfig())
        assert len(graph.components) == 3981
        with caplog.at_level(logging.WARNING, logger="sara.pipeline"):
            _warn_disconnected(graph.components)
        (record,) = caplog.records
        line = record.getMessage()
        assert len(line) < 400
        assert "3981 components" in line
        assert "[0, 1, 2, 3, 4, 5, 6, 7, '...']" in line
        assert line.endswith("... (+3973 more)")

    def test_selection_order_by_stage(self):
        rng = np.random.default_rng(6)
        weights = random_weights(rng, 20, density=0.8)
        graph = build_view_graph(fake_scores(weights), 20, SaraConfig())
        order = [role for _, role in graph.selected_edges]
        boundaries = [order.index(r) for r in
                      (EdgeRole.TREE, EdgeRole.LOOP, EdgeRole.ANCHOR, EdgeRole.WEAK)
                      if r in order]
        assert boundaries == sorted(boundaries)
        for role in set(order):
            idx = [k for k, r in enumerate(order) if r is role]
            assert idx == list(range(idx[0], idx[-1] + 1))   # contiguous block

    def test_deterministic_under_insertion_order(self):
        rng = np.random.default_rng(7)
        weights = random_weights(rng, 18, density=0.7)
        scores = fake_scores(weights)
        items = list(scores.items())
        shuffled = dict([items[i] for i in rng.permutation(len(items))])
        g1 = build_view_graph(scores, 18, SaraConfig())
        g2 = build_view_graph(shuffled, 18, SaraConfig())
        assert g1.selected_edges == g2.selected_edges

    def test_budget_compliance_and_no_duplicates(self, scored_orbit):
        cfg = SaraConfig()
        graph = build_view_graph(scored_orbit, 20, cfg)
        by_role = {}
        for edge, role in graph.selected_edges:
            by_role.setdefault(role, []).append(edge)
        assert len(graph.selected_pairs()) == len(graph.selected_edges)
        assert len(by_role.get(EdgeRole.LOOP, [])) <= cfg.budget("budget_loop", 20)
        assert len(by_role.get(EdgeRole.ANCHOR, [])) <= cfg.budget("budget_anchor", 20)
        assert len(by_role.get(EdgeRole.WEAK, [])) <= cfg.budget("budget_weak_total", 20)
        assert set(graph.selected_pairs()) <= set(graph.candidate_edges)

    def test_tree_is_acyclic_spanning(self, scored_orbit):
        graph = build_view_graph(scored_orbit, 20, SaraConfig())
        tree = [e for e, r in graph.selected_edges if r is EdgeRole.TREE]
        assert len(tree) == 20 - len(graph.components)
        paths = TreePaths(tree, 20)
        assert paths.components == graph.components
