"""End-to-end acceptance checks, one test per claim.

Each test prints a single ``ACCEPTANCE n (<name>): PASS`` or ``FAIL``
verdict line to the real terminal (bypassing capture) and then asserts,
so the verdict survives both quiet and verbose pytest runs. Tolerances
and time limits are asserted exactly as stated; nothing here is tuned
to make a red check green.
"""

import itertools
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import (angle_between, gen_frustum_pair, make_weak_scene, oracle_mst,
                     robust_search, rot_geodesic, spearman, to_corrs)
from sara.config import SaraConfig
from sara.features import read_features, write_features, write_pair_list
from sara.features import ImageFeatures
from sara.pipeline import run_ablation, run_select
from sara.retrieval import cosine_knn
from sara.scorer import RejectReason, PairScore, lower_median, score_all
from sara.synth import dump_scene, generate_orbit_scene, oracle_pair_truth
from sara.viewgraph import EdgeRole, build_view_graph, max_spanning_tree


def _verdict(capsys, num, name, failures):
    status = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} ({name}): {status}")
    assert not failures, "\n".join(str(f) for f in failures)


def test_1_pair_reduction_quasi_linear(tmp_path, capsys):
    """Selection stays within budget and prunes nearly all of O(N^2)."""
    failures = []
    cfg = SaraConfig()
    t0 = time.perf_counter()
    for n in (25, 50, 100, 200):
        scene = generate_orbit_scene(n, 400, radius=5.0, seed=0)
        manifest = dump_scene(scene, tmp_path / f"orbit{n}")
        report = run_select(manifest, cfg,
                            tmp_path / f"pairs{n}.txt",
                            tmp_path / f"report{n}.json")
        cap = (n - 1) + cfg.budget("budget_loop", n) \
            + cfg.budget("budget_anchor", n) + cfg.budget("budget_weak_total", n)
        sel = report.summary["n_selected_edges"]
        if sel > cap:
            failures.append(f"N={n}: selected {sel} exceeds budget cap {cap}")
        ratio = 1.0 - sel / (n * (n - 1) / 2)
        if n == 50 and ratio < 0.85:
            failures.append(f"N=50: reduction ratio {ratio:.4f} < 0.85")
        if n == 200 and ratio < 0.95:
            failures.append(f"N=200: reduction ratio {ratio:.4f} < 0.95")
        if sel / n > 1.5:
            failures.append(f"N={n}: selected/N = {sel / n:.3f} > 1.5")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"sweep took {elapsed:.1f}s, limit 60s")
    _verdict(capsys, 1, "pair reduction, quasi-linear growth", failures)


def test_2_spanning_tree_optimality(capsys):
    """Kruskal matches an exhaustive oracle on 200 small graphs.

    Weights are dyadic rationals (k / 2^20, sums exact in a double), so
    float totals are order-independent and equality can be exact.
    """
    failures = []
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    for g in range(200):
        n = int(rng.integers(2, 8))
        order = rng.permutation(n)
        weights = {}
        for a, b in zip(order[:-1], order[1:]):  # random chain: connected
            weights[(min(a, b)), max(a, b)] = 0.0
        extra = float(rng.uniform(0.1, 0.7))
        for i, j in itertools.combinations(range(n), 2):
            if (i, j) in weights or rng.uniform() < extra:
                weights[(i, j)] = int(rng.integers(1, 2 ** 20)) / 2 ** 20
        tree = max_spanning_tree(weights, n)
        total = sum(weights[e] for e in tree)
        best = oracle_mst(weights, n)
        if total != best:
            failures.append(f"graph {g} (n={n}): kruskal {total!r} != oracle {best!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"200 graphs took {elapsed:.1f}s, limit 10s")
    _verdict(capsys, 2, "spanning tree optimality", failures)


def _frustum_case(seed, **kw):
    # a rare seed leaves too few shared points in both frusta; step the
    # seed deterministically instead of loosening the generator's check
    last = None
    for attempt in range(6):
        try:
            return gen_frustum_pair(np.random.default_rng(seed + 100_000 * attempt), **kw)
        except AssertionError as exc:
            last = exc
    raise last


def test_3_two_view_geometry_accuracy(capsys):
    """Noise-free pose recovery is exact; 1 px noise stays under half a degree."""
    failures = []
    t0 = time.perf_counter()
    for i in range(100):
        case = _frustum_case(7000 + i, n=120)
        model = robust_search(to_corrs(case.kp_a, case.kp_b),
                              calib=(case.intrinsics, case.intrinsics))
        rot_err = rot_geodesic(model.rotation, case.rel_rotation)
        tr_err = angle_between(model.translation, case.rel_translation)
        est_par = math.degrees(lower_median(model.triangulation_angles))
        true_par = math.degrees(lower_median(case.oracle_angles()))
        if rot_err >= 1e-6:
            failures.append(f"case {i}: rotation error {rot_err:.3e} rad")
        if tr_err >= 1e-6:
            failures.append(f"case {i}: translation error {tr_err:.3e} rad")
        if abs(est_par - true_par) >= 0.5:
            failures.append(f"case {i}: parallax {est_par:.4f} vs {true_par:.4f} deg")

    good = 0
    for i in range(100):
        case = _frustum_case(8000 + i, n=120, noise_px=1.0)
        model = robust_search(to_corrs(case.kp_a, case.kp_b),
                              calib=(case.intrinsics, case.intrinsics),
                              inlier_threshold=4.0)
        good += rot_geodesic(model.rotation, case.rel_rotation) < math.radians(0.5)
    if good < 95:
        failures.append(f"1 px noise: only {good}/100 pairs under 0.5 deg")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"200 pairs took {elapsed:.1f}s, limit 30s")
    _verdict(capsys, 3, "two-view geometry accuracy", failures)


def test_4_scorer_fidelity(orbit20, orbit20_features, capsys):
    """Stored scores reproduce their formulas and track oracle covisibility."""
    failures = []
    cfg = SaraConfig(b=150)  # default b saturates inlier counts on dense scenes
    vectors = np.stack([f.global_desc for f in orbit20_features]).astype(np.float64)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    scores = score_all(orbit20_features, cosine_knn(vectors, k=10), cfg)

    est, oracle = [], []
    for (i, j), s in scores.items():
        n_a = orbit20_features[i].n_keypoints
        n_b = orbit20_features[j].n_keypoints
        o_re = s.inlier_count / math.sqrt(n_a * n_b)
        if abs(o_re - s.overlap) > 1e-12:
            failures.append(f"({i},{j}): overlap {s.overlap!r} != recomputed {o_re!r}")
        if s.rejected is None:
            w_re = s.overlap * min(s.parallax, cfg.parallax_cap)
            if not math.isclose(w_re, s.weight, rel_tol=1e-12, abs_tol=1e-15):
                failures.append(f"({i},{j}): weight {s.weight!r} != recomputed {w_re!r}")
            if s.overlap < cfg.tau_o or s.parallax < cfg.tau_p:
                failures.append(f"({i},{j}): accepted below a threshold")
            est.append(s.overlap)
            oracle.append(oracle_pair_truth(orbit20, i, j).overlap_fraction)
        elif s.rejected is RejectReason.BELOW_OVERLAP:
            if not s.overlap < cfg.tau_o:
                failures.append(f"({i},{j}): BELOW_OVERLAP with O={s.overlap:.4f}")
        elif s.rejected is RejectReason.BELOW_PARALLAX:
            if not (s.overlap >= cfg.tau_o and s.parallax < cfg.tau_p):
                failures.append(f"({i},{j}): BELOW_PARALLAX predicate mismatch")
        else:  # no model (or too few tentative matches): nothing was measured
            if s.inlier_count != 0 or s.weight != 0.0:
                failures.append(f"({i},{j}): {s.rejected} carries measurements")

    rho = spearman(est, oracle)
    if rho < 0.8:
        failures.append(f"spearman(est overlap, oracle covisibility) = {rho:.4f} < 0.8")
    _verdict(capsys, 4, "scorer fidelity", failures)


def test_5_weak_view_ablation(tmp_path, capsys):
    """Reinforcement is what rescues a planted weak view; stages only add."""
    failures = []
    scene, planted = make_weak_scene(seed=11)
    manifest = dump_scene(scene, tmp_path / "weak")
    out = tmp_path / "runs"
    run_ablation(manifest, SaraConfig(), out)

    planted_id = f"view_{planted:04d}"
    edges = {}
    for name in ("full", "wo_msl", "wo_lba", "wo_wvr",
                 "only_msl", "only_lba", "only_wvr", "base_only"):
        lines = (out / f"{name}.pairs.txt").read_text().splitlines()
        edges[name] = set(lines)
        deg = sum(planted_id in line.split() for line in lines)
        if name == "base_only" and deg != 1:
            failures.append(f"base_only: planted view degree {deg}, expected 1")
        if name in ("full", "wo_msl", "wo_lba", "only_wvr") and deg < 2:
            failures.append(f"{name}: planted view degree {deg} < 2")

    for name in ("only_msl", "only_lba", "only_wvr"):
        if not edges["base_only"] <= edges[name]:
            failures.append(f"base_only not a subset of {name}")
        if not edges[name] <= edges["full"]:
            failures.append(f"{name} not a subset of full")
    _verdict(capsys, 5, "weak view ablation structure", failures)


def _connected(edge_iter, n):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    for i, j in edge_iter:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            merged += 1
    return merged == n - 1


def test_6_connectivity_and_budgets(capsys):
    """Random score sets: connectivity is preserved, budgets are respected."""
    failures = []
    cfg = SaraConfig()
    rng = np.random.default_rng(99)
    connected_seen = 0
    for s in range(100):
        n = int(rng.integers(3, 31))
        density = float(rng.uniform(0.1, 0.6))
        scores = {}
        for i, j in itertools.combinations(range(n), 2):
            if rng.uniform() >= density:
                continue
            rej = RejectReason.NO_MODEL if rng.uniform() < 0.1 else None
            scores[(i, j)] = PairScore(
                overlap=float(rng.uniform(0.02, 1.0)),
                parallax=float(rng.uniform(0.02, 0.6)),
                weight=float(rng.uniform(0.01, 1.0)),
                rejected=rej)
        accepted = {e for e, sc in scores.items() if sc.rejected is None}
        if not accepted:  # build_view_graph rightly refuses empty input
            scores[(0, 1)] = PairScore(overlap=0.5, parallax=0.1, weight=0.5)
            accepted = {(0, 1)}
        graph = build_view_graph(scores, n, cfg)

        if not accepted >= graph.selected_pairs():
            failures.append(f"scene {s}: selected edge outside candidates")
        if _connected(accepted, n):
            connected_seen += 1
            if not _connected(graph.selected_pairs(), n):
                failures.append(f"scene {s}: candidates connected, selection is not")
        roles = Counter(role for _, role in graph.selected_edges)
        caps = {EdgeRole.TREE: n - 1,
                EdgeRole.LOOP: cfg.budget("budget_loop", n),
                EdgeRole.ANCHOR: cfg.budget("budget_anchor", n),
                EdgeRole.WEAK: cfg.budget("budget_weak_total", n)}
        for role, cap in caps.items():
            if roles.get(role, 0) > cap:
                failures.append(f"scene {s}: {roles[role]} {role.value} edges, cap {cap}")
    if connected_seen < 30:  # the check must actually bite
        failures.append(f"only {connected_seen}/100 candidate graphs were connected")
    _verdict(capsys, 6, "connectivity and budget compliance", failures)


def test_7_determinism_across_threads(tmp_path, capsys):
    """Same manifest, config, seed: byte-identical outputs on every run and
    whether or not numpy's OpenBLAS runs its worker threads."""
    failures = []
    # about 1,800 keypoints per view, so the descriptor product is large
    # enough for OpenBLAS to split across its threads
    scene = generate_orbit_scene(6, 6000, noise_px=0.5, descriptor_dim=128)
    manifest = dump_scene(scene, tmp_path / "scene")
    outs = {}
    for name in ("first", "second"):
        pairs, report = tmp_path / f"{name}.txt", tmp_path / f"{name}.json"
        run_select(manifest, SaraConfig(), pairs, report)
        outs[name] = (pairs.read_bytes(), report.read_bytes())
    pairs, report = tmp_path / "blas1.txt", tmp_path / "blas1.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-m", "sara", "select",
                             "--manifest", str(manifest),
                             "--out-pairs", str(pairs), "--out-report", str(report)],
                            env=env, capture_output=True, text=True, timeout=120)
    if result.returncode != 0:
        failures.append(f"OPENBLAS_NUM_THREADS=1 run exited {result.returncode}: "
                        f"{result.stderr}")
    else:
        outs["OPENBLAS_NUM_THREADS=1"] = (pairs.read_bytes(), report.read_bytes())
    for name, (pair_bytes, report_bytes) in outs.items():
        if pair_bytes != outs["first"][0]:
            failures.append(f"pair list of the {name} run differs from the first")
        if report_bytes != outs["first"][1]:
            failures.append(f"graph report of the {name} run differs from the first")
    _verdict(capsys, 7, "determinism across runs and BLAS threads", failures)


def _random_features(rng, image_id):
    n = int(rng.integers(1, 300))
    w, h = 640, 480
    kp = np.column_stack([rng.uniform(0, w - 1, n),
                          rng.uniform(0, h - 1, n)]).astype(np.float32)
    desc = rng.normal(size=(n, 128)).astype(np.float32)
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    g = rng.normal(size=64).astype(np.float32)
    g /= np.linalg.norm(g)
    scores = rng.uniform(0, 1, n).astype(np.float32) if rng.uniform() < 0.5 else None
    K = np.array([[800.0, 0, 320], [0, 800, 240], [0, 0, 1]]) \
        if rng.uniform() < 0.5 else None
    return ImageFeatures(image_id=image_id, keypoints=kp, descriptors=desc,
                         global_desc=g, image_size=(w, h), scores=scores,
                         intrinsics=K)


def test_8_format_round_trip(tmp_path, capsys):
    """Feature files survive write/read bit-exactly; pair files sort canonically."""
    failures = []
    rng = np.random.default_rng(7)
    for i in range(20):
        feats = _random_features(rng, f"img_{i:03d}")
        path = tmp_path / f"{feats.image_id}.sarf"
        write_features(feats, path)
        back = read_features(path)
        same = (back.image_id == feats.image_id
                and back.image_size == feats.image_size
                and back.keypoints.tobytes() == feats.keypoints.tobytes()
                and back.descriptors.tobytes() == feats.descriptors.tobytes()
                and back.global_desc.tobytes() == feats.global_desc.tobytes()
                and (back.scores is None) == (feats.scores is None)
                and (back.intrinsics is None) == (feats.intrinsics is None))
        if same and feats.scores is not None:
            same = back.scores.tobytes() == feats.scores.tobytes()
        if same and feats.intrinsics is not None:
            same = back.intrinsics.tobytes() == feats.intrinsics.tobytes()
        if not same:
            failures.append(f"feature file {i} did not round-trip bit-exactly")

    ids = [f"im{k:04d}" for k in range(60)]
    path = tmp_path / "pairs.txt"
    for i in range(1000):
        m = int(rng.integers(1, 40))
        edges = []
        while len(edges) < m:
            a, b = rng.choice(len(ids), size=2, replace=False)
            edges.append((ids[a], ids[b]))
        write_pair_list(edges, path)
        expected = "".join(
            line + "\n" for line in
            sorted(f"{min(a, b)} {max(a, b)}" for a, b in edges))
        if path.read_text() != expected:
            failures.append(f"edge set {i}: ordering differs from sorted oracle")
            break
    _verdict(capsys, 8, "format round trip", failures)
