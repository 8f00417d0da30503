#!/usr/bin/env python3
"""Pair-selection benchmark: seeded scenes through ``sara.pipeline.run_select``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload orbit_sparse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one process each

One run builds its workload's scene, times reading it (``setup_s``),
then calls ``run_select(..., threads=1)`` in a closed loop, one caller,
for ``--seconds``. One more, traced, selection gives the per-layer
numbers and the per-pair outcomes the correctness checks need. With
``--trace 1`` a last selection under ``tracemalloc`` gives the layers'
allocation peaks. The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. Exit code 1 means a correctness check failed, 2 that the
program could not be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from clock import SteadyClock, median  # noqa: E402
from scenes import SceneSpec, make_scene, write_scene  # noqa: E402
from spans import Tracer  # noqa: E402

MIB = float(2 ** 20)
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0


@dataclass(frozen=True)
class Workload:
    spec: SceneSpec
    scene_seed: int | None   # None: the scene comes from --seed
    core_share: float        # see clock.SteadyClock
    why: str


WORKLOADS = {
    # The orbit scenes are fixed: which pairs fail moves with the scene and
    # with the RANSAC seed, and every run must fail the same share of pairs.
    "orbit_sparse": Workload(
        SceneSpec(n_views=16, n_points=800, descriptor_dim=32, noise_px=0.5,
                  calibrated=True),
        scene_seed=1, core_share=1.0, why="robust search dominates"),
    "orbit_dense": Workload(
        SceneSpec(n_views=6, n_points=6800, descriptor_dim=128, noise_px=0.5,
                  calibrated=True),
        scene_seed=1, core_share=0.2, why="mutual-NN matching dominates"),
    "large_collection": Workload(
        SceneSpec(n_views=24, n_points=400, descriptor_dim=32, noise_px=0.5,
                  calibrated=False, n_distractors=3976, distractor_keypoints=5),
        scene_seed=None, core_share=0.7,
        why="load and retrieval grow with the image count"),
}

END_TO_END = {"select_s": "s", "cpu_s": "s", "pairs_per_s": "1/s",
              "peak_rss_mb": "MB", "setup_s": "s"}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def time_setup(clock: SteadyClock, manifest: Path) -> list:
    """Read the manifest and every feature file once, several times over."""
    from sara.features import load_features, load_manifest

    def setup():
        m = load_manifest(manifest)
        return [load_features(m, image_id) for image_id in m.image_ids]

    timings: list = []
    started = time.perf_counter()
    while len(timings) < SETUP_MIN_REPS or time.perf_counter() - started < SETUP_MIN_SECONDS:
        clock.call(timings, setup)
    return timings


def timed_loop(clock: SteadyClock, manifest: Path, config, out: Path, seconds: float) -> dict:
    """Untraced closed loop, one caller; every round must write the same bytes."""
    import sara.pipeline as pipeline

    timings: list = []
    digests, rejected = set(), []
    started = time.perf_counter()
    while not timings or time.perf_counter() - started < seconds:
        report = clock.call(timings, pipeline.run_select, manifest, config,
                            out / "pairs.txt", out / "report.json", threads=1)
        digests.add((sha256(out / "pairs.txt"), sha256(out / "report.json")))
        rejected.append(report.n_rejected)
    return {"timings": timings, "digests": digests, "report": report,
            "same_outcomes": all(r == rejected[0] for r in rejected)}


RSS_CHILD = """
import resource, sys
from sara.config import SaraConfig
from sara.pipeline import run_select
run_select(sys.argv[1], SaraConfig(), sys.argv[2], sys.argv[3], threads=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_rss_mb(manifest: Path, out: Path) -> tuple[float, tuple]:
    """Peak resident set of a fresh process that makes one selection."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    pairs, report = out / "fresh.pairs.txt", out / "fresh.report.json"
    result = subprocess.run([sys.executable, "-c", RSS_CHILD, str(manifest), str(pairs),
                             str(report)], env=env, capture_output=True, text=True,
                            check=True, timeout=170)
    kib = int(result.stdout.split()[-1])
    return kib * 1024 / MIB, (sha256(pairs), sha256(report))


def traced_select(clock: SteadyClock, manifest: Path, config, out: Path, prefix: str,
                  memory: bool = False):
    """One selection with every layer boundary wrapped; returns tracer and captures."""
    import sara.pipeline as pipeline

    captured = {"matches": {}, "loaded": []}
    tracer = Tracer(memory=memory)
    tracer.observers = {
        "scorer.score_all": lambda a, k, r: captured.__setitem__("scores", r),
        "retrieval.cosine_knn": lambda a, k, r: captured.__setitem__("candidates", len(r)),
        "scorer.mutual_nn_matches": lambda a, k, r: captured["matches"].__setitem__(
            (a[0].image_id, a[1].image_id), r),
        "features.load_features": lambda a, k, r: captured["loaded"].append(r.image_id),
        "viewgraph.build_view_graph": lambda a, k, r: captured.__setitem__("graph", r),
    }

    def select():
        with tracer:   # run_select is looked up after the tracer wraps it
            return pipeline.run_select(manifest, config, out / f"{prefix}.pairs.txt",
                                       out / f"{prefix}.report.json", threads=1)

    timings: list = []
    captured["report"] = clock.call(timings, select)
    captured["timing"] = timings[0]
    return tracer, captured


def layer_metrics(tracer, captured, scene_dir: Path, untraced_s: float) -> dict:
    """Per-layer numbers from one traced selection; absent when a function is gone."""
    t = tracer.totals()
    gone = set(tracer.missing)
    out: dict[str, tuple[float, str]] = {}

    def put(metric, unit, *names, key="total_s"):
        if any(n in gone for n in names):
            return
        out[metric] = (sum(t.get(n, {}).get(key, 0) for n in names), unit)

    put("features.load_s", "s", "features.load_manifest", "features.load_features")
    put("features.files", "count", "features.load_features", key="calls")
    if "features.load_features" not in gone:
        loaded = captured["loaded"]
        n_bytes = (os.path.getsize(scene_dir / "manifest.json") + 30 * len(loaded)
                   + sum(os.path.getsize(scene_dir / f"{i}.sarf") for i in loaded))
        out["features.mb_read"] = (n_bytes / MIB, "MB")
    put("features.write_s", "s", "features.write_pair_list", "features.write_graph_report")
    put("retrieval.knn_s", "s", "retrieval.cosine_knn")
    if "candidates" in captured:
        out["retrieval.candidates"] = (captured["candidates"], "count")
    put("scorer.score_s", "s", "scorer.score_all")
    put("scorer.match_s", "s", "scorer.mutual_nn_matches")
    put("scorer.match_calls", "count", "scorer.mutual_nn_matches", key="calls")
    if "scorer.mutual_nn_matches" not in gone:
        out["scorer.matches"] = (sum(len(m) for m in captured["matches"].values()), "count")
    if "scores" in captured:
        reasons = [s.rejected.value if s.rejected else "accepted"
                   for s in captured["scores"].values()]
        for reason in ("accepted", "too_few_mutual_nn", "no_model",
                       "below_overlap", "below_parallax"):
            out[f"scorer.{reason}"] = (reasons.count(reason), "count")
    put("epipolar.ransac_s", "s", "epipolar.short_ransac", key="self_s")
    put("epipolar.ransac_calls", "count", "epipolar.short_ransac", key="calls")
    put("epipolar.models", "count", "epipolar.short_ransac", key="ok")
    if "epipolar.ransac_calls" in out and out["epipolar.ransac_calls"][0]:
        out["epipolar.model_ratio"] = (
            out["epipolar.models"][0] / out["epipolar.ransac_calls"][0], "ratio")
    put("epipolar.pose_s", "s", "epipolar.recover_pose")
    put("epipolar.triangulate_s", "s", "epipolar.triangulate_angles")
    put("viewgraph.build_s", "s", "viewgraph.build_view_graph")
    put("viewgraph.tree_s", "s", "viewgraph.max_spanning_tree")
    put("viewgraph.loops_s", "s", "viewgraph.add_loops")
    put("viewgraph.anchors_s", "s", "viewgraph.add_anchors")
    put("viewgraph.weak_s", "s", "viewgraph.add_weak_view_support")
    if "graph" in captured:
        out["viewgraph.selected"] = (len(captured["graph"].selected_edges), "count")
        out["viewgraph.components"] = (len(captured["graph"].components), "count")
    put("pipeline.self_s", "s", "pipeline.run_select", key="self_s")
    # span times in the same fast-state seconds as the end-to-end metrics
    factor = captured["timing"].factor
    out = {m: (v / factor if u == "s" else v, u) for m, (v, u) in out.items()}
    out["trace.overhead_s"] = (captured["timing"].steady_wall_s - untraced_s, "s")
    return out


def run_checks(scene, config, out: Path, loop: dict, captured: dict, fresh: tuple) -> list:
    """Every correctness check of one run; returns the problems found."""
    problems = []
    if len(loop["digests"]) != 1 or not loop["same_outcomes"]:
        problems.append("untraced rounds wrote different outputs")
    if fresh not in loop["digests"]:
        problems.append("a fresh process wrote different outputs")
    for name in ("pairs.txt", "report.json"):
        if (out / name).read_bytes() != (out / f"traced.{name}").read_bytes():
            problems.append(f"traced selection wrote a different {name}")
    doc = json.loads((out / "report.json").read_text())
    selected = checks.read_report(doc, scene.image_ids)
    n = scene.n_images
    k = min(config.k, n - 1)
    problems += checks.check_candidates(selected, checks.exact_candidates(scene.globals_, k),
                                        loop["report"].n_scored)
    if "scores" not in captured:
        return problems + ["per-pair scores were not observed (score_all is gone)"]
    scores = captured["scores"]
    accepted = checks.accepted_weights(scores)
    problems += checks.check_tree(selected, accepted, n)
    problems += checks.check_budgets(selected, config, n)
    problems += checks.check_components(selected, accepted, n,
                                        doc["summary"]["n_components"])
    problems += checks.check_formula(doc["edges"], scene.image_ids, scores,
                                     [len(kp) for kp in scene.keypoints], config)
    if scene.spec.calibrated:
        problems += checks.check_geometry(scene, scores, captured["matches"], config.b)
    problems += checks.check_distractors(scene, selected)
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        import sara
        from sara.config import SaraConfig
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(sara.__file__).resolve().parent != ROOT / "src" / "sara":
        print(f"sara was imported from {sara.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    run_dir = HERE / "out" / f"{name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    scene_dir = run_dir / "scene"
    scene = make_scene(workload.spec, seed if workload.scene_seed is None else workload.scene_seed)
    manifest = write_scene(scene, scene_dir)
    config = SaraConfig()

    rss_mb, fresh_digests = peak_rss_mb(manifest, run_dir)
    clock = SteadyClock(workload.core_share)
    setup = time_setup(clock, manifest)
    loop = timed_loop(clock, manifest, config, run_dir, seconds)
    timings = loop["timings"]
    select_s = median(timings, "steady_wall_s")
    tracer, captured = traced_select(clock, manifest, config, run_dir, "traced")
    tracer.write(run_dir / "trace.jsonl")
    (run_dir / "rounds.json").write_text(json.dumps(
        {"select": [vars(t) for t in timings], "setup": [vars(t) for t in setup]}))
    layers = layer_metrics(tracer, captured, scene_dir, select_s)
    problems = run_checks(scene, config, run_dir, loop, captured, fresh_digests)
    if trace:
        mem_tracer, _ = traced_select(clock, manifest, config, run_dir, "memory",
                                      memory=True)
        peaks = mem_tracer.totals()
        for metric, span in (("retrieval.peak_mb", "retrieval.cosine_knn"),
                             ("scorer.peak_mb", "scorer.score_all")):
            if span in peaks:
                layers[metric] = (peaks[span]["peak_bytes"] / MIB, "MB")

    rounds = len(timings)
    per_round = loop["report"].n_scored
    failed = checks.failed_pairs(scene, captured.get("scores", {}), config.b)
    e2e = {"select_s": select_s, "cpu_s": median(timings, "steady_cpu_s"),
           "pairs_per_s": per_round / select_s,
           "peak_rss_mb": rss_mb, "setup_s": median(setup, "steady_wall_s")}

    print(f"workload {name}  seed {seed}  images {scene.n_images}  "
          f"rounds {rounds}  pairs/round {per_round}  ({workload.why})")
    for metric, value in e2e.items():
        print(f"  {metric:<24} {value:12.6g} {END_TO_END[metric]}")
    print(f"  raw medians: wall {median(timings, 'wall_s'):.6g} s, cpu "
          f"{median(timings, 'cpu_s'):.6g} s, speed factor {median(timings, 'factor'):.4g}")
    lost = sum(captured["scores"][pair].rejected is not None for pair in failed)
    print(f"  attempted {rounds * per_round}  failed {rounds * len(failed)}  (per round: "
          f"{lost} no_model with >= {config.b} covisible points, {len(failed) - lost} "
          f"accepted with rotation > {checks.ROTATION_TOL_DEG:g} deg, of {per_round})")
    for metric, (value, unit) in layers.items():
        print(f"  {metric:<24} {value:12.6g} {unit}")
    if tracer.missing:
        print(f"  absent (function gone): {', '.join(tracer.missing)}")
    pairs_sha, report_sha = next(iter(loop["digests"]))
    print(f"  sha256 pairs  {pairs_sha}\n  sha256 report {report_sha}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    shutil.rmtree(scene_dir)

    metrics = ({m: {"value": v, "unit": u} for m, (v, u) in layers.items()} if trace
               else {m: {"value": v, "unit": END_TO_END[m]} for m, v in e2e.items()})
    print(json.dumps({"correct": not problems, "attempted": rounds * per_round,
                      "failed": rounds * len(failed), "metrics": metrics}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    worst = 0
    for name in WORKLOADS:
        result = subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], check=False)
        worst = max(worst, result.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
