#!/usr/bin/env python3
"""Reference figures the benchmark does not gate on.

    python3 perfbench/reference.py threads     # threads=1 against threads=2
    python3 perfbench/reference.py rotation    # rotation error across config seeds

``threads`` times ``run_select`` on the orbit_sparse scene grown to 40
views, alternating ``threads=1`` and ``threads=2``, and prints raw wall
and CPU seconds with the speed factor of each call. ``rotation`` scores
both orbit workloads under config seeds 0-9 and prints the accepted
pairs' rotation errors and the failed pairs per seed.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys

import checks
import run
from clock import SteadyClock
from sara.config import SaraConfig


def threads(reps: int = 3) -> None:
    import sara.pipeline as pipeline

    spec = dataclasses.replace(run.WORKLOADS["orbit_sparse"].spec, n_views=40)
    out = run.HERE / "out" / "reference-threads"
    manifest = run.write_scene(run.make_scene(spec, 1), out / "scene")
    clock = SteadyClock(1.0)
    timings = {1: [], 2: []}
    for _ in range(reps):
        for n in (1, 2):
            clock.call(timings[n], pipeline.run_select, manifest, SaraConfig(),
                       out / "pairs.txt", out / "report.json", threads=n)
    for n, ts in timings.items():
        print(f"threads={n}: " + ", ".join(
            f"wall {t.wall_s:.2f} s cpu {t.cpu_s:.2f} s factor {t.factor:.2f}" for t in ts))


def rotation(seeds=range(10)) -> None:
    for name in ("orbit_sparse", "orbit_dense"):
        workload = run.WORKLOADS[name]
        scene = run.make_scene(workload.spec, workload.scene_seed)
        out = run.HERE / "out" / f"reference-{name}"
        manifest = run.write_scene(scene, out / "scene")
        clock = SteadyClock(workload.core_share)
        for seed in seeds:
            config = SaraConfig(seed=seed)
            _, captured = run.traced_select(clock, manifest, config, out, "reference")
            errors = sorted(checks.rotation_errors(scene, captured["scores"]).values())
            failed = checks.failed_pairs(scene, captured["scores"], config.b)
            print(f"{name} config seed {seed}: {len(errors)} accepted calibrated pairs, "
                  f"rotation error median {statistics.median(errors):.2f} max "
                  f"{errors[-1]:.2f} deg, failed {len(failed)}/{len(captured['scores'])}")


if __name__ == "__main__":
    {"threads": threads, "rotation": rotation}[sys.argv[1]]()
