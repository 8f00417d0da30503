#!/usr/bin/env python3
"""Alternating A/B runs of the pair-selection benchmark: a base commit
against this checkout.

Usage, from the root of a checkout::

    python3 tools/abbench.py --base 75a6924 --out BENCH_14.json
    python3 tools/abbench.py --base 75a6924 --workload large_collection \\
        --pairs 4 --seconds 10 --out BENCH_14.json
    python3 tools/abbench.py --base 53f0d28 --rebaseline --out BENCH_27.json

The base side is a temporary ``git archive`` export of ``--base``, removed
afterwards; the change side is this checkout as it stands on disk. The
result's ``change`` names HEAD and, when files that a run executes or
reads (under ``src/`` or ``perfbench/``, or ``BENCHMARK.json``) differ from
it, those paths; edits elsewhere, such as docs or tests, are not named. Each
pair runs ``perfbench/run.py`` once per side, each run in its own process
from its own checkout. Even pairs run the base first and odd pairs the
change first, because whichever side runs first tends to read faster.
``--pairs`` pairs with ``--trace 0`` give the end-to-end metrics, then
three pairs with ``--trace 1`` give the per-layer ones. Every run takes
``run.py``'s default seed; ``--seconds`` defaults to the ``run_seconds``
that ``BENCHMARK.json`` declares.

Every run must report ``"correct": true``, and each side's runs must
print one pair of SHA-256 digests (pair list and graph report) and one
share of failed pairs per round, which the entry records per side;
otherwise nothing is written and the exit code is 1. The two sides must
also agree with each other, unless ``--rebaseline`` is given for a change
that alters the outputs on purpose. The results of the workloads run
replace those workloads' entries in ``--out``, under ``workloads`` for the
ones ``BENCHMARK.json`` gates and ``ungated`` for the rest; other entries
stay.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRACED_PAIRS = 3
# what a benchmark run executes or reads; an edit anywhere else does not change a run
RUN_PATHS = ("src", "perfbench", "BENCHMARK.json")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def dirty_paths() -> list[str]:
    """Files under ``RUN_PATHS`` that differ from HEAD, untracked ones included."""
    out = git("status", "--porcelain", "--untracked-files=all", "--", *RUN_PATHS).decode()
    # porcelain lines are "XY path", or "XY old -> new" for a rename
    return sorted(line[3:].split(" -> ")[-1] for line in out.splitlines())


def export(ref: str, dest: Path) -> None:
    """Write the files of commit ``ref`` under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", ref))) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    """One benchmark process: its JSON result, digests and failures per round."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    out = proc.stdout
    result = json.loads(out.strip().splitlines()[-1])
    rounds, per_round = map(int, re.search(r"rounds (\d+)\s+pairs/round (\d+)", out).groups())
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "units": {k: v["unit"] for k, v in result["metrics"].items()},
            "correct": result["correct"],
            "digests": (re.search(r"sha256 pairs\s+([0-9a-f]{64})", out).group(1),
                        re.search(r"sha256 report\s+([0-9a-f]{64})", out).group(1)),
            "failed_per_round": result["failed"] / rounds,
            "attempted_per_round": per_round}


def alternate(sides: dict[str, Path], pairs: int, workload: str,
              seconds: float, trace: int) -> list[dict[str, dict]]:
    """``pairs`` pairs of runs, one per side; even pairs run the base first."""
    results = []
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_once(sides[side], workload, seconds, trace)
            shown = ", ".join(f"{m} {v:.6g}" for m, v in list(pair[side]["metrics"].items())[:2])
            print(f"{workload} trace={trace} pair {k} {side}: {shown}", file=sys.stderr)
        results.append(pair)
    return results


def spread(values: list[float]) -> dict[str, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 6), "q1": round(float(q1), 6), "q3": round(float(q3), 6)}


def summarize(e2e: list[dict], traced: list[dict], declared: dict[str, dict],
              rebaseline: bool = False) -> dict:
    """One workload's entry. ``declared`` maps each end-to-end metric to its
    ``BENCHMARK.json`` entry, of which ``better`` and ``bound`` are read."""
    runs = [pair[side] for pair in e2e + traced for side in ("parent", "change")]
    if not all(r["correct"] for r in runs):
        raise SystemExit("a run was not correct; nothing written")
    # each side's outputs: one digest pair and one share of failed pairs over all its runs
    outputs = {}
    for side in ("parent", "change"):
        seen = {(pair[side]["digests"], pair[side]["failed_per_round"],
                 pair[side]["attempted_per_round"]) for pair in e2e + traced}
        if len(seen) != 1:
            raise SystemExit(f"the {side} runs printed different outputs; nothing written")
        outputs[side], = seen
    same = outputs["parent"] == outputs["change"]
    if not (same or rebaseline):
        raise SystemExit("the two sides printed different outputs (digests or failures per "
                         "round); nothing written")
    entry = {"pairs_run": len(e2e), "end_to_end": {}}
    for metric, unit in e2e[0]["parent"]["units"].items():
        values = {side: [pair[side]["metrics"][metric] for pair in e2e]
                  for side in ("parent", "change")}
        better, bound = declared[metric]["better"], declared[metric]["bound"]
        sign = -1.0 if better == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        stats = {side: spread(v) for side, v in values.items()}
        base, med = (float(np.median(values[side])) for side in ("parent", "change"))
        entry["end_to_end"][metric] = {
            "unit": unit, "better": better, "bound": bound, **stats,
            "change_better_pairs": int(wins),
            # a gain may be claimed: the change won at least 9 in 10 pairs and its
            # median beats the parent's by more than the parent's quartile spread
            "meets_claim_rule": bool(10 * wins >= 9 * len(e2e) and sign * (med - base)
                                     > stats["parent"]["q3"] - stats["parent"]["q1"]),
            # the regression check: the change's median is worse than the
            # parent's by no more than ``bound``, a share of the parent's median
            "within_bound": bool(-sign * (med - base) <= bound * abs(base)),
            "median_change_pct": round(100.0 * (med - base) / base, 1),
            "runs": {side: [round(x, 6) for x in v] for side, v in values.items()},
        }
    if traced:
        # the two sides may trace different functions: a metric that only one
        # side prints gets a null median on the other
        units = {**traced[0]["parent"]["units"], **traced[0]["change"]["units"]}
        entry["per_layer_pairs"] = len(traced)
        entry["per_layer"] = {
            metric: {"unit": unit, **{side: round(float(np.median(
                [pair[side]["metrics"][metric] for pair in traced])), 6)
                if metric in traced[0][side]["units"] else None
                for side in ("parent", "change")}}
            for metric, unit in units.items()}
    entry["sha256"] = {side: dict(zip(("pairs", "report"), digests))
                       for side, (digests, _, _) in outputs.items()}
    entry["sha256"]["same_on_both_sides"] = same
    entry["failed_per_round"] = {side: failed for side, (_, failed, _) in outputs.items()}
    entry["attempted_per_round"] = {side: n for side, (_, _, n) in outputs.items()}
    entry["correct"] = True   # refused above otherwise
    entry["runs_checked"] = len(runs)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: the workloads BENCHMARK.json gates")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--rebaseline", action="store_true",
                        help="the change alters the outputs on purpose: record each "
                             "side's digests and failures instead of refusing")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in declared["end_to_end"]}
    base = git("rev-parse", "--short", args.base).decode().strip()
    head = git("rev-parse", "--short", "HEAD").decode().strip()
    dirty = dirty_paths()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    with tempfile.TemporaryDirectory(prefix="abbench-") as tmp:
        export(base, Path(tmp))
        sides = {"parent": Path(tmp), "change": ROOT}
        gated = [w["name"] for w in declared["workloads"]]
        for workload in args.workload or gated:
            e2e = alternate(sides, args.pairs, workload, args.seconds, 0)
            traced = alternate(sides, TRACED_PAIRS, workload, args.seconds, 1)
            entry = summarize(e2e, traced, metrics, args.rebaseline)
            entry["command"] = (f"python3 perfbench/run.py --workload {workload} "
                                f"--seconds {args.seconds:g} --trace 0|1")
            doc.setdefault("workloads" if workload in gated else "ungated", {})[workload] = entry
    doc.update({
        "parent": base,
        "change": head + (f" plus uncommitted changes to {', '.join(dirty)}" if dirty else ""),
        "method": "alternating parent/change pairs per workload (tools/abbench.py): even "
                  "pairs run the parent first, odd pairs the change first; each side from "
                  "its own checkout; medians and quartiles (numpy.percentile 25/75) of the "
                  "per-run values the benchmark prints; change_better_pairs counts pairs the "
                  "change won, ties counting for neither; meets_claim_rule is true when the "
                  "change won at least nine tenths of the pairs and its median is better "
                  "than the parent's by more than the parent's q3 - q1; within_bound is true "
                  "when the change's median is worse than the parent's by no more than the "
                  "metric's BENCHMARK.json bound, a share of the parent's median; per_layer holds "
                  "medians of the --trace 1 runs, null on a side that does not print "
                  "the metric",
        "hardware": f"{platform.machine()} {platform.system()}, {len(os.sched_getaffinity(0))} "
                    f"usable CPUs, Python {platform.python_version()}, numpy {np.__version__}",
    })
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
