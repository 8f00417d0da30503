"""The public surface: the top-level exports, every name the demos import,
each demo and the README's library examples running to completion, every
function the benchmark traces, the report, score and config attributes it
reads, the retired config knobs that only it still reads, and the metric
names of the committed benchmark results."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sara
from sara.config import SaraConfig
from sara.pipeline import RunReport
from sara.scorer import score_pair
from sara.synth import dump_scene, generate_orbit_scene

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def sara_imports(path: Path):
    """(module, name) for each ``from sara... import name`` in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sara":
            for alias in node.names:
                yield node.module, alias.name


def test_top_level_exports():
    assert sorted(sara.__all__) == ["SaraConfig", "SaraError", "run_ablation", "run_select"]
    for name in sara.__all__:
        assert getattr(sara, name) is not None
    assert isinstance(sara.__version__, str)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = list(sara_imports(demo))
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_example_runs(tmp_path):
    # the library examples run as one script, each continuing the one before
    examples = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    dump_scene(generate_orbit_scene(12, 300, seed=2), tmp_path / "scene")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", "".join(examples)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_benchmark_targets_resolve():
    # the benchmark times each layer by wrapping these module attributes; a
    # missing one would turn its per-layer metric absent instead of failing
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attribute, _ in spans.TARGETS:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{module}.{attribute}"


def test_benchmark_reads_run_report_fields():
    # the benchmark reads attributes of the RunReport that run_select returns,
    # as ``report.<name>`` or ``...["report"].<name>``; a field it reads that
    # the report lost would fail only when the benchmark runs
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    read = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Subscript) and isinstance(owner.slice, ast.Constant):
            name = owner.slice.value
        else:
            name = getattr(owner, "id", None)
        if name == "report":
            read.add(node.attr)
    assert read
    assert read <= {f.name for f in dataclasses.fields(RunReport)}


def test_benchmark_reads_config_fields():
    # the benchmark reads ``config.<name>`` off the SaraConfig it runs with; a
    # name it reads that the config lost would fail only when it runs
    read = set()
    for name in ("checks.py", "run.py"):
        tree = ast.parse((ROOT / "perfbench" / name).read_text())
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and getattr(node.value, "id", None) == "config"}
    assert {"k", "b", "parallax_cap", "budget_loop"} <= read
    config = SaraConfig()
    assert all(hasattr(config, attr) for attr in read), read


RETIRED = {"alpha", "beta", "use_loops", "use_anchors", "use_weak"}


def test_retired_knobs_are_not_fields():
    assert not RETIRED & {f.name for f in dataclasses.fields(SaraConfig)}


def test_program_reads_no_retired_knob():
    # the retired names remain as class constants for the benchmark alone
    for path in sorted((ROOT / "src" / "sara").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        read |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword)}
        assert not read & RETIRED, (path.name, read & RETIRED)


def score_reads(path: Path):
    """Attributes read off a pair score: ``s.<name>``, ``score.<name>``,
    ``scores[...].<name>`` or ``...["scores"][...].<name>``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Subscript):
            base = owner.value
            if isinstance(base, ast.Subscript) and isinstance(base.slice, ast.Constant):
                name = base.slice.value
            else:
                name = getattr(base, "id", None)
            if name == "scores":
                yield node.attr
        elif getattr(owner, "id", None) in ("s", "score"):
            yield node.attr


def test_benchmark_reads_score_fields(orbit20_features):
    # the benchmark's checks read attributes of the PairScores that
    # score_all returned, and its tests plant wrong values with
    # dataclasses.replace; a lost field would fail only when it runs
    read = set()
    for name in ("checks.py", "run.py"):
        read |= set(score_reads(ROOT / "perfbench" / name))
    assert {"rejected", "inlier_count", "model"} <= read
    score = score_pair(orbit20_features[0], orbit20_features[1], SaraConfig())
    assert score.model is not None
    for name in read:
        assert hasattr(score, name), name
    planted = dataclasses.replace(score, overlap=score.overlap * 1.01,
                                  parallax=score.parallax + 0.1)
    assert (planted.overlap, planted.parallax) == (score.overlap * 1.01,
                                                   score.parallax + 0.1)
    assert planted.inlier_count == score.inlier_count


def test_bench_files_name_declared_metrics():
    # a BENCH_<n>.json records before/after numbers of the benchmark that
    # BENCHMARK.json declares; a name it does not declare was not measured by it
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    units = {kind: {m["name"]: m["unit"] for m in declared[kind]}
             for kind in ("end_to_end", "per_layer")}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        doc = json.loads(path.read_text())
        assert doc["workloads"] and set(doc["workloads"]) <= workloads, path.name
        for name, workload in doc["workloads"].items():
            assert workload["end_to_end"], f"{path.name} {name}"
            for kind, declared_units in units.items():
                for metric, entry in workload.get(kind, {}).items():
                    assert declared_units.get(metric) == entry["unit"], \
                        f"{path.name} {name} {kind} {metric}"


def test_traced_benchmark_prints_every_declared_metric(tmp_path):
    # a traced run leaves a per-layer metric out when a function it wraps is
    # gone or a count it divides by is zero; its last line must still be a
    # correct result that names every metric BENCHMARK.json declares. It runs
    # from a copy, since the benchmark writes its outputs beside run.py.
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orbit_sparse",
                             "--seconds", "0.1", "--trace", "1"], cwd=tmp_path,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    last = json.loads(result.stdout.strip().splitlines()[-1], parse_constant=reject)
    assert last["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in declared["per_layer"]}
