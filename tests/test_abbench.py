"""tools/abbench.py: run order, pairs won, the regression bound, the refusal on differing outputs
and the rebaseline that records them, per-layer metrics that one side alone
prints, and which uncommitted edits it names."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "abbench.py"
_SPEC = importlib.util.spec_from_file_location("abbench", _PATH)
abbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abbench)

DECLARED = {"select_s": {"better": "lower", "bound": 0.25},
            "pairs_per_s": {"better": "higher", "bound": 0.25}}


def fake_run(select_s, pairs_per_s, digests=("a" * 64, "b" * 64), failed=31.0, correct=True):
    return {"metrics": {"select_s": select_s, "pairs_per_s": pairs_per_s},
            "units": {"select_s": "s", "pairs_per_s": "1/s"}, "correct": correct,
            "digests": digests, "failed_per_round": failed, "attempted_per_round": 86}


def test_even_pairs_run_the_parent_first(monkeypatch):
    order = []
    monkeypatch.setattr(abbench, "run_once", lambda checkout, *args: (
        order.append(checkout), fake_run(1.0, 1.0))[1])
    abbench.alternate({"parent": "P", "change": "C"}, 4, "orbit_sparse", 1.0, 0)
    assert order == ["P", "C", "C", "P", "P", "C", "C", "P"]


def test_pairs_won_follow_the_better_direction():
    e2e = [{"parent": fake_run(p, q), "change": fake_run(c, d)}
           for p, q, c, d in [(2.0, 10.0, 1.0, 12.0), (2.0, 10.0, 3.0, 8.0),
                              (2.0, 10.0, 2.0, 10.0), (2.0, 10.0, 1.5, 11.0)]]
    entry = abbench.summarize(e2e, [], DECLARED)
    # a tie counts for neither side
    assert entry["end_to_end"]["select_s"]["change_better_pairs"] == 2
    assert entry["end_to_end"]["pairs_per_s"]["change_better_pairs"] == 2
    assert entry["end_to_end"]["select_s"]["median_change_pct"] == -12.5
    assert entry["end_to_end"]["select_s"]["parent"]["median"] == 2.0
    assert entry["correct"] and entry["runs_checked"] == 8
    # the same outputs on both sides, recorded per side as a rebaseline records them
    assert entry["sha256"] == {"parent": {"pairs": "a" * 64, "report": "b" * 64},
                               "change": {"pairs": "a" * 64, "report": "b" * 64},
                               "same_on_both_sides": True}
    assert entry["failed_per_round"] == {"parent": 31.0, "change": 31.0}
    assert entry["attempted_per_round"] == {"parent": 86, "change": 86}


@pytest.mark.parametrize("change_s,met", [
    # nine wins of ten, medians 0.20 s apart, parent quartiles 1.95-2.05 s
    ([1.8] * 9 + [2.1], True),
    # eight wins of ten
    ([1.8] * 8 + [2.1] * 2, False),
    # ten wins, but the medians differ by less than the parent's spread
    ([1.94] * 10, False),
    # ten losses by a wide margin
    ([2.5] * 10, False),
], ids=["nine_wins", "eight_wins", "within_spread", "worse"])
def test_claim_rule(change_s, met):
    parent_s = [1.95, 2.05] * 5
    e2e = [{"parent": fake_run(p, 10.0), "change": fake_run(c, 10.0)}
           for p, c in zip(parent_s, change_s)]
    entry = abbench.summarize(e2e, [], DECLARED)
    assert entry["end_to_end"]["select_s"]["meets_claim_rule"] is met
    # ties in every pair
    assert entry["end_to_end"]["pairs_per_s"]["meets_claim_rule"] is False


def test_claim_rule_follows_the_better_direction():
    e2e = [{"parent": fake_run(2.0, 10.0 + 0.1 * (k % 2)), "change": fake_run(2.0, 12.0)}
           for k in range(10)]
    entry = abbench.summarize(e2e, [], DECLARED)
    assert entry["end_to_end"]["pairs_per_s"]["meets_claim_rule"] is True


@pytest.mark.parametrize("better, change_s, within", [
    ("lower", 1.0, True), ("lower", 2.5, True), ("lower", 2.6, False),
    ("higher", 3.0, True), ("higher", 1.5, True), ("higher", 1.4, False),
], ids=["lower_better", "lower_at_bound", "lower_past_bound",
        "higher_better", "higher_at_bound", "higher_past_bound"])
def test_within_bound_follows_the_better_direction(better, change_s, within):
    # parent median 2.0 and a bound of 25%: a lower-better metric may rise to
    # 2.5 and a higher-better one fall to 1.5
    declared = {**DECLARED, "select_s": {"better": better, "bound": 0.25}}
    e2e = [{"parent": fake_run(p, 10.0), "change": fake_run(change_s, 10.0)}
           for p in (1.9, 2.1, 1.9, 2.1, 2.0)]
    entry = abbench.summarize(e2e, [], declared)["end_to_end"]
    assert entry["select_s"]["within_bound"] is within
    assert entry["select_s"]["bound"] == 0.25
    # equal medians on both sides
    assert entry["pairs_per_s"]["within_bound"] is True


@pytest.mark.parametrize("change", [
    dict(digests=("a" * 64, "c" * 64)),
    dict(failed=30.0),
], ids=["digest", "failures"])
def test_refuses_differing_outputs(change):
    e2e = [{"parent": fake_run(2.0, 10.0), "change": fake_run(1.0, 12.0, **change)}]
    with pytest.raises(SystemExit):
        abbench.summarize(e2e, [], DECLARED)


NEW = dict(digests=("c" * 64, "d" * 64), failed=29.0)


def test_rebaseline_records_each_side():
    e2e = [{"parent": fake_run(2.0, 10.0), "change": fake_run(1.0, 12.0, **NEW)}] * 10
    traced = [{"parent": fake_run(2.0, 10.0), "change": fake_run(1.0, 12.0, **NEW)}] * 3
    with pytest.raises(SystemExit):
        abbench.summarize(e2e, traced, DECLARED)
    entry = abbench.summarize(e2e, traced, DECLARED, rebaseline=True)
    assert entry["sha256"] == {"parent": {"pairs": "a" * 64, "report": "b" * 64},
                               "change": {"pairs": "c" * 64, "report": "d" * 64},
                               "same_on_both_sides": False}
    assert entry["failed_per_round"] == {"parent": 31.0, "change": 29.0}
    assert entry["attempted_per_round"] == {"parent": 86, "change": 86}
    assert entry["end_to_end"]["select_s"]["meets_claim_rule"] is True
    assert entry["correct"] and entry["runs_checked"] == 26


@pytest.mark.parametrize("odd", [
    dict(digests=("c" * 64, "e" * 64)),
    dict(failed=30.0),
    dict(correct=False),
], ids=["digest", "failures", "incorrect"])
@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("rebaseline", [False, True], ids=["same", "rebaseline"])
def test_refuses_a_side_that_disagrees_or_fails(odd, side, rebaseline):
    # one run of one side differs from that side's others, or is not correct
    runs = {"parent": {}, "change": NEW if rebaseline else {}}
    e2e = [{s: fake_run(2.0, 10.0, **kw) for s, kw in runs.items()} for _ in range(3)]
    abbench.summarize(e2e, [], DECLARED, rebaseline=rebaseline)
    e2e[1][side] = fake_run(2.0, 10.0, **{**runs[side], **odd})
    with pytest.raises(SystemExit):
        abbench.summarize(e2e, [], DECLARED, rebaseline=rebaseline)


def traced_run(metrics):
    run = fake_run(1.0, 10.0)
    run["metrics"], run["units"] = dict(metrics), {name: "s" for name in metrics}
    return run


@pytest.mark.parametrize("only", ["parent", "change"])
def test_per_layer_metric_of_one_side(only):
    # the sides trace different functions: a metric only one side prints
    # keeps its median there and reads null on the other side
    both, extra = {"scorer.score_s": 0.09}, {"scorer.stage_s": 0.02}
    sides = {"parent": both, "change": both, only: {**both, **extra}}
    traced = [{side: traced_run(metrics) for side, metrics in sides.items()}] * 3
    e2e = [{"parent": fake_run(2.0, 10.0), "change": fake_run(2.0, 10.0)}]
    per_layer = abbench.summarize(e2e, traced, DECLARED)["per_layer"]
    other = "change" if only == "parent" else "parent"
    assert per_layer["scorer.score_s"] == {"unit": "s", "parent": 0.09, "change": 0.09}
    assert per_layer["scorer.stage_s"] == {"unit": "s", only: 0.02, other: None}


def test_names_only_dirty_paths_a_run_uses(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    for name in ("README.md", "tests/test_x.py", "src/sara/a.py", "perfbench/run.py",
                 "BENCHMARK.json"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text("0\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    monkeypatch.setattr(abbench, "ROOT", tmp_path)
    # docs and tests: nothing a run executes or reads
    (tmp_path / "README.md").write_text("1\n")
    (tmp_path / "tests/test_x.py").write_text("1\n")
    (tmp_path / "notes.txt").write_text("1\n")
    assert abbench.dirty_paths() == []
    (tmp_path / "src/sara/a.py").write_text("1\n")
    (tmp_path / "src/sara/b.py").write_text("1\n")
    (tmp_path / "BENCHMARK.json").write_text("1\n")
    git("mv", "perfbench/run.py", "perfbench/main.py")
    assert abbench.dirty_paths() == ["BENCHMARK.json", "perfbench/main.py",
                                     "src/sara/a.py", "src/sara/b.py"]
