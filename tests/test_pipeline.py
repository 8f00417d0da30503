import dataclasses
import json
import logging
import warnings
from pathlib import Path

import numpy as np
import pytest

from sara.cli import _assemble_config, build_parser, main
from sara.config import SaraConfig
from sara.features import (DatasetManifest, ManifestEntry, load_features, load_manifest,
                           write_features, write_manifest)
from sara.pipeline import ABLATION_VARIANTS, run_ablation, run_select
from sara.retrieval import cosine_knn
from sara.synth import dump_scene, generate_orbit_scene, render_features


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    scene = generate_orbit_scene(12, 300, seed=2)
    return dump_scene(scene, root)


class TestRunSelect:
    def test_outputs_and_report(self, dataset, tmp_path):
        pairs = tmp_path / "pairs.txt"
        report_path = tmp_path / "report.json"
        report = run_select(dataset, SaraConfig(), pairs, report_path)

        summary = report.summary
        lines = pairs.read_text().splitlines()
        assert len(lines) == summary["n_selected_edges"]
        assert all(len(line.split()) == 2 for line in lines)
        assert lines == sorted(lines)

        doc = json.loads(report_path.read_text())
        assert report.summary == doc["summary"]
        assert summary["n_nodes"] == 12
        assert len(doc["edges"]) == summary["n_selected_edges"]
        roles = {}
        for edge in doc["edges"]:
            roles[edge["role"]] = roles.get(edge["role"], 0) + 1
            assert edge["a"] < edge["b"]
            assert edge["weight"] > 0.0
        assert roles == summary["edges_by_role"]

    def test_report_counts_consistent(self, dataset, tmp_path):
        report = run_select(dataset, SaraConfig(), tmp_path / "p.txt",
                            tmp_path / "r.json")
        summary = report.summary
        assert summary["n_nodes"] == 12
        manifest = load_manifest(dataset)
        globals_ = [load_features(manifest, i).global_desc for i in manifest.image_ids]
        assert report.n_scored == len(cosine_knn(globals_, min(SaraConfig().k, 11)))
        surviving = report.n_scored - sum(report.n_rejected.values())
        assert summary["n_selected_edges"] <= surviving
        assert sum(summary["edges_by_role"].values()) == summary["n_selected_edges"]
        assert summary["n_components"] == 1
        total = 12 * 11 // 2
        assert summary["reduction_ratio"] == pytest.approx(
            1.0 - summary["n_selected_edges"] / total)
        assert set(report.stage_seconds) == {
            "load", "retrieve", "score", "graph", "write"}

    def test_spanning_tree_included(self, dataset, tmp_path):
        report = run_select(dataset, SaraConfig(), tmp_path / "p.txt",
                            tmp_path / "r.json")
        assert report.summary["edges_by_role"]["tree"] == 11

    def test_byte_determinism_across_runs(self, dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            pairs = tmp_path / f"{name}.txt"
            rep = tmp_path / f"{name}.json"
            run_select(dataset, SaraConfig(), pairs, rep)
            outs.append((pairs.read_bytes(), rep.read_bytes()))
        assert outs[0] == outs[1]

    def test_outputs_independent_of_image_names(self, tmp_path):
        # ids that sort opposite to manifest order; pairs are oriented by
        # manifest order, so only the names in the outputs may change
        scene = generate_orbit_scene(n_cameras=8, n_points=300, noise_px=0.5, seed=0)
        manifest = dump_scene(scene, tmp_path / "scene")
        data = json.loads(manifest.read_text())
        ids = [entry["image_id"] for entry in data["entries"]]
        renamed_ids = [f"z{len(ids) - k:04d}" for k in range(len(ids))]
        for entry, new_id in zip(data["entries"], renamed_ids):
            entry["image_id"] = new_id
        renamed = manifest.with_name("renamed.json")
        renamed.write_text(json.dumps(data))
        to_original = dict(zip(renamed_ids, ids))

        outs = []
        for name, path, id_of in (("original", manifest, str),
                                  ("renamed", renamed, to_original.get)):
            run_select(path, SaraConfig(), tmp_path / f"{name}.txt", tmp_path / f"{name}.json")
            pairs = {frozenset(map(id_of, line.split()))
                     for line in (tmp_path / f"{name}.txt").read_text().splitlines()}
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            for edge in doc["edges"]:
                edge["a"], edge["b"] = id_of(edge["a"]), id_of(edge["b"])
            outs.append((pairs, doc))
        assert outs[0] == outs[1]

    def test_threads_other_than_one_rejected(self, dataset, tmp_path):
        for threads in (0, -3, 2):
            with pytest.raises(ValueError, match="threads"):
                run_select(dataset, SaraConfig(), tmp_path / "p.txt", tmp_path / "r.json",
                           threads=threads)
        assert not (tmp_path / "p.txt").exists()

    def test_zero_budgets_tree_only(self, dataset, tmp_path):
        cfg = SaraConfig(budget_loop=0, budget_anchor=0, budget_weak_total=0)
        report = run_select(dataset, cfg, tmp_path / "p.txt", tmp_path / "r.json")
        assert report.summary["edges_by_role"] == {"tree": 11}


@pytest.fixture(scope="module")
def ablation(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ablate")
    return out, run_ablation(dataset, SaraConfig(), out)


class TestRunAblation:

    def test_all_variants_written(self, ablation):
        out, reps = ablation
        assert set(reps) == set(ABLATION_VARIANTS)
        for name in ABLATION_VARIANTS:
            assert (out / f"{name}.pairs.txt").exists()
            assert (out / f"{name}.report.json").exists()

    def test_variant_roles_respect_toggles(self, ablation):
        _, reps = ablation
        stages = {"loop": "budget_loop", "anchor": "budget_anchor", "weak": "budget_weak_total"}
        for name, off in ABLATION_VARIANTS.items():
            roles = set(reps[name].summary["edges_by_role"])
            for role, budget in stages.items():
                assert (role in roles) <= (budget not in off)

    def test_variants_equal_select_with_zero_budgets(self, dataset, ablation, tmp_path):
        out, _ = ablation
        for name, off in ABLATION_VARIANTS.items():
            config = dataclasses.replace(SaraConfig(), **dict.fromkeys(off, 0))
            pairs, report = tmp_path / f"{name}.pairs.txt", tmp_path / f"{name}.report.json"
            run_select(dataset, config, pairs, report)
            assert pairs.read_bytes() == (out / pairs.name).read_bytes(), name
            assert report.read_bytes() == (out / report.name).read_bytes(), name

    def test_base_subset_of_augmented(self, ablation):
        out, reps = ablation
        pair_sets = {name: set((out / f"{name}.pairs.txt").read_text().splitlines())
                     for name in ABLATION_VARIANTS}
        assert pair_sets["base_only"] <= pair_sets["only_msl"]
        assert pair_sets["base_only"] <= pair_sets["only_lba"]
        assert pair_sets["base_only"] <= pair_sets["only_wvr"]
        assert pair_sets["base_only"] <= pair_sets["full"]

    def test_removing_a_stage_never_adds_edges(self, ablation):
        _, reps = ablation
        selected = {name: rep.summary["n_selected_edges"] for name, rep in reps.items()}
        assert selected["wo_msl"] <= selected["full"]
        assert selected["wo_lba"] <= selected["full"]
        assert selected["wo_wvr"] <= selected["full"]

    def test_loops_are_the_only_msl_addition(self, ablation):
        out, reps = ablation
        base = set((out / "base_only.pairs.txt").read_text().splitlines())
        only = set((out / "only_msl.pairs.txt").read_text().splitlines())
        added = only - base
        assert len(added) == reps["only_msl"].summary["edges_by_role"].get("loop", 0)
        doc = json.loads((out / "only_msl.report.json").read_text())
        loop_pairs = {f'{e["a"]} {e["b"]}' for e in doc["edges"]
                      if e["role"] == "loop"}
        assert added == loop_pairs

    def test_shared_scoring_pass(self, ablation):
        _, reps = ablation
        # every variant saw the same candidates and rejections
        first = reps["full"]
        for rep in reps.values():
            assert rep.n_scored == first.n_scored
            assert rep.n_rejected == first.n_rejected


@pytest.fixture(scope="module")
def disconnected(tmp_path_factory):
    # two orbit scenes in one manifest, their descriptors in orthogonal
    # halves of the space: every cross-scene similarity is 0, so a
    # cross-scene pair has one mutual match and no edge can join the scenes.
    # Each scene's ring keeps every adjacent pair, so it stays one component
    # should any single pair fail.
    root = tmp_path_factory.mktemp("disconnected")
    def pad(v, half):   # the scene's 32 dims before 32 zeros (half 0) or after them (half 1)
        return np.roll(np.concatenate([v, np.zeros_like(v)], axis=-1), 32 * half, axis=-1)

    entries = []
    for half, seed in enumerate((2, 3)):
        for f in render_features(generate_orbit_scene(6, 400, seed=seed)):
            image_id = f"{'ab'[half]}_{f.image_id}"
            path = root / f"{image_id}.sarf"
            write_features(dataclasses.replace(f, image_id=image_id,
                                               descriptors=pad(f.descriptors, half),
                                               global_desc=pad(f.global_desc, half)), path)
            entries.append(ManifestEntry(image_id=image_id, path=path))
    manifest = root / "manifest.json"
    write_manifest(DatasetManifest(entries=tuple(entries), descriptor_dim=64, global_dim=64),
                   manifest)
    return manifest


def disconnected_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.name == "sara.pipeline" and "disconnected" in r.getMessage()]


class TestDisconnectedWarning:
    def test_run_select_warns_once(self, disconnected, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="sara.pipeline"):
            report = run_select(disconnected, SaraConfig(), tmp_path / "p.txt",
                                tmp_path / "r.json")
        assert report.summary["n_components"] == 2
        assert disconnected_warnings(caplog) == [
            "candidate graph is disconnected: 2 components "
            "[[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]]"]

    def test_run_ablation_warns_once_per_call(self, disconnected, tmp_path, caplog):
        for call in (1, 2):
            with caplog.at_level(logging.WARNING, logger="sara.pipeline"):
                reports = run_ablation(disconnected, SaraConfig(), tmp_path / f"out{call}")
            assert len(reports) == len(ABLATION_VARIANTS)
            assert len(disconnected_warnings(caplog)) == call


class TestCliSelect:
    @pytest.mark.parametrize("field", dataclasses.fields(SaraConfig), ids=lambda f: f.name)
    def test_every_config_field_is_a_flag(self, field):
        default = getattr(SaraConfig(), field.name)
        want = default * 2 if field.type == "float" else (default or 0) + 3
        flag = [f"--{field.name.replace('_', '-')}", str(want)]
        args = build_parser().parse_args(["select", "--manifest", "m", "--out-pairs", "p",
                                          "--out-report", "r", *flag])
        assert _assemble_config(args) == dataclasses.replace(SaraConfig(),
                                                             **{field.name: want})

    def test_happy_path(self, dataset, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        report = tmp_path / "report.json"
        code = main(["select", "--manifest", str(dataset),
                     "--out-pairs", str(pairs), "--out-report", str(report)])
        assert code == 0
        assert pairs.exists() and report.exists()
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["n_nodes"] == 12
        assert doc["summary"]["n_selected_edges"] >= 11

    def test_run_report_file_matches_stdout(self, dataset, tmp_path, capsys):
        run_report = tmp_path / "run.json"
        code = main(["select", "--manifest", str(dataset),
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json"),
                     "--out-run-report", str(run_report)])
        assert code == 0
        assert run_report.read_text().strip() == capsys.readouterr().out.strip()

    @pytest.mark.parametrize("name, level", [("debug", "DEBUG"), ("bogus", "WARNING")])
    def test_sara_log_sets_the_level(self, tmp_path, monkeypatch, name, level):
        # an unknown level name falls back to WARNING instead of crashing
        monkeypatch.setenv("SARA_LOG", name)
        seen = {}
        monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: seen.update(kwargs))
        code = main(["select", "--manifest", str(tmp_path / "missing.json"),
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")])
        assert code == 2
        assert seen["level"] == level

    def test_missing_manifest_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope" / "manifest.json"
        code = main(["select", "--manifest", str(missing),
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_corrupt_manifest(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("{not json")
        code = main(["select", "--manifest", str(bad),
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")])
        assert code == 2

    @pytest.mark.parametrize("mutate", [
        lambda d: d["entries"][0].pop("path"),
        lambda d: d.update(entries={e["image_id"]: e for e in d["entries"]}),
        lambda d: d["entries"][0].update(image_id="view 0000"),
        lambda d: d["entries"][0].update(
            intrinsics=[[900.0, 0.0, 512.0], [0.0, 900.0, 384.0]]),
        lambda d: d["entries"][0].update(
            intrinsics=[[-900.0, 0.0, 512.0], [0.0, 900.0, 384.0], [0.0, 0.0, 1.0]]),
        lambda d: d["entries"][0].update(
            intrinsics=[[900.0, 0.0, 512.0], [0.0, 900.0, 384.0], [0.0, 0.0, 0.0]]),
        lambda d: d["entries"][3].update(path=d["entries"][3]["path"] + ".gone"),
        lambda d: d.update(descriptor_dim=d["descriptor_dim"] + 1),
    ], ids=["no_path", "entries_object", "whitespace_id", "intrinsics_not_3x3",
            "negative_focal", "singular_intrinsics", "missing_file", "dim_mismatch"])
    def test_malformed_manifest_exits_two_before_scoring(self, dataset, tmp_path, capsys,
                                                         monkeypatch, mutate):
        import sara.pipeline as pipeline_mod

        def never(*args, **kwargs):
            raise RuntimeError("scoring ran on a malformed manifest")

        monkeypatch.setattr(pipeline_mod, "score_all", never)
        data = json.loads(dataset.read_text())
        for entry in data["entries"]:
            entry["path"] = str(dataset.parent / entry["path"])
        mutate(data)
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(data))
        code = main(["select", "--manifest", str(bad),
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")])
        assert code == 2, capsys.readouterr().err

    def test_non_finite_keypoint_exits_two_before_scoring(self, dataset, tmp_path, capsys,
                                                          monkeypatch):
        import sara.pipeline as pipeline_mod

        def never(*args, **kwargs):
            raise RuntimeError("scoring ran on a non-finite keypoint")

        monkeypatch.setattr(pipeline_mod, "score_all", never)
        data = json.loads(dataset.read_text())
        for entry in data["entries"]:
            entry["path"] = str(dataset.parent / entry["path"])
        raw = bytearray(Path(data["entries"][3]["path"]).read_bytes())
        first_keypoint = 30 + 72 * raw[28]   # after the header and, if flagged, K
        raw[first_keypoint:first_keypoint + 4] = np.float32(np.nan).tobytes()
        bad_file = tmp_path / "view.sarf"
        bad_file.write_bytes(bytes(raw))
        data["entries"][3]["path"] = str(bad_file)
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(data))
        code = main(["select", "--manifest", str(bad),
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")])
        assert code == 2
        assert "non-finite keypoint" in capsys.readouterr().err

    @pytest.mark.parametrize("n_entries", [0, 1])
    def test_fewer_than_two_images_exits_two(self, dataset, tmp_path, capsys, caplog,
                                             n_entries):
        caplog.set_level(logging.INFO)
        data = json.loads(dataset.read_text())
        for entry in data["entries"]:
            entry["path"] = str(dataset.parent / entry["path"])
        data["entries"] = data["entries"][:n_entries]
        small = tmp_path / "manifest.json"
        small.write_text(json.dumps(data))
        code = main(["select", "--manifest", str(small),
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")])
        assert code == 2
        assert "need at least 2 images" in capsys.readouterr().err
        assert "clamping" not in caplog.text

    @pytest.mark.parametrize("document", [
        "5",
        '"abc"',
        '{"k": "5"}',
        '{"k": 2.5}',
        '{"seed": 1.5}',
        '{"use_loops": "no"}',
        '{"tau_o": NaN}',
        '{"parallax_cap": Infinity}',
        '{"loop_short_max": 4}',
    ], ids=["number", "string", "k_string", "k_float", "seed_float", "use_loops_string",
            "tau_o_nan", "parallax_cap_inf", "removed_key"])
    def test_bad_config_or_threads_exits_one_before_loading(self, dataset, tmp_path, capsys,
                                                            monkeypatch, document):
        import sara.pipeline as pipeline_mod

        def never(*args, **kwargs):
            raise RuntimeError("features loaded despite a bad config")

        monkeypatch.setattr(pipeline_mod, "load_features", never)
        config = tmp_path / "c.json"
        config.write_text(document)
        code = main(["select", "--manifest", str(dataset), "--config", str(config),
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")])
        assert code == 1, capsys.readouterr().err

    def test_invalid_config_value(self, dataset, tmp_path, capsys):
        code = main(["select", "--manifest", str(dataset), "--k", "0",
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")])
        assert code == 1
        assert "k" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--manifest", str(dataset), "--bogus", "1",
                  "--out-pairs", str(tmp_path / "p.txt"),
                  "--out-report", str(tmp_path / "r.json")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("seed, code", [(2**64 - 1, 0), (2**64, 1)])
    def test_seed_range(self, dataset, tmp_path, capsys, seed, code):
        assert main(["select", "--manifest", str(dataset), "--seed", str(seed),
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")]) == code
        if code:
            assert "seed" in capsys.readouterr().err
            assert not (tmp_path / "p.txt").exists()

    @pytest.mark.parametrize("command", ["select", "ablate"])
    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--disable-msl", "--disable-lba",
                                      "--disable-wvr"])
    def test_retired_flags_are_unknown(self, dataset, tmp_path, command, flag):
        # the weight is the plain product; --budget-* 0 turns a stage off
        outputs = {"select": ["--out-pairs", str(tmp_path / "p.txt"),
                              "--out-report", str(tmp_path / "r.json")],
                   "ablate": ["--out-dir", str(tmp_path / "ablate")]}[command]
        value = ["2"] if flag in ("--alpha", "--beta") else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--manifest", str(dataset), flag, *value, *outputs])
        assert exc.value.code == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["select", "ablate"])
    def test_threads_flag_is_unknown(self, dataset, tmp_path, command):
        outputs = {"select": ["--out-pairs", str(tmp_path / "p.txt"),
                              "--out-report", str(tmp_path / "r.json")],
                   "ablate": ["--out-dir", str(tmp_path / "ablate")]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--manifest", str(dataset), "--threads", "1", *outputs])
        assert exc.value.code == 1
        assert not list(tmp_path.iterdir())

    def test_internal_error_exits_three(self, dataset, tmp_path, capsys,
                                        monkeypatch):
        import sara.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("simulated")

        monkeypatch.setattr(cli_mod, "run_select", boom)
        code = main(["select", "--manifest", str(dataset),
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")])
        assert code == 3
        assert "internal" in capsys.readouterr().err

    def test_flag_overrides_config_file(self, dataset, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(SaraConfig(k=4, b=30).to_dict()))
        code = main(["select", "--manifest", str(dataset),
                     "--config", str(cfg_file), "--k", "6",
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["k"] == 6
        assert doc["config"]["b"] == 30

    def test_zero_budget_flags(self, dataset, tmp_path, capsys):
        code = main(["select", "--manifest", str(dataset),
                     "--budget-loop", "0", "--budget-anchor", "0",
                     "--budget-weak-total", "0",
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["edges_by_role"] == {"tree": 11}


class TestCliSynth:
    def test_creates_dataset(self, tmp_path, capsys):
        out = tmp_path / "scene"
        code = main(["synth", "--out-dir", str(out), "--n-cameras", "8",
                     "--n-points", "200", "--seed", "5"])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("manifest.json")
        names = sorted(p.name for p in out.iterdir())
        assert sum(n.endswith(".sarf") for n in names) == 8
        assert "manifest.json" in names and "truth.npz" in names

    def test_same_seed_identical_bytes(self, tmp_path):
        for name in ("s1", "s2"):
            assert main(["synth", "--out-dir", str(tmp_path / name),
                         "--n-cameras", "6", "--n-points", "150",
                         "--noise-px", "0.5", "--seed", "9"]) == 0
        files = sorted(p.name for p in (tmp_path / "s1").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "s2").iterdir())
        for fname in files:
            assert (tmp_path / "s1" / fname).read_bytes() == \
                (tmp_path / "s2" / fname).read_bytes(), fname

    def test_bad_camera_count(self, tmp_path, capsys):
        code = main(["synth", "--out-dir", str(tmp_path / "x"),
                     "--n-cameras", "1"])
        assert code == 1
        assert "camera" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--noise-px", "-1"), ("--noise-px", "nan"), ("--noise-desc", "-0.5"),
        ("--noise-desc", "inf"),
    ])
    def test_bad_noise_exits_one(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        code = main(["synth", "--out-dir", str(out), "--n-cameras", "4", flag, value])
        assert code == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**63])   # truth.npz stores the seed as int64
    def test_seed_out_of_range_exits_one(self, tmp_path, capsys, seed):
        out = tmp_path / "x"
        assert main(["synth", "--out-dir", str(out), "--n-cameras", "4", f"--seed={seed}"]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.0"])
    def test_bad_radius_exits_one(self, tmp_path, capsys, value):
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # refused before any arithmetic warns
            code = main(["synth", "--out-dir", str(out), "--n-cameras", "4", f"--radius={value}"])
        assert code == 1
        assert "radius" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_then_select(self, tmp_path, capsys):
        out = tmp_path / "scene"
        assert main(["synth", "--out-dir", str(out), "--n-cameras", "10",
                     "--n-points", "250", "--seed", "3"]) == 0
        capsys.readouterr()
        code = main(["select", "--manifest", str(out / "manifest.json"),
                     "--out-pairs", str(tmp_path / "p.txt"),
                     "--out-report", str(tmp_path / "r.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["n_components"] == 1


class TestCliAblate:
    def test_ablate_outputs(self, dataset, tmp_path, capsys):
        out = tmp_path / "ablate"
        code = main(["ablate", "--manifest", str(dataset),
                     "--out-dir", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == set(ABLATION_VARIANTS)
        assert doc["base_only"]["n_selected_edges"] <= doc["full"]["n_selected_edges"]
        files = {p.name for p in out.iterdir()}
        assert len(files) == 16
        for name, summary in doc.items():
            assert summary == json.loads((out / f"{name}.report.json").read_text())["summary"]
