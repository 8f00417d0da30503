import dataclasses
import json
import math

import numpy as np
import pytest

from sara.config import _TYPES, DEG, SaraConfig, load_config, save_config


def test_defaults_are_valid():
    cfg = SaraConfig()
    assert cfg.k == 10
    assert cfg.b == 50
    assert cfg.ransac_iterations == 32
    assert cfg.inlier_threshold_px == 2.0
    assert cfg.tau_o == 0.01
    assert cfg.tau_p == pytest.approx(1.0 * DEG)
    assert cfg.parallax_cap == pytest.approx(30.0 * DEG)
    assert cfg.seed == 0
    assert len(dataclasses.fields(cfg)) == 11


@pytest.mark.parametrize("field,value", [
    ("k", 0),
    ("b", 7),
    ("ransac_iterations", 0),
    ("inlier_threshold_px", 0.0),
    ("inlier_threshold_px", -1.0),
    ("tau_o", -0.1),
    ("tau_p", -0.001),
    ("parallax_cap", 0.0),
    ("budget_loop", -1),
    ("budget_anchor", -1),
    ("budget_weak_total", -3),
    ("seed", -1),
    ("seed", True),
    # wrong types, as a JSON config file can carry them; bool is no number
    ("k", "5"),
    ("k", 2.5),
    ("k", True),
    ("seed", 1.5),
    ("b", None),
    ("tau_o", False),
    ("budget_loop", 1.0),
    ("budget_anchor", True),
    ("k", np.bool_(True)),
    # NaN and Infinity, which json.loads reads from a config file
    ("tau_o", float("nan")),
    ("parallax_cap", float("inf")),
    # the robust search keys on 64 bits of the seed: 2**64 would repeat seed 0
    ("seed", 2**64),
])
def test_bad_values_rejected(field, value):
    with pytest.raises(ValueError):
        SaraConfig(**{field: value})


def test_ints_accepted_for_float_fields():
    cfg = SaraConfig(parallax_cap=2, tau_o=0, inlier_threshold_px=3)
    assert (cfg.parallax_cap, cfg.tau_o, cfg.inlier_threshold_px) == (2, 0, 3)


def test_numpy_integers_stored_as_int():
    cfg = SaraConfig(k=np.int64(5), budget_loop=np.int32(3))
    assert (cfg.k, cfg.budget_loop) == (5, 3)
    assert type(cfg.k) is int and type(cfg.budget_loop) is int
    json.dumps(cfg.to_dict())


def test_every_annotation_has_a_type_check():
    assert {f.type for f in dataclasses.fields(SaraConfig)} <= set(_TYPES)


@pytest.mark.parametrize("document", ["5", '"abc"', "[1, 2]", "null"])
def test_non_object_document_rejected(tmp_path, document):
    path = tmp_path / "cfg.json"
    path.write_text(document)
    with pytest.raises(ValueError, match="config must map"):
        load_config(path)


def test_budget_resolution_ceil():
    cfg = SaraConfig()
    # defaults scale with scene size: 20% loops, 5% anchors, 10% weak total
    assert cfg.budget("budget_loop", 50) == 10
    assert cfg.budget("budget_loop", 51) == 11
    assert cfg.budget("budget_anchor", 50) == 3   # ceil(2.5)
    assert cfg.budget("budget_anchor", 100) == 5
    assert cfg.budget("budget_weak_total", 50) == 5
    assert cfg.budget("budget_weak_total", 11) == 2  # ceil(1.1)


def test_explicit_budgets_win():
    cfg = SaraConfig(budget_loop=7, budget_anchor=2, budget_weak_total=3)
    assert cfg.budget("budget_loop", 1000) == 7
    assert cfg.budget("budget_anchor", 1000) == 2
    assert cfg.budget("budget_weak_total", 1000) == 3


def test_dict_round_trip():
    cfg = SaraConfig(k=5, tau_o=0.02, budget_loop=4, budget_weak_total=0)
    clone = SaraConfig.from_dict(cfg.to_dict())
    assert clone == cfg


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown"):
        SaraConfig.from_dict({"k": 5, "bogus": 1})


RETIRED = ["alpha", "beta", "use_loops", "use_anchors", "use_weak"]


@pytest.mark.parametrize("name", RETIRED)
def test_retired_knobs_cannot_be_set(tmp_path, name):
    # the weight is the plain product and a zero budget turns a stage off;
    # the names stay readable as class constants only
    with pytest.raises(TypeError):
        SaraConfig(**{name: getattr(SaraConfig, name)})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: False}))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(path)


def test_json_round_trip(tmp_path):
    cfg = SaraConfig(k=3, b=20, tau_p=2.5 * DEG, budget_anchor=0)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    # file is plain json, editable by hand
    data = json.loads(path.read_text())
    assert data["k"] == 3


def test_parallax_fields_are_radians():
    cfg = SaraConfig()
    assert cfg.tau_p < 0.1            # one degree, not one radian
    assert cfg.parallax_cap < math.pi
