"""The benchmark's own tests: scenes repeat per seed, and every check
accepts the program's real output and rejects a planted wrong one.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import checks
import run
from clock import SteadyClock
from scenes import SceneSpec, make_scene, write_scene

from sara.config import SaraConfig

SMALL_ORBIT = SceneSpec(n_views=12, n_points=400, descriptor_dim=32, noise_px=0.5,
                        calibrated=True)
SMALL_COLLECTION = SceneSpec(n_views=8, n_points=300, descriptor_dim=32, noise_px=0.5,
                             calibrated=False, n_distractors=40)


@dataclasses.dataclass
class Selection:
    scene: object
    config: SaraConfig
    selected: list
    doc: dict
    scores: dict
    matches: dict


def select(spec, seed, out):
    scene = make_scene(spec, seed)
    manifest = write_scene(scene, out / "scene")
    config = SaraConfig()
    _, captured = run.traced_select(SteadyClock(1.0), manifest, config, out, "traced")
    doc = json.loads((out / "traced.report.json").read_text())
    return Selection(scene, config, checks.read_report(doc, scene.image_ids), doc,
                     captured["scores"], captured["matches"])


@pytest.fixture(scope="module")
def orbit(tmp_path_factory):
    return select(SMALL_ORBIT, 3, tmp_path_factory.mktemp("orbit"))


@pytest.fixture(scope="module")
def collection(tmp_path_factory):
    return select(SMALL_COLLECTION, 3, tmp_path_factory.mktemp("collection"))


def test_scene_is_deterministic_per_seed():
    a, b, c = make_scene(SMALL_COLLECTION, 5), make_scene(SMALL_COLLECTION, 5), \
        make_scene(SMALL_COLLECTION, 6)
    for field in ("points", "visibility", "orbit_index", "globals_"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    for x, y in zip(a.keypoints + a.descriptors, b.keypoints + b.descriptors):
        np.testing.assert_array_equal(x, y)
    assert not np.array_equal(a.points, c.points)
    assert not np.array_equal(a.orbit_index, c.orbit_index)


def test_scene_files_are_deterministic_per_seed(tmp_path):
    write_scene(make_scene(SMALL_ORBIT, 5), tmp_path / "a")
    write_scene(make_scene(SMALL_ORBIT, 5), tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def all_problems(sel):
    n = sel.scene.n_images
    accepted = checks.accepted_weights(sel.scores)
    candidates = checks.exact_candidates(sel.scene.globals_, min(sel.config.k, n - 1))
    return (checks.check_candidates(sel.selected, candidates, len(sel.scores))
            + checks.check_tree(sel.selected, accepted, n)
            + checks.check_budgets(sel.selected, sel.config, n)
            + checks.check_components(sel.selected, accepted, n,
                                      sel.doc["summary"]["n_components"])
            + checks.check_formula(sel.doc["edges"], sel.scene.image_ids, sel.scores,
                                   [len(k) for k in sel.scene.keypoints], sel.config)
            + checks.check_geometry(sel.scene, sel.scores, sel.matches, sel.config.b)
            + checks.check_distractors(sel.scene, sel.selected))


def test_real_outputs_pass(orbit, collection):
    assert all_problems(orbit) == []
    assert all_problems(collection) == []


def test_pair_outside_candidates_rejected(orbit):
    n = orbit.scene.n_images
    candidates = checks.exact_candidates(orbit.scene.globals_, orbit.config.k)
    outside = next((i, j) for i in range(n) for j in range(i + 1, n)
                   if (i, j) not in candidates)
    planted = orbit.selected + [(*outside, "loop")]
    assert checks.check_candidates(planted, candidates, len(orbit.scores))


def test_parallax_off_rejected(orbit):
    rotation = checks.rotation_errors(orbit.scene, orbit.scores)
    pair = min(rotation, key=rotation.get)
    off = math.radians(checks.PARALLAX_TOL_DEG + 5.0)
    planted = dict(orbit.scores)
    planted[pair] = dataclasses.replace(orbit.scores[pair],
                                        parallax=orbit.scores[pair].parallax + off)
    assert checks.check_geometry(orbit.scene, planted, orbit.matches, orbit.config.b)


def test_false_match_rejected(orbit):
    key, corrs = next((k, c) for k, c in sorted(orbit.matches.items()) if len(c) >= 2)
    i = orbit.scene.image_ids.index(key[0])
    j = orbit.scene.image_ids.index(key[1])
    assert checks._covisible(orbit.scene, i, j) >= orbit.config.b
    swapped = [dataclasses.replace(corrs[0], idx_b=corrs[1].idx_b)] + corrs[1:]
    planted = dict(orbit.matches)
    planted[key] = swapped
    assert checks.check_geometry(orbit.scene, orbit.scores, planted, orbit.config.b)


def test_lighter_tree_edge_rejected(orbit):
    n = orbit.scene.n_images
    accepted = checks.accepted_weights(orbit.scores)
    tree = [(i, j) for i, j, role in orbit.selected if role == "tree"]
    for edge in tree:
        rest = [e for e in tree if e != edge]
        side = next(g for g in checks._partition(rest, n) if edge[0] in g)
        lighter = [e for e, w in accepted.items() if e not in tree and w < accepted[edge]
                   and (e[0] in side) != (e[1] in side)]
        if lighter:
            planted = [(i, j, "tree") for i, j in rest + [lighter[0]]]
            assert checks.check_tree(planted, accepted, n)
            return
    pytest.fail("no tree edge has a lighter replacement")


def test_split_component_rejected(orbit):
    n = orbit.scene.n_images
    accepted = checks.accepted_weights(orbit.scores)
    i, j, _ = next(e for e in orbit.selected if e[2] == "tree")
    # drop every selected edge across the cut the tree edge defines
    rest = [(a, b) for a, b, role in orbit.selected if role == "tree" and (a, b) != (i, j)]
    side = next(g for g in checks._partition(rest, n) if i in g)
    planted = [e for e in orbit.selected if (e[0] in side) == (e[1] in side)]
    components = orbit.doc["summary"]["n_components"]
    assert checks.check_components(planted, accepted, n, components)


def test_distractor_pair_rejected(collection):
    distractor = next(i for i in range(collection.scene.n_images)
                      if i not in set(collection.scene.orbit_index.tolist()))
    view = int(collection.scene.orbit_index[0])
    planted = collection.selected + [(min(view, distractor), max(view, distractor), "weak")]
    assert checks.check_distractors(collection.scene, planted)


def test_wrong_overlap_rejected(orbit):
    pair, score = next((p, s) for p, s in sorted(orbit.scores.items()) if s.rejected is None)
    planted = dict(orbit.scores)
    planted[pair] = dataclasses.replace(score, overlap=score.overlap * 1.01)
    assert checks.check_formula([], orbit.scene.image_ids, planted,
                                [len(k) for k in orbit.scene.keypoints], orbit.config)


def test_failed_pairs_follow_the_definition(orbit):
    failed = set(checks.failed_pairs(orbit.scene, orbit.scores, orbit.config.b))
    rotation = checks.rotation_errors(orbit.scene, orbit.scores)
    for pair, s in orbit.scores.items():
        lost = (s.rejected is not None and s.rejected.value == "no_model"
                and checks._covisible(orbit.scene, *pair) >= orbit.config.b)
        wrong = rotation.get(pair, 0.0) > checks.ROTATION_TOL_DEG
        assert (pair in failed) == (lost or wrong)
