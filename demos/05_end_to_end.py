#!/usr/bin/env python3
"""Full pipeline run plus the stage-ablation grid.

Equivalent command lines:

    sara synth --out-dir demo_out/scene --n-cameras 24 --n-points 500 --seed 7
    sara select --manifest demo_out/scene/manifest.json \
        --out-pairs demo_out/pairs.txt --out-report demo_out/report.json
    sara ablate --manifest demo_out/scene/manifest.json --out-dir demo_out/ablation
"""

import json

from sara.config import SaraConfig
from sara.pipeline import run_ablation, run_select
from sara.synth import dump_scene, generate_orbit_scene

scene = generate_orbit_scene(n_cameras=24, n_points=500, radius=5.0, seed=7)
manifest = dump_scene(scene, "demo_out/scene")

config = SaraConfig()
report = run_select(manifest, config, "demo_out/pairs.txt", "demo_out/report.json")
# the run report's summary is the graph report's "summary", word for word
summary = report.summary
full_graph = 24 * 23 // 2
print(f"{summary['n_nodes']} images, {report.n_scored} candidates, "
      f"{summary['n_selected_edges']} selected (complete graph: {full_graph})")
print(f"selected by role: {summary['edges_by_role']}")
print(f"reduction ratio:  {summary['reduction_ratio']:.3f}")
print(f"stage seconds:    { {k: round(v, 3) for k, v in report.stage_seconds.items()} }")

# the pair list is what a matcher would consume downstream
with open("demo_out/pairs.txt") as fh:
    lines = fh.read().splitlines()
print(f"\npair list: {len(lines)} lines, first three: {lines[:3]}")

# one shared scoring pass, eight graph-stage on/off combinations
reports = run_ablation(manifest, config, "demo_out/ablation")
print("\nvariant        edges")
selected = {name: rep.summary["n_selected_edges"] for name, rep in reports.items()}
for name, n_selected in sorted(selected.items(), key=lambda kv: kv[1]):
    print(f"{name:12s}  {n_selected:5d}")

with open("demo_out/ablation/base_only.report.json") as fh:
    doc = json.load(fh)
print(f"\nbase_only roles: {doc['summary']['edges_by_role']}")
