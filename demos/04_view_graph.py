# Building the selected view graph stage by stage.
#
# A maximum-weight spanning tree gives connectivity at minimum cost;
# three bounded augmentation passes then add loop-closing chords,
# wide-baseline anchors, and support edges for weakly connected views.

import dataclasses

import numpy as np

from sara.config import SaraConfig
from sara.retrieval import cosine_knn
from sara.scorer import score_all
from sara.synth import generate_orbit_scene, render_features
from sara.viewgraph import build_view_graph

scene = generate_orbit_scene(20, 400, seed=6)
features = render_features(scene)

vectors = np.stack([f.global_desc for f in features]).astype(np.float64)
vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
candidates = cosine_knn(vectors, k=10)

config = SaraConfig()
scores = score_all(features, candidates, config)
accepted = sum(s.rejected is None for s in scores.values())
print(f"{len(scores)} candidate pairs scored, {accepted} accepted")

graph = build_view_graph(scores, scene.n_cameras, config)
roles = {}
for _, role in graph.selected_edges:
    roles[role.value] = roles.get(role.value, 0) + 1
degrees = np.bincount([v for edge, _ in graph.selected_edges for v in edge],
                      minlength=scene.n_cameras)
print("selected edges by role:", roles)
print(f"components: {len(graph.components)}, "
      f"degrees {min(degrees)} to {max(degrees)}")

# with every augmentation budget at 0 only the spanning tree remains
bare = dataclasses.replace(config, budget_loop=0, budget_anchor=0,
                           budget_weak_total=0)
tree_only = build_view_graph(scores, scene.n_cameras, bare)
print(f"augmentations disabled: {len(tree_only.selected_edges)} edges "
      f"(a spanning tree over {scene.n_cameras} views)")

# every augmented edge is a candidate the tree already rejected once,
# picked back up because it closes a loop, adds baseline, or props up a
# low-degree view
extra = graph.selected_pairs() - tree_only.selected_pairs()
print(f"edges added on top of the tree: {len(extra)}")
