"""How one candidate pair turns into a weight, or a rejection."""

import numpy as np

from sara.config import SaraConfig
from sara.scorer import mutual_nn_matches, score_pair
from sara.synth import generate_orbit_scene, render_features

config = SaraConfig()
scene = generate_orbit_scene(16, 400, seed=5)
features = render_features(scene)

# ring neighbors share most of their view; the opposite side shares
# almost nothing, so the scorer should refuse to emit a weight for it
for i, j, label in [(0, 1, "adjacent"), (0, 4, "quarter turn"), (0, 8, "opposite")]:
    s = score_pair(features[i], features[j], config)
    if s.rejected is None:
        print(f"{label:12s}  overlap {s.overlap:.3f}  "
              f"parallax {np.degrees(s.parallax):5.2f} deg  weight {s.weight:.4f}")
    else:
        print(f"{label:12s}  rejected ({s.rejected.value}), "
              f"{s.inlier_count} inliers")

# the tentative matches behind those scores: descriptors that picked
# each other as best match, capped at the per-pair budget
matches = mutual_nn_matches(features[0], features[1], b=config.b)
sims = [m.similarity for m in matches]
print(f"\nadjacent pair: {len(matches)} mutual nearest neighbors, "
      f"similarity {min(sims):.3f} to {max(sims):.3f}")

# the weight is just the product overlap * min(parallax, cap)
s = score_pair(features[0], features[1], config)
w = s.overlap * min(s.parallax, config.parallax_cap)
print(f"stored weight {s.weight:.6f}, recomputed {w:.6f}")
