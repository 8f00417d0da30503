"""Geometry-aware image pair selection for Structure-from-Motion.

Scores candidate image pairs by verified overlap and triangulation
parallax, then selects a sparse, well-conditioned match graph: a
maximum-weight spanning tree augmented with budgeted loop closures,
high-parallax anchors, and support edges for weak views.

The top level exports the pipeline entry points; every other name lives
in its module (``sara.features``, ``sara.retrieval``, ``sara.scorer``,
``sara.epipolar``, ``sara.viewgraph``, ``sara.synth``).
"""

from .config import SaraConfig
from .errors import SaraError
from .pipeline import run_ablation, run_select

__version__ = "0.1.0"

__all__ = ["SaraConfig", "SaraError", "run_ablation", "run_select"]
