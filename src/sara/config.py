"""Pipeline configuration.

All angles are stored in radians. Budgets left at ``None`` are resolved
against the dataset size N when the view graph is built: loop budget
``ceil(0.2 N)``, anchor budget ``ceil(0.05 N)``, weak-edge global cap
``ceil(0.1 N)``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

DEG = math.pi / 180.0

# accepted value types by field annotation; bool, an int subclass, is
# accepted only where the annotation says bool. Integral admits numpy
# integers, which are stored as int.
_TYPES = {"int": numbers.Integral, "int | None": (numbers.Integral, type(None)),
          "float": (int, float), "bool": bool}


@dataclass(frozen=True)
class SaraConfig:
    k: int = 10                        # retrieval neighbors per image
    b: int = 50                        # mutual-NN correspondences kept per pair
    ransac_iterations: int = 32
    inlier_threshold_px: float = 2.0   # Sampson distance threshold, pixels
    alpha: float = 1.0                 # overlap exponent
    beta: float = 1.0                  # parallax exponent
    tau_o: float = 0.01                # overlap rejection threshold
    tau_p: float = 1.0 * DEG           # parallax rejection threshold, radians
    parallax_cap: float = 30.0 * DEG   # parallax saturation inside the weight
    budget_loop: int | None = None     # None: ceil(0.2 N)
    budget_anchor: int | None = None   # None: ceil(0.05 N)
    budget_weak: int = 2               # per weak view
    budget_weak_total: int | None = None  # None: ceil(0.1 N)
    weak_degree_threshold: int = 1
    loop_short_max: int = 4            # short loops: tree-path length 2..this
    loop_medium_max: int = 10          # medium: ..this; long: above
    use_loops: bool = True
    use_anchors: bool = True
    use_weak: bool = True
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type not in _TYPES:
                raise TypeError(f"no type check for {f.name}: {f.type}")
            if (isinstance(value, bool) != (f.type == "bool")
                    or not isinstance(value, _TYPES[f.type])):
                raise ValueError(f"{f.name} must be {f.type}, not {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, not {value!r}")
            if isinstance(value, numbers.Integral) and not isinstance(value, int):
                object.__setattr__(self, f.name, int(value))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.b < 8:
            raise ValueError("b must be >= 8 (eight-point minimum)")
        if self.ransac_iterations < 1:
            raise ValueError("ransac_iterations must be >= 1")
        if self.inlier_threshold_px <= 0:
            raise ValueError("inlier_threshold_px must be > 0")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be > 0")
        if self.tau_o < 0 or self.tau_p < 0:
            raise ValueError("thresholds must be >= 0")
        if self.parallax_cap <= 0:
            raise ValueError("parallax_cap must be > 0")
        for name in ("budget_loop", "budget_anchor", "budget_weak_total", "budget_weak",
                     "weak_degree_threshold", "seed"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 2 <= self.loop_short_max < self.loop_medium_max:
            raise ValueError("loop bins must satisfy 2 <= short_max < medium_max")

    # budget resolution against dataset size

    def resolved_budget_loop(self, n_images: int) -> int:
        if self.budget_loop is not None:
            return self.budget_loop
        return math.ceil(0.2 * n_images)

    def resolved_budget_anchor(self, n_images: int) -> int:
        if self.budget_anchor is not None:
            return self.budget_anchor
        return math.ceil(0.05 * n_images)

    def resolved_budget_weak_total(self, n_images: int) -> int:
        if self.budget_weak_total is not None:
            return self.budget_weak_total
        return math.ceil(0.1 * n_images)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SaraConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must map field names to values, not {data!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def load_config(path: str | Path) -> SaraConfig:
    """Read a JSON config file holding any subset of SaraConfig fields."""
    text = Path(path).read_text()
    return SaraConfig.from_dict(json.loads(text))


def save_config(config: SaraConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
