"""Pipeline configuration.

All angles are stored in radians. Each field's help text, which the
command line shows for its flag, is in the field's metadata. Budgets left
at ``None`` are resolved against the dataset size N when the view graph
is built, as ``ceil(share * N)`` with the shares of ``_BUDGET_SHARES``;
a budget of 0 turns its stage off.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

from .epipolar import MIN_MATCHES

DEG = math.pi / 180.0

# accepted value types by field annotation; bool, an int subclass, is
# refused for every field. Integral admits numpy integers, which are stored as int.
_TYPES = {"int": numbers.Integral, "int | None": (numbers.Integral, type(None)),
          "float": (int, float)}


# default budget as a share of the dataset size N, for a budget field left at None
_BUDGET_SHARES = {"budget_loop": 0.2, "budget_anchor": 0.05, "budget_weak_total": 0.1}


def _knob(default, help: str):
    return dataclasses.field(default=default, metadata={"help": help})


def _budget(what: str, name: str):
    return _knob(None, f"{what} (default: ceil({_BUDGET_SHARES[name]} N))")


@dataclass(frozen=True)
class SaraConfig:
    k: int = _knob(10, "retrieval neighbors per image")
    b: int = _knob(50, "mutual-NN correspondences kept per pair")
    ransac_iterations: int = _knob(32, "robust search iterations")
    inlier_threshold_px: float = _knob(2.0, "Sampson inlier threshold, pixels")
    tau_o: float = _knob(0.01, "overlap rejection threshold")
    tau_p: float = _knob(1.0 * DEG, "parallax rejection threshold, radians")
    parallax_cap: float = _knob(30.0 * DEG, "parallax saturation, radians")
    budget_loop: int | None = _budget("loop budget", "budget_loop")
    budget_anchor: int | None = _budget("anchor budget", "budget_anchor")
    budget_weak_total: int | None = _budget("weak-edge global cap", "budget_weak_total")
    seed: int = _knob(0, "RNG seed, 0 to 2**64 - 1")

    # not fields: read only by perfbench/checks.py until ROADMAP item 1 drops the reads
    alpha = beta = 1.0
    use_loops = use_anchors = use_weak = True

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type not in _TYPES:
                raise TypeError(f"no type check for {f.name}: {f.type}")
            if isinstance(value, bool) or not isinstance(value, _TYPES[f.type]):
                raise ValueError(f"{f.name} must be {f.type}, not {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, not {value!r}")
            if isinstance(value, numbers.Integral) and not isinstance(value, int):
                object.__setattr__(self, f.name, int(value))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.b < MIN_MATCHES:
            raise ValueError(f"b must be >= {MIN_MATCHES} (eight-point minimum)")
        if self.ransac_iterations < 1:
            raise ValueError("ransac_iterations must be >= 1")
        if self.inlier_threshold_px <= 0:
            raise ValueError("inlier_threshold_px must be > 0")
        if self.tau_o < 0 or self.tau_p < 0:
            raise ValueError("thresholds must be >= 0")
        if self.parallax_cap <= 0:
            raise ValueError("parallax_cap must be > 0")
        for name in ("budget_loop", "budget_anchor", "budget_weak_total", "seed"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.seed >= 2**64:
            # the robust search keys its generator with 64 bits of the seed
            raise ValueError(f"seed must be < 2**64, not {self.seed}")

    def budget(self, name: str, n_images: int) -> int:
        """The named budget field, or its share of ``n_images`` rounded up if None."""
        share = _BUDGET_SHARES[name]
        value = getattr(self, name)
        return value if value is not None else math.ceil(share * n_images)

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
