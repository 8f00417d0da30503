"""End-to-end orchestration: manifest to pair list and graph report.

The two on-disk artifacts (pair list, graph report) are byte-deterministic
for a given dataset and config; wall-clock timings live only in the
RunReport returned to the caller.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

from .config import SaraConfig
from .errors import TooFewImages
from .features import load_features, load_manifest, write_graph_report, write_pair_list
from .retrieval import cosine_knn
from .scorer import score_all
from .viewgraph import build_view_graph

logger = logging.getLogger(__name__)

# ablation variants: the budgets each sets to 0, which turns their stages off
ABLATION_VARIANTS = {
    "full": (),
    "wo_msl": ("budget_loop",),
    "wo_lba": ("budget_anchor",),
    "wo_wvr": ("budget_weak_total",),
    "only_msl": ("budget_anchor", "budget_weak_total"),
    "only_lba": ("budget_loop", "budget_weak_total"),
    "only_wvr": ("budget_loop", "budget_anchor"),
    "base_only": ("budget_loop", "budget_anchor", "budget_weak_total"),
}


@dataclass
class RunReport:
    summary: dict      # ViewGraph.summary(), as the graph report's "summary"
    n_scored: int
    n_rejected: dict
    stage_seconds: dict
    config: dict
    out_pairs: str
    out_report: str

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def _prepare(manifest_path, config: SaraConfig, timings: dict):
    t0 = time.perf_counter()
    manifest = load_manifest(manifest_path)
    features = [load_features(manifest, image_id) for image_id in manifest.image_ids]
    timings["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    n = len(features)
    if n < 2:
        raise TooFewImages(f"need at least 2 images, got {n}")
    k = min(config.k, n - 1)
    if k != config.k:
        logger.info("clamping k from %d to %d for %d images", config.k, k, n)
    globals_ = [f.global_desc for f in features]
    candidates = cosine_knn(globals_, k)
    timings["retrieve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    scores = score_all(features, candidates, config)
    timings["score"] = time.perf_counter() - t0
    return manifest, scores


def _warn_disconnected(components: list) -> None:
    """Warn once of a forest: its tree count, then at most 8 trees of at most 8 nodes."""
    if len(components) > 1:
        more = len(components) - 8
        logger.warning(
            "candidate graph is disconnected: %d components %s%s",
            len(components),
            [c[:8] + ["..."] if len(c) > 8 else c for c in components[:8]],
            f" ... (+{more} more)" if more > 0 else "")


def _finish(manifest, scores, config: SaraConfig, out_pairs, out_report,
            timings: dict, warn: bool = True) -> RunReport:
    t0 = time.perf_counter()
    graph = build_view_graph(scores, len(manifest), config)
    timings["graph"] = time.perf_counter() - t0
    if warn:
        _warn_disconnected(graph.components)

    t0 = time.perf_counter()
    ids = manifest.image_ids
    write_pair_list([(ids[i], ids[j]) for (i, j), _ in graph.selected_edges], out_pairs)
    write_graph_report(graph, scores, ids, out_report)
    timings["write"] = time.perf_counter() - t0

    rejected: dict[str, int] = {}
    for score in scores.values():
        if score.rejected is not None:
            key = score.rejected.value
            rejected[key] = rejected.get(key, 0) + 1
    return RunReport(
        summary=graph.summary(),
        n_scored=len(scores),
        n_rejected=rejected,
        stage_seconds=dict(timings),
        config=config.to_dict(),
        out_pairs=str(out_pairs),
        out_report=str(out_report))


def run_select(manifest_path, config: SaraConfig, out_pairs, out_report,
               threads: int = 1) -> RunReport:
    """Full selection pass: load, retrieve, score, build graph, write outputs.

    ``threads`` accepts only 1 and raises ValueError otherwise; it goes
    once the benchmark stops passing ``threads=1`` (ROADMAP item 1).
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, not {threads}")
    timings: dict[str, float] = {}
    manifest, scores = _prepare(manifest_path, config, timings)
    return _finish(manifest, scores, config, out_pairs, out_report, timings)


def run_ablation(manifest_path, config: SaraConfig, out_dir) -> dict[str, RunReport]:
    """All eight augmentation on/off variants over one shared scoring pass.

    Writes ``<name>.pairs.txt`` and ``<name>.report.json`` per variant
    into ``out_dir`` and returns the reports keyed by variant name. A
    variant turns stages off by setting their budgets to 0 and keeps
    ``config``'s other budgets, so each variant's files equal a
    ``run_select`` run with those budgets at 0. The variants share one
    spanning forest, so a disconnected candidate graph is logged once per
    call.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    manifest, scores = _prepare(manifest_path, config, timings)
    reports = {}
    for name, off in ABLATION_VARIANTS.items():
        variant = dataclasses.replace(config, **dict.fromkeys(off, 0))
        reports[name] = _finish(
            manifest, scores, variant,
            out_dir / f"{name}.pairs.txt", out_dir / f"{name}.report.json",
            dict(timings), warn=not reports)
    return reports
