"""In-memory spans around the program's public functions.

The tracer replaces a function at the module attribute its callers look
it up through, so the program itself is unchanged. Each call becomes one
span: name, start, end and the index of the enclosing span. Spans stay
in memory until ``write`` is called; self time is a span's duration
minus the durations of its direct children.

With ``memory=True`` every span also records the peak traced allocation
above the level at its start (``tracemalloc``). That pass is slow, so
the benchmark runs it apart from the timed spans.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from pathlib import Path

# (module, attribute, span name) for every layer boundary the benchmark times
TARGETS = (
    ("sara.pipeline", "run_select", "pipeline.run_select"),
    ("sara.pipeline", "load_manifest", "features.load_manifest"),
    ("sara.pipeline", "load_features", "features.load_features"),
    ("sara.pipeline", "cosine_knn", "retrieval.cosine_knn"),
    ("sara.pipeline", "score_all", "scorer.score_all"),
    ("sara.pipeline", "build_view_graph", "viewgraph.build_view_graph"),
    ("sara.pipeline", "write_pair_list", "features.write_pair_list"),
    ("sara.pipeline", "write_graph_report", "features.write_graph_report"),
    ("sara.scorer", "mutual_nn_matches", "scorer.mutual_nn_matches"),
    ("sara.scorer", "short_ransac", "epipolar.short_ransac"),
    ("sara.epipolar", "recover_pose", "epipolar.recover_pose"),
    ("sara.epipolar", "triangulate_angles", "epipolar.triangulate_angles"),
    ("sara.viewgraph", "max_spanning_tree", "viewgraph.max_spanning_tree"),
    ("sara.viewgraph", "add_loops", "viewgraph.add_loops"),
    ("sara.viewgraph", "add_anchors", "viewgraph.add_anchors"),
    ("sara.viewgraph", "add_weak_view_support", "viewgraph.add_weak_view_support"),
)


class Tracer:
    """Spans in call order; each is [name, start, end, parent, ok, peak_bytes]."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.missing: list[str] = []    # span names whose function no longer exists
        self.observers: dict = {}       # span name -> fn(args, kwargs, result)
        self._stack: list[int] = []
        self._mem: dict[int, list[int]] = {}   # open span -> [base, peak] bytes
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if self.memory:
            # fold the peak so far into every open span before resetting it
            peak = tracemalloc.get_traced_memory()[1]
            for open_index in self._stack:
                self._mem[open_index][1] = max(self._mem[open_index][1], peak)
            tracemalloc.reset_peak()
            current = tracemalloc.get_traced_memory()[0]
        self.spans.append([name, time.perf_counter(), 0.0, parent, False, 0])
        index = len(self.spans) - 1
        if self.memory:
            self._mem[index] = [current, current]
        self._stack.append(index)
        return index

    def _close(self, index: int, ok: bool) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = ok
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            for open_index in self._stack:
                self._mem[open_index][1] = max(self._mem[open_index][1], peak)
            base, top = self._mem.pop(index)
            span[5] = top - base
        self._stack.pop()

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            setattr(module, attr, self._wrap(fn, name))
            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._close(index, ok)
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        if self.memory:
            tracemalloc.start()
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        if self.memory:
            tracemalloc.stop()
        return False

    # aggregation

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def totals(self) -> dict:
        """Per span name: calls, calls that returned, total and self seconds, peak bytes."""
        agg: dict[str, dict] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            a = agg.setdefault(span[0], {"calls": 0, "ok": 0, "total_s": 0.0,
                                         "self_s": 0.0, "peak_bytes": 0})
            a["calls"] += 1
            a["ok"] += int(span[4])
            a["total_s"] += span[2] - span[1]
            a["self_s"] += self_s
            a["peak_bytes"] = max(a["peak_bytes"], span[5])
        return agg

    def write(self, path: Path) -> None:
        """Spans as JSON lines (times relative to the first span), then totals."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (span, self_s) in enumerate(zip(self.spans, self.self_times())):
                fh.write(json.dumps({
                    "id": index, "name": span[0], "parent": span[3],
                    "start_s": span[1] - t0, "end_s": span[2] - t0,
                    "self_s": self_s, "ok": span[4], "peak_bytes": span[5]}) + "\n")
            fh.write(json.dumps({"totals": self.totals(), "missing": self.missing}) + "\n")
