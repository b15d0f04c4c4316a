"""Span recording around flowtrack's layer boundaries, for the traced run.

The wrappers live here, outside the package: ``install`` replaces each listed
function or method with a wrapper that opens a span, calls the original and
closes the span, passing the return value or exception through unchanged.
Modules that imported a function by name (``from .ssp import dijkstra_full``)
hold their own reference, so every module attribute bound to the original
object is replaced, not only the defining one.

Spans are kept in flat in-memory arrays (name code, start, end, parent index)
and written out once at the end; self time and counts are derived from them.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array

#: (owner, attribute, span name). An owner is a module path, or a module path
#: and class name joined by ':'.
LAYER_HOOKS = (
    ("flowtrack.cli", "main", "cli.main"),
    ("flowtrack.io", "parse_detections", "io.parse"),
    ("flowtrack.io", "parse_stream_frame", "io.parse"),
    ("flowtrack.io", "write_tracks", "io.write"),
    ("flowtrack.cost_model:CostModel", "link_cost_of", "cost_model.link"),
    ("flowtrack.graph", "build_batch_graph", "graph.build"),
    ("flowtrack.graph:TrackingGraph", "append_frame", "graph.append"),
    ("flowtrack.graph:TrackingGraph", "clip_oldest_frame", "graph.clip"),
    ("flowtrack.ssp", "solve_ssp", "ssp.solve"),
    ("flowtrack.ssp", "solve_dssp", "ssp.solve"),
    ("flowtrack.ssp", "solve_dp_greedy", "ssp.solve"),
    ("flowtrack.ssp", "dijkstra_full", "ssp.dijkstra"),
    ("flowtrack.ssp", "dynamic_broadcast", "ssp.broadcast"),
    ("flowtrack.ssp", "dag_shortest_path", "ssp.dag"),
    ("flowtrack.ssp:ResidualGraph", "__init__", "ssp.residual_init"),
    ("flowtrack.ssp", "convert_edge_costs", "ssp.convert"),
    ("flowtrack.ssp", "build_residual", "ssp.flip"),
    # Decoding plus the edge-flow map; online.py imports it by this name.
    ("flowtrack.ssp", "_solution_from_residual", "ssp.decode"),
    ("flowtrack.online:OnlineTracker", "process_frame", "online.process_frame"),
    ("flowtrack.online", "assign_track_ids", "online.assign_ids"),
    ("flowtrack.online:PredecessorCache", "lookup", "online.cache_lookup"),
    ("flowtrack.online:OnlineTracker", "final_tracks", "online.final_tracks"),
)


class SpanRecorder:
    """Flat span store. Index -1 is the implicit root (no parent)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.failed = array("i")      # indices of spans whose call raised
        self._stack = [-1]
        self.results: dict[str, list] = {}  # span name -> return values kept

    def open(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        idx = len(self.code)
        self.code.append(code)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        """End span idx and any span still open inside it (a frame span is
        left open when the CLI raises before flushing the frame's rows)."""
        now = self.clock()
        if idx not in self._stack:
            raise RuntimeError(f"span {idx} is not open")
        while True:
            top = self._stack.pop()
            self.end[top] = now
            if top == idx:
                return

    def wrap(self, fn, name: str, keep_result: bool = False):
        """Wrapper that records one span per call of fn."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed.append(idx)
                raise
            finally:
                self.close(idx)
            if keep_result:
                self.results.setdefault(name, []).append(result)
            return result

        return traced

    def dump(self, path):
        """Write the spans as a JSON header line followed by raw arrays."""
        header = {"names": self.names, "n": len(self.code),
                  "n_failed": len(self.failed)}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.code, self.parent, self.failed, self.start, self.end):
                arr.tofile(f)


def load_spans(path) -> dict:
    """Inverse of SpanRecorder.dump."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n, k = header["n"], header["n_failed"]
        out = {"names": header["names"]}
        for key, kind, count in (("code", "i", n), ("parent", "i", n),
                                 ("failed", "i", k), ("start", "d", n),
                                 ("end", "d", n)):
            arr = array(kind)
            arr.fromfile(f, count)
            out[key] = arr
    return out


def _owner(spec: str):
    mod_name, _, cls_name = spec.partition(":")
    mod = sys.modules[mod_name]
    return getattr(mod, cls_name) if cls_name else mod


#: Spans whose return values are kept: the batch solvers' SolverStats and
#: the built graph, read for counters after the run.
KEEP_RESULTS = ("ssp.solve", "graph.build")


def install(recorder: SpanRecorder):
    """Wrap every LAYER_HOOKS entry in place; returns a function that undoes it.

    The flowtrack modules named there must already be imported.
    """
    undo = []
    package = [m for name, m in sys.modules.items()
               if name == "flowtrack" or name.startswith("flowtrack.")]
    for owner_spec, attr, name in LAYER_HOOKS:
        owner = _owner(owner_spec)
        original = owner.__dict__[attr]
        wrapper = recorder.wrap(original, name, keep_result=name in KEEP_RESULTS)
        for target in ([owner] if ":" in owner_spec else package):
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    undo.append((target, key, original))

    def restore():
        for target, key, value in reversed(undo):
            setattr(target, key, value)

    return restore


def summarize(spans: dict) -> dict:
    """Per span name: call count, inclusive seconds, self seconds, failures.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap (single thread).
    """
    names = spans["names"]
    code, parent = spans["code"], spans["parent"]
    start, end = spans["start"], spans["end"]
    n = len(code)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0}
           for name in names}
    for i in range(n):
        rec = out[names[code[i]]]
        rec["calls"] += 1
        rec["total_s"] += dur[i]
        rec["self_s"] += dur[i] - child[i]
    for i in spans["failed"]:
        out[names[code[i]]]["failed"] += 1
    return out
