"""Benchmark harness: run each solver over a detection set and emit CSV rows.

Each row is one solve's record (ssp.SolverStats), written as it is:
``solver,tau,frame,wall_time,relaxations,queue_pushes,live_nodes,
live_edges,iterations,searches``. Streaming solvers emit one row per frame
that occurs in the input, the frame's own record; batch solvers emit a
single summary row with frame = -1, on whose record the harness stamps the
solve's wall time and the graph's live sizes. iterations counts
augmentations, the paths and cycles pushed, and searches the searches that
found them: a batch solve's DAG sweep and then full searches (ssp, one path
each) or broadcasts (dssp), or one online frame's full searches; dssp's and
the online ones can each push several paths.
"""
from __future__ import annotations

import time
from collections import namedtuple

from .cost_model import CostModel, Detection
from .errors import DataError
from .graph import build_batch_graph
from .online import OnlineTracker, TrackerConfig
from .ssp import solve_dp_greedy, solve_dssp, solve_ssp

HEADER = ("solver,tau,frame,wall_time,relaxations,queue_pushes,"
          "live_nodes,live_edges,iterations,searches")

BATCH_SOLVERS = ("ssp", "dssp", "dp")


#: One CSV row: a solver's name, its window (None for none) and the record
#: of one solve, a batch solve or one online frame.
BenchRow = namedtuple("BenchRow", "solver tau stats")


def _bench_batch(name: str, detections, model: CostModel, gating, factor):
    graph = build_batch_graph(detections, model, gating=gating,
                              gate_radius_factor=factor)
    # Read at call time, so that a wrapper set on a module attribute runs.
    solve = {"ssp": solve_ssp, "dssp": solve_dssp, "dp": solve_dp_greedy}[name]
    t0 = time.perf_counter()
    _, stats = solve(graph)
    stats.wall_time = time.perf_counter() - t0
    stats.live_nodes, stats.live_edges = graph.n_live_nodes, graph.n_live_edges
    return [BenchRow(name, None, stats)]


def _bench_online(name: str, detections, model: CostModel, gating, factor,
                  tau: int | None):
    tracker = OnlineTracker(TrackerConfig(model=model, window=tau,
                                          gating=gating,
                                          gate_radius_factor=factor))
    for f in sorted(detections):
        tracker.process_frame(detections[f], frame=f)
    return [BenchRow(name, tau, fs) for fs in tracker.frame_stats]


def run_bench(detections: dict[int, list[Detection]], model: CostModel,
              solvers=("ssp", "dssp", "dp", "odssp", "mbodssp"),
              taus=(10,), gating: bool = True,
              gate_radius_factor: float = 2.0) -> list[BenchRow]:
    """Run the requested solvers; mbodssp is swept over every tau."""
    rows: list[BenchRow] = []
    for name in solvers:
        if name in BATCH_SOLVERS:
            rows.extend(_bench_batch(name, detections, model, gating,
                                     gate_radius_factor))
        elif name == "odssp":
            rows.extend(_bench_online(name, detections, model, gating,
                                      gate_radius_factor, None))
        elif name == "mbodssp":
            for tau in taus:
                rows.extend(_bench_online(name, detections, model, gating,
                                          gate_radius_factor, tau))
        else:
            raise DataError(f"unknown solver {name!r}")
    return rows


def write_bench(dest, rows: list[BenchRow]):
    dest.write(HEADER + "\n")
    for solver, tau, s in rows:
        tau = "" if tau is None else tau
        dest.write(f"{solver},{tau},{s.frame},{s.wall_time:.6f},"
                   f"{s.relaxations},{s.queue_pushes},{s.live_nodes},"
                   f"{s.live_edges},{s.iterations},{s.searches}\n")
