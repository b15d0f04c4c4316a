"""Benchmark harness: run each solver over a detection set and emit CSV rows.

Row format: ``solver,tau,frame,wall_time,relaxations,queue_pushes,live_nodes,
live_edges``. Streaming solvers emit one row per frame; batch
solvers emit a single summary row with frame = -1.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .cost_model import CostModel, Detection
from .errors import DataError
from .graph import build_batch_graph
from .online import OnlineTracker, TrackerConfig
from .ssp import solve_dp_greedy, solve_dssp, solve_ssp

HEADER = ("solver,tau,frame,wall_time,relaxations,queue_pushes,"
          "live_nodes,live_edges")

BATCH_SOLVERS = {"ssp": solve_ssp, "dssp": solve_dssp, "dp": solve_dp_greedy}


@dataclass
class BenchRow:
    solver: str
    tau: int | None
    frame: int
    wall_time: float
    relaxations: int
    queue_pushes: int
    live_nodes: int
    live_edges: int

    def format(self) -> str:
        tau = "" if self.tau is None else str(self.tau)
        return (f"{self.solver},{tau},{self.frame},{self.wall_time:.6f},"
                f"{self.relaxations},{self.queue_pushes},{self.live_nodes},"
                f"{self.live_edges}")


def _bench_batch(name: str, detections, model: CostModel, gating, factor):
    graph = build_batch_graph(detections, model, gating=gating,
                              gate_radius_factor=factor)
    t0 = time.perf_counter()
    _, stats = BATCH_SOLVERS[name](graph)
    dt = time.perf_counter() - t0
    return [BenchRow(name, None, -1, dt, stats.relaxations, stats.queue_pushes,
                     graph.n_live_nodes, graph.n_live_edges)]


def _bench_online(name: str, detections, model: CostModel, gating, factor,
                  tau: int | None):
    tracker = OnlineTracker(TrackerConfig(model=model, window=tau,
                                          gating=gating,
                                          gate_radius_factor=factor))
    for f in sorted(detections):
        tracker.process_frame(detections[f], frame=f)
    return [BenchRow(name, tau, fs.frame, fs.wall_time,
                     fs.relaxations, fs.queue_pushes, fs.live_nodes,
                     fs.live_edges)
            for fs in tracker.frame_stats]


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
    for row in rows:
        dest.write(row.format() + "\n")
