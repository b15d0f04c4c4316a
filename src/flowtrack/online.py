"""Streaming trackers: optimal online solving and the memory-bounded variant.

Each incoming frame is appended to the graph and the flow problem is re-solved
from the previous frame's optimum: the tracker keeps one residual graph
(ssp.OnlineResidual) with its flow and node potentials, gives the new frame's
nodes potentials in one relaxation pass, and runs successive shortest paths
with the compiled Dijkstra (ssp.dijkstra_full) from the source and the sink's
reversed exits, so tracks that continue into the frame are extended by
cycles through the sink instead of being replayed from zero flow. A tracker
with a window is memory-bounded: it also clips frames older than the window,
folding clipped trajectory prefixes into synthesized entry-edge costs, which
take over their flow, so track identities and costs survive clipping.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .cost_model import CostModel, Detection
from .errors import DataError, InvariantBreach
from .graph import FlowSolution, TrackingGraph, Trajectory
from .ssp import (OnlineResidual, SolverStats, _solution_from_residual,
                  build_residual, dijkstra_full, path_original_cost)


@dataclass(frozen=True)
class TrackerConfig:
    model: CostModel
    window: int | None = None          # frame budget; None = unbounded
    gating: bool = True
    gate_radius_factor: float = 2.0

    def __post_init__(self):
        # A window of one frame would have to clip the only frame it holds.
        if self.window is not None and self.window < 2:
            raise DataError(f"window must be >= 2, got {self.window}")


class PredecessorCache:
    """The previous frame's optimum, which the next frame's solve starts
    from: the tracker's residual graph, whose flow and node potentials carry
    over from frame to frame, and the frame it was last solved for."""

    def __init__(self, graph: TrackingGraph):
        self.residual = OnlineResidual(graph)
        self.frame: int | None = None

    def lookup(self) -> OnlineResidual | None:
        """The residual if it holds an earlier frame's optimum, else None:
        the graph was empty, so the solve starts from zero flow."""
        return None if self.frame is None else self.residual

    def clip(self, solution: FlowSolution):
        """Clip the oldest frame, keeping the optimum's flow on what stays;
        an emptied graph holds none."""
        self.residual.clip_oldest_frame(solution)
        if self.residual.graph.is_empty:
            self.frame = None


@dataclass
class TrackRegistry:
    """Monotone track-id source; ids are never reused within a run."""

    next_id: int = 0

    def fresh(self) -> int:
        tid = self.next_id
        self.next_id += 1
        return tid


@dataclass
class FrameStats:
    frame: int
    relaxations: int
    queue_pushes: int
    wall_time: float
    live_nodes: int
    live_edges: int
    iterations: int  # augmentations: paths and cycles pushed this frame


def assign_track_ids(previous: FlowSolution, current: FlowSolution,
                     registry: TrackRegistry,
                     origins: dict[int, int] | None = None) -> dict[int, int]:
    """Assign stable ids to current trajectories (applied in place).

    Priority: synthesized-entry origin id, then the previous trajectory
    sharing the most detections (ties to the lower id), then a fresh id.
    Returns {trajectory index -> id}; inherited ids are injective.
    """
    origins = origins or {}
    prev_by_key: dict[tuple, int] = {}
    for t in previous.trajectories:
        for d in t.detections:
            prev_by_key[d.key] = t.track_id
    mapping: dict[int, int] = {}
    taken: set[int] = set()
    order = sorted(range(len(current.trajectories)),
                   key=lambda i: current.trajectories[i].detections[0].key)
    for i in order:
        traj = current.trajectories[i]
        tid = None
        origin = origins.get(i)
        if origin is not None and origin not in taken:
            tid = origin
        if tid is None:
            counts: dict[int, int] = {}
            for d in traj.detections:
                p = prev_by_key.get(d.key)
                if p is not None:
                    counts[p] = counts.get(p, 0) + 1
            for cand, _ in sorted(counts.items(),
                                  key=lambda kv: (-kv[1], kv[0])):
                if cand not in taken:
                    tid = cand
                    break
        if tid is None:
            tid = registry.fresh()
        taken.add(tid)
        mapping[i] = tid
        traj.track_id = tid
    return mapping


def trajectory_model_cost(dets: list[Detection], model: CostModel) -> float:
    """Full path cost of a detection sequence under the cost model."""
    cost = model.entry_cost_of(dets[0])
    cost += model.detection_cost_of(dets[0])
    for a, b in zip(dets, dets[1:]):
        cost += model.link_cost_of(a, b)
        cost += model.detection_cost_of(b)
    cost += model.exit_cost_of(dets[-1])
    return cost


class OnlineTracker:
    """Single-stream tracker state; callers serialize process_frame calls.

    With config.window set the tracker is memory-bounded (mbodssp); without
    it, it is the exact online tracker (odssp)."""

    def __init__(self, config: TrackerConfig):
        self.config = config
        self.graph = TrackingGraph(gating=config.gating,
                                   gate_radius_factor=config.gate_radius_factor)
        self.cache = PredecessorCache(self.graph)
        self.solution = FlowSolution()
        self.registry = TrackRegistry()
        self.frozen: dict[int, list[Detection]] = {}
        # Set to a list to have each (track id, detection) appended as it is
        # frozen; the owner consumes and trims it.
        self.freeze_log: list[tuple[int, Detection]] | None = None
        self.stats = SolverStats()
        self.frame_stats: list[FrameStats] = []
        self.max_dets_per_frame = 0

    # -- frame processing -----------------------------------------------------

    def process_frame(self, detections: list[Detection],
                      frame: int | None = None) -> FlowSolution:
        t_start = time.perf_counter()
        g = self.graph
        # Check the frame and its costs before clipping, so a rejected frame
        # leaves no trace; the clip keeps frame - 1, which the links join.
        prepared = g.prepare_frame(detections, self.config.model, frame)
        self.cache.residual.check_frame(prepared)
        frame = prepared.frame
        window = self.config.window
        # The window counts frame indices, so after a gap several frames go.
        while window is not None and not g.is_empty and frame - g.t_min >= window:
            self._clip_one_frame()
        self.cache.residual.append_frame(detections, self.config.model, prepared)
        self.max_dets_per_frame = max(self.max_dets_per_frame, len(detections))

        solution, run = self._solve(frame)

        origins = {}
        for i, traj in enumerate(solution.trajectories):
            eid = g.entry_edge_of(traj.detections[0])
            if g.e_origin[eid] is not None:
                origins[i] = g.e_origin[eid]
        assign_track_ids(self.solution, solution, self.registry, origins)
        self.solution = solution

        if window is not None:
            self._check_bounds()
        self.frame_stats.append(FrameStats(
            frame=frame,
            relaxations=run.relaxations,
            queue_pushes=run.queue_pushes,
            wall_time=time.perf_counter() - t_start,
            live_nodes=g.n_live_nodes,
            live_edges=g.n_live_edges,
            iterations=run.iterations,
        ))
        return solution

    def _clip_one_frame(self):
        g = self.graph
        t_min = g.t_min
        for traj in self.solution.trajectories:
            if traj.detections[0].frame == t_min:
                self.frozen.setdefault(traj.track_id, []).append(
                    traj.detections[0])
                if self.freeze_log is not None:
                    self.freeze_log.append((traj.track_id, traj.detections[0]))
        self.cache.clip(self.solution)
        # Drop clipped detections from the retained solution so the next clip
        # sees trajectories consistent with the graph.
        kept = []
        for traj in self.solution.trajectories:
            dets = [d for d in traj.detections if d.frame > t_min]
            if dets:
                kept.append(Trajectory(traj.track_id, dets, traj.cost))
        self.solution = FlowSolution(trajectories=kept,
                                     total_cost=self.solution.total_cost,
                                     edge_flow={})

    def _solve(self, frame: int) -> tuple[FlowSolution, SolverStats]:
        """Successive shortest paths from the previous frame's optimum.

        Each compiled search runs from the source and the sink's reversed
        exits; the potentials take its distances, and a path or cycle of
        negative original cost is pushed. It stops at the first one costing
        >= 0, the rule of the batch loop, which here certifies the global
        optimum. After an empty graph the flow is zero and the potentials are
        DAG distances: a cold start through the same loop. Counters fold
        into self.stats.
        """
        res, run, stats = self.cache.residual, SolverStats(), self.stats
        if self.cache.lookup() is None:
            stats.cache_misses += 1
        else:
            stats.cache_hits += 1
        # A safety bound far above the paths and cycles one frame needs.
        guard = 2 * self.graph.n_detections + 2
        while self.graph.n_detections:
            res.reprice()
            path, labels = dijkstra_full(res, run)
            if path is None:
                break
            res.settle(labels.dist)
            if path_original_cost(res, path) >= 0.0:
                break
            if run.iterations >= guard:
                raise InvariantBreach("online SSP exceeded its iteration bound")
            build_residual(res, path)
            run.iterations += 1
        self.cache.frame = frame
        stats.relaxations += run.relaxations
        stats.queue_pushes += run.queue_pushes
        stats.iterations += run.iterations
        return _solution_from_residual(res), run

    def _check_bounds(self):
        g = self.graph
        window = self.config.window
        if g.n_frames > window:
            raise InvariantBreach("graph exceeds the frame window")
        bound = 2 * window * max(self.max_dets_per_frame, 1) + 2
        if g.n_live_nodes > bound:
            raise InvariantBreach(
                f"live nodes {g.n_live_nodes} exceed the bound {bound}")

    # -- output ----------------------------------------------------------------

    def final_tracks(self) -> list[Trajectory]:
        """Frozen history merged with the current solution, costs recomputed
        from the cost model over each full detection sequence."""
        model = self.config.model
        out = []
        current_ids = set()
        for traj in self.solution.trajectories:
            tid = traj.track_id
            current_ids.add(tid)
            prefix = self.frozen.get(tid, [])
            if prefix and prefix[-1].frame + 1 == traj.detections[0].frame:
                dets = prefix + traj.detections
                out.append(Trajectory(tid, dets, trajectory_model_cost(dets, model)))
            else:
                if prefix:
                    out.append(Trajectory(tid, list(prefix),
                                          trajectory_model_cost(prefix, model)))
                dets = list(traj.detections)
                out.append(Trajectory(tid, dets, trajectory_model_cost(dets, model)))
        for tid, prefix in self.frozen.items():
            if tid not in current_ids:
                out.append(Trajectory(tid, list(prefix),
                                      trajectory_model_cost(prefix, model)))
        out.sort(key=lambda t: (t.detections[0].frame, t.track_id))
        return out

    def total_output_cost(self) -> float:
        return sum(t.cost for t in self.final_tracks())

