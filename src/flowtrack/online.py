"""Streaming trackers: optimal online solving and the memory-bounded variant.

Each incoming frame is appended to the graph and the flow problem is re-solved
by the batch dynamic SSP loop (O-DSSP). The loop's DAG bootstrap is
warm-started from the previous frame's DAG labels, so only edges touching the
new frame are relaxed; every later iteration is a dynamic broadcast, which is
exact because the converted labels meet its precondition. A tracker with a
window is memory-bounded: it also clips frames older than the window, folding
clipped trajectory prefixes into synthesized entry-edge costs so track
identities and costs survive clipping.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .cost_model import CostModel, Detection
from .errors import DataError, InvariantBreach
from .graph import FlowSolution, TrackingGraph, Trajectory
from .ssp import PredecessorMap, SolverStats, _ssp_loop
# Unused; perfbench's tracer test checks that this imported copy gets wrapped.
from .ssp import dijkstra_full  # noqa: F401


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
    """The last frame's DAG bootstrap labels: the next frame's warm start."""

    def __init__(self):
        self.frame: int | None = None
        self.labels: PredecessorMap | None = None

    def lookup(self, frame: int) -> PredecessorMap | None:
        """The stored labels if they are for frame - 1, else None."""
        return self.labels if self.frame == frame - 1 else None

    def clip(self):
        """Drop the labels: a clip changes entry costs, so they go stale."""
        self.labels = None


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
        self.cache = PredecessorCache()
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
        # Validate before clipping, so a rejected frame leaves no trace.
        frame = g.frame_index(detections, frame)
        window = self.config.window
        if window is not None and g.n_frames >= window:
            self._clip_one_frame()
        g.append_frame(detections, self.config.model, frame=frame)
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
        g.clip_oldest_frame(self.solution)
        self.cache.clip()
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
        """Batch dSSP over the graph, warm-started from the previous frame's
        DAG labels when the cache holds them; counters fold into self.stats."""
        labels = self.cache.lookup(frame)
        warm = None if labels is None else (labels, frame)
        solution, run, dag_labels = _ssp_loop(self.graph, "dynamic", warm=warm)
        self.cache.frame, self.cache.labels = frame, dag_labels
        stats = self.stats
        if labels is None:
            stats.cache_misses += 1
        else:
            stats.cache_hits += 1
        stats.relaxations += run.relaxations
        stats.queue_pushes += run.queue_pushes
        stats.iterations += run.iterations
        return solution, run

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

