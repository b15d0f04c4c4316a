"""Streaming trackers: optimal online solving and the memory-bounded variant.

Each incoming frame is appended to the graph and the flow problem is re-solved
with warm starts: the first shortest path reuses the previous frame's DAG
labels (only edges touching the new nodes are relaxed), and later iterations
reuse the dynamic broadcast whenever the cached per-iteration shortest paths
certify that the trajectory ordering is unchanged; otherwise labels are
recomputed from scratch for that iteration. The bounded variant additionally
clips frames older than the window, folding clipped trajectory prefixes into
synthesized entry-edge costs so track identities and costs survive clipping.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from .cost_model import CostModel, Detection
from .errors import DataError, InvariantBreach
from .graph import FlowSolution, TrackingGraph, Trajectory
from .ssp import (PredecessorMap, ResidualGraph, SolverStats, build_residual,
                  convert_edge_costs, dag_shortest_path, dijkstra_full,
                  dynamic_broadcast, path_original_cost, _solution_from_residual)


@dataclass(frozen=True)
class TrackerConfig:
    model: CostModel
    window: int | None = None          # frame budget; None = unbounded
    cache_size: int | None = None      # predecessor-map cache capacity
    gating: bool = True
    gate_radius_factor: float = 2.0
    clip_entry_mode: str = "prefix"
    force_cache_miss: bool = False     # test hook: exercise the fallback path

    def __post_init__(self):
        if self.window is not None and self.window < 1:
            raise DataError("window must be >= 1")
        if self.cache_size is not None and self.cache_size < 1:
            raise DataError("cache size must be >= 1")

    @property
    def effective_cache_size(self) -> int:
        if self.cache_size is not None:
            return self.cache_size
        return self.window if self.window is not None else 8


@dataclass
class CacheEntry:
    """Snapshot for one processed frame: bootstrap labels plus the per-iteration
    shortest-path node sets needed to validate reuse."""

    frame: int
    dag_labels: PredecessorMap | None
    paths: list[frozenset]


class PredecessorCache:
    """Ring buffer of per-frame snapshots, oldest evicted first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise DataError("cache capacity must be >= 1")
        self.capacity = capacity
        self.entries: deque[CacheEntry] = deque(maxlen=capacity)

    def __len__(self):
        return len(self.entries)

    def push(self, entry: CacheEntry):
        self.entries.append(entry)

    def most_recent(self) -> CacheEntry | None:
        return self.entries[-1] if self.entries else None

    def lookup(self, k: int, current_paths: list[frozenset]) -> CacheEntry | None:
        """Most recent entry whose first k stored paths equal the current ones
        restricted to frames the entry has seen."""
        for entry in reversed(self.entries):
            if len(entry.paths) < k:
                continue
            f = entry.frame
            if all(entry.paths[j] ==
                   frozenset(key for key in current_paths[j] if key[0] <= f)
                   for j in range(k)):
                return entry
        return None

    def clip(self, removed_frame: int):
        """Drop references to a clipped frame; bootstrap labels become stale."""
        for entry in self.entries:
            entry.dag_labels = None
            entry.paths = [frozenset(key for key in s if key[0] != removed_frame)
                           for s in entry.paths]


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
    cache_entries: int
    cache_hits: int
    cache_misses: int


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
    """Single-stream tracker state; callers serialize process_frame calls."""

    def __init__(self, config: TrackerConfig, bounded: bool = False):
        if bounded and config.window is None:
            raise DataError("bounded mode requires a window")
        self.config = config
        self.bounded = bounded
        self.graph = TrackingGraph(gating=config.gating,
                                   gate_radius_factor=config.gate_radius_factor)
        self.cache = PredecessorCache(config.effective_cache_size)
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
        if detections:
            frames = {d.frame for d in detections}
            if len(frames) > 1:
                raise DataError("detections span multiple frames")
            det_frame = frames.pop()
            if frame is not None and frame != det_frame:
                raise DataError("frame argument disagrees with detections")
            frame = det_frame
        if not g.is_empty:
            expected = g.t_max + 1
            if frame is None:
                frame = expected
            if frame != expected:
                raise DataError(
                    f"stream must be strictly in order: expected frame "
                    f"{expected}, got {frame}")
        elif frame is None:
            raise DataError("first frame of a stream needs an explicit index")

        window = self.config.window
        if self.bounded and not g.is_empty and g.n_frames >= window:
            self._clip_one_frame()
        g.append_frame(detections, self.config.model, frame=frame)
        self.max_dets_per_frame = max(self.max_dets_per_frame, len(detections))

        rel0, push0 = self.stats.relaxations, self.stats.queue_pushes
        hits0, miss0 = self.stats.cache_hits, self.stats.cache_misses
        solution, dag_labels, paths = self._solve(frame)

        origins = {}
        for i, traj in enumerate(solution.trajectories):
            eid = g.entry_edge_of(traj.detections[0])
            if g.e_origin[eid] is not None:
                origins[i] = g.e_origin[eid]
        assign_track_ids(self.solution, solution, self.registry, origins)
        self.solution = solution

        self.cache.push(CacheEntry(frame=frame, dag_labels=dag_labels,
                                   paths=paths))
        if self.bounded:
            self._check_bounds()
        self.frame_stats.append(FrameStats(
            frame=frame,
            relaxations=self.stats.relaxations - rel0,
            queue_pushes=self.stats.queue_pushes - push0,
            wall_time=time.perf_counter() - t_start,
            live_nodes=g.n_live_nodes,
            live_edges=g.n_live_edges,
            cache_entries=len(self.cache),
            cache_hits=self.stats.cache_hits - hits0,
            cache_misses=self.stats.cache_misses - miss0,
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
        g.clip_oldest_frame(self.solution, self.config.model,
                            entry_mode=self.config.clip_entry_mode)
        self.cache.clip(t_min)
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

    def _solve(self, frame: int):
        """Per-frame successive-shortest-path run with warm starts."""
        g = self.graph
        stats = self.stats
        if g.n_detections == 0:
            return FlowSolution(), None, []
        res = ResidualGraph(g)

        recent = self.cache.most_recent()
        reuse_dag = (not self.config.force_cache_miss
                     and recent is not None
                     and recent.frame == frame - 1
                     and recent.dag_labels is not None)
        if reuse_dag:
            stats.cache_hits += 1
            labels = recent.dag_labels.grown(res.n_nodes)
            path, labels = dag_shortest_path(res, from_frame=frame,
                                             labels=labels, stats=stats)
        else:
            if recent is not None:
                stats.cache_misses += 1
            path, labels = dag_shortest_path(res, stats=stats)
        dag_snapshot = labels.copy()

        accepted: list[frozenset] = []
        guard = g.n_detections
        while path is not None:
            if path_original_cost(res, path) >= 0.0:
                break
            if len(accepted) >= guard:
                raise InvariantBreach("online SSP exceeded its iteration bound")
            labels = convert_edge_costs(res, labels)
            build_residual(res, path)
            accepted.append(path.det_keys(g))
            stats.iterations += 1
            prev_nodes = path.nodes
            hit = (None if self.config.force_cache_miss
                   else self.cache.lookup(len(accepted), accepted))
            if hit is not None:
                stats.cache_hits += 1
                path, labels = dynamic_broadcast(res, prev_nodes, labels, stats)
            else:
                stats.cache_misses += 1
                path, labels = dijkstra_full(res, stats)
        return _solution_from_residual(res), dag_snapshot, accepted

    def _check_bounds(self):
        g = self.graph
        window = self.config.window
        if g.n_frames > window:
            raise InvariantBreach("graph exceeds the frame window")
        bound = 2 * window * max(self.max_dets_per_frame, 1) + 2
        if g.n_live_nodes > bound:
            raise InvariantBreach(
                f"live nodes {g.n_live_nodes} exceed the bound {bound}")
        if len(self.cache) > self.config.effective_cache_size:
            raise InvariantBreach("cache exceeds its capacity")

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


def process_frame_optimal(state: OnlineTracker,
                          detections: list[Detection],
                          frame: int | None = None) -> FlowSolution:
    """Optimal online step: the returned solution is globally optimal over all
    frames seen so far."""
    if state.bounded:
        raise DataError("state is configured for bounded mode")
    return state.process_frame(detections, frame=frame)


def process_frame_bounded(state: OnlineTracker,
                          detections: list[Detection],
                          frame: int | None = None) -> FlowSolution:
    """Memory-bounded step: optimal over the window given frozen prefixes."""
    if not state.bounded:
        raise DataError("state is configured for optimal mode")
    return state.process_frame(detections, frame=frame)
