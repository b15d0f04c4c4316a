"""Streaming trackers: optimal online solving and the memory-bounded variant.

Each incoming frame is appended to the graph and the flow problem is re-solved
from the previous frame's optimum: the tracker keeps the split-sink residual
graph every solver runs on (ssp.ResidualGraph) with its flow and node
potentials, from which each search derives the reduced costs it reads, gives
the new frame's nodes potentials in one relaxation pass, and runs the exact
solvers' loop (ssp.successive_shortest_paths) with full searches from the
source and the sink's reversed exits, so tracks that continue into the frame
are extended by cycles through the sink. One search usually settles a frame,
as every path and cycle that is still a shortest path is pushed from it. A
tracker with a window is memory-bounded: it also clips frames older than the
window, folding clipped trajectory prefixes into synthesized entry-edge costs,
which take over their flow, so track identities and costs survive clipping.
What the window bounds is the graph, the residual and the decode, and so the
per-frame work; the per-frame records (frame_stats) and the frozen rows kept
for final_tracks() still grow with the stream.

The decoded solution and its ids are kept from frame to frame, in place: a
frame cuts and extends only the trajectories through the detections that its
pushes changed, each from the first such detection on (ssp.FlowDecoder), and
keeps the rows that are new or got a new id until a streaming caller writes
them (OnlineTracker.pending_rows). So the per-frame decode and output work
follow the rows the frame changed, not the history. The per-frame id pass
(OnlineTracker._assign_ids) applies the id rule of assign_track_ids
(_pick_id) to each current trajectory once, at O(1) for one the frame did
not walk. So the solution process_frame returns is the tracker's live
state, which the next call changes, while final_tracks() returns lists of
the caller's own.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .cost_model import CostModel, Detection
from .errors import DataError, InvariantBreach
from .graph import FlowSolution, TrackingGraph, Trajectory
from .ssp import (ResidualGraph, SolverStats, _solution_from_residual,
                  dijkstra_full, successive_shortest_paths)


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
        self.residual = ResidualGraph(graph)
        self.frame: int | None = None

    def lookup(self) -> ResidualGraph | None:
        """The residual if it holds an earlier frame's optimum, else None:
        the graph was empty, so the solve starts from zero flow."""
        return None if self.frame is None else self.residual


@dataclass
class TrackRegistry:
    """Monotone track-id source; ids are never reused within a run."""

    next_id: int = 0

    def fresh(self) -> int:
        tid = self.next_id
        self.next_id += 1
        return tid


def _pick_id(origin: int, counts: dict[int, int], taken: set[int],
             registry: TrackRegistry) -> int:
    """The id rule for one trajectory, given the ids taken before it: its
    origin, the id its synthesized entry carries (negative for none), else
    the previous id it shares the most detections with, by counts (ties to
    the lower id), else a fresh id. The id is taken."""
    tid = origin
    if tid < 0 or tid in taken:
        tid = min((p for p in counts if p not in taken),
                  key=lambda p: (-counts[p], p), default=None)
        if tid is None:
            tid = registry.fresh()
    taken.add(tid)
    return tid


def assign_track_ids(previous: FlowSolution, current: FlowSolution,
                     registry: TrackRegistry,
                     origins: dict[int, int] | None = None) -> dict[int, int]:
    """Assign stable ids to current trajectories (applied in place).

    Priority: synthesized-entry origin id, then the previous trajectory
    sharing the most detections (ties to the lower id), then a fresh id,
    over the trajectories in the order of their first detections' keys.
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
        counts: dict[int, int] = {}
        for d in traj.detections:
            p = prev_by_key.get(d.key)
            if p is not None:
                counts[p] = counts.get(p, 0) + 1
        traj.track_id = mapping[i] = _pick_id(origins.get(i, -1), counts,
                                              taken, registry)
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

    With config.window set the tracker is memory-bounded (mbodssp): its
    graph, residual and decode stay within the window, while frame_stats
    and frozen keep a record per frame and every frozen row; without it, it
    is the exact online tracker (odssp)."""

    def __init__(self, config: TrackerConfig):
        self.config = config
        self.graph = TrackingGraph(gating=config.gating,
                                   gate_radius_factor=config.gate_radius_factor)
        self.cache = PredecessorCache(self.graph)
        self.solution = FlowSolution()
        self.registry = TrackRegistry()
        self.frozen: dict[int, list[Detection]] = {}
        # Set to a dict to have kept in it, by id(detection), each current
        # (track id, detection) row that is new or got a new id and has not
        # been written yet; a detection that a push took out of the current
        # solution leaves it. The owner writes and deletes the rows. A row
        # that a clip freezes keeps the id it was last entered with.
        self.pending_rows: dict[int, tuple[int, Detection]] | None = None
        self.stats = SolverStats()  # totals over the frames
        self.frame_stats: list[SolverStats] = []
        self.max_dets_per_frame = 0

    # -- frame processing -----------------------------------------------------

    def process_frame(self, detections: list[Detection],
                      frame: int | None = None) -> FlowSolution:
        """Append the frame (its index, or the next one), clip what leaves
        the window and solve. Returns the solution, which is also
        self.solution: the tracker's live trajectories, which the next call
        changes in place. A caller who keeps tracks across calls copies
        them, or reads final_tracks()."""
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
        self._assign_ids()
        self.solution = solution

        if window is not None:
            self._check_bounds()
        run.frame, run.wall_time = frame, time.perf_counter() - t_start
        run.live_nodes, run.live_edges = g.n_live_nodes, g.n_live_edges
        self.frame_stats.append(run)
        return solution

    def _clip_one_frame(self):
        """Clip the oldest frame, keeping the optimum's flow and decode on
        what stays (ResidualGraph.clip_oldest_frame): the first detection of
        each trajectory that starts there is frozen. An emptied graph holds
        no optimum."""
        g, res = self.graph, self.cache.residual
        heads = res.decoded.starting_in(g.frame_nodes[g.t_min][0])
        for c in heads:
            tid, first = c.traj.track_id, c.traj.detections[0]
            self.frozen.setdefault(tid, []).append(first)
        res.clip_oldest_frame(heads)
        if g.is_empty:
            self.cache.frame = None

    def _assign_ids(self):
        """Give the current trajectories the ids assign_track_ids gives them
        over the whole previous and current solution: one pass of the rule
        (_pick_id) over the chains in key order, setting each chain's
        track_id in place, so in the solution too, which holds the chains'
        own trajectories. A chain the decode walked counts its overlap with
        each previous trajectory over its segments, which carry the previous
        ids (FlowDecoder.fresh). Any other holds only its previous
        trajectory's detections, so its one candidate after its origin is
        its previous id."""
        dec, pending = self.cache.residual.decoded, self.pending_rows
        fresh, taken = dec.fresh, set()
        if pending is not None:
            for d in dec.dropped:
                pending.pop(id(d), None)
        for c in dec.chains:
            t = c.traj
            if c in fresh:
                segments = fresh[c]
            else:
                tid = t.track_id
                if (c.origin < 0 or c.origin == tid) and tid not in taken:
                    taken.add(tid)  # what the rule gives it
                    continue
                segments = [(tid, 0, len(t.detections))]
            counts: dict[int, int] = {}
            for s, lo, hi in segments:
                if s is not None:
                    counts[s] = counts.get(s, 0) + hi - lo
            t.track_id = tid = _pick_id(c.origin, counts, taken, self.registry)
            if pending is not None:
                pending.update((id(d), (tid, d)) for s, lo, hi in segments
                               if s != tid for d in t.detections[lo:hi])

    def _solve(self, frame: int) -> tuple[FlowSolution, SolverStats]:
        """Successive shortest paths from the previous frame's optimum,
        several per full search (ssp.successive_shortest_paths); after an
        empty graph, a cold start from DAG potentials through the same loop.
        Returns the solution and the frame's record, which counts its cache
        hit or miss; its six counters fold into self.stats."""
        res, run, stats = self.cache.residual, SolverStats(), self.stats
        if self.cache.lookup() is None:
            run.cache_misses = 1
        else:
            run.cache_hits = 1
        if self.graph.n_detections:
            # A safety bound far above the paths and cycles one frame needs.
            successive_shortest_paths(res, run, 2 * self.graph.n_detections + 2,
                                      *dijkstra_full(res, run))
        self.cache.frame = frame
        stats.relaxations += run.relaxations
        stats.queue_pushes += run.queue_pushes
        stats.iterations += run.iterations
        stats.searches += run.searches
        stats.cache_hits += run.cache_hits
        stats.cache_misses += run.cache_misses
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

