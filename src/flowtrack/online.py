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

The decoded solution and its ids are kept from frame to frame: a frame
re-decodes only the trajectories through the detections that its pushes and
clips changed (ssp.FlowDecoder), runs the id rule (assign_track_ids) only over
the trajectories whose id it may change, and logs for a streaming caller the
rows that are new or got a new id. So the per-frame decode, id and output
work follow the rows the frame changed, not the history.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from .cost_model import CostModel, Detection
from .errors import DataError, InvariantBreach
from .graph import FlowSolution, TrackingGraph, Trajectory
from .ssp import (Chain, ResidualGraph, SolverStats, _solution_from_residual,
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
        # Set to a list to have appended, as each frame is solved, each
        # current (track id, detection) row that is new or got a new id, each
        # (track id, detection) row that a clip froze, and (None, detection)
        # for each detection that a push took out of the current solution;
        # the owner consumes and trims it.
        self.row_log: list[tuple[int | None, Detection]] | None = None
        # The current trajectories' chains by track id (_assign_ids).
        self._holder: dict[int, Chain] = {}
        self.stats = SolverStats()  # totals over the frames
        self.frame_stats: list[SolverStats] = []
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
        self._assign_ids(solution)
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
            if self.row_log is not None:
                self.row_log.append((tid, first))
        res.clip_oldest_frame(heads)
        if g.is_empty:
            self.cache.frame = None

    def _unregister(self, c: Chain):
        """Drop chain c, under its current id, from the lookup by id."""
        if self._holder.get(c.traj.track_id) is c:
            del self._holder[c.traj.track_id]

    def _assign_ids(self, solution: FlowSolution):
        """Give the current trajectories the ids assign_track_ids gives them
        over the whole previous and current solution, running it only over
        the trajectories whose id it may change.

        A trajectory is settled, and keeps its previous id, when it is
        unchanged, or when it starts where a previous trajectory started and
        holds no detection of any other (counted once per run of the decode,
        FlowDecoder.fresh); it is then the same chain. The rule gives a
        settled trajectory its previous id unless an open trajectory claims
        its id or its origin (an open trajectory claims its origin and the
        previous id of each of its detections). Settled ones that meet such
        an id open, until none does. So does a settled one that a clip
        moved, whose start may now sort before or after others, when its
        origin is not its id. The others are open. Two invariants of the
        flow leave nothing else to open:

        1. No push unflows an entry (FlowDecoder): every pushed path starts
           at a root and none enters the source. So only clips remove a
           trajectory, and none that left frees an id a settled one would
           take.
        2. Every trajectory whose entry carries an origin was moved by a
           clip in this frame. Clipping frame c writes origins only on the
           entries of frame c + 1, and it ran at a frame index >= c + W for
           the window W. Every later frame index is >= c + W + 1, so each
           later frame first clips frame c + 1, moving the trajectories that
           start there. So one whose origin is not its id is open, and the
           settled holder of an origin that an open one claims opens, as
           the claim is on its previous id.

        The rule then runs over the open trajectories, against the previous
        ones they overlap; a settled one claims no id an open one could
        take, as its origin and previous id are its own id.
        """
        dec = self.cache.residual.decoded
        fresh = dec.fresh
        for c in dec.emptied:
            self._unregister(c)
        opened: dict[Chain, None] = {}  # open chains, in the order opened
        for c, (was, segments) in fresh.items():
            if was is None or any(s is not None and s is not was
                                  for s, _, _ in segments):
                opened[c] = None
        moved = set(dec.moved)
        for c in dec.moved:
            if c.origin != c.traj.track_id:
                opened[c] = None
        bad: set[int] = set()
        queue = list(opened)

        def spoil(tid: int):
            """tid is claimed by an open trajectory: open the settled one
            whose previous id it is."""
            if tid < 0 or tid in bad:
                return
            bad.add(tid)
            c = self._holder.get(tid)
            if c is not None and c not in opened:
                opened[c] = None
                queue.append(c)

        while queue:
            c = queue.pop()
            spoil(c.origin)
            if c in fresh:
                for s, _, _ in fresh[c][1]:
                    if s is not None:
                        spoil(s.track_id)
            else:
                spoil(c.traj.track_id)

        # The open trajectories, each new to this solution, and the previous
        # ones they overlap.
        current, previous, before = [], {}, {}
        for c in opened:
            self._unregister(c)
            t = c.traj
            if c in fresh:
                previous.update((id(s), s) for s, _, _ in fresh[c][1]
                                if s is not None)
            else:
                previous[id(t)] = t
                before[c] = t.track_id
                if c not in moved:  # shared with the previous solution
                    t = Trajectory(t.track_id, t.detections, t.cost)
                    solution.trajectories[dec.replace_traj(c, t)] = t
            current.append(c.traj)
        if current:
            assign_track_ids(
                FlowSolution(trajectories=list(previous.values())),
                FlowSolution(trajectories=current), self.registry,
                {i: c.origin for i, c in enumerate(opened) if c.origin >= 0})
        for c in opened:
            self._holder[c.traj.track_id] = c

        if self.row_log is None:
            return
        log = self.row_log
        log.extend((None, d) for d in dec.dropped)
        for c, (_, segments) in fresh.items():
            tid, dets = c.traj.track_id, c.traj.detections
            for s, lo, hi in segments:
                if s is None or s.track_id != tid:
                    log.extend((tid, d) for d in dets[lo:hi])
        for c, tid in before.items():
            if c.traj.track_id != tid:
                log.extend((c.traj.track_id, d) for d in c.traj.detections)

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

