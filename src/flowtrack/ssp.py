"""Successive shortest path solvers over the tracking graph.

Contains the residual-graph machinery (reduced-cost conversion, edge
reversal), the DAG shortest-path bootstrap, a full Dijkstra reference inner
solver, the dynamic priority-queue broadcast that updates only invalidated
predecessor labels, trajectory decoding, and the greedy DP baseline.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InvariantBreach
from .graph import (DET, ENTRY, EXIT, LINK, SINK, SOURCE, KIND_U,
                    FlowSolution, TrackingGraph, Trajectory)

#: Tolerance for reduced-cost non-negativity, relative to the graph's largest
#: |edge cost|: values in [-eps, 0), eps = EPS * that cost, are clamped to
#: zero before entering a priority queue. Being relative, it makes a solve
#: invariant under scaling every cost by a power of two.
EPS = 1e-9


@dataclass
class SolverStats:
    """Instrumentation counters accumulated during a solve."""

    relaxations: int = 0
    queue_pushes: int = 0
    iterations: int = 0
    # Online trackers: frames whose DAG bootstrap started from the previous
    # frame's labels (hits) or from scratch (misses).
    cache_hits: int = 0
    cache_misses: int = 0
    reduced_sink_dists: list = field(default_factory=list)
    path_original_costs: list = field(default_factory=list)
    prose_stop_iteration: int | None = None
    alg1_stop_iteration: int | None = None


class PredecessorMap:
    """Per-node shortest-path distance labels and predecessor pointers."""

    def __init__(self, n_nodes: int):
        self.dist = np.full(n_nodes, np.inf)
        self.dist[SOURCE] = 0.0
        self.pred: list[tuple[int, int] | None] = [None] * n_nodes

    def grown(self, n_nodes: int) -> "PredecessorMap":
        """Copy extended to n_nodes entries; new entries are unreachable."""
        out = PredecessorMap(n_nodes)
        k = min(len(self.dist), n_nodes)
        out.dist[:k] = self.dist[:k]
        out.pred[:k] = self.pred[:k]
        return out


@dataclass
class Path:
    """A source-to-sink path: node sequence plus the edge taken into each node."""

    nodes: list[int]
    eids: list[int]


class ResidualGraph:
    """A tracking graph plus per-edge flow state and reduced costs.

    rcost holds the current (possibly converted) cost of each edge in its
    residual direction: edges carrying flow are traversed dst -> src with a
    negated cost. eps is the clamping tolerance (see EPS).
    """

    def __init__(self, graph: TrackingGraph):
        g = self.graph = graph
        m = len(g.e_src)
        self.rcost = np.array(g.e_cost, dtype=float) if m else np.zeros(0)
        self.flow = np.zeros(m, dtype=np.int8)
        self.src_arr = np.array(g.e_src, dtype=np.int64) if m else np.zeros(0, np.int64)
        self.dst_arr = np.array(g.e_dst, dtype=np.int64) if m else np.zeros(0, np.int64)
        self.alive_arr = np.array(g.e_alive, dtype=bool) if m else np.zeros(0, bool)
        if m:
            self.rcost[~self.alive_arr] = 0.0
        self.eps = EPS * float(np.max(np.abs(self.rcost))) if m else 0.0
        self.iteration = 0

    @property
    def n_nodes(self) -> int:
        return len(self.graph.node_kind)

    def res_endpoints(self, eid: int) -> tuple[int, int]:
        if self.flow[eid] == 0:
            return self.graph.e_src[eid], self.graph.e_dst[eid]
        return self.graph.e_dst[eid], self.graph.e_src[eid]

    def out_arcs(self, node: int):
        g, fl = self.graph, self.flow
        for eid in g.out_edges[node]:
            if fl[eid] == 0:
                yield eid, g.e_dst[eid]
        for eid in g.in_edges[node]:
            if fl[eid] == 1:
                yield eid, g.e_src[eid]

    def in_arcs(self, node: int):
        g, fl = self.graph, self.flow
        for eid in g.in_edges[node]:
            if fl[eid] == 0:
                yield eid, g.e_src[eid]
        for eid in g.out_edges[node]:
            if fl[eid] == 1:
                yield eid, g.e_dst[eid]

    def flip(self, eid: int):
        self.flow[eid] ^= 1
        rc = -float(self.rcost[eid])
        if -self.eps <= rc < 0.0:
            rc = 0.0
        self.rcost[eid] = rc

    def arc_cost(self, eid: int) -> float:
        """Residual arc cost clamped for queue ordering."""
        rc = float(self.rcost[eid])
        if rc < -self.eps:
            raise InvariantBreach(f"negative reduced cost {rc} on edge {eid}")
        return rc if rc > 0.0 else 0.0


def extract_path(res: ResidualGraph, labels: PredecessorMap) -> Path | None:
    """Backtrack the predecessor chain from the sink; None if unreachable."""
    if not np.isfinite(labels.dist[SINK]):
        return None
    nodes, eids = [SINK], []
    node = SINK
    limit = 2 * res.n_nodes + 4
    while node != SOURCE:
        step = labels.pred[node]
        if step is None:
            raise InvariantBreach(f"broken predecessor chain at node {node}")
        node, eid = step
        nodes.append(node)
        eids.append(eid)
        if len(nodes) > limit:
            raise InvariantBreach("predecessor chain contains a cycle")
    nodes.reverse()
    eids.reverse()
    return Path(nodes, eids)


def path_original_cost(res: ResidualGraph, path: Path) -> float:
    """Sum of unreduced edge costs along a residual path (reversed arcs negate)."""
    g = res.graph
    total = 0.0
    for eid in path.eids:
        c = g.e_cost[eid]
        total += -c if res.flow[eid] == 1 else c
    return total


def dag_shortest_path(res: ResidualGraph, from_frame: int | None = None,
                      labels: PredecessorMap | None = None,
                      stats: SolverStats | None = None,
                      excluded: set | None = None):
    """Topological-order relaxation over the forward (acyclic) graph.

    With from_frame > t_min, labels for earlier frames must already be valid;
    only edges entering frames >= from_frame (plus exits of those frames) are
    relaxed. Handles negative costs. Returns (path_to_sink_or_None, labels).
    """
    g = res.graph
    stats = stats or SolverStats()
    if labels is None:
        labels = PredecessorMap(res.n_nodes)
    dist, pred = labels.dist, labels.pred
    if g.is_empty:
        return None, labels
    if from_frame is None:
        from_frame = g.t_min
    excluded = excluded or set()

    def relax(u, eid, v):
        stats.relaxations += 1
        nd = dist[u] + res.rcost[eid]
        if nd < dist[v]:
            dist[v] = nd
            pred[v] = (u, eid)

    # Entry edges into the region being (re)computed.
    for eid in g.out_edges[SOURCE]:
        if res.flow[eid] == 1:
            raise InvariantBreach("DAG relaxation over a reversed entry edge")
        v = g.e_dst[eid]
        if v in excluded:
            continue
        if g.node_frame(v) >= from_frame:
            relax(SOURCE, eid, v)
    # Link edges bridging into the region from the last valid frame.
    prev = g.frames.get(from_frame - 1, [])
    for d in prev:
        vn = g.v_node(d)
        if vn in excluded:
            continue
        for eid in g.out_edges[vn]:
            if g.e_kind[eid] == LINK and res.flow[eid] == 0:
                dst = g.e_dst[eid]
                if dst not in excluded:
                    relax(vn, eid, dst)
    # Frame-by-frame sweep: u nodes (detection edges) then v nodes (links, exits).
    for f in range(from_frame, g.t_max + 1):
        dets = g.frames.get(f, [])
        for d in dets:
            un = g.u_node(d)
            if un in excluded or not np.isfinite(dist[un]):
                continue
            for eid, v in res.out_arcs(un):
                if v not in excluded:
                    relax(un, eid, v)
        for d in dets:
            vn = g.v_node(d)
            if vn in excluded or not np.isfinite(dist[vn]):
                continue
            for eid, v in res.out_arcs(vn):
                if v not in excluded:
                    relax(vn, eid, v)
    return extract_path(res, labels), labels


def convert_edge_costs(res: ResidualGraph, labels: PredecessorMap) -> PredecessorMap:
    """Replace every residual arc cost c(u,v) by c(u,v) + d(u) - d(v).

    Arcs leaving unreachable nodes are left untouched (they can never be
    traversed). Returns the labels valid after conversion: zero for every
    reachable node, infinity otherwise, predecessors unchanged.
    """
    d = labels.dist
    if len(res.rcost):
        fwd = res.flow == 0
        rs = np.where(fwd, res.src_arr, res.dst_arr)
        rd = np.where(fwd, res.dst_arr, res.src_arr)
        ds, dd = d[rs], d[rd]
        ok = np.isfinite(ds) & np.isfinite(dd) & res.alive_arr
        res.rcost[ok] += ds[ok] - dd[ok]
        neg = res.rcost < 0.0
        tiny = neg & (res.rcost >= -res.eps)
        if np.any(tiny):
            res.rcost[tiny] = 0.0
        bad = neg & ~tiny & ok
        if np.any(bad):
            eid = int(np.nonzero(bad)[0][0])
            raise InvariantBreach(
                f"stale labels: reduced cost {res.rcost[eid]} on edge {eid}")
    out = PredecessorMap.__new__(PredecessorMap)
    out.dist = np.where(np.isfinite(d), 0.0, np.inf)
    out.pred = list(labels.pred)
    return out


def build_residual(res: ResidualGraph, path: Path) -> ResidualGraph:
    """Push one unit of flow along a zero-reduced-cost path by reversing it."""
    if path is None or not path.eids:
        raise DataError("cannot build a residual from an empty path")
    if path.nodes[0] != SOURCE or path.nodes[-1] != SINK:
        raise DataError("path must run from source to sink")
    for u, v, eid in zip(path.nodes, path.nodes[1:], path.eids):
        if res.res_endpoints(eid) != (u, v):
            raise DataError(f"path edge {eid} does not connect {u}->{v}")
    for eid in path.eids:
        res.flip(eid)
    res.iteration += 1
    return res


def dijkstra_full(res: ResidualGraph, stats: SolverStats | None = None):
    """Reference inner solver: fresh labels for the whole residual graph."""
    stats = stats or SolverStats()
    labels = PredecessorMap(res.n_nodes)
    dist, pred = labels.dist, labels.pred
    heap = [(0.0, SOURCE)]
    stats.queue_pushes += 1
    done = np.zeros(res.n_nodes, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        for eid, v in res.out_arcs(u):
            stats.relaxations += 1
            nd = d + res.arc_cost(eid)
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = (u, eid)
                heapq.heappush(heap, (nd, v))
                stats.queue_pushes += 1
    return extract_path(res, labels), labels


def dynamic_broadcast(res: ResidualGraph, seeds, labels: PredecessorMap,
                      stats: SolverStats | None = None):
    """Update only invalidated predecessor labels via a dynamic priority queue.

    seeds must contain every node whose predecessor edge may have changed
    (typically the nodes of the just-reversed shortest path); labels for all
    other nodes must be valid for the current residual graph, and edge changes
    may only have lengthened distances. Labels of the seeds' predecessor-tree
    descendants are re-derived from the unaffected frontier and settled with a
    priority queue; everything else is untouched. Returns the updated shortest
    path to the sink; labels are updated in place.
    """
    stats = stats or SolverStats()
    dist, pred = labels.dist, labels.pred
    n = res.n_nodes

    # Affected region: seeds plus all predecessor-tree descendants.
    children: list[list[int]] = [[] for _ in range(n)]
    for x in range(n):
        p = pred[x]
        if p is not None:
            children[p[0]].append(x)
    affected: set[int] = set()
    stack = [s for s in set(seeds) if s != SOURCE]
    while stack:
        x = stack.pop()
        if x in affected:
            continue
        affected.add(x)
        stack.extend(children[x])

    for x in affected:
        dist[x] = np.inf
        pred[x] = None
    heap: list[tuple[float, int]] = []
    for x in affected:
        best, best_pred = np.inf, None
        for eid, w in res.in_arcs(x):
            if w in affected:
                continue
            stats.relaxations += 1
            dw = dist[w]
            if not np.isfinite(dw):
                continue
            nd = dw + res.arc_cost(eid)
            if nd < best:
                best, best_pred = nd, (w, eid)
        if best_pred is not None:
            dist[x] = best
            pred[x] = best_pred
            heapq.heappush(heap, (best, x))
            stats.queue_pushes += 1

    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done or d > dist[u]:
            continue
        done.add(u)
        for eid, v in res.out_arcs(u):
            if v not in affected:
                continue
            stats.relaxations += 1
            nd = d + res.arc_cost(eid)
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = (u, eid)
                heapq.heappush(heap, (nd, v))
                stats.queue_pushes += 1
    return extract_path(res, labels), labels


def decode_trajectories(res: ResidualGraph, start_id: int = 0) -> list[Trajectory]:
    """Follow reversed edge chains from every flowed entry edge."""
    g = res.graph
    entry_eids = [eid for eid in g.out_edges[SOURCE] if res.flow[eid] == 1]
    entry_eids.sort(key=lambda eid: g.node_det[g.e_dst[eid]].key)
    trajectories = []
    for i, entry_eid in enumerate(entry_eids):
        det = g.node_det[g.e_dst[entry_eid]]
        cost = g.e_cost[entry_eid]
        dets = [det]
        while True:
            det_eid = g.detection_edge_of(det)
            if res.flow[det_eid] != 1:
                raise InvariantBreach(
                    f"dangling flow: detection edge of {det.key} carries no flow")
            cost += g.e_cost[det_eid]
            vn = g.v_node(det)
            nxt = None
            for eid in g.out_edges[vn]:
                if res.flow[eid] == 1:
                    nxt = eid
                    break
            if nxt is None:
                raise InvariantBreach(f"trajectory through {det.key} has no outflow")
            cost += g.e_cost[nxt]
            if g.e_kind[nxt] == EXIT:
                break
            det = g.node_det[g.e_dst[nxt]]
            dets.append(det)
        trajectories.append(Trajectory(start_id + i, dets, cost))
    return trajectories


def _solution_from_residual(res: ResidualGraph) -> FlowSolution:
    trajectories = decode_trajectories(res)
    flow = {eid: int(res.flow[eid]) for eid in res.graph.live_edges()}
    total = sum(t.cost for t in trajectories)
    return FlowSolution(trajectories=trajectories, total_cost=total, edge_flow=flow)


def _finalize_termination_stats(stats: SolverStats):
    """Derive the stop iteration under both equivalent termination rules."""
    origs = stats.path_original_costs
    for k, c in enumerate(origs):
        if c >= 0:
            stats.prose_stop_iteration = k
            break
    dists = stats.reduced_sink_dists
    if dists and np.isfinite(dists[0]) and dists[0] < 0:
        acc = 0.0
        for k in range(1, len(dists)):
            if not np.isfinite(dists[k]):
                break
            acc += dists[k]
            if acc > abs(dists[0]):
                stats.alg1_stop_iteration = k
                break


def _ssp_loop(graph: TrackingGraph, inner: str,
              warm: tuple[PredecessorMap, int] | None = None):
    """Successive shortest paths from zero flow; inner is "dijkstra" or "dynamic".

    warm = (labels, from_frame) starts the DAG bootstrap from labels that are
    valid for every frame before from_frame, so only edges into from_frame and
    later are relaxed. Returns (solution, stats, bootstrap labels); the labels
    warm-start the solve of this graph with one more frame appended.
    """
    stats = SolverStats()
    if graph.is_empty or graph.n_detections == 0:
        return FlowSolution(), stats, None
    res = ResidualGraph(graph)

    if warm is None:
        path, labels = dag_shortest_path(res, stats=stats)
    else:
        path, labels = dag_shortest_path(res, from_frame=warm[1],
                                         labels=warm[0].grown(res.n_nodes),
                                         stats=stats)
    stats.reduced_sink_dists.append(float(labels.dist[SINK]))
    # convert_edge_costs returns new labels, so these stay as bootstrapped.
    dag_labels = labels

    guard = graph.n_detections
    while path is not None:
        ocost = path_original_cost(res, path)
        stats.path_original_costs.append(ocost)
        if ocost >= 0.0:
            break
        if stats.iterations >= guard:
            raise InvariantBreach("SSP exceeded the detection-count iteration bound")
        labels = convert_edge_costs(res, labels)
        build_residual(res, path)
        stats.iterations += 1
        prev_nodes = path.nodes
        if inner == "dijkstra":
            path, labels = dijkstra_full(res, stats)
        else:
            path, labels = dynamic_broadcast(res, prev_nodes, labels, stats)
        stats.reduced_sink_dists.append(float(labels.dist[SINK]))

    _finalize_termination_stats(stats)
    return _solution_from_residual(res), stats, dag_labels


def solve_ssp(graph: TrackingGraph):
    """Globally optimal batch solve; full Dijkstra at every iteration."""
    solution, stats, _ = _ssp_loop(graph, "dijkstra")
    return solution, stats


def solve_dssp(graph: TrackingGraph):
    """Globally optimal batch solve; dynamic broadcasting at every iteration."""
    solution, stats, _ = _ssp_loop(graph, "dynamic")
    return solution, stats


def solve_dp_greedy(graph: TrackingGraph):
    """Greedy baseline: repeated DAG shortest paths without flow cancellation.

    Accepted paths have their nodes removed outright, so earlier choices can
    never be revised; not optimal, used only for comparison.
    """
    stats = SolverStats()
    res = ResidualGraph(graph)
    if graph.is_empty or graph.n_detections == 0:
        return FlowSolution(), stats

    excluded: set[int] = set()
    trajectories = []
    edge_flow = {eid: 0 for eid in graph.live_edges()}
    total = 0.0
    for _ in range(graph.n_detections + 1):
        path, labels = dag_shortest_path(res, stats=stats, excluded=excluded)
        if path is None:
            break
        cost = float(labels.dist[SINK])
        if cost >= 0.0:
            break
        stats.iterations += 1
        dets = [graph.node_det[n] for n in path.nodes
                if graph.node_det[n] is not None
                and graph.node_kind[n] == KIND_U]
        trajectories.append(Trajectory(len(trajectories), dets, cost))
        total += cost
        for eid in path.eids:
            edge_flow[eid] = 1
        for n in path.nodes:
            if n not in (SOURCE, SINK):
                excluded.add(n)
    return FlowSolution(trajectories=trajectories, total_cost=total,
                        edge_flow=edge_flow), stats
