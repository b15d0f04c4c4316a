"""Successive shortest path solvers over the tracking graph.

Contains the residual-graph machinery (reduced-cost conversion, edge
reversal), the DAG shortest-path bootstrap, the full Dijkstra inner search
(used by ssp and by the online trackers), the paper's dynamic broadcast that
re-labels only the invalidated part of the shortest-path tree (dssp),
trajectory decoding, and the greedy DP baseline. Both inner searches are
compiled: scipy's Dijkstra over one CSR of the residual arcs; the broadcast
finds its affected subtree with scipy's breadth-first order and searches
only the arcs that enter it, from its frontier. The predecessor tree is an
array of nodes; the edge of a tree arc is found by its slot key.
OnlineResidual is the residual graph the online trackers keep from frame to
frame: the last optimum's flow plus node potentials, searched from the sink
as well as the source, so each frame is re-solved from the previous optimum
instead of from zero flow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .errors import DataError, InvariantBreach
from .graph import (EXIT, SINK, SOURCE, KIND_U, FlowSolution, TrackingGraph,
                    Trajectory)

#: Tolerance for reduced-cost non-negativity, relative to the graph's largest
#: |edge cost|: values in [-eps, 0), eps = EPS * that cost, are clamped to
#: zero before entering a priority queue. Being relative, it makes a solve
#: invariant under scaling every cost by a power of two.
EPS = 1e-9


@dataclass
class SolverStats:
    """Instrumentation counters accumulated during a solve.

    relaxations counts arcs examined, queue_pushes nodes labelled:
      - DAG sweep: the arcs relaxed out of reached nodes; no queue (0).
      - full search (dijkstra_full): the residual arcs out of reached
        nodes; the nodes reached.
      - broadcast (dynamic_broadcast): the residual arcs into the affected
        set out of reached nodes; the affected nodes re-labelled.
    """

    relaxations: int = 0
    queue_pushes: int = 0
    iterations: int = 0
    # Online trackers: frames solved from the previous frame's optimum (hits)
    # or from zero flow (misses).
    cache_hits: int = 0
    cache_misses: int = 0
    reduced_sink_dists: list = field(default_factory=list)
    path_original_costs: list = field(default_factory=list)
    prose_stop_iteration: int | None = None
    alg1_stop_iteration: int | None = None


class PredecessorMap:
    """Per-node shortest-path distance labels and the predecessor tree:
    pred[v] is the node before v, -1 for none (a root or an unreached node).
    The edge of a tree arc u -> v is the residual slot keyed u * n + v (see
    ResidualGraph.arcs)."""

    def __init__(self, n_nodes: int):
        self.dist = np.full(n_nodes, np.inf)
        self.dist[SOURCE] = 0.0
        self.pred = np.full(n_nodes, -1, dtype=np.int64)


def check_cost_sum(total: float):
    """DataError unless three times total, a sum of |edge cost|, is finite.
    Path costs and labels are bounded by that sum, and reduced costs
    c + p(u) - p(v) by about three times it, so no solve overflows to inf or
    -inf."""
    if not math.isfinite(3.0 * total):
        raise DataError("edge costs too large: their sum overflows a float")


@dataclass
class Path:
    """A source-to-sink path: node sequence plus the edge taken into each node."""

    nodes: list[int]
    eids: list[int]


class ResidualGraph:
    """A tracking graph plus per-edge flow state and reduced costs.

    rcost holds the current (possibly converted) cost of each edge in its
    residual direction: edges carrying flow are traversed dst -> src with a
    negated cost. eps is the clamping tolerance (see EPS). The compiled
    search runs from `roots` to `target`.
    """

    roots = (SOURCE,)
    target = SINK

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
        with np.errstate(over="ignore"):
            check_cost_sum(float(np.sum(np.abs(self.rcost))))
        self.eps = EPS * float(np.max(np.abs(self.rcost))) if m else 0.0
        self.iteration = 0
        self._arcs = None

    def arcs(self):
        """Static CSR of residual arc slots, built on first use.

        Every live edge has a forward slot (src -> dst, usable while it
        carries no flow) and a reverse slot (dst -> src, usable while it
        does), sorted by row then column. Returns (matrix, slot edge ids,
        slot is-reverse flags, slot rows, slot keys row * n + col); only the
        matrix's weights change from search to search.
        """
        if self._arcs is None:
            self._arcs = self._slots(self.n_nodes, self.dst_arr)
        return self._arcs

    def _slots(self, n: int, fwd_dst: np.ndarray):
        """arcs() over n rows, forward slots ending at fwd_dst."""
        live = np.flatnonzero(self.alive_arr)
        src, dst = self.src_arr[live], self.dst_arr[live]
        keys = np.concatenate((src * n + fwd_dst[live], dst * n + src))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        rows = keys // n
        indptr = np.searchsorted(rows, np.arange(n + 1))
        matrix = csr_matrix((np.zeros(len(keys)), keys % n, indptr),
                            shape=(n, n))
        return (matrix, np.concatenate((live, live))[order],
                (order >= len(live)).astype(np.int8), rows, keys)

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

    def flip(self, eid: int):
        self.flow[eid] ^= 1
        rc = -float(self.rcost[eid])
        if -self.eps <= rc < 0.0:
            rc = 0.0
        self.rcost[eid] = rc


class OnlineResidual(ResidualGraph):
    """The residual graph of an online tracker, kept from frame to frame.

    It holds the last optimum's flow and node potentials p under which every
    residual arc has reduced cost c + p(u) - p(v) >= 0 (rcost, set by
    reprice), so each frame's solve starts from the previous optimum. A
    track that continues into a new frame keeps the flow value: it is a
    cycle sink -> v_old (reversed exit) -> u_new -> v_new -> sink. So the
    search splits the sink: its out-arcs, the reversed flowed exits, leave a
    root, which shares potential 0 with the source, the other root; exits
    enter the target, node n_nodes, which holds the sink's potential. A
    shortest path from the source is an augmenting path, one from a
    reversed exit cancels a cycle through the sink. Build it over an empty
    graph, then append and clip through it.
    """

    roots = (SINK, SOURCE)

    def __init__(self, graph: TrackingGraph):
        super().__init__(graph)
        self.potential = np.zeros(self.n_nodes + 1)
        self._sync()

    @property
    def target(self) -> int:
        return self.n_nodes

    def arcs(self):
        if self._arcs is None:
            self._arcs = self._slots(self.n_nodes + 1, self.fwd_dst)
        return self._arcs

    def _sync(self):
        """Re-read the graph's edges after it changed. Edge slots keep their
        flow (append adds slots without flow, clip zeroes the ones it frees)
        and node slots their potential; the target's moves to the end."""
        g = self.graph
        m, n = len(g.e_src), self.n_nodes
        self.src_arr = np.array(g.e_src, dtype=np.int64)
        self.dst_arr = np.array(g.e_dst, dtype=np.int64)
        self.alive_arr = np.array(g.e_alive, dtype=bool)
        self.cost = np.array(g.e_cost, dtype=float)
        self.fwd_dst = np.where(self.dst_arr == SINK, n, self.dst_arr)
        flow = np.zeros(m, dtype=np.int8)
        flow[:len(self.flow)] = self.flow
        self.flow = flow
        old = self.potential
        if len(old) != n + 1:
            self.potential = np.zeros(n + 1)
            self.potential[:len(old) - 1] = old[:-1]
            self.potential[n] = old[-1]
        live = np.abs(self.cost[self.alive_arr])
        self.eps = EPS * float(np.max(live)) if len(live) else 0.0
        self.cost_sum = float(np.sum(live))
        self._arcs = None

    def check_frame(self, prepared):
        """check_cost_sum over the live edges and a prepared frame's, so a
        frame whose costs would overflow is rejected before it changes
        anything."""
        new = [c for costs in prepared.node_costs for c in costs]
        new += [c for _, _, c in prepared.links]
        check_cost_sum(self.cost_sum + sum(map(abs, new)))

    def append_frame(self, detections, model, prepared):
        """Append a prepared frame to the graph. Its edges carry no flow; its
        nodes get potentials in one relaxation pass over their in-arcs
        (entries and links from frame - 1), and the sink's potential drops
        to its lowest new exit, which keeps every reduced cost >= 0. On an
        empty graph these are the DAG shortest-path distances, from which
        the solve starts at zero flow."""
        g = self.graph
        g.append_frame(detections, model, prepared=prepared)
        self._sync()
        p, t = self.potential, self.target
        for d in prepared.dets:
            u, v = g.det_nodes[d.key]
            p[u] = min(p[g.e_src[e]] + g.e_cost[e] for e in g.in_edges[u])
            p[v] = p[u] + g.e_cost[g.out_edges[u][0]]
            p[t] = min(p[t], p[v] + g.e_cost[g.out_edges[v][0]])

    def clip_oldest_frame(self, solution: FlowSolution):
        """Clip the graph's oldest frame. The freed edge slots lose their
        flow, and each continuing track's flow moves onto its folded entry
        edge, whose reduced cost is the sum of the flowed arcs' it replaces
        (each <= 0), so the potentials stay valid."""
        g = self.graph
        t_min = g.t_min
        freed = [eid for d in g.frames[t_min] for node in g.det_nodes[d.key]
                 for eid in g.in_edges[node] + g.out_edges[node]]
        g.clip_oldest_frame(solution)
        self.flow[freed] = 0
        for traj in solution.trajectories:
            if traj.detections[0].frame == t_min and len(traj.detections) > 1:
                self.flow[g.entry_edge_of(traj.detections[1])] = 1

    def reprice(self):
        """Set rcost to every edge's reduced cost in its residual direction
        (a reversed exit leaves the root, of potential 0)."""
        p = self.potential
        p_src = p[self.src_arr]
        fwd = self.cost + p_src - p[self.fwd_dst]
        rev = p[self.dst_arr] - p_src - self.cost
        self.rcost = np.where(self.flow == 0, fwd, rev)

    def settle(self, dist: np.ndarray):
        """Raise the potentials by a search's distances, capped at the
        target's: reduced costs stay >= 0 and the shortest path's become 0.
        The roots stay at 0."""
        cap = dist[self.target]
        if np.isfinite(cap):
            self.potential += np.minimum(dist, cap)


def extract_path(res: ResidualGraph, labels: PredecessorMap) -> Path | None:
    """Walk the predecessor chain back from res.target to one of res.roots;
    None if the target is unreached. Each tree arc u -> v is the slot keyed
    u * n + v. The target stands for the sink in the returned path."""
    if not np.isfinite(labels.dist[res.target]):
        return None
    matrix, slot_eid, _, _, slot_key = res.arcs()
    n, pred = matrix.shape[0], labels.pred
    nodes = [res.target]
    while (u := int(pred[nodes[-1]])) >= 0:
        nodes.append(u)
        if len(nodes) > n:
            raise InvariantBreach("predecessor chain contains a cycle")
    if nodes[-1] not in res.roots:
        raise InvariantBreach(f"broken predecessor chain at node {nodes[-1]}")
    nodes.reverse()
    chain = np.array(nodes, dtype=np.int64)
    eids = slot_eid[np.searchsorted(slot_key, chain[:-1] * n + chain[1:])]
    nodes[-1] = SINK
    return Path(nodes, eids.tolist())


def path_original_cost(res: ResidualGraph, path: Path) -> float:
    """Sum of unreduced edge costs along a residual path (reversed arcs
    negate), rounded once: a cycle whose costs cancel, such as one swapping
    two equal continuations of a track, costs exactly 0, so the stop rule
    does not push it back and forth forever."""
    g, flow = res.graph, res.flow
    return math.fsum(-g.e_cost[eid] if flow[eid] == 1 else g.e_cost[eid]
                     for eid in path.eids)


def dag_shortest_path(res: ResidualGraph, stats: SolverStats | None = None,
                      excluded: set | None = None):
    """Topological-order relaxation over the forward (acyclic) graph.

    Handles negative costs. Returns (path_to_sink_or_None, labels).
    """
    g = res.graph
    stats = stats or SolverStats()
    labels = PredecessorMap(res.n_nodes)
    if g.is_empty:
        return None, labels
    excluded = excluded or set()
    dist, pred = labels.dist, [-1] * res.n_nodes

    def relax(u, eid, v):
        stats.relaxations += 1
        nd = dist[u] + res.rcost[eid]
        if nd < dist[v]:
            dist[v] = nd
            pred[v] = u

    for eid in g.out_edges[SOURCE]:
        if res.flow[eid] == 1:
            raise InvariantBreach("DAG relaxation over a reversed entry edge")
        v = g.e_dst[eid]
        if v not in excluded:
            relax(SOURCE, eid, v)
    # Frame-by-frame sweep: u nodes (detection edges) then v nodes (links, exits).
    for dets in g.frames.values():
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
    labels.pred = np.array(pred, dtype=np.int64)
    return extract_path(res, labels), labels


def convert_edge_costs(res: ResidualGraph, labels: PredecessorMap) -> PredecessorMap:
    """Replace every residual arc cost c(u,v) by c(u,v) + d(u) - d(v).

    Arcs leaving unreachable nodes are left untouched (they can never be
    traversed). Returns the labels valid after conversion: zero for every
    reachable node, infinity otherwise, with the same predecessors.
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
    out.pred = labels.pred
    return out


def build_residual(res: ResidualGraph, path: Path) -> ResidualGraph:
    """Push one unit of flow along a zero-reduced-cost path by reversing it:
    a source-to-sink path, or a cycle through the sink."""
    if path is None or not path.eids:
        raise DataError("cannot build a residual from an empty path")
    if path.nodes[0] not in (SOURCE, SINK) or path.nodes[-1] != SINK:
        raise DataError("path must run from the source or the sink to the sink")
    for u, v, eid in zip(path.nodes, path.nodes[1:], path.eids):
        if res.res_endpoints(eid) != (u, v):
            raise DataError(f"path edge {eid} does not connect {u}->{v}")
    for eid in path.eids:
        res.flip(eid)
    res.iteration += 1
    return res


def _count_scanned(res: ResidualGraph, stats: SolverStats, slot_eid,
                   scanned: np.ndarray, cost: np.ndarray):
    """Add the scanned arc slots to stats.relaxations; a scanned arc whose
    reduced cost is below -eps breaks the search's precondition."""
    bad = np.flatnonzero(scanned & (cost < -res.eps))
    if len(bad):
        eid = int(slot_eid[bad[0]])
        raise InvariantBreach(f"negative reduced cost {res.rcost[eid]} on edge {eid}")
    stats.relaxations += int(np.count_nonzero(scanned))


def dijkstra_full(res: ResidualGraph, stats: SolverStats | None = None):
    """Full Dijkstra from res.roots over the residual graph, compiled.

    Weights are the residual arcs' reduced costs, clamped at 0; slots not in
    the residual graph weigh inf. relaxations counts the residual arcs out of
    reached nodes, queue_pushes the nodes reached. Returns (path to
    res.target or None, labels holding every node's distance and
    predecessor).
    """
    stats = stats or SolverStats()
    matrix, slot_eid, slot_rev, slot_row, _ = res.arcs()
    active = res.flow[slot_eid] == slot_rev
    cost = res.rcost[slot_eid]
    matrix.data = np.where(active, np.maximum(cost, 0.0), np.inf)
    dist, pred, _ = dijkstra(matrix, indices=res.roots, min_only=True,
                             return_predecessors=True)
    reached = np.isfinite(dist)
    _count_scanned(res, stats, slot_eid, active & reached[slot_row], cost)
    stats.queue_pushes += int(np.count_nonzero(reached))
    labels = PredecessorMap.__new__(PredecessorMap)
    labels.dist, labels.pred = dist, np.maximum(pred, -1)
    return extract_path(res, labels), labels


def dynamic_broadcast(res: ResidualGraph, seeds, labels: PredecessorMap,
                      stats: SolverStats | None = None):
    """Re-label only the invalidated part of the shortest-path tree, compiled.

    seeds must contain every node whose predecessor arc may have changed
    (typically the nodes of the just-reversed shortest path). Every other
    label must be valid for the current residual graph, edge changes may
    only have lengthened distances, and every reached label must be 0, as
    convert_edge_costs leaves them. The affected set is the seeds and their
    predecessor-tree descendants: one breadth-first search over the tree
    from a virtual root linked to the seeds. Its labels come from one
    compiled Dijkstra from its frontier, the reached nodes outside the set
    with a usable arc into it, which all start at 0; slots that do not enter
    the set weigh inf. Every other label is left as it is. relaxations
    counts the usable arcs into the set out of reached nodes, queue_pushes
    the nodes re-labelled. Returns the updated shortest path to the sink;
    labels are updated in place.
    """
    stats = stats or SolverStats()
    dist, pred = labels.dist, labels.pred
    n = len(dist)
    seeds = np.asarray(seeds, dtype=np.int64)
    seeds = seeds[seeds != SOURCE]
    if not len(seeds):
        return extract_path(res, labels), labels
    # Parent -> child CSR of the tree; row n is the virtual root.
    child = np.flatnonzero(pred >= 0)
    rows = np.concatenate((pred[child], np.full(len(seeds), n)))
    cols = np.concatenate((child, seeds))
    tree = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + 1, n + 1))
    affected = breadth_first_order(tree, n, return_predecessors=False)[1:]
    in_set = np.zeros(n, dtype=bool)
    in_set[affected] = True
    dist[affected] = np.inf
    pred[affected] = -1

    matrix, slot_eid, slot_rev, slot_row, _ = res.arcs()
    cost = res.rcost[slot_eid]
    into = (res.flow[slot_eid] == slot_rev) & in_set[matrix.indices]
    # With the set's labels cleared, a reached tail lies outside the set.
    is_frontier = np.zeros(n, dtype=bool)
    is_frontier[slot_row[into & np.isfinite(dist[slot_row])]] = True
    frontier = np.flatnonzero(is_frontier)
    off = frontier[dist[frontier] != 0.0]
    if len(off):
        raise InvariantBreach(
            f"frontier node {off[0]} has label {dist[off[0]]}, not 0")
    if len(frontier):
        matrix.data = np.where(into, np.maximum(cost, 0.0), np.inf)
        d, p, _ = dijkstra(matrix, indices=frontier, min_only=True,
                           return_predecessors=True)
        dist[affected] = d[affected]
        pred[affected] = np.maximum(p[affected], -1)
    _count_scanned(res, stats, slot_eid, into & np.isfinite(dist[slot_row]), cost)
    stats.queue_pushes += int(np.count_nonzero(np.isfinite(dist[affected])))
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
    """The decoded trajectories and their total; edge_flow is left empty."""
    trajectories = decode_trajectories(res)
    return FlowSolution(trajectories=trajectories,
                        total_cost=sum(t.cost for t in trajectories))


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


def _ssp_loop(graph: TrackingGraph, inner: str):
    """Successive shortest paths from zero flow; inner is "dijkstra" or
    "dynamic". Returns (solution with its edge flows, stats)."""
    stats = SolverStats()
    if graph.is_empty or graph.n_detections == 0:
        return FlowSolution(), stats
    res = ResidualGraph(graph)

    path, labels = dag_shortest_path(res, stats=stats)
    stats.reduced_sink_dists.append(float(labels.dist[SINK]))

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
    solution = _solution_from_residual(res)
    solution.edge_flow = {eid: int(res.flow[eid]) for eid in graph.live_edges()}
    return solution, stats


def solve_ssp(graph: TrackingGraph):
    """Globally optimal batch solve; a full (compiled) Dijkstra at every
    iteration."""
    return _ssp_loop(graph, "dijkstra")


def solve_dssp(graph: TrackingGraph):
    """Globally optimal batch solve; dynamic broadcasting at every iteration."""
    return _ssp_loop(graph, "dynamic")


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
