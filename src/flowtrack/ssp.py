"""Successive shortest path solvers over the tracking graph.

Contains the residual-graph machinery (reduced-cost conversion, edge
reversal), the DAG shortest-path bootstrap, the full Dijkstra inner search
(used by ssp and by the online trackers), the paper's dynamic broadcast that
re-labels only the invalidated part of the shortest-path tree (dssp),
trajectory decoding, and the greedy DP baseline. Every search is compiled.
The DAG sweep relaxes one frame layer per numpy reduction; it bootstraps ssp
and dssp, and the greedy baseline runs it once per committed track. Both
inner searches are scipy's Dijkstra over one CSR of the residual arcs; the
broadcast finds its affected subtree with scipy's breadth-first order and
searches only the arcs that enter it, from its frontier. The predecessor
tree is an array of nodes; the edge of a tree arc is found by its slot key.
OnlineResidual is the residual graph the online trackers keep from frame to
frame: the last optimum's flow plus node potentials, searched from the sink
as well as the source, so each frame is re-solved from the previous optimum
instead of from zero flow; it lists a search's candidate arcs into the sink
(exits) and settles the potentials with a cap, so one search can push
several paths and cycles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .errors import DataError, InvariantBreach
from .graph import (EXIT, SINK, SOURCE, FlowSolution, TrackingGraph,
                    Trajectory)

#: Tolerance for reduced-cost non-negativity, relative to the graph's largest
#: |edge cost|: values in [-eps, 0), eps = EPS * that cost, are clamped to
#: zero before entering a priority queue. Being relative, it makes a solve
#: invariant under scaling every cost by a power of two.
EPS = 1e-9


@dataclass
class SolverStats:
    """Instrumentation counters accumulated during a solve.

    iterations counts augmentations, the paths and cycles pushed, and
    searches the shortest-path searches run: DAG sweeps, full searches and
    broadcasts. relaxations counts arcs examined, queue_pushes nodes
    labelled:
      - DAG sweep: the forward edges out of reached nodes into nodes not
        excluded; no queue (0).
      - full search (dijkstra_full): the residual arcs out of reached
        nodes; the nodes reached.
      - broadcast (dynamic_broadcast): the residual arcs into the affected
        set out of reached nodes; the affected nodes re-labelled.
    """

    relaxations: int = 0
    queue_pushes: int = 0
    iterations: int = 0
    searches: int = 0
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
        self.rcost = np.where(g.e_alive, g.e_cost, 0.0)
        self.flow = np.zeros(len(g.e_src), dtype=np.int8)
        with np.errstate(over="ignore"):
            check_cost_sum(float(np.sum(np.abs(self.rcost))))
        self.eps = EPS * float(np.max(np.abs(self.rcost), initial=0.0))
        self.iteration = 0
        self._arcs = self._dag = None

    def arcs(self):
        """Static CSR of residual arc slots, built on first use.

        Every live edge has a forward slot (src -> dst, usable while it
        carries no flow) and a reverse slot (dst -> src, usable while it
        does), sorted by row then column. Returns (matrix, slot edge ids,
        slot is-reverse flags, slot rows, slot keys row * n + col); only the
        matrix's weights change from search to search.
        """
        if self._arcs is None:
            self._arcs = self._slots(self.n_nodes, self.graph.e_dst)
        return self._arcs

    def _slots(self, n: int, fwd_dst: np.ndarray):
        """arcs() over n rows, forward slots ending at fwd_dst; int32 indexes,
        which scipy keeps as given (int64 ones it checks and copies down)."""
        g = self.graph
        live = np.flatnonzero(g.e_alive)
        src, dst = g.e_src[live], g.e_dst[live]
        keys = np.concatenate((src * n + fwd_dst[live], dst * n + src))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        rows = keys // n
        indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
        matrix = csr_matrix((np.zeros(len(keys)), (keys % n).astype(np.int32),
                             indptr), shape=(n, n))
        return (matrix, np.concatenate((live, live))[order],
                (order >= len(live)).astype(np.int8), rows, keys)

    def dag_levels(self):
        """Level index of the forward (acyclic) graph, built on first use,
        with the same lifetime as arcs().

        Levels are the source, then the u and then the v nodes of each frame
        in frame order, then the sink. Forward edges are sorted by (level of
        head, head, rank in push order): the source's out-edges, then each
        frame's u nodes' and then v nodes' out-edges. Listing the entries and
        exits in (frame, local index) order and then every frame's link block
        puts each node's in-edges in that order, whatever the ids. Returns
        (edge ids, tails, heads, one (first edge, end edge, group starts
        within those edges, group heads) per level).
        """
        if self._dag is None:
            g, n = self.graph, self.n_nodes
            level = np.zeros(n, dtype=np.int64)
            sizes = [uv.shape[1] for uv in g.frame_nodes.values()]
            u, v = np.concatenate([np.zeros((2, 0), np.int64),
                                   *g.frame_nodes.values()], axis=1)
            layer = 2 * np.repeat(np.arange(len(sizes)), sizes)
            level[u], level[v] = layer + 1, layer + 2
            level[SINK] = 2 * len(sizes) + 1
            push = np.concatenate((g.node_in[u], g.node_out[u], g.node_out[v],
                                   *g.frame_links.values()))
            heads = g.e_dst[push]
            eids = push[np.argsort(level[heads] * n + heads, kind="stable")]
            heads = g.e_dst[eids]
            first = np.flatnonzero(np.diff(heads, prepend=-1))
            bounds = np.flatnonzero(np.diff(level[heads[first]], prepend=-1))
            ends = np.append(first, len(eids))
            levels = [(ends[a], ends[b], first[a:b] - ends[a], heads[first[a:b]])
                      for a, b in zip(bounds, np.append(bounds[1:], len(first)))]
            self._dag = (eids, g.e_src[eids], heads, levels)
        return self._dag

    @property
    def n_nodes(self) -> int:
        return len(self.graph.node_kind)

    def res_endpoints(self, eid: int) -> tuple[int, int]:
        ends = int(self.graph.e_src[eid]), int(self.graph.e_dst[eid])
        return ends if self.flow[eid] == 0 else ends[::-1]

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
    graph, then append and clip through it; it reads the graph's columns
    and keeps only a flow per edge slot and a potential per node slot.
    """

    roots = (SINK, SOURCE)

    def __init__(self, graph: TrackingGraph):
        super().__init__(graph)
        self.potential = np.zeros(self.n_nodes + 1)
        self._sync()

    @property
    def target(self) -> int:
        return self.n_nodes

    def fwd_dst(self) -> np.ndarray:  # edge heads, the target for the sink
        return np.where(self.graph.e_dst == SINK, self.target, self.graph.e_dst)

    def arcs(self):
        if self._arcs is None:
            self._arcs = self._slots(self.n_nodes + 1, self.fwd_dst())
        return self._arcs

    def _sync(self):
        """Fit flow and potentials to the graph's slots after an append (new
        slots start at 0, the target's potential moves to the end), re-read
        the live costs' scale and drop the indexes."""
        g, n = self.graph, self.n_nodes
        flow = np.zeros(len(g.e_src), dtype=np.int8)
        flow[:len(self.flow)] = self.flow
        self.flow = flow
        old = self.potential
        if len(old) != n + 1:
            self.potential = np.zeros(n + 1)
            self.potential[:len(old) - 1] = old[:-1]
            self.potential[n] = old[-1]
        live = np.abs(g.e_cost[g.e_alive])
        self.eps = EPS * float(np.max(live)) if len(live) else 0.0
        self.cost_sum = float(np.sum(live))
        self._arcs = self._dag = None

    def check_frame(self, prepared):
        """check_cost_sum over the live edges and a prepared frame's, so a
        frame whose costs would overflow is rejected before it changes
        anything."""
        new = prepared.node_costs.ravel().tolist() + prepared.link_costs.tolist()
        check_cost_sum(self.cost_sum + sum(map(abs, new)))

    def append_frame(self, detections, model, prepared):
        """Append prepared frames to the graph. Their edges carry no flow;
        each frame's nodes get potentials in one relaxation pass over their
        in-arcs (entries and links from frame - 1), and the sink's potential
        drops to its lowest new exit, which keeps every reduced cost >= 0.
        On an empty graph these are the DAG shortest-path distances, from
        which the solve starts at zero flow."""
        g = self.graph
        g.append_frame(detections, model, prepared=prepared)
        self._sync()
        p, t, c = self.potential, self.target, g.e_cost
        for frame in prepared.frames:
            u, v = g.frame_nodes[frame]
            links = g.frame_links[frame]
            p[u] = p[SOURCE] + c[g.node_in[u]]
            np.minimum.at(p, g.e_dst[links], p[g.e_src[links]] + c[links])
            p[v] = p[u] + c[g.node_out[u]]
            p[t] = np.min(p[v] + c[g.node_out[v]], initial=p[t])

    def clip_oldest_frame(self, solution: FlowSolution):
        """Clip the graph's oldest frame. The freed edge slots lose their
        flow, and each continuing track's flow moves onto its folded entry
        edge, whose reduced cost is the sum of the flowed arcs' it replaces
        (each <= 0), so the potentials stay valid."""
        g, t_min = self.graph, self.graph.t_min
        u, v = g.frame_nodes[t_min]
        freed = np.concatenate((g.node_in[u], g.node_out[u], g.node_out[v],
                                g.links_out_of(t_min)))
        succ = [g.u_node(t.detections[1]) for t in solution.trajectories
                if t.detections[0].frame == t_min and len(t.detections) > 1]
        g.clip_oldest_frame(solution)
        self.flow[freed] = 0
        self.flow[g.node_in[succ]] = 1

    def reprice(self):
        """Set rcost to every edge's reduced cost in its residual direction
        (a reversed exit leaves the root, of potential 0)."""
        g, p = self.graph, self.potential
        p_src = p[g.e_src]
        fwd = g.e_cost + p_src - p[self.fwd_dst()]
        rev = p[g.e_dst] - p_src - g.e_cost
        self.rcost = np.where(self.flow == 0, fwd, rev)

    def exits(self, dist: np.ndarray):
        """The usable arcs into the target, the unflowed exits v -> sink, as
        (values, tails v), sorted by value dist(v) + clamped reduced cost: the
        length of the tree path to v and on to the target. Exits of
        unreached nodes are left out; the least value is dist[target]."""
        g = self.graph
        eids = np.flatnonzero((g.e_kind == EXIT) & g.e_alive & (self.flow == 0))
        tails = g.e_src[eids]
        values = dist[tails] + np.maximum(self.rcost[eids], 0.0)
        order = np.argsort(values, kind="stable")
        order = order[np.isfinite(values[order])]
        return values[order], tails[order]

    def exit_bound(self, dist: np.ndarray, v: int, eid: int) -> float:
        """dist(v) plus the clamped reduced cost of v's exit eid as an
        unflowed arc into the target: after a cycle from the sink root frees
        that exit, a lower bound on the length of any path through it."""
        p = self.potential
        return dist[v] + max(self.graph.e_cost[eid] + p[v] - p[self.target], 0.0)

    def settle(self, dist: np.ndarray, cap: float):
        """Raise the potentials by a search's distances capped at cap, the
        value of the last path pushed from that search (or of its shortest
        path if none was), and the target's by exactly cap. Every residual
        reduced cost stays >= 0 and the pushed paths' become 0, provided each
        pushed path was a shortest path at its turn and no usable arc into
        the target is left below cap. The roots stay at 0."""
        raised = np.minimum(dist, cap)
        raised[self.target] = cap
        self.potential += raised


def extract_path(res: ResidualGraph, labels: PredecessorMap,
                 via: int | None = None) -> Path | None:
    """Walk the predecessor chain back from res.target to one of res.roots;
    None if the target is unreached. With via, the path is via's tree path
    and then the arc via -> target, which need not be a tree arc. Each arc
    u -> v is the slot keyed u * n + v. The target stands for the sink in
    the returned path."""
    if not np.isfinite(labels.dist[res.target if via is None else via]):
        return None
    matrix, slot_eid, _, _, slot_key = res.arcs()
    n, pred = matrix.shape[0], labels.pred
    nodes = [res.target] if via is None else [res.target, via]
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
    """Sum of unreduced edge costs along a residual path, rounded once: a
    cycle whose costs cancel, such as one swapping two equal continuations
    of a track, costs exactly 0, so the stop rule does not push it back and
    forth forever. An arc that runs against its edge negates the cost; the
    direction is read from the path's nodes, not from the flow, so a path
    is priced as it was found even after some of its arcs flipped."""
    g = res.graph
    costs, tails = g.e_cost[path.eids].tolist(), g.e_src[path.eids].tolist()
    return math.fsum(c if t == u else -c
                     for u, t, c in zip(path.nodes, tails, costs))


def dag_shortest_path(res: ResidualGraph, stats: SolverStats | None = None,
                      excluded: np.ndarray | None = None):
    """Shortest paths from the source over the forward (acyclic) graph,
    compiled: one numpy min-reduction per level of res.dag_levels().

    Handles negative costs. The residual graph must carry no flow. excluded
    is a boolean node mask of nodes the sweep may not enter, so it never
    leaves them either. A node's predecessor is the tail of its first tight
    in-edge in push order: the edge a strict-< relaxation in that order
    keeps. relaxations counts the edges out of reached nodes into nodes not
    excluded. Returns (path_to_sink_or_None, labels).
    """
    stats = stats or SolverStats()
    labels = PredecessorMap(res.n_nodes)
    if res.graph.is_empty:
        return None, labels
    if np.any(res.flow[res.graph.e_alive]):
        raise InvariantBreach("DAG sweep over a residual graph carrying flow")
    eids, tails, heads, levels = res.dag_levels()
    w = res.rcost[eids]
    if excluded is not None:
        w[excluded[heads]] = np.inf
    dist = labels.dist
    for a, b, starts, level_heads in levels:
        dist[level_heads] = np.minimum.reduceat(dist[tails[a:b]] + w[a:b],
                                                starts)
    via = dist[tails] + w
    reached = np.isfinite(via)
    stats.relaxations += int(np.count_nonzero(reached))
    stats.searches += 1
    tight = np.flatnonzero(reached & (via == dist[heads]))
    first = tight[np.diff(heads[tight], prepend=-1) != 0]
    labels.pred[heads[first]] = tails[first]
    return extract_path(res, labels), labels


def convert_edge_costs(res: ResidualGraph, labels: PredecessorMap) -> PredecessorMap:
    """Replace every residual arc cost c(u,v) by c(u,v) + d(u) - d(v).

    Arcs leaving unreachable nodes are left untouched (they can never be
    traversed). Returns the labels valid after conversion: zero for every
    reachable node, infinity otherwise, with the same predecessors.
    """
    d, g = labels.dist, res.graph
    if len(res.rcost):
        fwd = res.flow == 0
        rs = np.where(fwd, g.e_src, g.e_dst)
        rd = np.where(fwd, g.e_dst, g.e_src)
        ds, dd = d[rs], d[rd]
        ok = np.isfinite(ds) & np.isfinite(dd) & g.e_alive
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
    stats.searches += 1
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
    # Parent -> child CSR of the tree, children in node order within a row;
    # row n is the virtual root, holding the seeds.
    child = np.flatnonzero(pred >= 0)
    parent = pred[child]
    indices = np.concatenate((child[np.argsort(parent, kind="stable")], seeds))
    counts = np.bincount(parent, minlength=n + 1)
    counts[n] = len(seeds)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    tree = csr_matrix((np.ones(len(indices)), indices.astype(np.int32),
                       indptr.astype(np.int32)), shape=(n + 1, n + 1))
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
    stats.searches += 1
    return extract_path(res, labels), labels


def decode_trajectories(res: ResidualGraph, start_id: int = 0) -> list[Trajectory]:
    """Follow the flow from every flowed entry edge, through the successor
    map node -> (head, edge cost) of the flowed edges out of other nodes;
    a trajectory costs the left fold of its edge costs."""
    g = res.graph
    flowed = np.flatnonzero((res.flow == 1) & g.e_alive)
    entries = flowed[g.e_src[flowed] == SOURCE]
    starts = sorted(zip(g.e_dst[entries].tolist(), g.e_cost[entries].tolist()),
                    key=lambda start: g.node_det[start[0]].key)
    succ = dict(zip(g.e_src[flowed].tolist(), zip(g.e_dst[flowed].tolist(),
                                                   g.e_cost[flowed].tolist())))
    trajectories = []
    for i, (u, cost) in enumerate(starts):
        det = g.node_det[u]
        dets = [det]
        while True:
            if (step := succ.get(u)) is None:
                raise InvariantBreach(
                    f"dangling flow: detection edge of {det.key} carries no flow")
            v, c = step
            cost += c
            if (step := succ.get(v)) is None:
                raise InvariantBreach(f"trajectory through {det.key} has no outflow")
            u, c = step
            cost += c
            if u == SINK:
                break
            det = g.node_det[u]
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
    solution.edge_flow = dict(zip(graph.live_edges(),
                                  res.flow[graph.e_alive].tolist()))
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

    excluded = np.zeros(res.n_nodes, dtype=bool)
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
        dets = [graph.node_det[u] for u in path.nodes[1:-1:2]]  # u, v, ...
        trajectories.append(Trajectory(len(trajectories), dets, cost))
        total += cost
        for eid in path.eids:
            edge_flow[eid] = 1
        excluded[path.nodes[1:-1]] = True
    return FlowSolution(trajectories=trajectories, total_cost=total,
                        edge_flow=edge_flow), stats
