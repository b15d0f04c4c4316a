"""Successive shortest path solvers over the tracking graph.

Contains the residual graph (a flow per edge and node potentials, from which
each search derives the reduced costs c + p(u) - p(v) it reads, and the
decode of the flow), the DAG shortest-path sweep, the full Dijkstra search,
the paper's dynamic broadcast that re-labels only the invalidated part of the
shortest-path tree, trajectory decoding kept up to date from the edges whose
flow changed (FlowDecoder), and the greedy DP baseline. Every search is
compiled: one DAG relaxation (_relax_frames) gives the sweep's labels and
each appended frame's potentials, and both other searches are scipy's
Dijkstra over one CSR of the residual arcs.

Every solver runs on one residual graph, whose sink is split into a root
and a target (ResidualGraph). Every exact solver runs one loop,
successive_shortest_paths: each round pushes from one search's tree, and
the potentials then settle. ssp pushes one path per full search, as the
paper's standard SSP does. dssp pushes every candidate that is still a
shortest path at its turn (as in muSSP, Wang et al., NeurIPS 2019) and
broadcasts after each round. The online trackers push several per full
search, from the last frame's optimum. The greedy dp sweeps the forward
graph alone and carries no flow.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from operator import attrgetter

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import DataError, InvariantBreach
from .graph import (DET, ENTRY, EXIT, LINK, NO_EDGES, SINK, SOURCE,
                    FlowSolution, TrackingGraph, Trajectory)

#: Tolerance for reduced-cost non-negativity, relative to the graph's largest
#: |edge cost|: a search weighs values in [-eps, 0), eps = EPS * that cost,
#: as zero and rejects any below. Being relative, it makes a solve invariant
#: under scaling every cost by a power of two.
EPS = 1e-9
NO_NODES = np.zeros((2, 0), dtype=np.int64)


@dataclass(slots=True)
class SolverStats:
    """The one record of a solve: a batch solve, one online frame, or an
    online tracker's totals over its frames.

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
    An online frame's record counts one cache hit, a solve from the previous
    frame's optimum, or one miss, a solve from zero flow. frame is the frame
    solved (-1 for a batch solve and for totals). The caller that times the
    solve stamps wall_time, its seconds, and the graph's live sizes after
    it: OnlineTracker.process_frame for a frame, the bench for a batch
    solve.
    """

    relaxations: int = 0
    queue_pushes: int = 0
    iterations: int = 0
    searches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    frame: int = -1
    wall_time: float = 0.0
    live_nodes: int = 0
    live_edges: int = 0


class PredecessorMap:
    """Per-node shortest-path distance labels and the predecessor tree:
    pred[v] is the node before v, -1 for none (a root or an unreached node).
    The edge of a tree arc u -> v is the residual slot keyed u * n + v (see
    ResidualGraph.arcs). They start at 0 for the roots, inf elsewhere."""

    def __init__(self, n_nodes: int, roots):
        self.dist = np.full(n_nodes, np.inf)
        self.dist[list(roots)] = 0.0
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


#: ResidualGraph.arcs: the CSR over the search nodes and a virtual root, and
#: per edge slot in CSR order its edge, is-reverse flag, row, column and key
#: row * n + col.
Arcs = namedtuple("Arcs", "matrix eid rev row col key")


class ResidualGraph:
    """The residual graph of every solver: a tracking graph plus a flow per
    edge slot, a potential per search node and the decode of its flow.

    Edges carrying flow are traversed dst -> src. Every search node u has a
    potential p(u). Flow and potentials are the whole state: an edge's
    reduced cost in its residual direction, c + p(tail) - p(head), is
    derived from them on read (reduced), so none goes stale. eps is the
    tolerance below 0 that a reduced cost may reach by rounding (see EPS).

    A track that continues into a new frame keeps the flow value: it is a
    cycle sink -> v_old (reversed exit) -> u_new -> v_new -> sink. So the
    search splits the sink: its out-arcs, the reversed flowed exits, leave a
    root, which shares potential 0 with the source, the other root; exits
    enter the target, node n_nodes, which holds the sink's potential. The
    search nodes are the graph's node slots and the target. A tracker builds
    it over an empty graph and keeps it from frame to frame through appends
    and clips; a batch solve builds it over the whole graph.
    """

    roots = (SINK, SOURCE)

    def __init__(self, graph: TrackingGraph):
        g = self.graph = graph
        self.flow = np.zeros(len(g.e_src), dtype=np.int8)
        self.touched: list[int] = []  # edges flipped since the last decode
        self.potential = np.zeros(self.n_nodes + 1)  # node slots, the target
        self.decoded = FlowDecoder(graph)
        self._read_costs()
        check_cost_sum(self.cost_sum)

    @property
    def n_nodes(self) -> int:
        return len(self.graph.node_kind)

    @property
    def target(self) -> int:
        return self.n_nodes

    def _read_costs(self):
        """Re-read the live costs' scale (eps) and sum after the graph
        changed, and drop the arc index built over its slots."""
        live = np.abs(self.graph.e_cost[self.graph.e_alive])
        self.eps = EPS * float(np.max(live, initial=0.0))
        with np.errstate(over="ignore"):
            self.cost_sum = float(np.sum(live))
        self._arcs = None

    def fwd_dst(self, eids=slice(None)) -> np.ndarray:
        """The search node each edge eids' (default every slot's) forward
        arc ends at: its head, the target for the sink."""
        dst = self.graph.e_dst[eids]
        return np.where(dst == SINK, self.target, dst)

    def reduced(self, eids=slice(None)) -> np.ndarray:
        """The reduced cost of each edge eids (default every slot) in its
        residual direction, from the flow and the potentials."""
        g, p = self.graph, self.potential
        cost, p_src = g.e_cost[eids], p[g.e_src[eids]]
        fwd = cost + p_src - p[self.fwd_dst(eids)]
        rev = p[g.e_dst[eids]] - p_src - cost
        return np.where(self.flow[eids] == 0, fwd, rev)

    def arcs(self) -> Arcs:
        """Static index of residual arc slots over the search nodes, built
        on first use.

        Every live edge has a forward slot (src -> fwd_dst, usable while it
        carries no flow) and a reverse slot (dst -> src, usable while it
        does), sorted by row then column. Row n is a virtual root with a
        slot to every search node after them, where a broadcast starts.
        Only the weights change from search to search. Indexes are int32,
        which scipy keeps as given (int64 ones it checks and copies down).
        """
        if self._arcs is None:
            g, n = self.graph, len(self.potential)
            live = np.flatnonzero(g.e_alive)
            src, dst = g.e_src[live], g.e_dst[live]
            keys = np.concatenate((src * n + self.fwd_dst()[live],
                                   dst * n + src))
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            rows, cols = keys // n, keys % n
            indptr = np.append(np.searchsorted(rows, np.arange(n + 1)),
                               len(keys) + n).astype(np.int32)
            matrix = csr_matrix(
                (np.zeros(len(keys) + n),
                 np.concatenate((cols, np.arange(n))).astype(np.int32),
                 indptr), shape=(n + 1, n + 1))
            self._arcs = Arcs(matrix, np.concatenate((live, live))[order],
                              (order >= len(live)).astype(np.int8), rows,
                              cols, keys)
        return self._arcs

    def flip(self, eids: np.ndarray):
        """Push or cancel the unit of flow on the distinct edges eids: their
        residual arcs turn round."""
        self.flow[eids] ^= 1
        self.touched += eids.tolist()

    def _sync(self):
        """Fit flow and potentials to the graph's slots after an append: new
        slots start at 0 and the target's potential moves to the end."""
        g, n, old = self.graph, self.n_nodes, self.potential
        self.flow = np.concatenate(
            (self.flow, np.zeros(len(g.e_src) - len(self.flow), np.int8)))
        self.potential = np.zeros(n + 1)
        self.potential[:len(old) - 1] = old[:-1]
        self.potential[n] = old[-1]
        self._read_costs()

    def check_frame(self, prepared):
        """check_cost_sum over the live edges and a prepared frame's, so a
        frame whose costs would overflow is rejected before it changes
        anything."""
        new = prepared.node_costs.ravel().tolist() + prepared.link_costs.tolist()
        check_cost_sum(self.cost_sum + sum(map(abs, new)))

    def append_frame(self, detections, model, prepared):
        """Append prepared frames to the graph. Their edges carry no flow;
        their nodes get potentials, and the sink's potential drops to its
        lowest new exit, in the one DAG relaxation (_relax_frames) over the
        edge costs, which keeps every reduced cost >= 0. On an empty graph
        these are the DAG shortest-path distances, from which the solve
        starts at zero flow."""
        g = self.graph
        g.append_frame(detections, model, prepared=prepared)
        self._sync()
        _relax_frames(self, self.potential, prepared.frames, g.e_cost)

    def decode(self) -> FlowSolution:
        """Bring the kept decode up to date with the edges flipped since the
        last (FlowDecoder.update)."""
        touched, self.touched = self.touched, []
        return self.decoded.update(self, touched)

    def clip_oldest_frame(self, heads: list[Chain]):
        """Clip the graph's oldest frame, folding the decoded trajectories
        that start there, the chains heads (FlowDecoder.clip). The freed edge
        slots lose their flow, and each continuing track's flow moves onto
        its folded entry edge, whose reduced cost is the sum of the flowed
        arcs' it replaces (each <= 0), so the potentials stay valid."""
        g = self.graph
        g.clip_oldest_frame(FlowSolution([c.traj for c in heads]))
        self.flow[~g.e_alive] = 0
        self.flow[g.node_in[[c.nodes[1] for c in heads if len(c.nodes) > 1]]] = 1
        self.decoded.clip(heads)

    def exits(self, dist: np.ndarray):
        """The usable arcs into the target, the unflowed exits v -> sink, as
        (values, tails v), sorted by value dist(v) + clamped reduced cost: the
        length of the tree path to v and on to the target. Exits of
        unreached nodes are left out; the least value is dist[target]."""
        g = self.graph
        eids = np.flatnonzero((g.e_kind == EXIT) & g.e_alive & (self.flow == 0))
        tails = g.e_src[eids]
        values = dist[tails] + np.maximum(self.reduced(eids), 0.0)
        order = np.argsort(values, kind="stable")
        order = order[np.isfinite(values[order])]
        return values[order], tails[order]

    def settle(self, dist: np.ndarray, cap: float):
        """Raise the potentials by a search's distances capped at cap (see
        push_round), and the target's by exactly cap. Every residual reduced
        cost stays >= 0 and the pushed paths' become 0, provided each pushed
        path was a shortest path at its turn and no usable arc into the
        target is left below cap. The roots stay at 0."""
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
    arcs, n, pred = res.arcs(), len(res.potential), labels.pred.item
    nodes = [res.target] if via is None else [res.target, via]
    while (u := pred(nodes[-1])) >= 0:
        nodes.append(u)
        if len(nodes) > n:
            raise InvariantBreach("predecessor chain contains a cycle")
    if nodes[-1] not in res.roots:
        raise InvariantBreach(f"broken predecessor chain at node {nodes[-1]}")
    nodes.reverse()
    chain = np.array(nodes, dtype=np.int64)
    eids = arcs.eid[np.searchsorted(arcs.key, chain[:-1] * n + chain[1:])]
    nodes[-1] = SINK
    return Path(nodes, eids.tolist())


def path_original_cost(res: ResidualGraph, path: Path) -> float:
    """Sum of unreduced edge costs along a residual path, rounded once: a
    cycle whose costs cancel, such as one swapping two equal continuations
    of a track, costs exactly 0, so the stop rule does not push it back and
    forth forever. An arc that runs against its edge negates the cost; the
    direction is read from the path's nodes, not from the flow, so a path
    is priced as it was found even after some of its arcs flipped."""
    g, eids = res.graph, np.array(path.eids)
    costs = g.e_cost[eids]
    return math.fsum(np.where(g.e_src[eids] == path.nodes[:-1], costs,
                              -costs).tolist())


def _relax_frames(res: ResidualGraph, dist: np.ndarray, frames, w):
    """Relax into dist (a label per search node) the forward in-arcs of the
    nodes of frames, in frame order, each edge slot weighed by w: a u node
    takes its entry, then the least with its links; a v node its u node's label
    plus its detection edge; the target the least of its label and the exits.
    Only links go frame by frame: one from a frame of the run carries its
    tail's u label plus that detection edge plus its own weight, bit for bit
    the tail's label to be plus its weight, so the v nodes follow in one pass;
    the first frame's links leave the frame before, whose labels are set.
    Returns the u and v nodes, the entries' labels, the links' tails and heads
    in push order with their labels, and the exits' labels."""
    g = res.graph
    u, v = np.concatenate([NO_NODES, *map(g.frame_nodes.get, frames)], axis=1)
    links = np.concatenate([NO_EDGES, *map(g.frame_links.get, frames)])
    tails, heads, w_link = g.e_src[links], g.e_dst[links], w[links]
    tail_det = g.node_in[tails]
    tail_u, w_tail = g.e_src[tail_det], w[tail_det]
    entry = dist[SOURCE] + w[g.node_in[u]]
    via = np.empty(len(links))
    dist[u] = entry
    b = 0
    for i, f in enumerate(frames):
        d = b + len(g.frame_links[f])
        out = via[b:d]
        if i == 0:
            np.add(dist[tails[b:d]], w_link[b:d], out=out)
        else:
            np.add(dist[tail_u[b:d]], w_tail[b:d], out=out)
            out += w_link[b:d]
        np.minimum.at(dist, heads[b:d], out)
        b = d
    dist[v] = dist[u] + w[g.node_out[u]]
    exits = dist[v] + w[g.node_out[v]]
    dist[res.target] = np.min(exits, initial=dist[res.target])
    return u, v, entry, tails, heads, via, exits


def dag_shortest_path(res: ResidualGraph, stats: SolverStats | None = None,
                      excluded: np.ndarray | None = None):
    """Shortest paths from the source over the forward (acyclic) graph: the
    one DAG relaxation (_relax_frames) over every frame, from fresh labels.

    Handles negative costs. The residual graph must carry no flow, and its
    potentials are not read: the sweep weighs each edge by its cost. excluded
    is a boolean node mask of nodes the sweep may not enter (their in-edges
    weigh inf), so it never leaves them either. Every root starts at 0. A
    node's predecessor is the tail of its first tight in-edge in push order
    (entries, links in frame_links order, detection edges, exits in frame
    order): the edge a strict-< relaxation in that order keeps. relaxations
    counts the edges out of reached nodes into nodes not excluded. Returns
    (path to res.target or None, labels).
    """
    stats = stats or SolverStats()
    labels = PredecessorMap(len(res.potential), res.roots)
    g, dist = res.graph, labels.dist
    if g.is_empty:
        return None, labels
    if np.any(res.flow[g.e_alive]):
        raise InvariantBreach("DAG sweep over a residual graph carrying flow")
    w = (g.e_cost if excluded is None else
         np.where(excluded[res.fwd_dst()], np.inf, g.e_cost))
    u, v, entry, tails, heads, via, exits = _relax_frames(
        res, dist, g.frames, w)
    tails = np.concatenate((np.full(len(u), SOURCE), tails, u, v))
    heads = np.concatenate((u, heads, v, np.full(len(v), res.target)))
    via = np.concatenate((entry, via, dist[v], exits))
    reached = np.isfinite(via)
    stats.relaxations += int(np.count_nonzero(reached))
    stats.searches += 1
    tight = np.flatnonzero(reached & (via == dist[heads]))
    first = tight[np.unique(heads[tight], return_index=True)[1]]  # per head
    labels.pred[heads[first]] = tails[first]
    return extract_path(res, labels), labels


def convert_edge_costs(res: ResidualGraph, labels: PredecessorMap) -> PredecessorMap:
    """Add the reached nodes' distance labels d to their potentials, so
    every residual arc's reduced cost c + p(u) - p(v), derived from them on
    read, gains d(u) - d(v).

    Unreached nodes keep their potentials: no search ever reaches them
    again, so the arcs leaving them are never traversed. An arc between
    reached nodes whose reduced cost falls below -eps means the labels were
    not shortest-path distances (InvariantBreach). Returns the labels valid
    after conversion: zero for every reachable node, infinity otherwise,
    with the same predecessors.
    """
    d, g = labels.dist, res.graph
    reached = np.isfinite(d)
    res.potential[reached] += d[reached]
    rc = res.reduced()
    bad = np.flatnonzero(reached[g.e_src] & reached[g.e_dst] & g.e_alive
                         & (rc < -res.eps))
    if len(bad):
        eid = int(bad[0])
        raise InvariantBreach(
            f"stale labels: reduced cost {rc[eid]} on edge {eid}")
    out = PredecessorMap.__new__(PredecessorMap)
    out.dist = np.where(reached, 0.0, np.inf)
    out.pred = labels.pred
    return out


def build_residual(res: ResidualGraph, *paths: Path) -> ResidualGraph:
    """Push one unit of flow along each of some edge-disjoint paths of zero
    reduced cost by reversing them: source-to-sink paths, or cycles through
    the sink. Every edge is checked, in path order, before any is flipped."""
    eids, tails, heads = [], [], []
    for path in paths:
        if path is None or not path.eids:
            raise DataError("cannot build a residual from an empty path")
        if path.nodes[0] not in (SOURCE, SINK) or path.nodes[-1] != SINK:
            raise DataError("path must run from the source or the sink to the sink")
        eids += path.eids
        tails += path.nodes[:-1]
        heads += path.nodes[1:]
    g, eids = res.graph, np.array(eids, dtype=np.int64)
    tails, heads = np.array(tails), np.array(heads)
    src, dst, flowed = g.e_src[eids], g.e_dst[eids], res.flow[eids] == 1
    bad = np.flatnonzero((np.where(flowed, dst, src) != tails)
                         | (np.where(flowed, src, dst) != heads))
    if len(bad):
        i = int(bad[0])
        raise DataError(f"path edge {eids[i]} does not connect "
                        f"{tails[i]}->{heads[i]}")
    res.flip(eids)
    return res


def _count_search(res: ResidualGraph, stats: SolverStats, eids, scanned,
                  cost, labelled):
    """Count a search, its scanned arcs (edges eids, reduced costs cost) and
    labelled nodes; a scanned arc's cost below -eps breaks its precondition."""
    bad = np.flatnonzero(scanned & (cost < -res.eps))
    if len(bad):
        i = bad[0]
        raise InvariantBreach(f"negative reduced cost {cost[i]} on edge {eids[i]}")
    stats.relaxations += int(np.count_nonzero(scanned))
    stats.queue_pushes += int(np.count_nonzero(labelled))
    stats.searches += 1


def dijkstra_full(res: ResidualGraph, stats: SolverStats | None = None):
    """Full Dijkstra from res.roots over the residual arcs, weighed by their
    reduced costs clamped at 0, compiled. relaxations counts the residual
    arcs out of reached nodes, queue_pushes the nodes reached. Returns
    (path to res.target or None, every node's labels)."""
    stats = stats or SolverStats()
    arcs, n = res.arcs(), len(res.potential)
    active = res.flow[arcs.eid] == arcs.rev
    cost = res.reduced()[arcs.eid]
    arcs.matrix.data[:len(cost)] = np.where(active, np.maximum(cost, 0.0),
                                            np.inf)
    dist, pred, _ = dijkstra(arcs.matrix, indices=res.roots, min_only=True,
                             return_predecessors=True)
    labels = PredecessorMap.__new__(PredecessorMap)
    labels.dist, labels.pred = dist[:n], np.maximum(pred[:n], -1)
    reached = np.isfinite(labels.dist)
    _count_search(res, stats, arcs.eid, active & reached[arcs.row], cost,
                  reached)
    return extract_path(res, labels), labels


def dynamic_broadcast(res: ResidualGraph, seeds, labels: PredecessorMap,
                      stats: SolverStats | None = None):
    """Re-label only the invalidated part of the shortest-path tree, compiled.

    seeds must contain every node whose predecessor arc may have changed
    (typically the nodes of the just-reversed paths); every other label must
    be a valid distance, as convert_edge_costs (all 0) or a settle after
    pushes leaves it. The affected set is the seeds other than the roots and
    their tree descendants, found by pointer doubling. Each of its nodes
    starts at its least label through a usable arc from outside, whose tail
    is then a frontier node (one labelled below 0 is an InvariantBreach), and
    one compiled Dijkstra over the arcs within the set gives the rest.
    relaxations counts the usable arcs into the set out of reached nodes,
    queue_pushes the nodes re-labelled. Returns the updated shortest path to
    the target; labels are updated in place.
    """
    stats = stats or SolverStats()
    dist, pred = labels.dist, labels.pred
    n = len(dist)
    seeds = np.asarray(seeds, dtype=np.int64)
    seeds = seeds[np.all(seeds[:, None] != res.roots, axis=1)]
    if not len(seeds):
        return extract_path(res, labels), labels
    # Pointer doubling: after round k, in_set holds the nodes with a seed
    # among their 2^k nearest ancestors and up their 2^k-th, n past a root.
    in_set = np.zeros(n + 1, dtype=bool)
    in_set[seeds] = True
    up = np.append(np.where(pred >= 0, pred, n), n)
    for _ in range(n.bit_length() + 1):
        in_set |= in_set[up]
        up = up[up]
        if (up == n).all():
            break
    else:
        raise InvariantBreach("predecessor tree contains a cycle")
    affected = np.flatnonzero(in_set[:n])
    dist[affected] = np.inf
    pred[affected] = -1

    arcs = res.arcs()
    # The usable arc slots into the set.
    slots = np.flatnonzero(in_set[arcs.col] & (res.flow[arcs.eid] == arcs.rev))
    eids, tails, heads = arcs.eid[slots], arcs.row[slots], arcs.col[slots]
    cost = res.reduced(eids)
    weight = np.maximum(cost, 0.0)
    # With the set's labels cleared, a reached tail lies outside the set.
    if np.any(dist[tails] < 0.0):
        x = int(tails[np.argmax(dist[tails] < 0.0)])
        raise InvariantBreach(f"frontier node {x} has negative label {dist[x]}")
    entry = dist[tails] + weight
    start = np.full(n, np.inf)
    np.minimum.at(start, heads, entry)
    # Each start label's arc (one of equal ones).
    tight = np.flatnonzero(entry == start[heads])
    first = np.full(n, -1)
    first[heads[tight]] = tails[tight]
    # One Dijkstra over the arcs within the set, from the virtual root,
    # whose slot to each node weighs its start label.
    inside, data = in_set[tails], arcs.matrix.data
    data.fill(np.inf)
    data[slots[inside]] = weight[inside]
    data[-n:] = start
    d, p, _ = dijkstra(arcs.matrix, indices=n, min_only=True,
                       return_predecessors=True)
    dist[affected] = d[affected]
    p = p[affected]
    pred[affected] = np.where(p == n, first[affected], np.maximum(p, -1))
    _count_search(res, stats, eids, np.isfinite(dist[tails]), cost,
                  np.isfinite(dist[affected]))
    return extract_path(res, labels), labels


def push_round(res: ResidualGraph, shortest: Path, labels: PredecessorMap,
               stats: SolverStats, guard: int, single: bool):
    """Push one search's candidates, the unflowed exits v -> target by value
    dist(v) + clamped reduced cost, each with v's tree path (shortest, the
    search's own path, for the first). A single round pushes only the first.
    Otherwise pushes stop at the first candidate that costs >= 0 (fsum of
    original costs), enters a node an earlier push used, or ranks after an
    exit a pushed cycle freed: so each push is a shortest path at its turn,
    and the labels stay a lower bound, by which the least remaining item
    certifies the optimum if it costs >= 0. The round's paths are disjoint
    and flipped together at its end. Returns the cap d_k (the last pushed
    value, else the first's), whether the optimum is certified, and a used
    mask.
    """
    dist, first = labels.dist, int(labels.pred[res.target])
    if single:
        values, tails = [float(dist[res.target])], [first]
    else:
        values, tails = (a.tolist() for a in res.exits(dist))
    used = np.zeros(len(dist), dtype=bool)
    freed = math.inf  # the least bound of an exit this round freed
    cap, certified, pushed = values[0], not single, []
    for value, v in zip(values, tails):
        if freed < value:
            certified = True
            break
        path = shortest if v == first else extract_path(res, labels, via=v)
        cost = path_original_cost(res, path)
        if cost >= 0.0 or used[path.nodes[1:-1]].any():
            certified = cost >= 0.0  # else it enters a node a push used
            break
        if stats.iterations >= guard:
            raise InvariantBreach(f"SSP exceeded its iteration bound {guard}")
        if path.nodes[0] == SINK:  # it frees its first node x's exit
            x, p = path.nodes[1], res.potential
            rc = res.graph.e_cost[path.eids[0]] + p[x] - p[res.target]
            freed = min(freed, dist[x] + max(rc, 0.0))
        used[path.nodes[1:-1]] = True
        pushed.append(path)
        stats.iterations += 1
        cap = value
    if pushed:  # nothing above reads the flow
        build_residual(res, *pushed)
    return cap, certified, used


def successive_shortest_paths(res: ResidualGraph, stats: SolverStats,
                              guard: int, path: Path | None,
                              labels: PredecessorMap, broadcast: bool = False,
                              single: bool = False):
    """Successive shortest paths on res from its flow and potentials until a
    round certifies the optimum or the target is unreached: the loop of
    every exact solver, from the first search's path and labels. Each round
    pushes from one search's tree (push_round), settles the potentials with
    the cap d_k, and searches again: in full, or with broadcast only the
    used nodes' and the target's subtrees, as outside them a label d becomes
    max(d - d_k, 0), its tree path's length after the settle, and no path
    is shorter (a path's last used node lies within d_k and no reversed arc
    follows it). guard bounds the pushes.
    """
    while path is not None:
        cap, certified, used = push_round(res, path, labels, stats, guard,
                                          single)
        res.settle(labels.dist, cap)
        if certified:
            break
        if broadcast:
            labels.dist = np.maximum(labels.dist - cap, 0.0)
            seeds = np.append(np.flatnonzero(used), res.target)
            path, labels = dynamic_broadcast(res, seeds, labels, stats)
        else:
            path, labels = dijkstra_full(res, stats)


@dataclass(eq=False, slots=True)
class Chain:
    """One decoded trajectory and what its walk read, position by position:
    each detection's u node, the left fold of the edge costs through its
    detection edge, and the flowed edge out of its v node (a link, or the
    exit for the last). traj is its Trajectory in the solution, whose
    detections are the nodes', and which costs its last fold plus that exit.
    key is the first detection's key and origin the track id its entry edge
    carries (-1 for none)."""

    traj: Trajectory
    nodes: list[int]
    folds: list[float]
    outs: list[int]
    key: tuple[int, int]
    origin: int


_chain_key = attrgetter("key")


class FlowDecoder:
    """A residual graph's flow decoded into trajectories, kept up to date
    from the edges whose flow changed.

    A trajectory follows the flow from a flowed entry edge through each
    detection edge and the flowed edge out of its v node, and costs the left
    fold of its edge costs. update re-walks only the trajectories through a
    detection at either end of a changed edge. Every other detection of
    such a trajectory kept its edges' flow, so a run of them lies in one
    chain of before and is copied from it, folds too when the fold before
    the run is unchanged. A trajectory that starts where a chain started is
    that chain, updated in place. No push unflows an entry: every pushed
    path starts at a root, and no path enters the source, whose reversed
    entries are the only arcs into it. So each chain an update touches still
    starts where it started and is walked from there, and an update ends no
    chain (an entry read unflowed is an InvariantBreach); chains leave only
    through clips. Decoding a flow from none, every flowed edge changed,
    walks every trajectory. The chains are kept in the order of their keys,
    which is the order of the solution's trajectories.
    """

    def __init__(self, graph: TrackingGraph):
        self.graph = graph
        self.chains: list[Chain] = []  # in key order
        self.chain_of: dict[int, Chain] = {}  # u node -> chain holding it
        # The last update's report. Each chain it walked, with its segments
        # (Trajectory before or None, start, end): the runs of its positions
        # that lay in one chain before, or in none. And the detections that
        # left every chain.
        self.fresh: dict[Chain, list] = {}
        self.dropped: list = []

    def update(self, res: ResidualGraph, eids) -> FlowSolution:
        """Re-decode after the flow of the live edges `eids` changed
        (repeats allowed). Returns every trajectory in key order, the
        chains' Trajectory objects, with their total cost. A walked
        trajectory carries the track id of the chain it updates, -1 for a
        new chain. Raises InvariantBreach if an entry edge lost its flow."""
        g, chain_of = self.graph, self.chain_of
        eids = np.asarray(eids, dtype=np.int64)
        src = g.e_src[eids]
        # The u nodes at either end of a changed edge; those whose entry
        # changed, each a new start; the flow now on their detection edges
        # that changed; and the flowed and the unflowed changed edges out of
        # v nodes, the flowed by tail.
        changed, entered, det_on, step, cut = set(), set(), {}, {}, set()
        for eid, kind, a, b, on, a_u in zip(
                eids.tolist(), g.e_kind[eids].tolist(), src.tolist(),
                g.e_dst[eids].tolist(), res.flow[eids].tolist(),
                g.e_src[g.node_in[src]].tolist()):
            if kind == ENTRY:
                if not on:
                    raise InvariantBreach(f"a push unflowed the entry edge "
                                          f"{eid}")
                changed.add(b)
                entered.add(b)
            elif kind == DET:
                changed.add(a)
                det_on[a] = on
            else:  # an exit or a link out of v node a, whose u node is a_u
                changed.add(a_u)
                if kind == LINK:
                    changed.add(b)
                if on:
                    step[a] = eid
                else:
                    cut.add(eid)
        marks: dict[Chain, list[int]] = {}  # chain -> its changed positions
        starts = []
        for x in sorted(changed):
            if (c := chain_of.get(x)) is not None:
                marks.setdefault(c, []).append(c.nodes.index(x))
            if x in entered or (c is not None and c.nodes[0] == x):
                starts.append(x)
        for c, positions in marks.items():
            positions.sort()
            if c.nodes[0] not in changed:
                starts.append(c.nodes[0])
        walks = [self._walk(s, changed, det_on, step, cut, marks)
                 for s in starts]
        gone = [x for x, on in det_on.items() if not on and x in chain_of]
        for x in gone:
            del chain_of[x]
        fresh = {}
        for c, traj, nodes, folds, outs, key, origin, segments in walks:
            if c is None:
                c = Chain(traj, nodes, folds, outs, key, origin)
                self._place(c)
                chain_of.update(dict.fromkeys(nodes, c))
            else:
                before = c.traj
                c.traj, c.nodes, c.folds, c.outs = traj, nodes, folds, outs
                for s, lo, hi in segments:  # nodes it did not hold before
                    if s is not before:
                        chain_of.update(dict.fromkeys(nodes[lo:hi], c))
            fresh[c] = segments
        self.fresh, self.dropped = fresh, [g.node_det[x] for x in gone]
        trajs = [c.traj for c in self.chains]
        return FlowSolution(trajectories=trajs,
                            total_cost=sum(t.cost for t in trajs))

    def _walk(self, s, changed, det_on, step, cut, marks):
        """Decode the trajectory that starts at u node s. Returns the chain
        that started at s, if any, and what the trajectory's chain holds:
        its Trajectory, nodes, folds, outs, key and origin, then its
        segments."""
        g, chain_of, sink = self.graph, self.chain_of, SINK
        cost, node_out, e_dst, node_det = g.e_cost, g.node_out, g.e_dst, g.node_det
        nodes, folds, outs, dets, segments = [], [], [], [], []
        acc = cost.item(g.node_in.item(s))  # the fold through the edge into x
        x = s
        while x != sink:
            c = chain_of.get(x)
            if x in changed:
                d, det = node_out.item(x), node_det[x]
                if not det_on.get(x, c is not None):
                    raise InvariantBreach(f"dangling flow: detection edge of "
                                          f"{det.key} carries no flow")
                acc += cost.item(d)
                e = step.get(e_dst.item(d))
                if e is None and c is not None:
                    e = c.outs[c.nodes.index(x)]
                    if e in cut:
                        e = None
                if e is None:
                    raise InvariantBreach(f"trajectory through {det.key} has "
                                          f"no outflow")
                n = len(nodes)
                segments.append((c and c.traj, n, n + 1))
                nodes.append(x)
                folds.append(acc)
                outs.append(e)
                dets.append(det)
                acc += cost.item(e)
                x = e_dst.item(e)
                continue
            if c is None:
                raise InvariantBreach(f"flow enters node {x}, which no decoded "
                                      f"trajectory holds")
            p = c.nodes.index(x)
            positions = marks.get(c, ())
            k = bisect_right(positions, p)
            end = positions[k] if k < len(positions) else len(c.nodes)
            segments.append((c.traj, len(nodes), len(nodes) + end - p))
            nodes += c.nodes[p:end]
            outs += c.outs[p:end]
            dets += c.traj.detections[p:end]
            if p == 0 or folds[-1] == c.folds[p - 1]:
                folds += c.folds[p:end]
            else:  # the run's prefix changed: fold its costs again
                for u, e in zip(c.nodes[p:end], c.outs[p:end]):
                    acc += cost.item(node_out.item(u))
                    folds.append(acc)
                    acc += cost.item(e)
            acc = folds[-1] + cost.item(outs[-1])
            x = c.nodes[end] if end < len(c.nodes) else sink
        was = chain_of.get(s)
        if was is None or was.nodes[0] != s:
            return (None, Trajectory(-1, dets, acc), nodes, folds, outs,
                    dets[0].key, g.e_origin.item(g.node_in.item(s)), segments)
        return (was, Trajectory(was.traj.track_id, dets, acc), nodes, folds,
                outs, was.key, was.origin, segments)

    def starting_in(self, us: np.ndarray) -> list[Chain]:
        """The chains that start at the u nodes us, in their order."""
        return [c for u in us.tolist()
                if (c := self.chain_of.get(u)) is not None and c.nodes[0] == u]

    def clip(self, heads: list[Chain]):
        """Drop the first detection of each chain in heads, whose frame the
        graph clipped. The rest of each, if any, stays the chain, from its
        second detection, onto whose entry the clip moved the flow, with the
        same folds and cost: the folded entry cost is the left fold of the
        costs it replaced."""
        g = self.graph
        for c in heads:
            self._remove(c)
            del self.chain_of[c.nodes[0]]
            if len(c.nodes) == 1:
                continue
            del c.nodes[0], c.folds[0], c.outs[0]
            c.traj = Trajectory(c.traj.track_id, c.traj.detections[1:],
                                c.traj.cost)
            c.key = c.traj.detections[0].key
            c.origin = g.e_origin.item(g.node_in.item(c.nodes[0]))
            self._place(c)

    def _place(self, c: Chain):
        self.chains.insert(bisect_left(self.chains, c.key, key=_chain_key), c)

    def _remove(self, c: Chain):
        del self.chains[bisect_left(self.chains, c.key, key=_chain_key)]


def _solution_from_residual(res: ResidualGraph) -> FlowSolution:
    """The decoded trajectories and their total; edge_flow is left empty."""
    return res.decode()


def _solve_batch(graph: TrackingGraph, broadcast: bool, single: bool):
    """Successive shortest paths from zero flow, the first round pushing
    from one DAG sweep's tree, whose distances become the potentials.
    Returns (solution with its edge flows, stats)."""
    stats = SolverStats()
    if graph.is_empty or graph.n_detections == 0:
        return FlowSolution(), stats
    res = ResidualGraph(graph)
    path, labels = dag_shortest_path(res, stats=stats)
    successive_shortest_paths(res, stats, graph.n_detections, path,
                              convert_edge_costs(res, labels), broadcast, single)
    solution = _solution_from_residual(res)
    for i, t in enumerate(solution.trajectories):
        t.track_id = i
    solution.edge_flow = dict(zip(graph.live_edges(),
                                  res.flow[graph.e_alive].tolist()))
    return solution, stats


def solve_ssp(graph: TrackingGraph):
    """Globally optimal batch solve, the paper's standard SSP: one path per
    full (compiled) Dijkstra search."""
    return _solve_batch(graph, broadcast=False, single=True)


def solve_dssp(graph: TrackingGraph):
    """Globally optimal batch solve: several paths per search, each round
    followed by a dynamic broadcast."""
    return _solve_batch(graph, broadcast=True, single=False)


def solve_dp_greedy(graph: TrackingGraph):
    """Greedy baseline: repeated DAG shortest paths without flow cancellation.

    Accepted paths have their nodes removed outright, so earlier choices can
    never be revised; not optimal, used only for comparison.
    """
    stats = SolverStats()
    res = ResidualGraph(graph)
    if graph.is_empty or graph.n_detections == 0:
        return FlowSolution(), stats

    excluded = np.zeros(len(res.potential), dtype=bool)
    trajectories = []
    edge_flow = {eid: 0 for eid in graph.live_edges()}
    total = 0.0
    for _ in range(graph.n_detections + 1):
        path, labels = dag_shortest_path(res, stats=stats, excluded=excluded)
        if path is None:
            break
        cost = float(labels.dist[res.target])
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
