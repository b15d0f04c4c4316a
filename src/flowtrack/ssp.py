"""Successive shortest path solvers over the tracking graph.

Contains the residual graph (a flow per edge and node potentials, from which
each search derives the reduced costs c + p(u) - p(v) it reads, and the
decode of the flow), the DAG shortest-path sweep, the full Dijkstra search,
the paper's dynamic broadcast that re-labels only the invalidated part of the
shortest-path tree, the decoded trajectories kept up to date by walking each
one again from its first node that a changed edge touches (FlowDecoder), and
the greedy DP baseline. Every search is
compiled: one DAG relaxation (_relax_frames) gives the sweep's labels and
each appended frame's potentials, and both other searches are scipy's
Dijkstra over the CSR of one slot table (ResidualGraph.arcs), which holds
per residual arc slot its tail, head, original cost and direction, and the
target's exit slots. It is built once after each append or clip, and keeps
one CSR object, resized when the node count changes. A full search derives
each slot's reduced cost from it once and prices the exits from those
values, a path is priced from its slots, and a broadcast reads the slots it
gathers. The flow and the potentials grow in place with the graph's
columns (graph.lengthen).

Every solver runs on one residual graph, whose sink is split into a root
and a target (ResidualGraph). Every exact solver runs one loop,
successive_shortest_paths: each round pushes from one search's tree, and
the potentials then settle. ssp pushes one path per full search, as the
paper's standard SSP does. dssp pushes every candidate that is still a
shortest path at its turn (as in muSSP, Wang et al., NeurIPS 2019) and
broadcasts after each round. The online trackers push several per full
search, from the last frame's optimum. The greedy dp sweeps the forward
graph alone and carries no flow: one sweep commits every path that the next
full sweep would return, and the next sweep resumes at the earliest frame
those paths touched.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import DataError, InvariantBreach
from .graph import (DET, ENTRY, EXIT, LINK, NO_EDGES, SINK, SOURCE,
                    FlowSolution, TrackingGraph, Trajectory, lengthen)

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
        excluded, for a resumed sweep those it re-labels; no queue (0).
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
    ResidualGraph.arcs). They start at 0 for the roots, inf elsewhere. rc is
    the reduced cost per slot that a full search read (dijkstra_full), None
    once the potentials may have moved since."""

    rc = None

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
    """A source-to-sink path: node sequence plus the edge taken into each
    node, and its original cost as extract_path read it from the slots."""

    nodes: list[int]
    eids: list[int]
    cost: float = math.nan


#: ResidualGraph.arcs, the slot table: the CSR over the search nodes and a
#: virtual root, and per arc slot in CSR order (by tail, then head) its edge,
#: is-reverse flag, tail (row), head (col), original cost of the arc (the
#: edge's cost, negated on a reverse slot) and key row * n + col. exits holds
#: the target's in-slots, the exits' forward slots, in edge order; eps and
#: cost_sum are read from the live costs with it (see ResidualGraph).
SlotTable = namedtuple("SlotTable",
                       "matrix eid rev row col cost key exits eps cost_sum")


class ResidualGraph:
    """The residual graph of every solver: a tracking graph plus a flow per
    edge slot, a potential per search node and the decode of its flow.

    Edges carrying flow are traversed dst -> src. Every search node u has a
    potential p(u). Flow and potentials are the whole state: an edge's
    reduced cost in its residual direction, c + p(tail) - p(head), is
    derived from them on read, so none goes stale. eps is the tolerance
    below 0 that a reduced cost may reach by rounding (see EPS), and
    cost_sum the sum of |edge cost| (check_cost_sum).

    Every search reads the slot table (arcs): per residual arc slot its
    tail, head, original cost and direction, over the live edges. A search
    derives each slot's reduced cost from it once (slot_reduced), bit for
    bit what the edge-column reference reduced() gives. An append or a clip
    changes the graph and drops the table, with eps and cost_sum; the next
    reader of any of them builds all three again, once.

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
        self._table = self._matrix = None
        # their buffers (graph.lengthen), at first the arrays themselves
        self._buffers = {"flow": self.flow, "potential": self.potential}
        check_cost_sum(self.cost_sum)

    @property
    def n_nodes(self) -> int:
        return len(self.graph.node_kind)

    @property
    def target(self) -> int:
        return self.n_nodes

    @property
    def eps(self) -> float:
        return self.arcs().eps

    @property
    def cost_sum(self) -> float:
        return self.arcs().cost_sum

    def fwd_dst(self, eids=slice(None)) -> np.ndarray:
        """The search node each edge eids' (default every slot's) forward
        arc ends at: its head, the target for the sink."""
        dst = self.graph.e_dst[eids]
        return np.where(dst == SINK, self.target, dst)

    def reduced(self, eids=slice(None)) -> np.ndarray:
        """The reduced cost of each edge eids (default every slot) in its
        residual direction, from the flow and the potentials: the reference
        that the slot table's reduced costs (slot_reduced) match."""
        g, p = self.graph, self.potential
        cost, p_src = g.e_cost[eids], p[g.e_src[eids]]
        fwd = cost + p_src - p[self.fwd_dst(eids)]
        rev = p[g.e_dst[eids]] - p_src - cost
        return np.where(self.flow[eids] == 0, fwd, rev)

    def arcs(self) -> SlotTable:
        """The slot table over the live edges, built on first use after the
        graph changed.

        Every live edge has a forward slot (src -> fwd_dst, usable while it
        carries no flow) and a reverse slot (dst -> src, usable while it
        does), sorted by row then column. Row n is a virtual root with a
        slot to every search node after them, where a broadcast starts.
        Only the weights change from search to search. Indexes are int32,
        which scipy keeps as given (int64 ones it checks and copies down).
        The CSR object is kept and takes the new arrays, resized in place
        (csr_matrix.resize) when the node count changed. Without dead edge
        slots, as under odssp, the edge columns are read as they are.
        """
        if self._table is None:
            g, n = self.graph, len(self.potential)
            if g.n_live_edges < len(g.e_alive):
                live = g.e_alive.nonzero()[0]
                src, dst, cost = g.e_src[live], g.e_dst[live], g.e_cost[live]
                kind = g.e_kind[live]
            else:  # no dead slot: the columns as they are
                live = np.arange(len(g.e_alive))
                src, dst, cost, kind = g.e_src, g.e_dst, g.e_cost, g.e_kind
            tails, heads = np.concatenate((src, dst)), np.concatenate((dst, src))
            heads[:len(live)][dst == SINK] = n - 1  # the target
            keys = tails * n + heads
            order = keys.argsort(kind="stable")
            keys, rows, cols = keys[order], tails[order], heads[order]
            at = np.empty(len(keys), dtype=np.int64)  # unsorted -> CSR slot
            at[order] = np.arange(len(keys))
            indptr = np.empty(n + 2, dtype=np.int32)
            indptr[:-1] = rows.searchsorted(np.arange(n + 1))
            indptr[-1] = len(keys) + n
            data = np.zeros(len(keys) + n)
            indices = np.concatenate((cols, np.arange(n)), dtype=np.int32)
            matrix = self._matrix
            if matrix is None:
                matrix = self._matrix = csr_matrix((data, indices, indptr),
                                                   shape=(n + 1, n + 1))
            else:
                if matrix.shape[0] != n + 1:
                    matrix.resize((n + 1, n + 1))
                matrix.data, matrix.indices, matrix.indptr = data, indices, indptr
            size = abs(cost)
            with np.errstate(over="ignore"):
                cost_sum = float(np.add.reduce(size))
            self._table = SlotTable(
                matrix, np.concatenate((live, live))[order],
                order >= len(live), rows, cols,
                np.concatenate((cost, -cost))[order], keys,
                at[:len(live)][kind == EXIT],
                EPS * float(np.maximum.reduce(size, initial=0.0)), cost_sum)
        return self._table

    def slot_reduced(self, slots=slice(None)) -> np.ndarray:
        """The reduced cost of each slot of the table (default every one)
        in the slot's own direction, from the potentials: a forward slot's
        (cost + p(tail)) - p(head), a reverse slot's (p(tail) - p(head)) +
        cost, its edge's cost negated. These are the floats reduced() gives
        the slot's edge while its flow makes the slot usable."""
        t, p = self.arcs(), self.potential
        cost, p_row, p_col = t.cost[slots], p[t.row[slots]], p[t.col[slots]]
        return np.where(t.rev[slots], (p_row - p_col) + cost,
                        (cost + p_row) - p_col)

    def flip(self, eids: np.ndarray):
        """Push or cancel the unit of flow on the distinct edges eids: their
        residual arcs turn round."""
        self.flow[eids] ^= 1
        self.touched += eids.tolist()

    def _sync(self):
        """Fit flow and potentials to the graph's slots after an append, by
        lengthening them in place (graph.lengthen) when a column grew: new
        slots start at 0 and the target's potential moves to the end."""
        n, target = self.n_nodes, len(self.potential) - 1
        if len(self.flow) < len(self.graph.e_src):
            lengthen(self, ("flow",), len(self.graph.e_src))
        if target < n:
            lengthen(self, ("potential",), n + 1)
            p = self.potential
            p[n], p[target] = p[target], 0.0
        self._table = None

    def check_frame(self, prepared):
        """check_cost_sum over the live edges and a prepared frame's, so a
        frame whose costs would overflow is rejected before it changes
        anything. The live edges' sum is the slot table's; when no table is
        built, as after a frame that ran no search, it is read from the edge
        columns as the table reads it, and no table is built for it."""
        g, t = self.graph, self._table
        if t is None:
            with np.errstate(over="ignore"):
                live = float(abs(g.e_cost[g.e_alive]).sum())
        else:
            live = t.cost_sum
        new = prepared.node_costs.ravel().tolist() + prepared.link_costs.tolist()
        check_cost_sum(live + sum(map(abs, new)))

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
        arcs' it replaces (each <= 0), so the potentials stay valid. The slot
        table, eps and cost_sum are dropped, as after an append."""
        g = self.graph
        self.flow[g.clip_oldest_frame(FlowSolution([c.traj for c in heads]))] = 0
        self.flow[g.node_in[[c.nodes[1] for c in heads if len(c.nodes) > 1]]] = 1
        self.decoded.clip(heads)
        self._table = None

    def exits(self, dist: np.ndarray, rc: np.ndarray | None = None):
        """The usable arcs into the target, the unflowed exits v -> sink, as
        (values, tails v), sorted by value dist(v) + clamped reduced cost: the
        length of the tree path to v and on to the target. Exits of
        unreached nodes are left out; the least value is dist[target]. The
        table's exit slots are filtered by flow, in edge order, and priced
        by rc, the reduced cost per slot at the current potentials, if
        given (PredecessorMap.rc), else by slot_reduced."""
        t = self.arcs()
        slots = t.exits[self.flow[t.eid[t.exits]] == 0]
        tails = t.row[slots]
        cost = self.slot_reduced(slots) if rc is None else rc[slots]
        values = dist[tails] + np.maximum(cost, 0.0)
        order = values.argsort(kind="stable")
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
                 via: int | None = None, stop=None) -> Path | None:
    """Walk the predecessor chain back from res.target to one of res.roots;
    None if the target is unreached. With via, the path is via's tree path
    and then the arc via -> target, which need not be a tree arc. With
    stop, a mask over the nodes, None also once the walk meets a node it
    marks (via included). Each arc u -> v is the slot keyed u * n + v, and
    the path costs the fsum of its slots' original costs. The target stands
    for the sink in the returned path."""
    t, n, pred = res.arcs(), len(res.potential), labels.pred.item
    if not math.isfinite(labels.dist.item(n - 1 if via is None else via)):
        return None
    nodes = [n - 1]
    u = pred(n - 1) if via is None else via
    for _ in range(n):
        if u < 0:
            break
        if stop is not None and stop.item(u):
            return None
        nodes.append(u)
        u = pred(u)
    else:
        raise InvariantBreach("predecessor chain contains a cycle")
    if nodes[-1] not in res.roots:
        raise InvariantBreach(f"broken predecessor chain at node {nodes[-1]}")
    nodes.reverse()
    chain = np.array(nodes, dtype=np.int64)
    slots = t.key.searchsorted(chain[:-1] * n + chain[1:])
    nodes[-1] = SINK
    return Path(nodes, t.eid[slots].tolist(), math.fsum(t.cost[slots].tolist()))


def path_original_cost(res: ResidualGraph, path: Path) -> float:
    """Sum of unreduced edge costs along a residual path, rounded once: a
    cycle whose costs cancel, such as one swapping two equal continuations
    of a track, costs exactly 0, so the stop rule does not push it back and
    forth forever. An arc that runs against its edge negates the cost. It is
    the price extract_path read from the path's slots (Path.cost), so a
    path is priced as it was found even after some of its arcs flipped."""
    return path.cost


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
    if len(frames) == 1:
        (u, v), links = g.frame_nodes[frames[0]], g.frame_links[frames[0]]
    else:
        u, v = np.concatenate([NO_NODES, *map(g.frame_nodes.get, frames)],
                              axis=1)
        links = np.concatenate([NO_EDGES, *map(g.frame_links.get, frames)])
    tails, heads, w_link = g.e_src[links], g.e_dst[links], w[links]
    if len(frames) > 1:  # the tails' u nodes and detection edges
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
    dist[res.target] = np.minimum.reduce(exits, initial=dist[res.target])
    return u, v, entry, tails, heads, via, exits


def dag_shortest_path(res: ResidualGraph, stats: SolverStats | None = None,
                      excluded: np.ndarray | None = None,
                      labels: PredecessorMap | None = None,
                      start: int | None = None):
    """Shortest paths from the source over the forward (acyclic) graph: the
    one DAG relaxation (_relax_frames) over the frames from frame start on
    (default every frame), and then the target over every exit.

    Handles negative costs. The residual graph must carry no flow, and its
    potentials are not read: the sweep weighs each edge by its cost. excluded
    is a boolean node mask of nodes the sweep may not enter (their in-edges
    weigh inf), so it never leaves them either. Every root starts at 0. A
    node's predecessor is the tail of its first tight in-edge in push order
    (entries, links in frame_links order, detection edges, exits in frame
    order): the edge a strict-< relaxation in that order keeps.

    Without labels the sweep starts from fresh ones over every frame. With
    labels, a sweep's over the same graph, and start, it resumes: the
    nodes of frames before start keep their labels and predecessors, which
    must be those of a sweep under excluded (so excluded may have grown only
    in frames from start on), and the rest are re-labelled in place, bit
    for bit as a fresh sweep under excluded. relaxations counts the edges
    out of reached nodes into re-labelled nodes not excluded, the target's
    from every frame. Returns (path to res.target or None, labels).
    """
    stats = stats or SolverStats()
    labels = labels or PredecessorMap(len(res.potential), res.roots)
    g, dist = res.graph, labels.dist
    if g.is_empty:
        return None, labels
    if np.any(res.flow[g.e_alive]):
        raise InvariantBreach("DAG sweep over a residual graph carrying flow")
    w = (g.e_cost if excluded is None else
         np.where(excluded[res.fwd_dst()], np.inf, g.e_cost))
    frames = list(g.frames)
    k = 0 if start is None else bisect_left(frames, start)
    kept = np.concatenate([NO_NODES, *map(g.frame_nodes.get, frames[:k])],
                          axis=1)[1]
    kept_exits = dist[kept] + w[g.node_out[kept]]
    dist[res.target] = np.min(kept_exits, initial=np.inf)
    u, v, entry, tails, heads, via, exits = _relax_frames(
        res, dist, frames[k:], w)
    tails = np.concatenate((np.full(len(u), SOURCE), tails, u, kept, v))
    heads = np.concatenate((u, heads, v,
                            np.full(len(kept) + len(v), res.target)))
    via = np.concatenate((entry, via, dist[v], kept_exits, exits))
    reached = np.isfinite(via)
    stats.relaxations += int(np.count_nonzero(reached))
    stats.searches += 1
    labels.pred[np.concatenate((u, v, [res.target]))] = -1
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
    bad = ((np.where(flowed, dst, src) != tails)
           | (np.where(flowed, src, dst) != heads)).nonzero()[0]
    if len(bad):
        i = int(bad[0])
        raise DataError(f"path edge {eids[i]} does not connect "
                        f"{tails[i]}->{heads[i]}")
    res.flip(eids)
    return res


def _count_search(eps: float, stats: SolverStats, eids, scanned, cost,
                  labelled):
    """Count a search, its scanned arcs (edges eids, reduced costs cost) and
    labelled nodes; a scanned arc's cost below -eps breaks its precondition."""
    bad = (scanned & (cost < -eps)).nonzero()[0]
    if len(bad):
        i = bad[0]
        raise InvariantBreach(f"negative reduced cost {cost[i]} on edge {eids[i]}")
    stats.relaxations += int(np.count_nonzero(scanned))
    stats.queue_pushes += int(np.count_nonzero(labelled))
    stats.searches += 1


def dijkstra_full(res: ResidualGraph, stats: SolverStats | None = None):
    """Full Dijkstra from res.roots over the residual arcs, weighed by their
    reduced costs clamped at 0, compiled: each slot's reduced cost is read
    once (slot_reduced), and the labels keep them (PredecessorMap.rc).
    relaxations counts the residual arcs out of reached nodes, queue_pushes
    the nodes reached. Returns (path to res.target or None, every node's
    labels)."""
    stats = stats or SolverStats()
    t, n = res.arcs(), len(res.potential)
    rc = res.slot_reduced()
    active = res.flow[t.eid] == t.rev
    t.matrix.data[:len(rc)] = np.where(active, np.maximum(rc, 0.0), np.inf)
    dist, pred, _ = dijkstra(t.matrix, indices=res.roots, min_only=True,
                             return_predecessors=True)
    labels = PredecessorMap.__new__(PredecessorMap)
    labels.dist, labels.pred, labels.rc = dist[:n], np.maximum(pred[:n], -1), rc
    reached = np.isfinite(labels.dist)
    _count_search(t.eps, stats, t.eid, active & reached[t.row], rc, reached)
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
    one compiled Dijkstra over the arcs within the set gives the rest. The
    usable slots into the set are gathered from the slot table and priced
    from it (slot_reduced). relaxations counts the usable arcs into the set
    out of reached nodes, queue_pushes the nodes re-labelled. Returns the
    updated shortest path to the target; labels are updated in place, and
    their rc is dropped, since the potentials moved since it was read.
    """
    stats = stats or SolverStats()
    dist, pred = labels.dist, labels.pred
    n, labels.rc = len(dist), None
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

    t = res.arcs()
    # The usable arc slots into the set.
    slots = np.flatnonzero(in_set[t.col] & (res.flow[t.eid] == t.rev))
    tails, heads = t.row[slots], t.col[slots]
    cost = res.slot_reduced(slots)
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
    inside, data = in_set[tails], t.matrix.data
    data.fill(np.inf)
    data[slots[inside]] = weight[inside]
    data[-n:] = start
    d, p, _ = dijkstra(t.matrix, indices=n, min_only=True,
                       return_predecessors=True)
    dist[affected] = d[affected]
    p = p[affected]
    pred[affected] = np.where(p == n, first[affected], np.maximum(p, -1))
    _count_search(t.eps, stats, t.eid[slots], np.isfinite(dist[tails]), cost,
                  np.isfinite(dist[affected]))
    return extract_path(res, labels), labels


def _blocks(values: np.ndarray, tails: np.ndarray):
    """zip(values.tolist(), tails.tolist()) in blocks, each twice the
    last, so that a reader who flattens them (chain.from_iterable) converts
    only as far as it reads."""
    start, size = 0, 8
    while start < len(values):
        end = start + size
        yield zip(values[start:end].tolist(), tails[start:end].tolist())
        start, size = end, 2 * size


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
    dist, target = labels.dist, res.target
    first = labels.pred.item(target)
    if single:
        items = [(dist.item(target), first)]
        cap = items[0][0]
    else:
        values, tails = res.exits(dist, labels.rc)
        items = chain.from_iterable(_blocks(values, tails))
        cap = float(values[0])
    used: set[int] = set()
    freed = math.inf  # the least bound of an exit this round freed
    certified, pushed = not single, []
    for value, v in items:
        if freed < value:
            certified = True
            break
        path = shortest if v == first else extract_path(res, labels, via=v)
        cost, inner = path_original_cost(res, path), path.nodes[1:-1]
        if cost >= 0.0 or not used.isdisjoint(inner):
            certified = cost >= 0.0  # else it enters a node a push used
            break
        if stats.iterations >= guard:
            raise InvariantBreach(f"SSP exceeded its iteration bound {guard}")
        if path.nodes[0] == SINK:  # it frees its first node x's exit
            x, p = path.nodes[1], res.potential
            rc = res.graph.e_cost[path.eids[0]] + p[x] - p[target]
            freed = min(freed, dist[x] + max(rc, 0.0))
        used.update(inner)
        pushed.append(path)
        stats.iterations += 1
        cap = value
    if pushed:  # nothing above reads the flow
        build_residual(res, *pushed)
    mask = np.zeros(len(dist), dtype=bool)
    mask[list(used)] = True
    return cap, certified, mask


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
    each detection's u node and the left fold of the edge costs through its
    detection edge. traj is its Trajectory in the solution, one object for
    the chain's whole life that walks, clips and the id pass change in
    place; its detections are the nodes', at consecutive frames, and it
    costs its last fold plus the exit. key is the first detection's key and
    origin the track id its entry edge carries (-1 for none)."""

    traj: Trajectory
    nodes: list[int]
    folds: list[float]
    key: tuple[int, int]
    origin: int


_chain_key = attrgetter("key")


class FlowDecoder:
    """A residual graph's flow decoded into trajectories, kept up to date
    from the edges whose flow changed.

    A trajectory follows the flow from a flowed entry edge through each
    detection edge and the flowed edge out of its v node, and costs the left
    fold of its edge costs. One map, out, holds each decoded u node's
    flowed edge out of its v node; update sets and deletes its entries from
    the changed exits and links. A chain that holds a node at either end of
    a changed edge keeps its positions before the first such node, whose
    edges all kept their flow, and is walked again from there to the sink.
    No push unflows an entry: every pushed path starts at a root, and no
    path enters the source, whose reversed entries are the only arcs into
    it. So each chain still starts where it started, and an update ends no
    chain (an entry read unflowed is an InvariantBreach); chains leave only
    through clips. A newly flowed entry starts a new chain, walked in full;
    decoding a flow from none, every flowed edge changed, walks every
    trajectory so. The chains are kept in the order of their keys, which is
    the order of the solution's trajectories. A walk cuts and extends its
    chain's Trajectory in place, so a frame's work follows the positions it
    walks, not the tracks' length; a solution update returned holds the
    live trajectories, which later updates change.
    """

    def __init__(self, graph: TrackingGraph):
        self.graph = graph
        self.chains: list[Chain] = []  # in key order
        self.chain_of: dict[int, Chain] = {}  # u node -> chain holding it
        self.out: dict[int, int] = {}  # u node -> flowed edge out of its v
        # The last update's report. Each chain it walked, with its segments
        # (track id before or None, start, end): the runs of its positions
        # that lay in one chain before, or in none. And the detections that
        # left every chain.
        self.fresh: dict[Chain, list] = {}
        self.dropped: list = []

    def update(self, res: ResidualGraph, eids) -> FlowSolution:
        """Re-decode after the flow of the live edges `eids` changed
        (repeats allowed). Returns every trajectory in key order, the
        chains' own Trajectory objects, with their total cost. A walked
        trajectory keeps the track id of its chain, -1 for a new chain.
        Raises InvariantBreach if an entry edge lost its flow."""
        g, chain_of, out = self.graph, self.chain_of, self.out
        eids = np.asarray(eids, dtype=np.int64)
        src = g.e_src[eids]
        # The u nodes at either end of a changed edge, those whose entry
        # changed and those whose detection edge lost its flow; out follows
        # the changed exits and links.
        changed, entered, off = set(), set(), []
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
                if not on:
                    off.append(a)
            else:  # an exit or a link out of v node a, whose u node is a_u
                changed.add(a_u)
                if kind == LINK:
                    changed.add(b)
                if on:
                    out[a_u] = eid
                elif out.get(a_u) == eid:
                    del out[a_u]
        first: dict[Chain, int] = {}  # chain -> its first changed position
        for x in changed:
            if (c := chain_of.get(x)) is not None:
                p = g.node_det[x].frame - c.key[0]  # consecutive frames
                first[c] = min(p, first.get(c, p))
        walks = [(c, p, c.nodes[p]) for c, p in first.items()]
        for x in entered:  # a new chain's traj is None until its walk
            if (c := chain_of.get(x)) is None or c.nodes[0] != x:
                walks.append((Chain(None, [], [], g.node_det[x].key,
                                    g.e_origin.item(g.node_in.item(x))), 0, x))
        walked = [self._walk(res.flow, changed, *w) for w in walks]
        gone = [x for x in dict.fromkeys(off) if x in chain_of]
        for x in gone:
            del chain_of[x]
        for c, p, _ in walks:
            chain_of.update(dict.fromkeys(c.nodes[p:], c))
        self.fresh = {c: segments for (c, _, _), segments in zip(walks, walked)}
        self.dropped = [g.node_det[x] for x in gone]
        trajs = [c.traj for c in self.chains]
        return FlowSolution(trajectories=trajs,
                            total_cost=sum(t.cost for t in trajs))

    def _walk(self, flow, changed, c, p, x):
        """Walk chain c again from position p, whose u node is x: it keeps
        its first p nodes, folds and detections and steps from x through the
        flowed edges to the sink, cutting and extending c.traj in place; a
        new chain (traj None) gets its Trajectory and its place here. Each
        step's frame is checked against the detection before it. Returns the
        segments: the kept prefix, then the runs of the walked nodes'
        previous chains, each as (its track id, or None, start, end)."""
        g, chain_of, out, sink = self.graph, self.chain_of, self.out, SINK
        cost, node_out, e_dst, node_det = g.e_cost, g.node_out, g.e_dst, g.node_det
        nodes, folds, traj = c.nodes, c.folds, c.traj
        dets = [] if traj is None else traj.detections
        del nodes[p:], folds[p:], dets[p:]
        if p:
            segments = [(traj.track_id, 0, p)]
            acc = folds[-1] + cost.item(out[nodes[-1]])
        else:
            segments = []
            acc = cost.item(g.node_in.item(x))  # the fold through the entry
        while x != sink:
            if (prev := chain_of.get(x)) is None and x not in changed:
                raise InvariantBreach(f"flow enters node {x}, which no decoded "
                                      f"trajectory holds")
            d, det = node_out.item(x), node_det[x]
            if not flow.item(d):
                raise InvariantBreach(f"dangling flow: detection edge of "
                                      f"{det.key} carries no flow")
            if (e := out.get(x)) is None:
                raise InvariantBreach(f"trajectory through {det.key} has no "
                                      f"outflow")
            if dets and det.frame != dets[-1].frame + 1:
                raise InvariantBreach("trajectory frames must be consecutive")
            s, n = None if prev is None else prev.traj.track_id, len(nodes)
            if segments and segments[-1][0] == s:
                segments[-1] = (s, segments[-1][1], n + 1)
            else:
                segments.append((s, n, n + 1))
            acc += cost.item(d)
            nodes.append(x)
            folds.append(acc)
            dets.append(det)
            acc += cost.item(e)
            x = e_dst.item(e)
        if traj is None:
            c.traj = Trajectory(-1, dets, acc)
            self._place(c)
        else:
            traj.cost = acc
        return segments

    def starting_in(self, us: np.ndarray) -> list[Chain]:
        """The chains that start at the u nodes us, in their order."""
        return [c for u in us.tolist()
                if (c := self.chain_of.get(u)) is not None and c.nodes[0] == u]

    def clip(self, heads: list[Chain]):
        """Drop the first detection of each chain in heads, whose frame the
        graph clipped, with its out-edge entry. The rest of each, if any,
        stays the chain and its Trajectory, from its second detection, onto
        whose entry the clip moved the flow, with the same folds and cost:
        the folded entry cost is the left fold of the costs it replaced."""
        g = self.graph
        for c in heads:
            self._remove(c)
            del self.chain_of[c.nodes[0]], self.out[c.nodes[0]]
            if len(c.nodes) == 1:
                continue
            del c.nodes[0], c.folds[0], c.traj.detections[0]
            c.key = c.traj.detections[0].key
            c.origin = g.e_origin.item(g.node_in.item(c.nodes[0]))
            self._place(c)

    def _place(self, c: Chain):
        self.chains.insert(bisect_left(self.chains, c.key, key=_chain_key), c)

    def _remove(self, c: Chain):
        del self.chains[bisect_left(self.chains, c.key, key=_chain_key)]


def _solution_from_residual(res: ResidualGraph) -> FlowSolution:
    """The decoded trajectories and their total; the flow is left None."""
    return res.decode()


def _solve_batch(graph: TrackingGraph, broadcast: bool, single: bool):
    """Successive shortest paths from zero flow, the first round pushing
    from one DAG sweep's tree, whose distances become the potentials.
    Returns (solution carrying the residual's flow array, stats)."""
    stats = SolverStats()
    res = ResidualGraph(graph)
    if graph.is_empty or graph.n_detections == 0:
        return FlowSolution(flow=res.flow), stats
    path, labels = dag_shortest_path(res, stats=stats)
    successive_shortest_paths(res, stats, graph.n_detections, path,
                              convert_edge_costs(res, labels), broadcast, single)
    solution = _solution_from_residual(res)
    for i, t in enumerate(solution.trajectories):
        t.track_id = i
    solution.flow = res.flow
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
    never be revised; not optimal, used only for comparison. The result is
    that of committing the path of one full sweep at a time while it costs
    < 0, each sweep excluding the nodes committed before it.

    One sweep commits several: its exits ranked by value, the label of the
    v node plus the exit cost, ties in frame order. Each is committed with
    its v node's tree path in turn, until one costs >= 0, which ends the
    solve, or holds a node committed since the sweep, which ends the round.
    Excluding nodes never lowers a label, and a node whose tree path avoids
    them keeps its label and predecessor bit for bit, so each committed
    path is the one a full sweep would return at its turn, at the same
    cost. The next sweep resumes from the earliest frame the round's paths
    touched; the frames before it keep their labels.
    """
    stats = SolverStats()
    res = ResidualGraph(graph)
    flow = np.zeros_like(res.flow)  # res.flow stays 0, as the sweeps need
    if graph.is_empty or graph.n_detections == 0:
        return FlowSolution(flow=flow), stats

    excluded = np.zeros(len(res.potential), dtype=bool)
    v = np.concatenate([graph.frame_nodes[f][1] for f in graph.frames])
    exit_cost = graph.e_cost[graph.node_out[v]]
    trajectories, total = [], 0.0
    labels = start = None
    for _ in range(graph.n_detections + 1):  # each round commits one or more
        path, labels = dag_shortest_path(res, stats, excluded, labels, start)
        values = labels.dist[v] + exit_cost
        start = math.inf
        for rank, i in enumerate(np.argsort(values, kind="stable").tolist()):
            cost = values.item(i)
            if not cost < 0.0:  # >= 0, or unreached
                return FlowSolution(trajectories=trajectories,
                                    total_cost=total, flow=flow), stats
            if rank:  # the first is the sweep's own path
                path = extract_path(res, labels, via=v.item(i), stop=excluded)
                if path is None:  # it meets a node committed this round
                    break
            stats.iterations += 1
            dets = [graph.node_det[u] for u in path.nodes[1:-1:2]]  # u, v, ...
            trajectories.append(Trajectory(len(trajectories), dets, cost))
            total += cost
            flow[path.eids] = 1
            excluded[path.nodes[1:-1]] = True
            start = min(start, dets[0].frame)
    return FlowSolution(trajectories=trajectories, total_cost=total,
                        flow=flow), stats
