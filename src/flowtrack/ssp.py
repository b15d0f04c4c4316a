"""Successive shortest path solvers over the tracking graph.

Contains the residual graph (a flow per edge and node potentials, from which
each search derives the reduced costs c + p(u) - p(v) it reads, and the
decode of the flow), the DAG shortest-path sweep, the full Dijkstra search,
the paper's dynamic broadcast that re-labels only the invalidated part of the
shortest-path tree, the decoded trajectories kept up to date by walking each
one again from its first node that a changed edge touches, or all at once in
one walk over the flowed edges when none is decoded yet (FlowDecoder), and
the greedy DP baseline. Every search is compiled. The DAG sweep reads the
tracking graph alone, by the one DAG relaxation (_relax_frames) that also
gives each appended frame's potentials. Its labels carry the plan it read
(PredecessorMap.plan), so a dp solve gathers the graph once, and dp reads
its paths from the graph's columns (sweep_path): it builds no residual
graph. Both other searches are scipy's Dijkstra over the CSR of one slot
table (ResidualGraph.arcs), which holds per residual arc slot its edge,
tail, head, original cost, direction and key, the target's exit slots with
their tails, and per live edge its ends, forward head, cost and two slots.
It is built once after each append or clip, and keeps one CSR object, with
a row per slot of the potentials' buffer, resized when that buffer grows. A
full search prices each live edge once, in the one direction its flow makes
usable, and puts each price at that arc's slot, inf at the other: from that
one array it weighs the CSR and ranks the exits without reading the flow
again. A path's arcs are found by key, each found key checked, and the path
is priced from its slots. A broadcast prices only the usable slots into the
set it re-labels (slot_reduced), found through a per-slot usable mask kept
with the table (ResidualGraph.broadcast_index), which flip updates; it is
built on the first broadcast, so trackers build none. A push round ranks
the exits, and a dp round its sweep's exits, only as far as it reads them
(_ranked). The flow and the potentials grow in place with the graph's
columns (graph.lengthen).

Every exact solver runs on one residual graph, whose sink is split into a
root and a target (ResidualGraph). Every exact solver runs one loop,
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
from itertools import accumulate, chain, islice
from operator import attrgetter

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import DataError, InvariantBreach
from .graph import (DET, ENTRY, EXIT, LINK, NO_COSTS, NO_EDGES, SINK, SOURCE,
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
    the reduced cost per slot that a full search read (dijkstra_full), inf
    on the slots the flow makes unusable, None once the potentials may have
    moved since. A DAG sweep (dag_shortest_path) sets link, per u node the
    link edge of its tree arc when its predecessor is a v node, by which
    sweep_path reads a tree path from the graph's columns, plan, the
    SweepPlan it read, which a resumed sweep reads again, and, under
    excluded nodes, weights, the plan's weights under them
    (ExcludedWeights), which a resumed sweep updates; all three are None for
    other searches' labels."""

    rc = link = plan = weights = None

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
#: virtual root (then empty rows up to the potentials' buffer), and per arc
#: slot in CSR order (by tail, then head) its edge, is-reverse flag, tail
#: (row), head (col), original cost of the arc (the edge's cost, negated on
#: a reverse slot) and key row * n + col, by which a path finds its arcs.
#: exits holds the target's in-slots, the exits' forward slots, in edge
#: order, and exit_tails their tails; eps and cost_sum are read from the
#: live costs with it (see ResidualGraph). Per live edge, in edge order, it
#: holds its src, dst, head (its forward slot's head: dst, or the target for
#: an exit), edge_cost and slot[d], its forward (d = 0) and reverse (d = 1)
#: slot; edges picks the live edges from an edge column (every slot, as a
#: slice, when none is dead). A full search prices the edges and puts each
#: price at its usable slot; a broadcast prices the slots of its set. A
#: search reads the columns and the flow, and writes only the CSR's weights.
SlotTable = namedtuple("SlotTable", "matrix eid rev row col cost key exits "
                                    "exit_tails eps cost_sum edges src dst "
                                    "head edge_cost slot")

#: The forward graph of a run of frames as the DAG relaxation reads it, a
#: sweep's over every frame (_sweep_plan) or an appended frame's: frames,
#: the run's frame indices; u and v, the detections' u and v nodes in frame
#: order, with nodes[i] the first of frame i's (nodes[-1] their count);
#: edges, tails and heads, the links in frame_links order, with links[i] the
#: first of frame i's; costs, the costs by arc kind: each u node's entry and
#: detection edge, each link, each tail's detection edge and each v node's
#: exit; and spans, per frame its links' slice with their tails, heads and
#: tails' u nodes.
SweepPlan = namedtuple("SweepPlan",
                       "frames nodes links u v edges tails heads costs spans")

#: PredecessorMap.weights, a DAG sweep's weights under its exclusions
#: (_excluded_weights): views, the weights by kind (entry, det, link, tail)
#: as views of flat, their run end to end; by and bounds, flat's positions
#: grouped by the node whose exclusion makes them inf, node x's
#: by[bounds[x]:bounds[x + 1]]; and excluded, the mask flat is under.
ExcludedWeights = namedtuple("ExcludedWeights",
                             "views flat by bounds excluded")

#: ResidualGraph.broadcast_index, what a broadcast reads of the flow:
#: usable, per slot of the table whether the flow makes it usable, and
#: slot[d, e], edge e's forward (d = 0) or reverse (d = 1) slot, by which
#: flip keeps usable up to date.
BroadcastIndex = namedtuple("BroadcastIndex", "usable slot")


class ResidualGraph:
    """The residual graph of every exact solver: a tracking graph plus a
    flow per edge slot, a potential per search node and the decode of its
    flow.

    Edges carrying flow are traversed dst -> src. Every search node u has a
    potential p(u). Flow and potentials are the whole state: an edge's
    reduced cost in its residual direction, c + p(tail) - p(head), is
    derived from them on read, so none goes stale. eps is the tolerance
    below 0 that a reduced cost may reach by rounding (see EPS), and the
    slot table's cost_sum the sum of |edge cost| (check_cost_sum).

    Every search reads the slot table (arcs): per residual arc slot its
    tail, head, original cost and direction, over the live edges. A full
    search derives each live edge's reduced cost from it once, a broadcast
    each slot's that it reads (slot_reduced). An append
    or a clip changes the graph and drops the table, with eps and cost_sum;
    the next reader of any of them builds all three again, once. The
    broadcasts' index (broadcast_index) is dropped with them.

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
        self._table = self._matrix = self._index = None
        # their buffers (graph.lengthen), at first the arrays themselves
        self._buffers = {"flow": self.flow, "potential": self.potential}
        check_cost_sum(self._live_cost_sum())

    @property
    def n_nodes(self) -> int:
        return len(self.graph.node_kind)

    @property
    def target(self) -> int:
        return self.n_nodes

    @property
    def eps(self) -> float:
        return self.arcs().eps

    def arcs(self) -> SlotTable:
        """The slot table over the live edges, built on first use after the
        graph changed.

        Every live edge has a forward slot (src -> dst, the target for the
        sink, usable while it carries no flow) and a reverse slot (dst ->
        src, usable while it does), sorted by row then column. Row n is a
        virtual root with a slot to every search node after them, where a
        broadcast starts; the rows past it, one per spare slot of the
        potentials' buffer (graph.lengthen), are empty. Only the weights
        change from search to search. Indexes are int32, which scipy keeps
        as given (int64 ones it checks and copies down). The CSR object is
        kept and takes the new arrays, resized in place (csr_matrix.resize)
        only when the potentials' buffer grew, so a growing stream resizes
        it when that buffer doubles. An exit's forward slot is the last of
        its tail's row, the target being the last column, so the exit slots
        come from the row starts in edge order. Each live edge's two slots
        are the inverse of the sort. Without dead edge slots, as under
        odssp, the edge columns are read as they are.
        """
        if self._table is None:
            g, n = self.graph, len(self.potential)
            if (m := g.n_live_edges) < len(g.e_alive):
                live = edges = g.e_alive.nonzero()[0]
                src, dst, cost = g.e_src[live], g.e_dst[live], g.e_cost[live]
            else:  # no dead slot: the columns as they are
                live, edges = np.arange(m), slice(None)
                src, dst, cost = g.e_src, g.e_dst, g.e_cost
            exits = (dst == SINK).nonzero()[0]
            head = dst.copy()  # the forward slots' heads
            head[exits] = n - 1  # the target
            tails = np.concatenate((src, dst))
            heads = np.concatenate((head, src))
            keys = tails * n + heads
            order = keys.argsort(kind="stable")
            keys, rows, cols = keys[order], tails[order], heads[order]
            steps = np.arange(n + 1)
            starts = rows.searchsorted(steps)  # each row's first slot
            size = len(self._buffers["potential"]) + 1
            indptr = np.empty(size + 1, dtype=np.int32)
            indptr[:n + 1] = starts
            indptr[n + 1:] = 2 * m + n
            data = np.zeros(2 * m + n)
            indices = np.concatenate((cols, steps[:n]), dtype=np.int32)
            matrix = self._matrix
            if matrix is None:
                matrix = self._matrix = csr_matrix((data, indices, indptr),
                                                   shape=(size, size))
            else:
                if matrix.shape[0] != size:
                    matrix.resize((size, size))
                matrix.data, matrix.indices, matrix.indptr = data, indices, indptr
            ends = src[exits]  # the exits' tails
            slot = np.empty(2 * m, dtype=np.int64)
            slot[order] = np.arange(2 * m)
            self._table = SlotTable(
                matrix, np.concatenate((live, live))[order], order >= m, rows,
                cols, np.concatenate((cost, -cost))[order], keys,
                starts[1:][ends] - 1, ends, *_cost_bounds(cost), edges, src,
                dst, head, cost, slot.reshape(2, m))
        return self._table

    def slot_reduced(self, slots) -> np.ndarray:
        """The reduced cost of each of the table's slots given by slots (an
        index or a mask) in the slot's own direction, from the potentials:
        a forward slot's (cost + p(tail)) - p(head), a reverse slot's
        (p(tail) - p(head)) + cost, its edge's cost negated."""
        t, p = self.arcs(), self.potential
        cost, p_row, p_col = t.cost[slots], p[t.row[slots]], p[t.col[slots]]
        forward = cost + p_row
        forward -= p_col
        p_row -= p_col  # now the reverse slot's, in place
        p_row += cost
        return np.where(t.rev[slots], p_row, forward)

    def broadcast_index(self) -> BroadcastIndex:
        """The broadcasts' index (BroadcastIndex), built on the first
        broadcast after the graph changed and dropped with the slot table,
        so that trackers, which never broadcast, build none. flip keeps its
        usable mask up to date, so a broadcast finds the usable slots into
        its set without reading the flow of every slot."""
        if self._index is None:
            t = self.arcs()
            slot = np.empty((2, len(self.flow)), dtype=np.int64)
            slot[t.rev.view(np.int8), t.eid] = np.arange(len(t.eid))
            self._index = BroadcastIndex(self.flow[t.eid] == t.rev, slot)
        return self._index

    def flip(self, eids: np.ndarray):
        """Push or cancel the unit of flow on the distinct edges eids: their
        residual arcs turn round, in the broadcasts' index too if it is
        built."""
        self.flow[eids] ^= 1
        self.touched += eids.tolist()
        if self._index is not None:
            self._index.usable[self._index.slot[:, eids]] ^= True

    def _sync(self):
        """Fit flow and potentials to the graph's slots after an append, by
        lengthening them in place (graph.lengthen) when a column grew: new
        slots start at 0 and the target's potential moves to the end. The
        slot table and the broadcasts' index are dropped."""
        g = self.graph
        n, target = len(g.node_kind), len(self.potential) - 1
        if len(self.flow) < (edges := len(g.e_src)):
            lengthen(self, ("flow",), edges)
        if target < n:
            lengthen(self, ("potential",), n + 1)
            p = self.potential
            p[n], p[target] = p[target], 0.0
        self._table = self._index = None

    def _live_cost_sum(self) -> float:
        """The live edges' sum of |edge cost|: the slot table's, or, when no
        table is built, as at the start or after a frame that ran no search,
        read from the edge columns as the table reads it, building none."""
        g, t = self.graph, self._table
        if t is not None:
            return t.cost_sum
        return _cost_bounds(g.e_cost[g.e_alive])[1]

    def check_frame(self, prepared):
        """check_cost_sum over the live edges and a prepared frame's, so a
        frame whose costs would overflow is rejected before it changes
        anything."""
        new = prepared.node_costs.ravel().tolist() + prepared.link_costs.tolist()
        check_cost_sum(self._live_cost_sum() + sum(map(abs, new)))

    def append_frame(self, detections, model, prepared):
        """Append one prepared frame to the graph. Its edges carry no flow;
        its nodes get potentials, and the sink's potential drops to its
        lowest new exit, in the one DAG relaxation (_relax_frames) over the
        edge costs, which keeps every reduced cost >= 0. The relaxation
        reads the frame's costs from prepared, its nodes and links as the
        graph took them, and its links' ends from the columns. On an empty
        graph these are the DAG shortest-path distances, from which the
        solve starts at zero flow."""
        g = self.graph
        g.append_frame(detections, model, prepared=prepared)
        self._sync()
        (f,) = prepared.frames
        u, v = g.frame_nodes[f]
        links = g.frame_links[f]
        entry, det, exit_ = prepared.node_costs.T
        plan = SweepPlan(prepared.frames, None, None, u, v, links, None, None,
                         (entry, det, prepared.link_costs, NO_COSTS, exit_),
                         [(slice(None), g.e_src[links], g.e_dst[links],
                           NO_EDGES)])
        _relax_frames(self.potential, len(self.potential) - 1, plan, 0,
                      plan.costs)

    def decode(self) -> FlowSolution:
        """Bring the kept decode up to date with the edges flipped since the
        last (FlowDecoder.update)."""
        touched, self.touched = self.touched, []
        return self.decoded.update(self, touched)

    def clip_oldest_frame(self, heads: list[Chain]):
        """Clip the graph's oldest frame, folding the decoded trajectories
        that start there, the chains heads (FlowDecoder.leading). Each that
        goes on hands the graph's clip its one input as the decode holds it:
        its second node's entry edge, its flowed link (out), the fold of its
        first entry and detection edge (folds[0]) and the id the entry
        takes, its origin or else its track id. The freed edge slots lose
        their flow, and each continuing track's flow moves onto its folded
        entry edge, whose reduced cost is the sum of the flowed arcs' it
        replaces (each <= 0), so the potentials stay valid. The slot table,
        eps, cost_sum and the broadcasts' index are dropped, as after an
        append."""
        out, node_in = self.decoded.out, self.graph.node_in
        folds = [(node_in.item(c.nodes[1]), out[c.nodes[0]], c.folds[0],
                  c.traj.track_id if c.origin < 0 else c.origin)
                 for c in heads if c.nodes[1:]]
        self.flow[self.graph.clip_oldest_frame(folds)] = 0
        self.flow[[fold[0] for fold in folds]] = 1
        self.decoded.clip(heads)
        self._table = self._index = None

    def exits(self, dist: np.ndarray, rc: np.ndarray | None = None):
        """The usable arcs into the target, the unflowed exits v -> sink, as
        an iterator of (value, tail v) pairs by value dist(v) + clamped
        reduced cost, the length of the tree path to v and on to the target,
        ties in edge order. Exits of unreached nodes are left out; the least
        value is dist[target]. The table's exit slots, in edge order, are
        priced by rc, the reduced cost per slot at the current potentials
        and inf on unusable ones, if given (PredecessorMap.rc), else from
        the potentials as slot_reduced prices a forward slot and the flow.
        A flowed exit's value is inf, so it ranks past every usable one.
        They are ranked lazily (_ranked): a reader that stops early, as a
        push round does, sorts and converts only the blocks it reached."""
        t = self.arcs()
        tails = t.exit_tails
        if rc is None:  # forward slots into the target, as slot_reduced
            p = self.potential
            cost = np.where(self.flow[t.eid[t.exits]] == 0,
                            (t.cost[t.exits] + p[tails]) - p[self.target],
                            np.inf)
        else:
            cost = rc[t.exits]
        values = dist[tails] + np.maximum(cost, 0.0)
        return chain.from_iterable(_finite_pairs(values, tails))

    def settle(self, dist: np.ndarray, cap: float):
        """Raise the potentials by a search's distances capped at cap (see
        push_round), and the target's by exactly cap. Every residual reduced
        cost stays >= 0 and the pushed paths' become 0, provided each pushed
        path was a shortest path at its turn and no usable arc into the
        target is left below cap. The roots stay at 0."""
        raised = np.minimum(dist, cap)
        raised[self.target] = cap
        self.potential += raised


@np.errstate(over="ignore")
def _cost_bounds(cost: np.ndarray) -> tuple[float, float]:
    """eps and cost_sum (see ResidualGraph) of the edge costs cost: EPS times
    the largest |cost|, and the sum of |cost|, inf if it overflows. The
    decorator's errstate costs half the with statement's."""
    size = abs(cost)
    return (EPS * float(np.maximum.reduce(size, initial=0.0)),
            float(np.add.reduce(size)))


def _ranked(values: np.ndarray):
    """The indices of values in ascending order, ties in index order, as a
    stable argsort gives them, in blocks, lazily. Up to 256 values are
    sorted at once and yielded as the first 8, which is as far as a push
    round usually reads, and the rest; of more, each block is the next 16,
    32, 64, ... of the rest (with any tied with its last), found by one
    partition and sorted alone. A reader that stops early pays for the
    blocks it reached."""
    if len(values) <= 256:
        order = values.argsort(kind="stable")
        yield order[:8]
        yield order[8:]
        return
    rest, size = np.arange(len(values)), 16
    while len(rest) > 2 * size:
        part = values[rest]
        low = part <= np.partition(part, size - 1)[size - 1]
        block = rest[low]
        yield block[values[block].argsort(kind="stable")]
        rest, size = rest[~low], 2 * size
    yield rest[values[rest].argsort(kind="stable")]


def _finite_pairs(values: np.ndarray, tails: np.ndarray):
    """zip(values, tails) per block of _ranked(values), up to the first
    value that is not finite: the blocks a reader flattens
    (chain.from_iterable), converted only as far as it reads."""
    for block in _ranked(values):
        ranked = values[block]
        end = ranked.searchsorted(np.inf)
        yield zip(ranked[:end].tolist(), tails[block[:end]].tolist())
        if end < len(block):
            return


def _tree_nodes(labels: PredecessorMap, n: int, via: int | None,
                stop) -> list[int] | None:
    """The nodes of a tree path from a root to the target (n - 1, n the
    search nodes), or None where extract_path or sweep_path returns None; a
    cycle or a chain that ends off the roots is an InvariantBreach. The walk
    reads the predecessors and stop through memoryviews, whose items are
    Python ints and bools."""
    if not math.isfinite(labels.dist[n - 1 if via is None else via]):
        return None
    pred = memoryview(labels.pred)
    stop = None if stop is None else memoryview(stop)
    nodes = [n - 1]
    u = pred[n - 1] if via is None else via
    for _ in range(n):
        if u < 0:
            break
        if stop is not None and stop[u]:
            return None
        nodes.append(u)
        u = pred[u]
    else:
        raise InvariantBreach("predecessor chain contains a cycle")
    if nodes[-1] not in ResidualGraph.roots:
        raise InvariantBreach(f"broken predecessor chain at node {nodes[-1]}")
    return nodes[::-1]


def extract_path(res: ResidualGraph, labels: PredecessorMap,
                 via: int | None = None) -> Path | None:
    """Walk the predecessor chain back from res.target to one of res.roots;
    None if the target is unreached. With via, the path is via's tree path
    and then the arc via -> target, which need not be a tree arc. Each arc
    u -> v is the slot keyed u * n + v, and the path costs the fsum of its
    slots' original costs. An arc that no slot holds, as from a predecessor
    no search set, is an InvariantBreach. The target stands for the sink in
    the returned path."""
    n = len(res.potential)
    nodes = _tree_nodes(labels, n, via, None)
    if nodes is None:
        return None
    t = res.arcs()
    keys = [u * n + v for u, v in zip(nodes, islice(nodes, 1, None))]
    slots = t.key.searchsorted(keys)
    try:
        found = t.key[slots].tolist()
    except IndexError:  # a key past the last slot's
        found = None
    if found != keys:
        raise InvariantBreach(f"the tree path {nodes} takes an arc that no "
                              f"slot holds")
    nodes[-1] = SINK
    return Path(nodes, t.eid[slots].tolist(), math.fsum(t.cost[slots].tolist()))


def sweep_path(g: TrackingGraph, labels: PredecessorMap,
               via: int | None = None, stop=None) -> Path | None:
    """extract_path over a DAG sweep's tree of g (dag_shortest_path), read
    from the graph's columns, with its cost left nan: solve_dp_greedy ranks
    and sums by the labels. With stop, a mask over the nodes, None also once
    the walk meets a node it marks (via included). A tree path runs source,
    then u and v nodes in turn, and then the target. Each u node is entered
    by its entry edge (node_in) when the source is its predecessor, else by
    the tight link the sweep kept (labels.link), and left by its detection
    edge (node_out), and the last v node's exit (node_out) enters the
    target."""
    nodes = _tree_nodes(labels, len(labels.dist), via, stop)
    if nodes is None:
        return None
    u = np.array(nodes[1:-1:2], dtype=np.int64)
    eids = np.empty(2 * len(u) + 1, dtype=np.int64)
    eids[:-1:2] = np.where(labels.pred[u] == SOURCE, g.node_in[u],
                           labels.link[u])
    eids[1:-1:2] = g.node_out[u]
    eids[-1] = g.node_out[nodes[-2]]
    nodes[-1] = SINK
    return Path(nodes, eids.tolist())


def path_original_cost(res: ResidualGraph, path: Path) -> float:
    """Sum of unreduced edge costs along a residual path, rounded once: a
    cycle whose costs cancel, such as one swapping two equal continuations
    of a track, costs exactly 0, so the stop rule does not push it back and
    forth forever. An arc that runs against its edge negates the cost. It is
    the price extract_path read from the path's slots (Path.cost), so a
    path is priced as it was found even after some of its arcs flipped."""
    return path.cost


def _sweep_plan(g: TrackingGraph) -> SweepPlan:
    """The SweepPlan of every frame of g."""
    cost, frames = g.e_cost, list(g.frames)
    blocks = list(map(g.frame_nodes.get, frames))
    u, v = np.concatenate([NO_NODES, *blocks], axis=1)
    runs = list(map(g.frame_links.get, frames))
    links = np.concatenate([NO_EDGES, *runs])
    tails, heads = g.e_src[links], g.e_dst[links]
    nodes = [0, *accumulate(b.shape[1] for b in blocks)]
    ends = [0, *accumulate(map(len, runs))]
    tail_det = g.node_in[tails]
    tail_u, tail = g.e_src[tail_det], cost[tail_det]
    spans = [(slice(b, d), tails[b:d], heads[b:d], tail_u[b:d])
             for b, d in zip(ends, ends[1:])]
    costs = (cost[g.node_in[u]], cost[g.node_out[u]], cost[links], tail,
             cost[g.node_out[v]])
    return SweepPlan(frames, nodes, ends, u, v, links, tails, heads, costs,
                     spans)


def _relax_frames(dist: np.ndarray, target: int, plan: SweepPlan, k: int,
                  w) -> tuple[np.ndarray, np.ndarray]:
    """Relax into dist (a label per search node) the forward in-arcs of the
    nodes of plan's frames from its k-th on, in frame order, each arc weighed
    by w, the weights (entry, det, link, tail, exit) over every arc of the
    plan by kind, as its costs are: a u node takes its entry, then the least
    with its links; a v node its u node's label plus its detection edge; the
    target the least of its label and the exits of every frame of the plan.
    Only links go frame by frame: one from a frame of the run carries its
    tail's u label plus that detection edge plus its own weight, bit for bit
    the tail's label to be plus its weight, so the v nodes follow in one pass;
    the run's first frame's links leave the frame before, whose labels are
    set. A sweep passes its plan over every frame (_sweep_plan), which its
    labels carry to the sweeps that resume from them; an append passes one
    frame's nodes, links and prepared costs (ResidualGraph.append_frame),
    gathering none. Returns the links' labels, set from the run's first link
    on, and the exits'."""
    w_entry, w_det, w_link, w_tail, w_exit = w
    u, v, spans = plan.u, plan.v, plan.spans
    if k:
        a = plan.nodes[k]
        u, v, w_entry, w_det = u[a:], v[a:], w_entry[a:], w_det[a:]
    dist[u] = dist[SOURCE] + w_entry
    via = np.empty(len(w_link))
    if k < len(spans):
        s, tails, heads, _ = spans[k]
        out = via[s]
        np.add(dist[tails], w_link[s], out=out)
        np.minimum.at(dist, heads, out)
    for s, _, heads, tail_u in islice(spans, k + 1, None):
        out = via[s]
        np.add(dist[tail_u], w_tail[s], out=out)
        out += w_link[s]
        np.minimum.at(dist, heads, out)
    dist[v] = dist[u] + w_det
    exits = dist[plan.v] + w_exit
    dist[target] = np.minimum.reduce(exits, initial=dist[target])
    return via, exits


def _excluded_weights(labels: PredecessorMap, excluded: np.ndarray):
    """The weights (entry, det, link, tail) of the labels' plan under
    excluded: each cost, inf on the entry and links into an excluded u node
    and on the detection edge and the tail weight of each link out of an
    excluded v node. They are kept with the labels
    (PredecessorMap.weights), so a sweep resumed under a grown mask writes
    inf only where the nodes excluded since own a weight."""
    p, kept = labels.plan, labels.weights
    if kept is None:
        owner = np.concatenate((p.u, p.v, p.heads, p.tails))
        by = owner.argsort(kind="stable")
        flat = np.concatenate(p.costs[:4])
        kept = labels.weights = ExcludedWeights(
            np.split(flat, list(accumulate((len(p.u), len(p.v),
                                            len(p.heads))))),
            flat, by, owner[by].searchsorted(np.arange(len(excluded) + 1)),
            np.zeros(len(excluded), dtype=bool))
    new = np.flatnonzero(excluded > kept.excluded)
    if len(new):
        kept.excluded[new] = True
        lo = kept.bounds[new]
        lens = kept.bounds[new + 1] - lo
        ends = lens.cumsum()  # by[lo:lo + lens] of each, end to end
        at = np.repeat(lo - ends + lens, lens) + np.arange(ends[-1])
        kept.flat[kept.by[at]] = np.inf
    return kept.views


def dag_shortest_path(g: TrackingGraph, stats: SolverStats | None = None,
                      excluded: np.ndarray | None = None,
                      labels: PredecessorMap | None = None,
                      start: int | None = None) -> PredecessorMap:
    """Shortest paths from the source over g's forward (acyclic) graph: the
    one DAG relaxation (_relax_frames) over the frames from frame start on
    (default every frame), and then the target over every exit. Labels are
    kept per search node of a residual over g: the node slots, the target.

    Handles negative costs: each edge weighs its cost, and no flow is read.
    excluded is a boolean node mask of nodes the sweep may not enter (their
    in-edges weigh inf), so it never leaves them either. Every root starts
    at 0. A node's predecessor is the tail of its first tight in-edge in
    push order (entries, links in frame_links order, detection edges, exits
    in frame order): the edge a strict-< relaxation in that order keeps. So
    a v node's is its u node, the target's the first tight exit, and a u
    node's the source if its entry is tight, else its first tight link,
    which the labels keep (PredecessorMap.link) for sweep_path.

    A fresh sweep gathers its plan (_sweep_plan), which the labels carry
    (PredecessorMap.plan) with its weights under excluded (the costs, inf
    into excluded nodes; _excluded_weights), so a sweep resumed from them
    pays only for the weights of the nodes excluded since, the relaxation
    and the predecessors.

    Without labels the sweep starts from fresh ones over every frame. With
    labels, a sweep's over the same graph, and start, it resumes: the
    nodes of frames before start keep their labels and predecessors, which
    must be those of a sweep under excluded (so excluded may have grown only
    in frames from start on), and the rest are re-labelled in place, bit
    for bit as a fresh sweep under excluded. relaxations counts the edges
    out of reached nodes into re-labelled nodes not excluded, the target's
    from every frame. Returns the labels.
    """
    stats = stats or SolverStats()
    target = len(g.node_kind)
    labels = labels or PredecessorMap(target + 1, ResidualGraph.roots)
    if g.is_empty:
        return labels
    if labels.plan is None:
        labels.plan = _sweep_plan(g)
    dist, pred, p = labels.dist, labels.pred, labels.plan
    w = p.costs
    if excluded is not None:
        exit_ = w[4]
        w = (*_excluded_weights(labels, excluded),
             np.full(len(exit_), np.inf) if excluded[target] else exit_)
    k = 0 if start is None else bisect_left(p.frames, start)
    a, b = p.nodes[k], p.links[k]
    dist[target] = np.inf
    via, exits = _relax_frames(dist, target, p, k, w)
    via, heads = via[b:], p.heads[b:]
    u, v, entry = p.u[a:], p.v[a:], w[0][a:]
    du, dv = dist[u], dist[v]
    stats.relaxations += int(np.count_nonzero(np.isfinite(entry))
                             + np.count_nonzero(np.isfinite(via))
                             + np.count_nonzero(np.isfinite(dv))
                             + np.count_nonzero(np.isfinite(exits)))
    stats.searches += 1
    pred[u] = -1
    # Each head's first tight link in push order: the last one written
    # when they are written in reverse.
    tight = np.flatnonzero(np.isfinite(via) & (via == dist[heads]))[::-1]
    at = heads[tight]
    pred[at] = p.tails[b:][tight]
    if labels.link is None:
        labels.link = np.empty(len(dist), dtype=np.int64)
    labels.link[at] = p.edges[b:][tight]
    pred[u[np.isfinite(du) & (entry == du)]] = SOURCE
    pred[v] = np.where(np.isfinite(dv), u, -1)
    d = dist.item(target)
    pred[target] = (p.v.item(np.argmax(exits == d)) if math.isfinite(d)
                    else -1)
    return labels


def convert_edge_costs(res: ResidualGraph, labels: PredecessorMap) -> PredecessorMap:
    """Add the reached nodes' distance labels d to their potentials, so
    every residual arc's reduced cost c + p(u) - p(v), derived from them on
    read, gains d(u) - d(v).

    Unreached nodes keep their potentials: no search ever reaches them
    again, so the arcs leaving them are never traversed. A usable slot
    between reached nodes whose reduced cost (slot_reduced) falls below -eps
    means the labels were not shortest-path distances (InvariantBreach,
    naming the least such edge). An exit's forward slot counts as between
    reached nodes when its tail is reached: its edge ends at the sink root,
    which always is. Returns the labels valid after conversion: zero for
    every reachable node, infinity otherwise, with the same predecessors.
    """
    d, t = labels.dist, res.arcs()
    reached = np.isfinite(d)
    res.potential[reached] += d[reached]
    head_reached = reached.copy()
    head_reached[res.target] = reached[SINK]
    slots = np.flatnonzero((res.flow[t.eid] == t.rev) & reached[t.row]
                           & head_reached[t.col])
    rc = res.slot_reduced(slots)
    bad = np.flatnonzero(rc < -res.eps)
    if len(bad):
        i = bad[t.eid[slots[bad]].argmin()]
        raise InvariantBreach(f"stale labels: reduced cost {rc[i]} on edge "
                              f"{t.eid[slots[i]]}")
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
    labelled nodes; a scanned arc's cost below -eps breaks its precondition.
    cost may hold any value >= -eps off the scanned arcs, such as inf: the
    scanned ones are looked up only when the least of cost is below -eps."""
    if np.minimum.reduce(cost, initial=0.0) < -eps:
        bad = (scanned & (cost < -eps)).nonzero()[0]
        if len(bad):
            i = bad[0]
            raise InvariantBreach(f"negative reduced cost {cost[i]} on edge "
                                  f"{eids[i]}")
    stats.relaxations += int(np.count_nonzero(scanned))
    stats.queue_pushes += int(np.count_nonzero(labelled))
    stats.searches += 1


def dijkstra_full(res: ResidualGraph, stats: SolverStats | None = None):
    """Full Dijkstra from res.roots over the residual arcs, weighed by their
    reduced costs clamped at 0, compiled. Each live edge is priced once, in
    its usable direction, bit for bit as slot_reduced prices that slot:
    (cost + p(src)) - p(head) unflowed, (p(dst) - p(src)) - cost flowed.
    The prices go to the usable slots, inf to the others; that array is
    clamped into the CSR's weights in place and kept with the labels
    (PredecessorMap.rc). A price below -eps is looked up in slot order
    (_count_search), so the arc named is the first scanned one in the
    table. relaxations counts the residual arcs out of reached nodes, one
    per live edge (its usable arc leaves dst if flowed, else src), every
    one when every node is reached, as in a batch solve; queue_pushes the
    nodes reached. Returns (path to res.target or None, every node's
    labels)."""
    stats = stats or SolverStats()
    t, p = res.arcs(), res.potential
    n = len(p)
    flowed = res.flow[t.edges].view(bool)  # a flow is 0 or 1
    p_src = p[t.src]
    forward = t.edge_cost + p_src
    forward -= p[t.head]
    reverse = p[t.dst] - p_src
    reverse -= t.edge_cost
    edge_rc = np.where(flowed, reverse, forward)
    usable = np.full(len(t.eid), np.inf)
    usable[np.where(flowed, t.slot[1], t.slot[0])] = edge_rc
    np.maximum(usable, 0.0, out=t.matrix.data[:len(usable)])
    dist, pred, _ = dijkstra(t.matrix, indices=res.roots, min_only=True,
                             return_predecessors=True)
    labels = PredecessorMap.__new__(PredecessorMap)
    labels.dist, labels.pred = dist[:n], np.maximum(pred[:n], -1)
    labels.rc = usable
    reached = np.isfinite(labels.dist)
    if np.minimum.reduce(edge_rc, initial=0.0) < -t.eps:  # in slot order
        _count_search(t.eps, stats, t.eid,
                      (res.flow[t.eid] == t.rev) & reached[t.row], usable,
                      reached)
    else:  # each edge's usable arc leaves dst if flowed, else src
        stats.relaxations += len(edge_rc) if reached.all() else int(
            np.count_nonzero(reached[np.where(flowed, t.dst, t.src)]))
        stats.queue_pushes += int(np.count_nonzero(reached))
        stats.searches += 1
    return extract_path(res, labels), labels


def dynamic_broadcast(res: ResidualGraph, seeds, labels: PredecessorMap,
                      stats: SolverStats | None = None):
    """Re-label only the invalidated part of the shortest-path tree, compiled.

    seeds must contain every node whose predecessor arc may have changed
    (typically the nodes of the just-reversed paths); every other label must
    be a valid distance, as convert_edge_costs (all 0) or a settle after
    pushes leaves it. The affected set is the seeds other than the roots and
    their tree descendants, found by pointer doubling in which each seed is
    a root of its own: a node is affected when its chain ends at a seed, so
    the rounds stop once every chain has reached a seed or a root. Each
    node of the set starts at its least label through a usable arc from
    outside, the last such arc in slot order, whose tail is then a frontier
    node (one labelled below 0 is an InvariantBreach), and one compiled
    Dijkstra over the arcs within the set gives the rest.

    The usable slots into the set are found through the usable mask that
    the broadcasts' index keeps (ResidualGraph.broadcast_index), so the flow
    of the slots is not read again, and only they are priced
    (slot_reduced). relaxations counts the usable arcs into the set out of
    reached nodes, queue_pushes the nodes re-labelled. Returns the updated
    shortest path to the target; labels are updated in place, and their rc
    is dropped, since the potentials moved since it was read.
    """
    stats = stats or SolverStats()
    dist, pred = labels.dist, labels.pred
    n, labels.rc = len(dist), None
    seeds = np.asarray(seeds, dtype=np.int64)
    seeds = seeds[(seeds != SINK) & (seeds != SOURCE)]
    if not len(seeds):
        return extract_path(res, labels), labels
    # Pointer doubling, each seed a root of its own: after round k, up holds
    # each node's 2^k-th ancestor, or where its chain ends, n + 1 past a
    # seed and n past a root.
    up = np.empty(n + 2, dtype=np.int64)
    up[:n] = np.where(pred >= 0, pred, n)
    up[n:] = n, n + 1
    up[seeds] = n + 1
    for _ in range(n.bit_length() + 1):
        up = up[up]
        if np.minimum.reduce(up) >= n:
            break
    else:
        raise InvariantBreach("predecessor tree contains a cycle")
    in_set = up == n + 1
    affected = np.flatnonzero(in_set[:n])
    dist[affected] = np.inf
    pred[affected] = -1

    t = res.arcs()
    # The usable arc slots into the set.
    slots = np.flatnonzero(in_set[t.col] & res.broadcast_index().usable)
    tails, heads = t.row[slots], t.col[slots]
    cost = res.slot_reduced(slots)
    weight = np.maximum(cost, 0.0)
    # With the set's labels cleared, a reached tail lies outside the set.
    at_tails = dist[tails]
    if np.minimum.reduce(at_tails, initial=0.0) < 0.0:
        x = int(tails[np.argmax(at_tails < 0.0)])
        raise InvariantBreach(f"frontier node {x} has negative label {dist[x]}")
    entry = at_tails + weight
    start = np.full(n, np.inf)
    np.minimum.at(start, heads, entry)
    # Each start label's arc: the last tight one in slot order.
    tight = np.flatnonzero(entry == start[heads])
    first = np.full(n, -1)
    first[heads[tight]] = tails[tight]
    # One Dijkstra over the arcs within the set, from the virtual root,
    # whose slot to each node weighs its start label. Only the set's rows
    # are scanned from a finite label, so the usable slots into the set are
    # weighed whatever their tails: those from outside are never scanned.
    data = t.matrix.data
    data.fill(np.inf)
    data[slots] = weight
    data[-n:] = start
    d, p, _ = dijkstra(t.matrix, indices=n, min_only=True,
                       return_predecessors=True)
    dist[affected] = d[affected]
    p = p[affected]
    pred[affected] = np.where(p == n, first[affected], np.maximum(p, -1))
    _count_search(t.eps, stats, t.eid[slots], np.isfinite(dist[tails]), cost,
                  np.isfinite(dist[affected]))
    return extract_path(res, labels), labels


def push_round(res: ResidualGraph, shortest: Path, labels: PredecessorMap,
               stats: SolverStats, guard: int, single: bool):
    """Push one search's candidates, the unflowed exits v -> target by value
    dist(v) + clamped reduced cost, each with v's tree path (shortest, the
    search's own path, for the first). A single round pushes only the first.
    Otherwise the candidates are ranked lazily (ResidualGraph.exits), and
    pushes stop at the first candidate that costs >= 0 (fsum of
    original costs), enters a node an earlier push used, or ranks after an
    exit a pushed cycle freed: so each push is a shortest path at its turn,
    and the labels stay a lower bound, by which the least remaining item
    certifies the optimum if it costs >= 0. The round's paths are disjoint
    and flipped together at its end. Returns the cap d_k (the last pushed
    value, else the first's), whether the optimum is certified, and the set
    of the nodes the pushed paths used, their inner nodes.
    """
    dist, target = labels.dist, res.target
    first = labels.pred.item(target)
    if single:
        items = [(dist.item(target), first)]
    else:  # ranked only as far as the loop reads (ResidualGraph.exits)
        items = res.exits(dist, labels.rc)
    used: set[int] = set()
    freed = math.inf  # the least bound of an exit this round freed
    certified, pushed, cap = not single, [], None
    for value, v in items:
        if cap is None:  # the first's, until a push
            cap = value
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
            bound = dist[x] + (0.0 if rc < 0.0 else rc)
            if bound < freed:
                freed = bound
        used.update(inner)
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
            seeds = np.fromiter(chain(used, (res.target,)), np.int64)
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
        Raises InvariantBreach if an entry edge lost its flow. With no chain
        yet, as for a batch solve, every trajectory is new and is walked in
        one pass over the flowed edges (_walk_all)."""
        g, chain_of, out = self.graph, self.chain_of, self.out
        eids = np.asarray(eids, dtype=np.int64)
        if not self.chains:
            return self._walk_all(res, eids)
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

    def _walk_all(self, res: ResidualGraph, eids: np.ndarray) -> FlowSolution:
        """update with no chain: every trajectory of the flow is new, and
        each is walked from its flowed entry as _walk walks a new chain,
        with the same folds, checks and report, through per-node lists
        gathered from the flowed edges at once: per u node the cost of its
        detection edge, and the cost and head (the next u node, or the sink)
        of the flowed edge out of its v node, -1 for none."""
        g, flow, node_det = self.graph, res.flow, self.graph.node_det
        off = eids[(g.e_kind[eids] == ENTRY) & (flow[eids] == 0)]
        if len(off):
            raise InvariantBreach(f"a push unflowed the entry edge {off[0]}")
        flowed = np.flatnonzero(flow & g.e_alive)
        kind = g.e_kind[flowed]
        outs = flowed[(kind == LINK) | (kind == EXIT)]  # out of a v node
        entries = flowed[kind == ENTRY]
        us, firsts = g.e_src[g.node_in[g.e_src[outs]]], g.e_dst[entries]
        held = np.concatenate((firsts, us))
        if len(dangling := held[flow[g.node_out[held]] == 0]):
            raise InvariantBreach(f"dangling flow: detection edge of "
                                  f"{node_det[dangling[0]].key} carries no "
                                  f"flow")
        n = len(g.node_kind)
        det_cost, out_cost, after = np.zeros(n), np.zeros(n), np.full(n, -1)
        det_cost[us] = g.e_cost[g.node_out[us]]
        out_cost[us] = g.e_cost[outs]
        after[us] = g.e_dst[outs]
        det_cost, out_cost = det_cost.tolist(), out_cost.tolist()
        after = after.tolist()
        self.out = dict(zip(us.tolist(), outs.tolist()))
        starts = sorted(zip(firsts.tolist(), g.e_cost[entries].tolist(),
                            g.e_origin[entries].tolist()),
                        key=lambda start: node_det[start[0]].key)
        self.chains, self.fresh, self.dropped = [], {}, []
        for x, acc, origin in starts:
            nodes, folds = [], []
            while x != SINK:
                if (y := after[x]) < 0:
                    raise InvariantBreach(f"trajectory through "
                                          f"{node_det[x].key} has no outflow")
                nodes.append(x)
                acc += det_cost[x]
                folds.append(acc)
                acc += out_cost[x]
                x = y
            dets = [node_det[x] for x in nodes]
            c = Chain(Trajectory(-1, dets, acc), nodes, folds, dets[0].key,
                      origin)
            self.chains.append(c)
            self.chain_of.update(dict.fromkeys(nodes, c))
            self.fresh[c] = [(None, 0, len(nodes))]
        trajs = [c.traj for c in self.chains]
        return FlowSolution(trajectories=trajs,
                            total_cost=sum(t.cost for t in trajs))

    def leading(self, frame: int) -> list[Chain]:
        """The chains that start before frame, which lead the key order."""
        return self.chains[:bisect_left(self.chains, (frame,),
                                        key=_chain_key)]

    def clip(self, heads: list[Chain]):
        """Drop the first detection of each chain in heads, the chains that
        start in the graph's oldest frame, which the graph clipped and which
        lead the key order (leading), with its out-edge entry. The rest of
        each, if any, stays the chain and its Trajectory, from its second
        detection, onto whose entry the clip moved the flow, with the same
        folds and cost: the folded entry cost is the left fold of the costs
        it replaced."""
        g, chain_of, out = self.graph, self.chain_of, self.out
        del self.chains[:len(heads)]
        for c in heads:
            nodes = c.nodes
            del chain_of[nodes[0]], out[nodes[0]]
            if nodes[1:]:
                del nodes[0], c.folds[0], c.traj.detections[0]
                c.key = c.traj.detections[0].key
                c.origin = g.e_origin.item(g.node_in.item(nodes[0]))
                self._place(c)

    def _place(self, c: Chain):
        self.chains.insert(bisect_left(self.chains, c.key, key=_chain_key), c)


def _solution_from_residual(res: ResidualGraph) -> FlowSolution:
    """The decoded trajectories and their total; the flow is left None."""
    return res.decode()


def _solve_batch(graph: TrackingGraph, broadcast: bool, single: bool):
    """Successive shortest paths from zero flow, the first round pushing
    from one DAG sweep's tree, whose distances become the potentials; its
    path is read from the slot table. Returns (solution carrying the
    residual's flow array, stats)."""
    stats = SolverStats()
    res = ResidualGraph(graph)
    if graph.is_empty or graph.n_detections == 0:
        return FlowSolution(flow=res.flow), stats
    labels = convert_edge_costs(res, dag_shortest_path(graph, stats))
    successive_shortest_paths(res, stats, graph.n_detections,
                              extract_path(res, labels), labels, broadcast,
                              single)
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
    v node plus the exit cost, ties in frame order, and only as far as the
    round reads (_ranked). Each is committed with its v node's tree path
    (sweep_path), the first the target's, until one costs >= 0, which ends
    the solve, or holds a node committed since the sweep, which ends the
    round; a path is priced by its value alone. Excluding nodes never lowers
    a label, and a node whose tree path avoids them keeps its label and
    predecessor bit for bit, so each committed path is the one a full sweep
    would return at its turn, at the same cost. The next sweep resumes from
    the earliest frame the round's paths touched; the frames before it keep
    their labels, and the plan is the first sweep's (PredecessorMap.plan).
    dp keeps its own flow and builds no residual graph; its edge costs are
    checked as a residual's are (check_cost_sum).
    """
    stats = SolverStats()
    check_cost_sum(_cost_bounds(graph.e_cost[graph.e_alive])[1])
    flow = np.zeros(len(graph.e_src), dtype=np.int8)
    if graph.is_empty or graph.n_detections == 0:
        return FlowSolution(flow=flow), stats

    excluded = np.zeros(len(graph.node_kind) + 1, dtype=bool)
    trajectories, total = [], 0.0
    labels = start = None
    for _ in range(graph.n_detections + 1):  # each round commits one or more
        labels = dag_shortest_path(graph, stats, excluded, labels, start)
        v, exit_cost = labels.plan.v, labels.plan.costs[-1]
        values = labels.dist[v] + exit_cost
        start = math.inf
        for i in chain.from_iterable(map(np.ndarray.tolist, _ranked(values))):
            cost = values.item(i)
            if not cost < 0.0:  # >= 0, or unreached
                return FlowSolution(trajectories=trajectories,
                                    total_cost=total, flow=flow), stats
            path = sweep_path(graph, labels, via=v.item(i), stop=excluded)
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
