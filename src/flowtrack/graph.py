"""Layered tracking graph for min-cost flow data association.

Each detection is split into a u/v node pair connected by a detection edge;
entry edges run from the source to every u node, exit edges from every v node
to the sink, and link edges connect v nodes to u nodes in the next frame.
The graph supports online frame appending and oldest-frame clipping, which
folds each clipped trajectory prefix into its successor's entry cost, and
reuses the clipped node/edge slots, the dead ones, so a windowed graph
stays bounded in memory. A clip takes each continuing track's fold as the
decode of the flow holds it, so the graph keeps no index by detection.

Nodes and edges are stored once, as numpy columns by slot id that the
solvers read directly, with fixed edge slots per detection and a block of
link edges per frame. Each column is an exact-length view over a buffer
with spare room that doubles when it runs out (`lengthen`), so an append
that adds slots costs what it adds, not the columns' length. A run of
frames, one frame online or a whole batch, is checked and priced as one
block and appended with one slot take and a few flat writes per column
(`put` for the per-detection rows); a clip is one write per column too.
Only when a clip left dead slots does an append look for them.

A frame's candidate links are the grid of its previous frame's boxes
against its own, gated with no pair geometry gathered. A run of frames
stacks its frames' grids into padded blocks of at most PAIR_BUDGET cells,
each gathered once by row and column over the run's box geometry (and the
frame before it) and gated in one call; a grid above the budget is cut by
rows of the previous frame. Every block is gated before any is priced, and
a frame whose gate admits more than LINK_BUDGET links is a DataError. Only
the admitted pairs are priced, by the model's `link_costs_of`, block by
block, and the run's entry, detection and exit costs by its
`node_costs_of`, at once. Both give, bit for bit, what the scalar
references `default_gate`, `link_cost_of` and the per-detection cost
methods give one by one.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .cost_model import Detection, FrameBoxes, nan_link_error
from .errors import DataError, InvariantBreach

SOURCE = 0
SINK = 1

# Node kinds (int8 column node_kind).
KIND_SOURCE, KIND_SINK, KIND_U, KIND_V, KIND_DEAD = range(5)
# Edge kinds (int8 column e_kind), in the order a node's edges were pushed:
# entry before links into a u node, exit before links out of a v node.
ENTRY, DET, EXIT, LINK = range(4)
# A detection's u and v node kinds, and its entry, detection and exit kinds.
UV_KINDS = np.array([KIND_U, KIND_V], dtype=np.int8)
TRIPLE_KINDS = np.array([ENTRY, DET, EXIT], dtype=np.int8)

NO_EDGES = np.zeros(0, dtype=np.int64)
NO_COSTS = np.zeros(0)
#: Relative distance to the gate radius, far above any hypot's rounding
#: error, inside which a pair is measured with math.hypot; TINY covers the
#: absolute error of subnormal distances.
GATE_TOL = 1e-9
TINY = sys.float_info.min
#: Grid cells, padding included, gated per block of a run of frames (or
#: one row of a previous frame, if wider), whose admitted pairs are then
#: priced: it bounds a block's temporary arrays however long the run.
PAIR_BUDGET = 1 << 13
#: Links the gate may admit into one frame from the frame before, never
#: below PAIR_BUDGET: N boxes alike in two frames admit N * N, from a file
#: of about 36 * N bytes. Past it a frame is a DataError, raised before its
#: links are priced. It lies far above every input the tests, demos and
#: benchmark feed (at most 62,500, two frames of 250 boxes alike), and
#: bounds what one frame pair costs: a million links took a solve about
#: 300 MB.
LINK_BUDGET = 1 << 20
NODE_COLUMNS = ("node_kind", "node_in", "node_out")
EDGE_COLUMNS = ("e_src", "e_dst", "e_kind", "e_cost", "e_alive", "e_origin")
_frame, _local_index = attrgetter("frame"), attrgetter("local_index")


@dataclass
class Trajectory:
    """One decoded track: detections at strictly consecutive frames."""

    track_id: int
    detections: list[Detection]
    cost: float

    def __post_init__(self):
        if not self.detections:
            raise InvariantBreach("trajectory must be nonempty")
        for a, b in zip(self.detections, self.detections[1:]):
            if b.frame != a.frame + 1:
                raise InvariantBreach("trajectory frames must be consecutive")


@dataclass
class FlowSolution:
    """A set of disjoint unit-flow trajectories, and for a batch solve its
    int8 flow over the graph's edge slots (None for an online solve)."""

    trajectories: list[Trajectory] = field(default_factory=list)
    total_cost: float = 0.0
    flow: np.ndarray | None = field(default=None, compare=False)


@dataclass
class PreparedFrames:
    """A run of one or more frames checked against a graph, ready to append.

    `frames` holds the frame indices, increasing, and `sizes` each frame's
    number of detections; `dets` holds the detections, frame by frame in
    local-index order, and `node_costs` their (entry, detection, exit) costs,
    one row each. Links may start at the graph's frame frames[0] - 1:
    `boxes` holds the geometry of its detections followed by `dets` (None
    when `dets` is empty). Each pair (i, j) of the index arrays `link_ends`
    admits the link boxes.dets[i] -> boxes.dets[j] at the cost in
    `link_costs`, frame by frame in (previous, new) order; `link_counts`
    holds each frame's number of links.
    """

    frames: list[int]
    sizes: list[int]
    dets: list[Detection]
    boxes: FrameBoxes | None
    node_costs: np.ndarray
    link_ends: tuple[np.ndarray, np.ndarray]
    link_costs: np.ndarray
    link_counts: list[int]

    @property
    def frame(self) -> int:
        """The last frame of the run."""
        return self.frames[-1]


def default_gate(a: Detection, b: Detection, radius_factor: float = 2.0) -> bool:
    """Admit a link only when the box centers are within radius_factor times
    the larger box diagonal."""
    ca, cb = a.center, b.center
    dist = math.hypot(ca[0] - cb[0], ca[1] - cb[1])
    return dist <= radius_factor * max(a.diagonal, b.diagonal)


@np.errstate(all="ignore")
def _gate(ga: np.ndarray, gb: np.ndarray, radius_factor: float) -> np.ndarray:
    """default_gate(a, b, radius_factor) for the boxes a and b of each pair,
    as a boolean array, bit for bit, from their centre x, centre y, area
    and diagonal rows (FrameBoxes.geo[4:8]), ga and gb, which broadcast:
    gathered pair by pair, or a frame's (m, 1) column against the next
    one's (1, n) row for the grid of its pairs.

    numpy's hypot and math.hypot are each within one unit in the last place
    of the true distance, so they can disagree on the gate only for a
    distance within GATE_TOL of the radius; those pairs alone are measured
    again with math.hypot, as default_gate measures them."""
    dx, dy = ga[0:2] - gb[0:2]
    radius = radius_factor * np.maximum(ga[3], gb[3])
    dist = np.hypot(dx, dy)
    admit = dist <= radius
    edge = np.abs(dist - radius) <= radius * GATE_TOL + TINY
    if np.logical_or.reduce(edge, axis=None):
        admit[edge] = (np.array(list(map(math.hypot, dx[edge].tolist(),
                                          dy[edge].tolist())))
                       <= radius[edge])
    return admit


def _priced(boxes: FrameBoxes, ip: np.ndarray, jn: np.ndarray, model):
    """The model's costs of the links boxes.dets[ip] -> boxes.dets[jn]
    (model.link_costs_of), with the mask of those to keep, None for all: a
    NaN cost is a DataError, and +inf admits no link."""
    cost = (np.asarray(model.link_costs_of(boxes, boxes, ip, jn), dtype=float)
            if len(ip) else NO_COSTS)
    if np.logical_and.reduce(np.isfinite(cost)):
        return None, cost
    nan = np.isnan(cost)
    if nan.any():
        k = nan.argmax()
        raise nan_link_error(boxes.dets[ip[k]], boxes.dets[jn[k]])
    keep = ~np.isinf(cost)  # +inf means "no plausible link"
    return keep, cost[keep]


def lengthen(owner, names, size: int):
    """Lengthen each named 1-D array attribute of owner to size entries,
    the new ones 0, at the cost of the entries added: each is a view of the
    first size entries of a buffer (owner._buffers[name]) that doubles when
    it runs out, so no spare entry shows. An array that is no view of its
    buffer, as at the start, gets a new buffer."""
    arrays, buffers = owner.__dict__, owner._buffers
    for name in names:
        a, buf = arrays[name], buffers[name]
        if a.base is not buf or buf.size < size:
            buf = buffers[name] = np.zeros(max(2 * len(a), size), a.dtype)
            buf[:len(a)] = a
        arrays[name] = buf[:size]


class TrackingGraph:
    """Mutable layered DAG over the frames t_min..t_max.

    `frames` maps each frame index the graph holds to its detections, in frame
    order. Indices may skip: a skipped frame holds no detections and costs
    nothing, and links join consecutive indices only. Single-writer:
    operations mutate the graph exclusively.

    Columns by slot id: node_kind, node_det, and node_in and node_out, the
    fixed in- and out-edge (a u node's entry and detection edge, a v node's
    detection and exit edge); e_src, e_dst, e_kind, e_cost, e_alive and
    e_origin (the track id a folded entry carries, -1 for none).
    frame_nodes[f] holds frame f's u and v nodes, (2, n) in local-index
    order, frame_links[f] its link edges from f - 1 in (previous, new) order.
    Nothing is stored twice but the counts of detections and of dead edge
    slots: t_min and t_max are read from `frames`, the live node count from
    the first count, the live edge count from the second and a detection's
    nodes from its frame_nodes column. An append reuses the dead slots
    (node_kind KIND_DEAD, e_alive False) a clip leaves before it adds new
    ones, by exactly the slots missing; the columns' lengths are the slots,
    and their buffers hold the spare room (lengthen).
    """

    def __init__(self, gating: bool = True, gate_radius_factor: float = 2.0):
        self.gating = gating
        self.gate_radius_factor = gate_radius_factor
        self.node_kind = np.array([KIND_SOURCE, KIND_SINK], dtype=np.int8)
        self.node_det: list[Detection | None] = [None, None]
        self.node_in = np.full(2, -1, dtype=np.int64)
        self.node_out = np.full(2, -1, dtype=np.int64)
        self.e_src = np.zeros(0, dtype=np.int64)
        self.e_dst = np.zeros(0, dtype=np.int64)
        self.e_kind = np.zeros(0, dtype=np.int8)
        self.e_cost = np.zeros(0)
        self.e_alive = np.zeros(0, dtype=bool)
        self.e_origin = np.zeros(0, dtype=np.int64)
        # each column's buffer (lengthen), at first the column itself
        self._buffers = {name: getattr(self, name)
                         for name in NODE_COLUMNS + EDGE_COLUMNS}
        self._dead_edges = 0  # edge slots a clip freed that no append took
        self.n_detections = 0  # detections held, over all of `frames`
        self.frames: dict[int, list[Detection]] = {}
        self.last_boxes: FrameBoxes | None = None  # t_max's, if it has any
        self.frame_nodes: dict[int, np.ndarray] = {}
        self.frame_links: dict[int, np.ndarray] = {}

    # -- basic accessors -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.frames

    @property
    def t_min(self) -> int | None:
        """The oldest frame held, None on an empty graph."""
        return next(iter(self.frames), None)

    @property
    def t_max(self) -> int | None:
        """The newest frame held, None on an empty graph."""
        return next(reversed(self.frames), None)

    @property
    def n_live_nodes(self) -> int:
        """The source, the sink and each detection's u and v node."""
        return 2 * self.n_detections + 2

    @property
    def n_live_edges(self) -> int:
        return len(self.e_alive) - self._dead_edges

    def u_node(self, det: Detection) -> int:
        """det's u node, in its column of frame_nodes, found by local index
        in its frame; KeyError if the graph does not hold det."""
        dets = self.frames.get(det.frame, ())
        i = bisect_left(dets, det.local_index, key=_local_index)
        if i == len(dets) or dets[i].local_index != det.local_index:
            raise KeyError(det.key)
        return self.frame_nodes[det.frame].item(0, i)

    def v_node(self, det: Detection) -> int:
        """det's v node, the head of its detection edge."""
        return self.e_dst.item(self.detection_edge_of(det))

    def entry_edge_of(self, det: Detection) -> int:
        return int(self.node_in[self.u_node(det)])

    def detection_edge_of(self, det: Detection) -> int:
        return int(self.node_out[self.u_node(det)])

    def links_out_of(self, frame: int) -> np.ndarray:
        """The link edges from frame to frame + 1, in (previous, new) order."""
        return self.frame_links.get(frame + 1, NO_EDGES)

    def _take(self, dead: np.ndarray | None, size: int, k: int,
              columns) -> np.ndarray:
        """k slot ids: the dead slots (mask `dead` over the named columns of
        `size` slots, None when no slot is dead) in id order, then as many
        new ones as are missing, added to each named column (lengthen); the
        caller writes every slot taken."""
        ids = NO_EDGES if dead is None else dead.nonzero()[0][:k]
        if missing := k - len(ids):
            end = size + missing
            new = np.arange(size, end)
            ids = np.concatenate((ids, new)) if len(ids) else new
            lengthen(self, columns, end)
        return ids

    # -- frame-level operations ------------------------------------------------

    def prepare_frame(self, new_detections, model,
                      frame: int | None = None) -> PreparedFrames:
        """Check one frame of detections, or a run of frames given as a dict
        {frame: detections} in frame order, and compute their costs, leaving
        the graph untouched; append_frame commits the result.

        The detections of a frame must share its index, which must agree
        with `frame` when both are given, and have distinct local indices.
        The first frame of an empty graph needs an explicit index; every
        later one must lie above the one before and defaults to it plus one.
        Frames skipped in between hold no detections and cost nothing. Every
        cost must be finite, except a link cost of +inf, which admits no
        link. Links join a frame to the frame before, so the result stays
        valid while only frames older than the run's first are clipped.

        A run is checked and priced as one block, with what preparing and
        appending its frames one by one gives, the first error included.
        """
        runs = (list(new_detections.items())
                if isinstance(new_detections, dict)
                else [(frame, new_detections)])
        return self._prepare(runs, model)

    def _prepare(self, runs, model) -> PreparedFrames:
        """prepare_frame over (frame, detections) pairs. A frame at fault
        raises only once the frames before it have passed, as one by one."""
        frames, blocks, last = [], [], self.t_max
        # Per frame, with its detections after the previous frame's in one
        # pool: the previous frame's first detection and their number, and
        # its own first detection and their number.
        layout, pool, pairs = [], 0, 0
        for k, (frame, dets) in enumerate(runs):
            try:
                frame = self._frame_index(dets, frame, last)
            except DataError:
                self._prepare(runs[:k], model)
                raise
            prev = blocks[-1] if blocks else self.frames.get(frame - 1, ())
            m, n = len(prev) if last == frame - 1 else 0, len(dets)
            if not k:  # the graph's frame before the run leads the pool
                pool = m
            layout.append((pool - m, m, pool, n))
            pool, pairs = pool + n, pairs + m * n
            frames.append(frame)
            blocks.append(sorted(dets, key=_local_index))
            last = frame
        sizes = [row[3] for row in layout]
        dets = blocks[0] if len(blocks) == 1 else [d for b in blocks for d in b]
        node_costs = model.node_costs_of(dets)
        finite = np.isfinite(node_costs)
        if not np.logical_and.reduce(finite, axis=None):
            i, kind = divmod(int(finite.argmin()), 3)
            self._prepare(runs[:np.searchsorted(np.cumsum(sizes), i, "right")],
                          model)
            raise DataError(f"non-finite {('entry', 'det', 'exit')[kind]} "
                            f"edge cost {node_costs[i, kind].item()!r}")
        boxes, ends, link_costs = None, (NO_EDGES, NO_EDGES), NO_COSTS
        counts = [0] * len(frames)
        if dets:
            if pool > len(dets):
                prev = self.last_boxes
                boxes = FrameBoxes(prev.dets + dets, np.concatenate(
                    (prev.geo, FrameBoxes(dets).geo), axis=1))
            else:
                boxes = FrameBoxes(dets)
            if pairs:
                ends, link_costs, counts = self._links(boxes, frames, layout,
                                                       pairs, model)
        return PreparedFrames(frames, sizes, dets, boxes, node_costs, ends,
                              link_costs, counts)

    @staticmethod
    def _frame_index(dets, frame, last) -> int:
        """The checked index of one frame of detections that follows frame
        `last` (None on an empty graph)."""
        if dets:
            found, det_frame = set(map(_frame, dets)), dets[0].frame
            if len(found) > 1:
                raise DataError(f"detections span multiple frames: {sorted(found)}")
            if frame is not None and frame != det_frame:
                raise DataError(f"frame argument {frame} != detection frame {det_frame}")
            frame = det_frame
        if last is None:
            if frame is None:
                raise DataError("the first frame needs an explicit frame index")
        elif frame is None:
            frame = last + 1
        elif frame <= last:
            raise DataError(f"frames must be strictly in order: expected a "
                            f"frame above {last}, got {frame}")
        if len(set(map(_local_index, dets))) < len(dets):
            seen = set()
            for d in dets:
                if d.local_index in seen:
                    raise DataError(f"duplicate local_index {d.local_index} "
                                    f"in frame {frame}")
                seen.add(d.local_index)
        return frame

    def _links(self, boxes: FrameBoxes, frames: list[int],
               layout: list[tuple], n_pairs: int, model):
        """The admitted links among the n_pairs candidate pairs that
        `layout` lays out over `boxes`, per frame of `frames` (its previous
        frame's first detection, their number, its own first and their
        number): each frame's (previous frame x frame) grid, row-major and
        frame by frame, gated (_gated) and priced. One frame of at most
        PAIR_BUDGET pairs is gated as one grid, which holds fewer than
        LINK_BUDGET links. Returns the link ends (ip, jn), their costs and
        each frame's number of links."""
        if len(layout) == 1 and n_pairs <= PAIR_BUDGET:
            # One frame after its m previous detections: the m x n grid of
            # its pairs, gated on the geometry as it lies, in pair order.
            m, n = layout[0][2:]
            if self.gating:
                geo = boxes.geo[4:8]
                ip, jn = _gate(geo[:, :m, None], geo[:, None, m:],
                               self.gate_radius_factor).nonzero()
            else:
                ip, jn = np.divmod(np.arange(n_pairs), n)
            jn += m
            keep, cost = _priced(boxes, ip, jn, model)
            if keep is not None:
                ip, jn = ip[keep], jn[keep]
            return (ip, jn), cost, [len(cost)]
        found = []
        for at, ip, jn in self._gated(boxes, frames, layout, model):
            keep, cost = _priced(boxes, ip, jn, model)
            found.append((at, ip, jn, cost) if keep is None else
                         (at[keep], ip[keep], jn[keep], cost))
        at, ip, jn, cost = (found[0] if len(found) == 1 else
                            map(np.concatenate, zip(*found)))
        return ((ip, jn), cost,
                np.bincount(at, minlength=len(layout)).tolist())

    def _gated(self, boxes: FrameBoxes, frames: list[int],
               layout: list[tuple], model) -> list[tuple]:
        """The blocks of _grids, every one gated before any is priced,
        while the links each frame admits are counted. A frame past
        LINK_BUDGET is a DataError, once the links of the frames before it
        are priced (and so checked), as one by one."""
        blocks, admitted = [], np.zeros(len(layout), dtype=np.int64)
        for block in self._grids(boxes, layout):
            at = block[0]
            if len(at):  # a block's frames are consecutive
                lo = at.item(0)
                seen = admitted[lo:at.item(-1) + 1]
                seen += np.bincount(at - lo, minlength=len(seen))
                if (over := seen > LINK_BUDGET).any():
                    k = lo + int(over.argmax())  # the first frame past it
                    for at, ip, jn in blocks + [block]:
                        _priced(boxes, ip[at < k], jn[at < k], model)
                    raise DataError(
                        f"frame {frames[k]} admits {admitted.item(k)} links "
                        f"or more from frame {frames[k] - 1}, past the budget "
                        f"of {LINK_BUDGET} a frame pair")
            blocks.append(block)
        return blocks

    def _grids(self, boxes: FrameBoxes, layout: list[tuple]):
        """The candidate pairs of _links, gated, in blocks of (the pair's
        frame in the run, ip, jn), in pair order. Each frame's grid is one
        piece, or, past PAIR_BUDGET cells, is cut by rows of the previous
        frame into pieces of at most that many (or of one row). Consecutive
        pieces are stacked into blocks of at most PAIR_BUDGET cells, each
        piece padded to the block's widest, and a block is gated in one
        call on its geometry gathered by piece, row and column; padding
        reads a NaN column, which no gate admits."""
        pieces, budget = [], PAIR_BUDGET
        for k, (a, m, b, n) in enumerate(layout):
            if m and n:
                step = max(1, budget // n)
                pieces += [(k, i, min(step, a + m - i), b, n)
                           for i in range(a, a + m, step)]
        blocks, block, height, width = [], [], 0, 0
        for piece in pieces:
            h, w = max(height, piece[2]), max(width, piece[4])
            if block and (len(block) + 1) * h * w > budget:
                blocks.append(block)
                block, h, w = [], piece[2], piece[4]
            block.append(piece)
            height, width = h, w
        blocks.append(block)
        geo, pad = boxes.geo[4:8], len(boxes.dets)
        if self.gating and len(blocks) < len(pieces):  # a block stacks pieces
            geo = np.concatenate((geo, np.full((4, 1), np.nan)), axis=1)
        for block in blocks:
            k, a, m, b, n = map(np.array, zip(*block))
            i, j = np.arange(m.max()), np.arange(n.max())
            row_in, col_in = i < m[:, None], j < n[:, None]
            rows = np.where(row_in, a[:, None] + i, pad)
            cols = np.where(col_in, b[:, None] + j, pad)
            if self.gating:
                admit = _gate(geo[:, rows, None], geo[:, cols][:, :, None],
                              self.gate_radius_factor)
            else:
                admit = row_in[:, :, None] & col_in[:, None]
            at, row, col = admit.nonzero()
            yield k[at], rows[at, row], cols[at, col]

    def append_frame(self, new_detections, model, frame: int | None = None,
                     prepared: PreparedFrames | None = None) -> "TrackingGraph":
        """Extend the graph by one frame of detections (possibly empty), or
        a run of frames given as prepare_frame takes them.

        Links join a frame to the frame before only, so nothing crosses
        skipped frames. Every index and cost is checked before the graph
        changes, so a rejected frame or run leaves no trace. A caller that
        must change the graph between the checks and the append passes what
        prepare_frame returned for these detections as `prepared`. Dead
        slots are taken first, in id order: per detection a u and a v node,
        and frame by frame each detection's entry, detection and exit edge,
        then the frame's links in (previous, new) order.
        """
        if prepared is None:
            prepared = self.prepare_frame(new_detections, model, frame)
        p, n = prepared, len(prepared.dets)
        if not p.frames:
            return self

        # per detection, its u and v node; dead ones only if a clip left any
        slots = len(self.node_kind)
        dead = self.node_kind == KIND_DEAD if slots > self.n_live_nodes else None
        uv = self._take(dead, slots, 2 * n, NODE_COLUMNS).reshape(n, 2)
        nodes = uv.T.copy()  # contiguous rows, which fancy writes index faster
        node_det, (us, vs) = self.node_det, nodes.tolist()
        node_det += [None] * (len(self.node_kind) - len(node_det))
        self.n_detections += n
        for d, x, y in zip(p.dets, us, vs):
            node_det[x] = node_det[y] = d

        k, n_dead = 3 * n + len(p.link_costs), self._dead_edges
        eids = self._take(~self.e_alive if n_dead else None, len(self.e_alive),
                          k, EDGE_COLUMNS)
        self._dead_edges -= min(n_dead, k)
        # Frame by frame: the entry, detection and exit edge of each of its
        # detections, then its links.
        triples, links = [], []
        a = e = 0
        n_prev = len(p.boxes.dets) - n if n else 0
        for f, size, count in zip(p.frames, p.sizes, p.link_counts):
            b, l = a + size, e + 3 * size
            triples.append(eids[e:l])
            e = l + count
            links.append(eids[l:e])
            self.frames[f] = p.dets[a:b]
            self.frame_nodes[f], self.frame_links[f] = nodes[:, a:b], links[-1]
            a = b
        geo = p.boxes.geo[:, -size:].copy() if size else None  # owns its data
        self.last_boxes = FrameBoxes(self.frames[f], geo) if size else None
        if len(triples) > 1:
            triples, links = np.concatenate(triples), np.concatenate(links)
        else:
            triples, links = triples[0], links[0]
        # Written row by row through put, whose flat writes of repeated or
        # (n, 2)-shaped values cost less than the same fancy assignments.
        triples = triples.reshape(n, 3)
        self.node_kind.put(uv, UV_KINDS)
        self.node_in.put(uv, triples[:, :2])
        self.node_out.put(uv, triples[:, 1:])
        # source -> u -> v -> sink
        self.e_src[triples[:, 0]] = SOURCE
        self.e_src.put(triples[:, 1:], uv)
        self.e_dst.put(triples[:, :2], uv)
        self.e_dst[triples[:, 2]] = SINK
        self.e_kind.put(triples, TRIPLE_KINDS)
        self.e_cost[triples] = p.node_costs
        if len(links):  # ends index the frame before the run, then the run
            ip, jn = p.link_ends
            us, vs = nodes
            if n_prev:
                us, vs = np.concatenate((self.frame_nodes[p.frames[0] - 1],
                                         nodes), axis=1)
            self.e_src[links], self.e_dst[links] = vs[ip], us[jn]
        self.e_kind[links], self.e_cost[links] = LINK, p.link_costs
        self.e_alive[eids], self.e_origin[eids] = True, -1
        return self

    def clip_oldest_frame(self, folds: list[tuple]) -> np.ndarray:
        """Drop the oldest frame, folding each clipped trajectory's prefix
        cost (entry, detection and link) into its successor's entry edge, so
        the suffix keeps the trajectory's full cost and, via e_origin, its id.
        t_min moves to the oldest frame left; clipping the only frame empties
        the graph. The frame's nodes and edges and its links out die: their
        slots are dead, for later appends to reuse. Returns the edge slots
        it freed.

        folds holds, per trajectory that starts in the frame and goes on, the
        (entry, link, fold, id) its decode holds (ssp.ResidualGraph): the
        next detection's entry edge, the link to it, the left fold of the
        clipped entry and detection edge's costs, and the id its entry takes
        (the clipped entry's origin, else the track's id). Each such entry
        then costs the fold plus the link, as a left-fold path cost adds.
        """
        if not self.frames:
            raise DataError("cannot clip an empty graph")
        t_min = next(iter(self.frames))
        out = self.frame_links.get(t_min + 1, NO_EDGES)  # the links out
        cost, origin = self.e_cost, self.e_origin
        for entry, link, fold, track_id in folds:
            cost[entry] = fold + cost.item(link)
            origin[entry] = track_id

        self.n_detections -= len(self.frames.pop(t_min))
        del self.frame_links[t_min]
        if not self.frames:
            self.last_boxes = None
        nodes = self.frame_nodes.pop(t_min)
        freed = np.concatenate((self.node_in[nodes[0]],
                                self.node_out.take(nodes).ravel(), out))
        self.e_alive[freed] = False
        self._dead_edges += len(freed)
        if len(out):
            self.frame_links[t_min + 1] = NO_EDGES
        self.node_kind.put(nodes, KIND_DEAD)
        node_det = self.node_det
        for x in nodes.ravel().tolist():
            node_det[x] = None
        return freed

    @property
    def n_frames(self) -> int:
        """Frame indices spanned, skipped ones included."""
        return 0 if self.is_empty else self.t_max - self.t_min + 1


def build_batch_graph(detections, model, gating: bool = True,
                      gate_radius_factor: float = 2.0) -> TrackingGraph:
    """Build the full graph for a batch of detections (list or frame dict),
    its frames prepared and appended as one run."""
    graph = TrackingGraph(gating=gating, gate_radius_factor=gate_radius_factor)
    if isinstance(detections, dict):
        by_frame = {f: list(ds) for f, ds in detections.items()}
    else:
        by_frame = {}
        for d in detections:
            by_frame.setdefault(d.frame, []).append(d)
    return graph.append_frame({f: by_frame[f] for f in sorted(by_frame)}, model)


def check_flow_conservation(graph: TrackingGraph, solution: FlowSolution) -> None:
    """Check per-node conservation of a batch solution's 0/1 edge flow: at a
    u node, entry and links in against the detection edge, at a v node, the
    detection edge against exit and links out."""
    g, n = graph, len(graph.node_kind)
    flow = np.where(g.e_alive, solution.flow, 0)
    into, out = np.bincount(g.e_dst, flow, n), np.bincount(g.e_src, flow, n)
    for f, dets in g.frames.items():
        for d, u, v in zip(dets, *g.frame_nodes[f].tolist()):
            if into[u] != out[u] or out[u] != out[v]:
                raise InvariantBreach(f"flow conservation violated at "
                                      f"detection {d.key}")
            if out[u] not in (0, 1):
                raise InvariantBreach(f"detection {d.key} carries flow "
                                      f"{out[u]:g}")
