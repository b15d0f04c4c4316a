"""Layered tracking graph for min-cost flow data association.

Each detection is split into a u/v node pair connected by a detection edge;
entry edges run from the source to every u node, exit edges from every v node
to the sink, and link edges connect v nodes to u nodes in the next frame.
The graph supports online frame appending and oldest-frame clipping, which
folds each clipped trajectory prefix into its successor's entry cost, and
recycles node/edge slots so a windowed graph stays bounded in memory.

Nodes and edges are stored once, as numpy columns by slot id that the
solvers read directly, with fixed edge slots per detection and a block of
link edges per frame: a frame is appended, or clipped, as one write per
column.

A frame's links are gated and priced as one (previous frame x new frame)
block: `gate_block` over the box geometry kept per frame, then the model's
`link_costs_of` over the admitted pairs. Both give, bit for bit, what the
scalar references `default_gate` and `link_cost_of` give pair by pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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

NO_EDGES = np.zeros(0, dtype=np.int64)
NODE_COLUMNS = ("node_kind", "node_in", "node_out")
EDGE_COLUMNS = ("e_src", "e_dst", "e_kind", "e_cost", "e_alive", "e_origin")


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
    """A set of disjoint unit-flow trajectories plus per-edge flow indicators."""

    trajectories: list[Trajectory] = field(default_factory=list)
    total_cost: float = 0.0
    edge_flow: dict[int, int] = field(default_factory=dict)


@dataclass
class PreparedFrame:
    """One frame checked against a graph, ready to append: its index, its
    detections in local-index order, their box geometry (None for an empty
    frame), their (entry, detection, exit) costs and the admitted
    (previous, detection, cost) links."""

    frame: int
    dets: list[Detection]
    boxes: FrameBoxes | None
    node_costs: list[tuple[float, float, float]]
    links: list[tuple[Detection, Detection, float]]


def default_gate(a: Detection, b: Detection, radius_factor: float = 2.0) -> bool:
    """Admit a link only when the box centers are within radius_factor times
    the larger box diagonal."""
    ca, cb = a.center, b.center
    dist = math.hypot(ca[0] - cb[0], ca[1] - cb[1])
    return dist <= radius_factor * max(a.diagonal, b.diagonal)


def gate_block(a: FrameBoxes, b: FrameBoxes,
               radius_factor: float = 2.0) -> np.ndarray:
    """default_gate(a.dets[i], b.dets[j], radius_factor) as the [i, j] entry
    of a boolean array, bit for bit."""
    with np.errstate(all="ignore"):
        d = a.geo[4:6, :, None] - b.geo[4:6, None, :]
        dist = np.array(list(map(math.hypot, *d.reshape(2, -1).tolist())))
        return (dist.reshape(d.shape[1:])
                <= radius_factor * np.maximum(a.geo[7, :, None], b.geo[7]))


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
    Clipped slots are reused, last freed first; columns grow only when the
    free lists run short, by exactly the slots missing.
    """

    def __init__(self, gating: bool = True, gate_radius_factor: float = 2.0):
        self.gating = gating
        self.gate_radius_factor = gate_radius_factor
        self.node_kind = np.array([KIND_SOURCE, KIND_SINK], dtype=np.int8)
        self.node_det: list[Detection | None] = [None, None]
        self.node_in = np.full(2, -1, dtype=np.int64)
        self.node_out = np.full(2, -1, dtype=np.int64)
        self._free_nodes: list[int] = []
        self.e_src = np.zeros(0, dtype=np.int64)
        self.e_dst = np.zeros(0, dtype=np.int64)
        self.e_kind = np.zeros(0, dtype=np.int8)
        self.e_cost = np.zeros(0)
        self.e_alive = np.zeros(0, dtype=bool)
        self.e_origin = np.zeros(0, dtype=np.int64)
        self._free_edges: list[int] = []
        self.det_nodes: dict[tuple[int, int], tuple[int, int]] = {}  # key -> (u, v)
        self.frames: dict[int, list[Detection]] = {}
        self.boxes: dict[int, FrameBoxes | None] = {}  # geometry of frames
        self.frame_nodes: dict[int, np.ndarray] = {}
        self.frame_links: dict[int, np.ndarray] = {}
        self.t_min: int | None = None
        self.t_max: int | None = None
        self.n_live_nodes = 2
        self.n_live_edges = 0

    # -- basic accessors -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.t_min is None

    @property
    def n_detections(self) -> int:
        return len(self.det_nodes)

    def u_node(self, det: Detection) -> int:
        return self.det_nodes[det.key][0]

    def v_node(self, det: Detection) -> int:
        return self.det_nodes[det.key][1]

    def entry_edge_of(self, det: Detection) -> int:
        return int(self.node_in[self.u_node(det)])

    def detection_edge_of(self, det: Detection) -> int:
        return int(self.node_out[self.u_node(det)])

    def links_out_of(self, frame: int) -> np.ndarray:
        """The link edges from frame to frame + 1, in (previous, new) order."""
        return self.frame_links.get(frame + 1, NO_EDGES)

    def link_edge_between(self, a: Detection, b: Detection) -> int | None:
        va, ub = self.v_node(a), self.u_node(b)
        block = self.frame_links[b.frame]
        hit = block[(self.e_src[block] == va) & (self.e_dst[block] == ub)]
        return int(hit[0]) if len(hit) else None

    def live_edges(self):
        return np.flatnonzero(self.e_alive).tolist()

    def node_topo_key(self, nid: int):
        """Sort key realizing the layered order source < frames < sink."""
        kind = self.node_kind[nid]
        if kind == KIND_SOURCE:
            return (-1, 0, 0)
        if kind == KIND_SINK:
            return (1 << 60, 0, 0)
        det = self.node_det[nid]
        return (det.frame, 0 if kind == KIND_U else 1, det.local_index)

    def _take(self, free: list[int], k: int, columns) -> np.ndarray:
        """k slot ids, recycled ones last freed first, then new ones, added to
        each named column; the caller writes every slot taken."""
        r = min(k, len(free))
        size = len(getattr(self, columns[0]))
        ids = np.arange(size - r, size + k - r)
        if r:
            ids[:r] = free[len(free) - r:][::-1]
            del free[len(free) - r:]
        if k > r:
            for name in columns:
                column = getattr(self, name)
                setattr(self, name, np.concatenate(
                    (column, np.zeros(k - r, column.dtype))))
        return ids

    # -- frame-level operations ------------------------------------------------

    def prepare_frame(self, new_detections: list[Detection], model,
                      frame: int | None = None) -> PreparedFrame:
        """Check one frame of detections and compute its costs, leaving the
        graph untouched; append_frame commits the result.

        The detections must share one frame, which must agree with `frame`
        when both are given, and have distinct local indices. The first frame
        of an empty graph needs an explicit index; every later one must lie
        above t_max and defaults to t_max + 1. Frames skipped in between hold
        no detections and cost nothing. Every cost must be finite, except a
        link cost of +inf, which admits no link. Links join the frame to
        frame - 1, so the result stays valid while only older frames are
        clipped.
        """
        if new_detections:
            frames = {d.frame for d in new_detections}
            if len(frames) > 1:
                raise DataError(f"detections span multiple frames: {sorted(frames)}")
            det_frame = frames.pop()
            if frame is not None and frame != det_frame:
                raise DataError(f"frame argument {frame} != detection frame {det_frame}")
            frame = det_frame
        if self.is_empty:
            if frame is None:
                raise DataError("the first frame needs an explicit frame index")
        elif frame is None:
            frame = self.t_max + 1
        elif frame <= self.t_max:
            raise DataError(f"frames must be strictly in order: expected a "
                            f"frame above {self.t_max}, got {frame}")
        seen = set()
        for d in new_detections:
            if d.local_index in seen:
                raise DataError(f"duplicate local_index {d.local_index} in frame {frame}")
            seen.add(d.local_index)

        dets = sorted(new_detections, key=lambda d: d.local_index)
        node_costs = [(model.entry_cost_of(d), model.detection_cost_of(d),
                       model.exit_cost_of(d)) for d in dets]
        for costs in node_costs:
            for kind, cost in zip(("entry", "det", "exit"), costs):
                if not math.isfinite(cost):
                    raise DataError(f"non-finite {kind} edge cost {cost!r}")
        boxes = FrameBoxes(dets) if dets else None
        prev = self.boxes.get(frame - 1)
        links = []
        if prev is not None and boxes is not None:
            if self.gating:
                ip, jn = np.nonzero(gate_block(prev, boxes,
                                               self.gate_radius_factor))
            else:
                ip, jn = np.indices((len(prev.dets), len(dets))).reshape(2, -1)
            costs = model.link_costs_of(prev, boxes, ip, jn) if len(ip) else []
            pairs = list(zip(ip.tolist(), jn.tolist(), costs))
            if math.isnan(sum(costs)):  # as it is whenever a cost is NaN
                for i, j, cost in pairs:
                    if math.isnan(cost):
                        raise nan_link_error(prev.dets[i], dets[j])
            # +inf means "no plausible link"
            links = [(prev.dets[i], dets[j], cost) for i, j, cost in pairs
                     if not math.isinf(cost)]
        return PreparedFrame(frame, dets, boxes, node_costs, links)

    def append_frame(self, new_detections: list[Detection], model,
                     frame: int | None = None,
                     prepared: PreparedFrame | None = None) -> "TrackingGraph":
        """Extend the graph by one frame of detections (possibly empty).

        Links join the frame to frame - 1 only, so nothing crosses skipped
        frames. Every index and cost is checked before the graph changes, so
        a rejected frame leaves no trace. A caller that must change the graph
        between the checks and the append passes what prepare_frame returned
        for these detections as `prepared`. Slots are taken as one-by-one
        allocation took them: per detection a u and a v node, and its entry,
        detection and exit edge, then the links in (previous, new) order.
        """
        if prepared is None:
            prepared = self.prepare_frame(new_detections, model, frame)
        frame, links, n = prepared.frame, prepared.links, len(prepared.dets)
        if self.is_empty:
            self.t_min = frame
        self.t_max = frame
        self.frames[frame] = prepared.dets
        self.boxes[frame] = prepared.boxes

        uv = self._take(self._free_nodes, 2 * n, NODE_COLUMNS)  # u, v, u, ...
        nodes = uv.reshape(n, 2).T
        self.node_det += [None] * (len(self.node_kind) - len(self.node_det))
        src, dst = [], []
        for d, u, v in zip(prepared.dets, *nodes.tolist()):
            self.det_nodes[d.key] = (u, v)
            self.node_det[u] = self.node_det[v] = d
            src += (SOURCE, u, v)
            dst += (u, v, SINK)
        src += [self.det_nodes[p.key][1] for p, _, _ in links]
        dst += [self.det_nodes[d.key][0] for _, d, _ in links]

        eids = self._take(self._free_edges, len(src), EDGE_COLUMNS)
        triples = eids[:3 * n].reshape(n, 3)  # entry, detection, exit
        self.node_kind[uv] = [KIND_U, KIND_V] * n
        self.node_in[uv] = triples[:, :2].ravel()
        self.node_out[uv] = triples[:, 1:].ravel()
        self.e_src[eids], self.e_dst[eids] = src, dst
        self.e_kind[eids] = [ENTRY, DET, EXIT] * n + [LINK] * len(links)
        self.e_cost[eids] = [c for costs in prepared.node_costs for c in costs] \
            + [c for _, _, c in links]
        self.e_alive[eids], self.e_origin[eids] = True, -1
        self.frame_nodes[frame], self.frame_links[frame] = nodes, eids[3 * n:]
        self.n_live_nodes += 2 * n
        self.n_live_edges += len(eids)
        return self

    def clip_oldest_frame(self, solution: FlowSolution) -> "TrackingGraph":
        """Drop the oldest frame, folding each clipped trajectory's prefix
        cost (entry, detection and link) into its successor's entry edge, so
        the suffix keeps the trajectory's full cost and, via e_origin, its id.
        t_min moves to the oldest frame left; clipping the only frame empties
        the graph. The freed slots join the free lists in the order one-by-one
        removal gave: per detection its detection, entry and exit edge and
        its links out, and its u and then its v node.
        """
        if self.is_empty:
            raise DataError("cannot clip an empty graph")
        t_min, removed = self.t_min, self.frames.pop(self.t_min)
        del self.boxes[t_min], self.frame_links[t_min]
        nodes = u, v = self.frame_nodes.pop(t_min)
        out = self.links_out_of(t_min)

        # Each link out, keyed by its (v node, next u node), in block order.
        link_of = dict(zip(zip(self.e_src[out].tolist(),
                               self.e_dst[out].tolist()), out.tolist()))
        fold = []  # (track id, u node, link, next u node) per continuing track
        for t in solution.trajectories:
            if t.detections[0].frame == t_min and len(t.detections) > 1:
                u0, v0 = self.det_nodes[t.detections[0].key]
                u1 = self.u_node(t.detections[1])
                if (v0, u1) not in link_of:
                    raise InvariantBreach(
                        f"solution trajectory uses missing link "
                        f"{t.detections[0].key}->{t.detections[1].key}")
                fold.append((t.track_id, u0, link_of[v0, u1], u1))
        if fold:
            tid, u0, link, u1 = np.array(fold).T
            entry, succ_entry = self.node_in[u0], self.node_in[u1]
            # Same additions in the same order as a left-fold path cost.
            self.e_cost[succ_entry] = (self.e_cost[entry] + self.e_cost[
                self.node_out[u0]] + self.e_cost[link])
            origin = self.e_origin[entry]
            self.e_origin[succ_entry] = np.where(origin < 0, tid, origin)

        links_from = {vn: [] for vn in v.tolist()}  # in v's order
        for (vn, _), eid in link_of.items():
            links_from[vn].append(eid)
        triples = np.column_stack(
            (self.node_out[u], self.node_in[u], self.node_out[v])).tolist()
        freed = []
        for triple, out_links in zip(triples, links_from.values()):
            freed += triple + out_links
        self.e_alive[freed] = False
        self._free_edges += freed
        self.n_live_edges -= len(freed)
        if len(out):
            self.frame_links[t_min + 1] = NO_EDGES
        self.node_kind[nodes] = KIND_DEAD
        for d in removed:
            for x in self.det_nodes.pop(d.key):
                self.node_det[x] = None
                self._free_nodes.append(x)
        self.n_live_nodes -= 2 * len(removed)
        self.t_min = next(iter(self.frames), None)
        if self.t_min is None:
            self.t_max = None
        return self

    @property
    def n_frames(self) -> int:
        """Frame indices spanned, skipped ones included."""
        return 0 if self.is_empty else self.t_max - self.t_min + 1


def build_batch_graph(detections, model, gating: bool = True,
                      gate_radius_factor: float = 2.0) -> TrackingGraph:
    """Build the full graph for a batch of detections (list or frame dict)."""
    graph = TrackingGraph(gating=gating, gate_radius_factor=gate_radius_factor)
    if isinstance(detections, dict):
        by_frame = {f: list(ds) for f, ds in detections.items()}
    else:
        by_frame = {}
        for d in detections:
            by_frame.setdefault(d.frame, []).append(d)
    for f in sorted(by_frame):
        graph.append_frame(by_frame[f], model, frame=f)
    return graph


def graphs_structurally_equal(a: TrackingGraph, b: TrackingGraph,
                              cost_tol: float = 1e-12) -> bool:
    """Compare node and edge sets by detection identity, kind and cost."""
    if (set(a.det_nodes), a.t_min, a.t_max) != (set(b.det_nodes), b.t_min,
                                                 b.t_max):
        return False

    def edge_set(g: TrackingGraph):
        def det_key(node):  # None for the source and the sink
            return getattr(g.node_det[node], "key", None)
        return {(int(g.e_kind[e]), det_key(g.e_src[e]), det_key(g.e_dst[e])):
                float(g.e_cost[e]) for e in g.live_edges()}

    ea, eb = edge_set(a), edge_set(b)
    return set(ea) == set(eb) and all(abs(ea[k] - eb[k]) <= cost_tol
                                      for k in ea)


def check_layered_dag(graph: TrackingGraph) -> None:
    """Verify every live edge respects the source < frames < sink layering."""
    for eid in graph.live_edges():
        ks = graph.node_topo_key(graph.e_src[eid])
        kd = graph.node_topo_key(graph.e_dst[eid])
        if not ks < kd:
            raise InvariantBreach(f"edge {eid} violates the layered order")
    held = list(graph.frames)
    ends = (held[0], held[-1]) if held else (None, None)
    if held != sorted(held) or ends != (graph.t_min, graph.t_max) or any(
            d.frame != f for f, dets in graph.frames.items() for d in dets):
        raise InvariantBreach("frames out of order, outside t_min..t_max or "
                              "holding another frame's detection")
    expected = 2 * graph.n_detections + 2
    if graph.n_live_nodes != expected:
        raise InvariantBreach(
            f"live node count {graph.n_live_nodes} != {expected}")


def check_flow_conservation(graph: TrackingGraph, solution: FlowSolution) -> None:
    """Check per-node conservation of the 0/1 edge flows in a solution: at a
    u node, entry and links in against the detection edge, at a v node, the
    detection edge against exit and links out."""
    g, n = graph, len(graph.node_kind)
    flow = np.zeros(len(g.e_src), dtype=np.int64)
    flow[list(solution.edge_flow)] = list(solution.edge_flow.values())
    flow[~g.e_alive] = 0
    into, out = np.bincount(g.e_dst, flow, n), np.bincount(g.e_src, flow, n)
    for key, (u, v) in g.det_nodes.items():
        if into[u] != out[u] or out[u] != out[v]:
            raise InvariantBreach(f"flow conservation violated at detection {key}")
        if out[u] not in (0, 1):
            raise InvariantBreach(f"detection {key} carries flow {out[u]:g}")
