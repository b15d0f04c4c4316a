"""Layered tracking graph for min-cost flow data association.

Each detection is split into a u/v node pair connected by a detection edge;
entry edges run from the source to every u node, exit edges from every v node
to the sink, and link edges connect v nodes to u nodes in the next frame.
The graph supports online frame appending and oldest-frame clipping, which
folds each clipped trajectory prefix into its successor's entry cost, and
recycles node/edge slots so a windowed graph stays bounded in memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cost_model import Detection
from .errors import DataError, InvariantBreach

SOURCE = 0
SINK = 1

KIND_SOURCE = "source"
KIND_SINK = "sink"
KIND_U = "u"
KIND_V = "v"
KIND_DEAD = "dead"

ENTRY = "entry"
DET = "det"
LINK = "link"
EXIT = "exit"


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


def default_gate(a: Detection, b: Detection, radius_factor: float = 2.0) -> bool:
    """Admit a link only when the box centers are within radius_factor times
    the larger box diagonal."""
    ca, cb = a.center, b.center
    dist = math.hypot(ca[0] - cb[0], ca[1] - cb[1])
    return dist <= radius_factor * max(a.diagonal, b.diagonal)


class TrackingGraph:
    """Mutable layered DAG over a contiguous frame interval.

    Single-writer: operations mutate the graph exclusively. Node and edge ids
    are recycled through free lists so clipping keeps storage bounded.
    """

    def __init__(self, gating: bool = True, gate_radius_factor: float = 2.0):
        self.gating = gating
        self.gate_radius_factor = gate_radius_factor
        # node storage
        self.node_kind: list[str] = [KIND_SOURCE, KIND_SINK]
        self.node_det: list[Detection | None] = [None, None]
        self.out_edges: list[list[int]] = [[], []]
        self.in_edges: list[list[int]] = [[], []]
        self._free_nodes: list[int] = []
        # edge storage (struct of arrays)
        self.e_src: list[int] = []
        self.e_dst: list[int] = []
        self.e_kind: list[str] = []
        self.e_cost: list[float] = []
        self.e_origin: list[int | None] = []
        self.e_alive: list[bool] = []
        self._free_edges: list[int] = []
        # detection bookkeeping
        self.det_nodes: dict[tuple[int, int], tuple[int, int]] = {}  # key -> (u, v)
        self.frames: dict[int, list[Detection]] = {}
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

    def node_frame(self, nid: int) -> int | None:
        det = self.node_det[nid]
        return None if det is None else det.frame

    def u_node(self, det: Detection) -> int:
        return self.det_nodes[det.key][0]

    def v_node(self, det: Detection) -> int:
        return self.det_nodes[det.key][1]

    def entry_edge_of(self, det: Detection) -> int:
        u = self.u_node(det)
        for eid in self.in_edges[u]:
            if self.e_kind[eid] == ENTRY:
                return eid
        raise InvariantBreach(f"detection {det.key} has no entry edge")

    def detection_edge_of(self, det: Detection) -> int:
        u = self.u_node(det)
        for eid in self.out_edges[u]:
            if self.e_kind[eid] == DET:
                return eid
        raise InvariantBreach(f"detection {det.key} has no detection edge")

    def link_edge_between(self, a: Detection, b: Detection) -> int | None:
        va = self.v_node(a)
        ub = self.u_node(b)
        for eid in self.out_edges[va]:
            if self.e_kind[eid] == LINK and self.e_dst[eid] == ub:
                return eid
        return None

    def live_edges(self):
        return [e for e in range(len(self.e_src)) if self.e_alive[e]]

    def node_topo_key(self, nid: int):
        """Sort key realizing the layered order source < frames < sink."""
        kind = self.node_kind[nid]
        if kind == KIND_SOURCE:
            return (-1, 0, 0)
        if kind == KIND_SINK:
            return (1 << 60, 0, 0)
        det = self.node_det[nid]
        return (det.frame, 0 if kind == KIND_U else 1, det.local_index)

    # -- low-level mutation ---------------------------------------------------

    def _alloc_node(self, kind: str, det: Detection) -> int:
        if self._free_nodes:
            nid = self._free_nodes.pop()
            self.node_kind[nid] = kind
            self.node_det[nid] = det
        else:
            nid = len(self.node_kind)
            self.node_kind.append(kind)
            self.node_det.append(det)
            self.out_edges.append([])
            self.in_edges.append([])
        self.n_live_nodes += 1
        return nid

    def _add_edge(self, src: int, dst: int, kind: str, cost: float,
                  origin: int | None = None) -> int:
        if not math.isfinite(cost):
            raise DataError(f"non-finite {kind} edge cost {cost!r}")
        if self._free_edges:
            eid = self._free_edges.pop()
            self.e_src[eid] = src
            self.e_dst[eid] = dst
            self.e_kind[eid] = kind
            self.e_cost[eid] = cost
            self.e_origin[eid] = origin
            self.e_alive[eid] = True
        else:
            eid = len(self.e_src)
            self.e_src.append(src)
            self.e_dst.append(dst)
            self.e_kind.append(kind)
            self.e_cost.append(cost)
            self.e_origin.append(origin)
            self.e_alive.append(True)
        self.out_edges[src].append(eid)
        self.in_edges[dst].append(eid)
        self.n_live_edges += 1
        return eid

    def _remove_edge(self, eid: int):
        self.out_edges[self.e_src[eid]].remove(eid)
        self.in_edges[self.e_dst[eid]].remove(eid)
        self.e_alive[eid] = False
        self._free_edges.append(eid)
        self.n_live_edges -= 1

    def _remove_node(self, nid: int):
        for eid in list(self.out_edges[nid]):
            self._remove_edge(eid)
        for eid in list(self.in_edges[nid]):
            self._remove_edge(eid)
        self.node_kind[nid] = KIND_DEAD
        self.node_det[nid] = None
        self._free_nodes.append(nid)
        self.n_live_nodes -= 1

    # -- frame-level operations ------------------------------------------------

    def frame_index(self, detections: list[Detection],
                    frame: int | None = None) -> int:
        """Validate one frame of detections for append_frame and return its
        index, leaving the graph untouched.

        The detections must share one frame, which must agree with `frame`
        when both are given, and have distinct local indices. The first frame
        of an empty graph needs an explicit index; every later one is
        t_max + 1.
        """
        if detections:
            frames = {d.frame for d in detections}
            if len(frames) > 1:
                raise DataError(f"detections span multiple frames: {sorted(frames)}")
            det_frame = frames.pop()
            if frame is not None and frame != det_frame:
                raise DataError(f"frame argument {frame} != detection frame {det_frame}")
            frame = det_frame
        if self.is_empty:
            if frame is None:
                raise DataError("the first frame needs an explicit frame index")
        else:
            expected = self.t_max + 1
            if frame is None:
                frame = expected
            if frame != expected:
                raise DataError(f"frames must be strictly in order: expected "
                                f"frame {expected}, got {frame}")
        seen = set()
        for d in detections:
            if d.local_index in seen:
                raise DataError(f"duplicate local_index {d.local_index} in frame {frame}")
            seen.add(d.local_index)
        return frame

    def append_frame(self, new_detections: list[Detection], model,
                     frame: int | None = None) -> "TrackingGraph":
        """Extend the graph by one frame of detections (possibly empty)."""
        frame = self.frame_index(new_detections, frame)
        if self.is_empty:
            self.t_min = frame
        self.t_max = frame
        dets = sorted(new_detections, key=lambda d: d.local_index)
        self.frames[frame] = dets

        prev_dets = self.frames.get(frame - 1, [])
        for d in dets:
            u = self._alloc_node(KIND_U, d)
            v = self._alloc_node(KIND_V, d)
            self.det_nodes[d.key] = (u, v)
            self._add_edge(SOURCE, u, ENTRY, model.entry_cost_of(d))
            self._add_edge(u, v, DET, model.detection_cost_of(d))
            self._add_edge(v, SINK, EXIT, model.exit_cost_of(d))
        for p in prev_dets:
            for d in dets:
                if self.gating and not default_gate(p, d, self.gate_radius_factor):
                    continue
                cost = model.link_cost_of(p, d)
                if math.isnan(cost):
                    raise DataError(f"non-finite link cost for {p.key}->{d.key}")
                if math.isinf(cost):
                    continue  # +inf means "no plausible link"
                self._add_edge(self.v_node(p), self.u_node(d), LINK, cost)
        return self

    def clip_oldest_frame(self, solution: FlowSolution) -> "TrackingGraph":
        """Drop the oldest frame, folding each clipped trajectory's prefix
        cost (entry, detection and link) into its successor's entry edge, so
        the suffix keeps the trajectory's full cost and, via e_origin, its id.
        """
        if self.is_empty or self.t_min == self.t_max:
            raise DataError("cannot clip the only frame of the graph")
        t_min = self.t_min
        removed = self.frames.get(t_min, [])

        for traj in solution.trajectories:
            first = traj.detections[0]
            if first.frame != t_min or len(traj.detections) < 2:
                continue
            succ = traj.detections[1]
            link_eid = self.link_edge_between(first, succ)
            if link_eid is None:
                raise InvariantBreach(
                    f"solution trajectory uses missing link {first.key}->{succ.key}")
            entry_eid = self.entry_edge_of(first)
            # Same additions in the same order as a left-fold path cost.
            cost = self.e_cost[entry_eid]
            cost += self.e_cost[self.detection_edge_of(first)]
            cost += self.e_cost[link_eid]
            succ_entry = self.entry_edge_of(succ)
            self.e_cost[succ_entry] = cost
            origin = self.e_origin[entry_eid]
            self.e_origin[succ_entry] = traj.track_id if origin is None else origin

        for d in removed:
            u, v = self.det_nodes.pop(d.key)
            self._remove_node(u)
            self._remove_node(v)
        self.frames.pop(t_min, None)
        self.t_min = t_min + 1
        return self

    @property
    def n_frames(self) -> int:
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
    if not by_frame:
        return graph
    t_min, t_max = min(by_frame), max(by_frame)
    for f in range(t_min, t_max + 1):
        graph.append_frame(by_frame.get(f, []), model, frame=f)
    return graph


def graphs_structurally_equal(a: TrackingGraph, b: TrackingGraph,
                              cost_tol: float = 1e-12) -> bool:
    """Compare node and edge sets by detection identity, kind and cost."""
    if set(a.det_nodes) != set(b.det_nodes):
        return False
    if (a.t_min, a.t_max) != (b.t_min, b.t_max):
        return False

    def edge_set(g: TrackingGraph):
        out = {}
        for eid in g.live_edges():
            src_det = g.node_det[g.e_src[eid]]
            dst_det = g.node_det[g.e_dst[eid]]
            key = (g.e_kind[eid],
                   None if src_det is None else src_det.key,
                   None if dst_det is None else dst_det.key)
            out[key] = g.e_cost[eid]
        return out

    ea, eb = edge_set(a), edge_set(b)
    if set(ea) != set(eb):
        return False
    return all(abs(ea[k] - eb[k]) <= cost_tol for k in ea)


def check_layered_dag(graph: TrackingGraph) -> None:
    """Verify every live edge respects the source < frames < sink layering."""
    for eid in graph.live_edges():
        ks = graph.node_topo_key(graph.e_src[eid])
        kd = graph.node_topo_key(graph.e_dst[eid])
        if not ks < kd:
            raise InvariantBreach(f"edge {eid} violates the layered order")
    if not graph.is_empty:
        for f in range(graph.t_min, graph.t_max + 1):
            for d in graph.frames.get(f, []):
                if not graph.t_min <= d.frame <= graph.t_max:
                    raise InvariantBreach("detection outside frames_present")
    expected = 2 * graph.n_detections + 2
    if graph.n_live_nodes != expected:
        raise InvariantBreach(
            f"live node count {graph.n_live_nodes} != {expected}")


def check_flow_conservation(graph: TrackingGraph, solution: FlowSolution) -> None:
    """Check per-node conservation of the 0/1 edge flows in a solution."""
    flow = solution.edge_flow
    for key, (u, v) in graph.det_nodes.items():
        f_en = sum(flow.get(e, 0) for e in graph.in_edges[u]
                   if graph.e_kind[e] == ENTRY)
        f_li_in = sum(flow.get(e, 0) for e in graph.in_edges[u]
                      if graph.e_kind[e] == LINK)
        f_det = sum(flow.get(e, 0) for e in graph.out_edges[u]
                    if graph.e_kind[e] == DET)
        f_ex = sum(flow.get(e, 0) for e in graph.out_edges[v]
                   if graph.e_kind[e] == EXIT)
        f_li_out = sum(flow.get(e, 0) for e in graph.out_edges[v]
                       if graph.e_kind[e] == LINK)
        if f_en + f_li_in != f_det or f_det != f_ex + f_li_out:
            raise InvariantBreach(f"flow conservation violated at detection {key}")
        if f_det not in (0, 1):
            raise InvariantBreach(f"detection {key} carries flow {f_det}")
