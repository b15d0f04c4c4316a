"""Reference implementations that the tests hold the package to: the full
decode of a flow, four graph helpers, Algorithm 1's stop rule and a
ground-truth matcher that only tests use."""
from __future__ import annotations

import math
from itertools import takewhile

import numpy as np

from flowtrack.cost_model import Detection, FrameBoxes, iou
from flowtrack.errors import InvariantBreach
from flowtrack.graph import SINK, SOURCE, TrackingGraph, Trajectory, gate_pairs
from flowtrack.metrics import GroundTruth


def decode_trajectories(res, start_id: int = 0) -> list[Trajectory]:
    """Follow the flow from every flowed entry edge, through the successor
    map node -> (head, edge cost) of the flowed edges out of other nodes;
    a trajectory costs the left fold of its edge costs. Trajectories come in
    the order of their first detections' keys, numbered from start_id."""
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


def gate_block(a: FrameBoxes, b: FrameBoxes,
               radius_factor: float = 2.0) -> np.ndarray:
    """default_gate(a.dets[i], b.dets[j], radius_factor) as the [i, j] entry
    of a boolean array, bit for bit."""
    shape = len(a.dets), len(b.dets)
    ip, jn = np.indices(shape).reshape(2, -1)
    return gate_pairs(a, b, ip, jn, radius_factor).reshape(shape)


def link_edge_between(g: TrackingGraph, a: Detection,
                      b: Detection) -> int | None:
    """The link edge from detection a to detection b, None if gated out."""
    va, ub = g.v_node(a), g.u_node(b)
    block = g.frame_links[b.frame]
    hit = block[(g.e_src[block] == va) & (g.e_dst[block] == ub)]
    return int(hit[0]) if len(hit) else None


def trajectory_flow(g: TrackingGraph, trajectories) -> np.ndarray:
    """The flow of trajectories over g's edge slots, as int8: per trajectory
    1 on its entry edge, its detection edges, the link between each two
    consecutive detections and its exit edge. A slot two trajectories share
    reads 2, and a missing link is an InvariantBreach."""
    eids = []
    for t in trajectories:
        dets = t.detections
        eids += [g.entry_edge_of(dets[0]), int(g.node_out[g.v_node(dets[-1])])]
        eids += [g.detection_edge_of(d) for d in dets]
        for a, b in zip(dets, dets[1:]):
            if (link := link_edge_between(g, a, b)) is None:
                raise InvariantBreach(f"no link {a.key}->{b.key}")
            eids.append(link)
    return np.bincount(eids, minlength=len(g.e_src)).astype(np.int8)


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


def stop_iterations(dists, costs):
    """The stop iteration of a one-path SSP solve under both termination
    rules, from each search's distance to the target (the DAG sweep's first)
    and the original cost of each path priced: the first path costing >= 0,
    and Algorithm 1's, where the later searches' distances sum past the
    first's magnitude. Returns (prose, alg1); None where a rule never fired."""
    prose = next((k for k, c in enumerate(costs) if c >= 0), None)
    alg1 = None
    if dists and -math.inf < dists[0] < 0:
        acc = np.cumsum(list(takewhile(math.isfinite, dists[1:])))
        over = np.flatnonzero(acc > -dists[0])
        alg1 = int(over[0]) + 1 if len(over) else None
    return prose, alg1


def detections_to_gt_map(detections: dict[int, list[Detection]], gt: GroundTruth,
                         iou_threshold: float = 0.5):
    """Map each detection key to its originating gt id (None for FPs)."""
    mapping = {}
    for f, dets in detections.items():
        gt_objs = gt.frames.get(f, [])
        for d in dets:
            best, best_ov = None, iou_threshold
            for g, b in gt_objs:
                ov = iou(d.box, b)
                if ov >= best_ov:
                    best, best_ov = g, ov
            mapping[d.key] = best
    return mapping
