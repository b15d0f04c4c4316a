"""Reference implementations that the tests hold the package to: the full
decode of a flow, a path's price and each edge's reduced cost from the edge
columns, the dynamic broadcast as it was before the residual kept a usable
mask for it, a detection's true-positive probability, the gate of gathered
box pairs, six graph helpers, a run's candidate links enumerated as one
global pair index, Algorithm 1's stop rule, a ground-truth matcher that only
tests use, the field-by-field CSV row parser, the row-by-row detection file
parser and the per-row track writer."""
from __future__ import annotations

import csv
import math
from itertools import takewhile

import numpy as np
from scipy.sparse.csgraph import dijkstra

from flowtrack import io as ftio
from flowtrack.cost_model import (CostModel, Detection, FrameBoxes, _logistic,
                                  iou, nan_link_error)
from flowtrack.errors import DataError, InvariantBreach
from flowtrack.graph import (KIND_DEAD, KIND_SINK, KIND_SOURCE, KIND_U,
                             PAIR_BUDGET, SINK, SOURCE, TrackingGraph,
                             Trajectory, _gate)
from flowtrack.metrics import GroundTruth
from flowtrack.ssp import SolverStats, _count_search, extract_path


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


def edge_path_cost(res, path) -> float:
    """The fsum of a residual path's edge costs read from the edge columns,
    each negated where the path runs against its edge (the path's nodes
    tell), as the slot table prices it (ssp.extract_path)."""
    g, eids = res.graph, np.array(path.eids)
    costs = g.e_cost[eids]
    return math.fsum(np.where(g.e_src[eids] == path.nodes[:-1], costs,
                              -costs).tolist())


def fwd_dst(res, eids=slice(None)) -> np.ndarray:
    """The search node each edge eids' (default every slot's) forward arc
    ends at: its head, the target for the sink."""
    dst = res.graph.e_dst[eids]
    return np.where(dst == SINK, res.target, dst)


def reduced(res, eids=slice(None)) -> np.ndarray:
    """The reduced cost of each edge eids (default every slot) in its
    residual direction, from the flow and the potentials, read from the edge
    columns: what the slot table's reduced costs (slot_reduced) match."""
    g, p = res.graph, res.potential
    cost, p_src = g.e_cost[eids], p[g.e_src[eids]]
    fwd = cost + p_src - p[fwd_dst(res, eids)]
    rev = p[g.e_dst[eids]] - p_src - cost
    return np.where(res.flow[eids] == 0, fwd, rev)


def detection_probability(model: CostModel, score: float) -> float:
    """Probability of the detection being a true positive."""
    return _logistic(-model.beta * score)


def dynamic_broadcast(res, seeds, labels, stats: SolverStats | None = None):
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


def gate_pairs(a: FrameBoxes, b: FrameBoxes, ip: np.ndarray, jn: np.ndarray,
               radius_factor: float = 2.0) -> np.ndarray:
    """default_gate(a.dets[i], b.dets[j], radius_factor) for each pair (i, j)
    of ip and jn, as a boolean array, bit for bit: the package's gate
    (graph._gate) over the pairs' geometry, gathered pair by pair."""
    return _gate(a.geo[4:8, ip], b.geo[4:8, jn], radius_factor)


def gate_block(a: FrameBoxes, b: FrameBoxes,
               radius_factor: float = 2.0) -> np.ndarray:
    """default_gate(a.dets[i], b.dets[j], radius_factor) as the [i, j] entry
    of a boolean array, bit for bit."""
    shape = len(a.dets), len(b.dets)
    ip, jn = np.indices(shape).reshape(2, -1)
    return gate_pairs(a, b, ip, jn, radius_factor).reshape(shape)


def pair_index_links(prepared, model, gating: bool = True,
                     radius_factor: float = 2.0, budget: int = PAIR_BUDGET):
    """The links of prepared, a run of frames prepared on an empty graph, as
    one global pair index enumerates them: each frame's (previous frame x
    frame) pairs, row-major and frame by frame, numbered in one sequence
    over the run's boxes, gathered, gated (gate_pairs) and priced
    (link_costs_of) budget pairs at a time; a NaN cost raises, +inf admits
    no link. Returns ((ip, jn), costs, each frame's number of links)."""
    # per frame: the end and start of its pairs, the previous frame's first
    # detection and its own, and its size
    layout, pool, pairs, last = [], 0, 0, None
    for frame, n in zip(prepared.frames, prepared.sizes):
        m = layout[-1][4] if last == frame - 1 else 0
        layout.append((pairs + m * n, pairs, pool - m, pool, n))
        pool, pairs, last = pool + n, pairs + m * n, frame
    pair_end, pair_first, prev_first, first, size = np.array(layout).T
    boxes, found = prepared.boxes, []
    for start in range(0, pairs, budget):
        pair = np.arange(start, min(start + budget, pairs))
        at = pair_end.searchsorted(pair, "right")  # the pair's frame
        i, j = np.divmod(pair - pair_first[at], size[at])
        ip, jn = prev_first[at] + i, first[at] + j
        if gating:
            admit = gate_pairs(boxes, boxes, ip, jn, radius_factor)
            at, ip, jn = at[admit], ip[admit], jn[admit]
        cost = np.array(model.link_costs_of(boxes, boxes, ip, jn)
                        if len(ip) else (), dtype=float)
        if np.isnan(cost).any():
            k = np.isnan(cost).argmax()
            raise nan_link_error(boxes.dets[ip[k]], boxes.dets[jn[k]])
        keep = ~np.isinf(cost)
        found.append((at[keep], ip[keep], jn[keep], cost[keep]))
    empty = np.zeros(0, dtype=np.int64)
    at, ip, jn, cost = (map(np.concatenate, zip(*found)) if found
                        else (empty, empty, empty, np.zeros(0)))
    return (ip, jn), cost, np.bincount(at, minlength=len(layout)).tolist()


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


def live_edges(g: TrackingGraph) -> list[int]:
    """The ids of the graph's live edge slots, in id order."""
    return np.flatnonzero(g.e_alive).tolist()


def node_topo_key(g: TrackingGraph, nid: int):
    """Sort key realizing the layered order source < frames < sink."""
    kind = g.node_kind[nid]
    if kind == KIND_SOURCE:
        return (-1, 0, 0)
    if kind == KIND_SINK:
        return (1 << 60, 0, 0)
    det = g.node_det[nid]
    return (det.frame, 0 if kind == KIND_U else 1, det.local_index)


def check_layered_dag(graph: TrackingGraph) -> None:
    """Verify every live edge respects the source < frames < sink layering,
    the live node and detection counts, and that each held detection's
    u_node and v_node are its column of its frame's nodes."""
    for eid in live_edges(graph):
        ks = node_topo_key(graph, graph.e_src[eid])
        kd = node_topo_key(graph, graph.e_dst[eid])
        if not ks < kd:
            raise InvariantBreach(f"edge {eid} violates the layered order")
    held = list(graph.frames)
    if held != sorted(held) or any(
            d.frame != f for f, dets in graph.frames.items() for d in dets):
        raise InvariantBreach("frames out of order or holding another "
                              "frame's detection")
    live = int(np.count_nonzero(graph.node_kind != KIND_DEAD))
    if live != graph.n_live_nodes:
        raise InvariantBreach(f"live node count {live} != {graph.n_live_nodes}")
    held = sum(map(len, graph.frames.values()))
    if held != graph.n_detections:
        raise InvariantBreach(f"{held} detections held, but n_detections "
                              f"is {graph.n_detections}")
    for f, dets in graph.frames.items():
        nodes = graph.frame_nodes[f]
        if nodes.shape != (2, len(dets)):
            raise InvariantBreach(f"frame {f} holds {len(dets)} detections "
                                  f"but nodes of shape {nodes.shape}")
        for d, u, v in zip(dets, *nodes.tolist()):
            if (graph.u_node(d), graph.v_node(d)) != (u, v):
                raise InvariantBreach(f"detection {d.key} looks up nodes "
                                      f"other than its column ({u}, {v})")


def graphs_structurally_equal(a: TrackingGraph, b: TrackingGraph,
                              cost_tol: float = 1e-12) -> bool:
    """Compare node and edge sets by detection identity, kind and cost."""
    def held(g: TrackingGraph):
        keys = {d.key for dets in g.frames.values() for d in dets}
        return keys, g.t_min, g.t_max

    if held(a) != held(b):
        return False

    def edge_set(g: TrackingGraph):
        def det_key(node):  # None for the source and the sink
            return getattr(g.node_det[node], "key", None)
        return {(int(g.e_kind[e]), det_key(g.e_src[e]), det_key(g.e_dst[e])):
                float(g.e_cost[e]) for e in live_edges(g)}

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


# The CSV row parser, field by field: every field is stripped, then each is
# converted and checked in column order, so the first bad one is named.

def _parse_float(text, what, lineno):
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"line {lineno}: bad {what} {text!r}") from None
    if math.isnan(value):
        raise DataError(f"line {lineno}: {what} is NaN")
    return value


def _parse_int(text, what, lineno):
    try:
        return int(text)
    except ValueError:
        raise DataError(f"line {lineno}: bad {what} {text!r}") from None


def check_detection(frame, box, score):
    """The detection rules in the order they are checked: DataError naming
    the first that frame, box and score break."""
    x, y, w, h = box
    if not (w > 0 and h > 0):
        raise DataError(f"detection box must have positive size, got w={w}, h={h}")
    if frame < 0:
        raise DataError(f"detection frame must be >= 0, got {frame}")
    if not all(math.isfinite(v) for v in (x, y, w, h, score)):
        raise DataError("detection fields must be finite")
    if not w * h > 0:
        raise DataError(f"detection box area w*h underflows to zero, "
                        f"got w={w}, h={h}")


def _checked(lineno, frame, box, score):
    try:
        check_detection(frame, box, score)
    except DataError as exc:
        raise DataError(f"line {lineno}: {exc}") from None


def rows(reader):
    """Yield (line number, stripped fields) for the rows of a csv.reader but
    '#' comments; a blank row gives no fields. A csv.Error becomes a
    DataError that names the line."""
    try:
        for row in reader:
            fields = [c.strip() for c in row]
            if fields and fields[0].startswith("#"):
                continue
            yield reader.line_num, fields if fields != [""] else []
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None


def _file_rows(fobj):
    return ((lineno, row) for lineno, row in rows(csv.reader(fobj)) if row)


def add_detection(per_frame, row, lineno, with_gt_id=False):
    """Parse one detection row and append it to its frame's list in
    per_frame, with the next local index of that frame. Returns the
    detection and its gt id (None without with_gt_id). The detection rules
    are checked here, so a Detection that rejects what they accept raises
    without the line."""
    tail = 1 if with_gt_id else 0
    if len(row) < 7 + tail:
        raise DataError(f"line {lineno}: expected at least {7 + tail} columns, "
                        f"got {len(row)}")
    frame = _parse_int(row[0], "frame", lineno)
    x = _parse_float(row[2], "x", lineno)
    y = _parse_float(row[3], "y", lineno)
    w = _parse_float(row[4], "w", lineno)
    h = _parse_float(row[5], "h", lineno)
    score = _parse_float(row[6], "score", lineno)
    extra_cols = row[7:len(row) - tail] if with_gt_id else row[7:]
    extras = tuple(_parse_float(c, f"extra column {i}", lineno)
                   for i, c in enumerate(extra_cols, start=7))
    gt_id = _parse_int(row[-1], "gt id", lineno) if with_gt_id else None
    dets = per_frame.setdefault(frame, [])
    _checked(lineno, frame, (x, y, w, h), score)
    dets.append(Detection(frame=frame, box=(x, y, w, h), score=score,
                          local_index=len(dets), extras=extras))
    return dets[-1], gt_id


def parse_detections(fobj) -> dict[int, list[Detection]]:
    per_frame, n_extras = {}, None
    for lineno, row in _file_rows(fobj):
        det, _ = add_detection(per_frame, row, lineno)
        if n_extras is None:
            n_extras = len(det.extras)
        elif len(det.extras) != n_extras:
            raise DataError(f"line {lineno}: inconsistent column count")
    return dict(sorted(per_frame.items()))


def parse_detections_by_rows(source) -> dict[int, list[Detection]]:
    """The package's detection file parser as it was before it converted by
    columns: each row in turn through io._add_detection, which converts it
    in one step, or field by field when a field is bad or NaN, and checks
    Detection's rule and the column count, so the first bad line raises."""
    per_frame, n_extras = {}, None
    with ftio.open_or_stdio(source) as fobj:
        for lineno, row in ftio._rows(csv.reader(fobj)):
            det, _ = ftio._add_detection(per_frame, row, lineno)
            if n_extras is None:
                n_extras = len(det.extras)
            elif len(det.extras) != n_extras:
                raise DataError(f"line {lineno}: inconsistent column count")
    return dict(sorted(per_frame.items()))


def parse_ground_truth(fobj) -> tuple[dict[int, list[Detection]], GroundTruth]:
    per_frame, gt = {}, GroundTruth()
    for lineno, row in _file_rows(fobj):
        det, gt_id = add_detection(per_frame, row, lineno, with_gt_id=True)
        gt.add(det.frame, gt_id, det.box)
    return dict(sorted(per_frame.items())), gt


def parse_tracks(fobj) -> dict[int, list[tuple[int, tuple]]]:
    frames = {}
    for lineno, row in _file_rows(fobj):
        if len(row) < 6:
            raise DataError(f"line {lineno}: expected at least 6 columns, "
                            f"got {len(row)}")
        f = _parse_int(row[0], "frame", lineno)
        tid = _parse_int(row[1], "track id", lineno)
        box = tuple(_parse_float(row[i], "box", lineno) for i in range(2, 6))
        _checked(lineno, f, box, 1.0)
        if tid in (boxes := frames.setdefault(f, {})):
            raise DataError(f"line {lineno}: duplicate track id {tid} "
                            f"in frame {f}")
        boxes[tid] = box
    return {f: list(boxes.items()) for f, boxes in frames.items()}


def parse_stream_frame(reader) -> tuple[int, list[Detection]] | None:
    """One blank-row-terminated block of detection rows from a csv.reader."""
    per_frame = {}
    for lineno, row in rows(reader):
        if not row:
            if per_frame:
                break
            continue
        det, _ = add_detection(per_frame, row, lineno)
        frame = next(iter(per_frame))
        if det.frame != frame:
            raise DataError(f"line {lineno}: stream block mixes frames "
                            f"{frame} and {det.frame}")
    return next(iter(per_frame.items()), None)


def _fmt(x: float) -> str:
    return "%.6g" % x


def track_rows_text(rows) -> str:
    """(frame, track id, x, y, w, h) tuples as CSV text, row by row, each
    float through _fmt."""
    return "".join(f"{f},{tid},{_fmt(x)},{_fmt(y)},{_fmt(w)},{_fmt(h)}\n"
                   for f, tid, x, y, w, h in rows)
