"""Exhaustive optimum for small instances, used to verify the solvers."""
from __future__ import annotations

import random

import numpy as np

from .errors import DataError
from .graph import FlowSolution, TrackingGraph, Trajectory

#: The most source-to-sink paths brute_force_optimum enumerates. Its search
#: recurses once per path, so near 1,000 paths (Python's default recursion
#: limit) it fails; 12 detections, the default cap, admit at most 272 paths.
MAX_PATHS = 500

#: The most calls brute_force_optimum's subset search makes, a few seconds
#: of work. Its time depends on the shape of the instance, not only on the
#: path count: a one-box chain of 30 frames (465 paths) needs 7.3 million.
#: The tests' instances need at most about 276,000, 11 times fewer.
MAX_SEARCHES = 3_000_000


def count_paths(graph: TrackingGraph) -> int:
    """The number of source-to-sink paths, in one backward pass over the
    links: from a detection, its exit and the paths from each detection it
    links to."""
    from_node, total = [0] * len(graph.node_kind), 0  # by u or v node
    for f in reversed(graph.frames):
        block = graph.links_out_of(f)
        for a, b in zip(graph.e_src[block].tolist(),
                        graph.e_dst[block].tolist()):
            from_node[a] += from_node[b]
        for u, v in zip(*graph.frame_nodes[f].tolist()):
            from_node[u] = from_node[v] = from_node[v] + 1
            total += from_node[u]
    return total


def enumerate_paths(graph: TrackingGraph):
    """All source-to-sink paths as (detection list, edge id list, cost), by
    first detection in frame order, each detection's exit before its links."""
    paths, cost_of = [], graph.e_cost

    def walk(det, dets, eids, cost):
        exit_eid = int(graph.node_out[graph.v_node(det)])
        paths.append((dets, eids + [exit_eid], cost + cost_of[exit_eid]))
        block = graph.links_out_of(det.frame)
        for eid in block[graph.e_src[block] == graph.v_node(det)].tolist():
            nxt = graph.node_det[graph.e_dst[eid]]
            det_eid = graph.detection_edge_of(nxt)
            walk(nxt, dets + [nxt], eids + [eid, det_eid],
                 cost + cost_of[eid] + cost_of[det_eid])

    for dets in graph.frames.values():
        for det in dets:
            entry_eid = graph.entry_edge_of(det)
            det_eid = graph.detection_edge_of(det)
            walk(det, [det], [entry_eid, det_eid],
                 cost_of[entry_eid] + cost_of[det_eid])
    return paths


def brute_force_optimum(graph: TrackingGraph, seed: int | None = None,
                        max_detections: int = 12) -> FlowSolution:
    """Minimum-cost set of node-disjoint source-sink paths by enumeration.

    The search order is shuffled by seed to guard against order-dependent
    bugs; the returned optimum is order-independent. Its time grows
    exponentially with the number of paths. DataError past max_detections
    detections, MAX_PATHS paths or MAX_SEARCHES search steps.
    """
    if graph.n_detections > max_detections:
        raise DataError(
            f"brute force limited to {max_detections} detections, "
            f"got {graph.n_detections}")
    if (count := count_paths(graph)) > MAX_PATHS:
        raise DataError(f"brute force limited to {MAX_PATHS} source-to-sink "
                        f"paths, got {count}")
    paths = enumerate_paths(graph)
    if seed is not None:
        random.Random(seed).shuffle(paths)
    # Cheapest-first keeps the bound tight; the stable sort leaves the
    # seed-shuffled order in place among equal-cost paths.
    paths.sort(key=lambda p: p[2])

    # Optimistic bound: sum of remaining negative path costs.
    n = len(paths)
    suffix_neg = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        c = paths[i][2]
        suffix_neg[i] = suffix_neg[i + 1] + (c if c < 0 else 0.0)

    best_cost = 0.0
    best_sets: list[int] = []
    calls = 0

    def search(i, used, cost, chosen):
        nonlocal best_cost, best_sets, calls
        if (calls := calls + 1) > MAX_SEARCHES:
            raise DataError(f"brute force limited to {MAX_SEARCHES} search "
                            f"steps")
        if cost < best_cost:
            best_cost = cost
            best_sets = list(chosen)
        if i == n or cost + suffix_neg[i] >= best_cost:
            return
        dets, _, c = paths[i]
        keys = {d.key for d in dets}
        if not (keys & used):
            chosen.append(i)
            search(i + 1, used | keys, cost + c, chosen)
            chosen.pop()
        search(i + 1, used, cost, chosen)

    search(0, frozenset(), 0.0, [])

    trajectories = []
    flow = np.zeros(len(graph.e_src), dtype=np.int8)
    for tid, i in enumerate(sorted(best_sets, key=lambda i: paths[i][0][0].key)):
        dets, eids, c = paths[i]
        trajectories.append(Trajectory(tid, list(dets), c))
        flow[eids] = 1
    return FlowSolution(trajectories=trajectories, total_cost=best_cost,
                        flow=flow)
