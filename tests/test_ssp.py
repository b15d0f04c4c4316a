import gc
import heapq
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (StubModel, build_graph, canonical_graph, det,
                      interchange_graph, make_random_instance)
from flowtrack.cost_model import CostModel
from flowtrack.errors import DataError, InvariantBreach
from flowtrack import ssp
from flowtrack.graph import (EDGE_COLUMNS, EXIT, KIND_U, LINK, NODE_COLUMNS,
                             SINK, SOURCE, FlowSolution, TrackingGraph,
                             Trajectory, build_batch_graph,
                             check_flow_conservation)
from flowtrack.ssp import (Path, PredecessorMap, ResidualGraph, SolverStats,
                           build_residual, convert_edge_costs,
                           dag_shortest_path, dijkstra_full, dynamic_broadcast,
                           extract_path, path_original_cost, solve_dp_greedy,
                           solve_dssp, solve_ssp)
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.synthetic import SyntheticConfig, generate_synthetic
from reference import (fwd_dst, link_edge_between, node_topo_key, reduced,
                       stop_iterations)
from test_ties import tied_scenes


def single_det_graph(detection=-5.0):
    model = StubModel(detection=detection)
    g = TrackingGraph(gating=False)
    g.append_frame([det(0, 0)], model, frame=0)
    return g


def record_trace(monkeypatch):
    """Log, through ssp's module attributes, each search's distance to the
    target (DAG sweep, full search or broadcast) and the original cost of
    each path priced. Returns the two lists, which the caller may clear."""
    dists, costs = [], []

    def logged(search):
        def wrapper(res, *args, **kwargs):
            path, labels = search(res, *args, **kwargs)
            dists.append(float(labels.dist[res.target]))
            return path, labels
        return wrapper

    for name in ("dag_shortest_path", "dijkstra_full", "dynamic_broadcast"):
        monkeypatch.setattr(ssp, name, logged(getattr(ssp, name)))
    price = ssp.path_original_cost

    def priced(res, path):
        costs.append(price(res, path))
        return costs[-1]

    monkeypatch.setattr(ssp, "path_original_cost", priced)
    return dists, costs


class TestDagShortestPath:
    def test_single_detection(self):
        res = ResidualGraph(single_det_graph())
        path, labels = dag_shortest_path(res)
        assert labels.dist[res.target] == pytest.approx(-1.0)  # 2 - 5 + 2
        assert path.nodes[0] == SOURCE and path.nodes[-1] == SINK
        assert len(path.eids) == 3

    def test_canonical_first_path(self):
        g, _, _ = canonical_graph()
        res = ResidualGraph(g)
        path, labels = dag_shortest_path(res)
        assert labels.dist[res.target] == pytest.approx(-6.0)
        # the path uses a matched (cost 0) link
        link = [e for e in path.eids if g.e_kind[e] == LINK]
        assert len(link) == 1 and g.e_cost[link[0]] == 0.0

    def test_empty_graph_sink_unreachable(self):
        g = TrackingGraph()
        res = ResidualGraph(g)
        path, labels = dag_shortest_path(res)
        assert path is None
        assert not np.isfinite(labels.dist[res.target])

    def test_matches_dijkstra_on_converted_graph(self):
        for seed in range(10):
            frames, model = make_random_instance(seed)
            res = ResidualGraph(build_graph(frames, model))
            p1, l1 = dag_shortest_path(res)
            convert_edge_costs(res, l1)
            p2, l2 = dijkstra_full(res)
            assert l2.dist[res.target] == pytest.approx(0.0, abs=1e-9)


class TestConvertEdgeCosts:
    def test_shortest_path_edges_become_zero(self):
        g, _, _ = canonical_graph()
        res = ResidualGraph(g)
        path, labels = dag_shortest_path(res)
        convert_edge_costs(res, labels)
        for eid in path.eids:
            assert reduced(res, eid) == pytest.approx(0.0, abs=1e-12)
        assert float(reduced(res)[res.graph.e_alive].min()) >= -1e-9

    def test_formula_by_hand(self):
        # edge (u,v) with C=1, d(u)=-3, d(v)=-6 -> C' = 1 + (-3) - (-6) = 4
        model = StubModel(entry=-3.0, detection=1.0, exit_=-100.0)
        g = TrackingGraph(gating=False)
        g.append_frame([det(0, 0)], model, frame=0)
        res = ResidualGraph(g)
        u, v = g.u_node(det(0, 0)), g.v_node(det(0, 0))
        det_eid = g.detection_edge_of(det(0, 0))
        labels = PredecessorMap(len(res.potential), res.roots)
        labels.dist[u] = -3.0
        labels.dist[v] = -6.0
        labels.dist[res.target] = -106.0
        convert_edge_costs(res, labels)
        assert reduced(res, det_eid) == pytest.approx(4.0)

    def test_zero_labels_leave_costs_unchanged(self):
        # all-zero labels are valid distances here (free entry/det/exit),
        # so conversion must leave every cost untouched
        model = StubModel(entry=0.0, exit_=0.0, detection=0.0,
                          links={((0, 0), (1, 0)): 1.0, ((0, 1), (1, 0)): 2.0,
                                 ((0, 0), (1, 1)): 3.0, ((0, 1), (1, 1)): 4.0})
        g = TrackingGraph(gating=False)
        g.append_frame([det(0, 0), det(0, 1)], model, frame=0)
        g.append_frame([det(1, 0), det(1, 1)], model)
        res = ResidualGraph(g)
        labels = PredecessorMap(len(res.potential), res.roots)
        labels.dist[:] = 0.0
        before = reduced(res)
        convert_edge_costs(res, labels)
        assert np.array_equal(reduced(res), before)

    def test_stale_labels_detected(self):
        g = single_det_graph()
        res = ResidualGraph(g)
        labels = PredecessorMap(len(res.potential), res.roots)
        labels.dist[:] = 0.0
        labels.dist[res.target] = 100.0  # inconsistent with exit cost 2
        with pytest.raises(InvariantBreach):
            convert_edge_costs(res, labels)

    def test_converted_labels_are_zero_mask(self):
        g, _, _ = canonical_graph()
        res = ResidualGraph(g)
        _, labels = dag_shortest_path(res)
        out = convert_edge_costs(res, labels)
        finite = np.isfinite(labels.dist)
        assert np.all(out.dist[finite] == 0.0)
        assert np.all(~np.isfinite(out.dist[~finite]))


class TestBuildResidual:
    def test_first_iteration_reverses_path(self):
        res = ResidualGraph(single_det_graph())
        path, labels = dag_shortest_path(res)
        convert_edge_costs(res, labels)
        build_residual(res, path)
        assert int(res.flow.sum()) == 3
        assert res.flow[path.eids].tolist() == [1, 1, 1]

    def test_interchange_cancels_link_flow(self):
        g, _, _ = interchange_graph()
        res = ResidualGraph(g)
        path, labels = dag_shortest_path(res)
        assert path_original_cost(res, path) == pytest.approx(-10.0)
        first_link = [e for e in path.eids if g.e_kind[e] == LINK]
        assert len(first_link) == 1 and g.e_cost[first_link[0]] == -4.0
        labels = convert_edge_costs(res, labels)
        build_residual(res, path)
        path2, labels = dijkstra_full(res)
        assert path_original_cost(res, path2) == pytest.approx(-8.0)
        # the second path traverses the reversed -4 link, cancelling it
        assert first_link[0] in path2.eids
        build_residual(res, path2)
        assert res.flow[first_link[0]] == 0

    def test_empty_or_disconnected_path_rejected(self):
        res = ResidualGraph(single_det_graph())
        with pytest.raises(DataError):
            build_residual(res, Path([SOURCE, SINK], []))
        with pytest.raises(DataError):
            build_residual(res, None)


def edges_at(g, mask, ends):
    """The live edges in mask, as (edge id, other end), in the order they
    were added to a node: by kind (entry before links, exit before links),
    then by the other end's place in the layered order."""
    eids = np.flatnonzero(mask & g.e_alive).tolist()
    pairs = [(eid, int(ends[eid])) for eid in eids]
    return sorted(pairs, key=lambda p: (g.e_kind[p[0]], node_topo_key(g, p[1])))


def out_arcs(res, node):
    """Residual arcs out of node, as (edge id, head), from the edge columns:
    its out-edges without flow, to their forward heads (the target for the
    sink), then its in-edges with flow."""
    g, fl, fwd = res.graph, res.flow, fwd_dst(res)
    for eid, _ in edges_at(g, (g.e_src == node) & (fl == 0), g.e_dst):
        yield eid, int(fwd[eid])
    yield from edges_at(g, (g.e_dst == node) & (fl == 1), g.e_src)


def heap_dijkstra(res):
    """Plain-heap reference search from both roots: (distances, arcs scanned
    out of settled nodes). Negative reduced costs count as 0, as in the
    solvers; on the converted graphs below they lie within eps of 0."""
    dist = np.full(len(res.potential), np.inf)
    dist[list(res.roots)] = 0.0
    done = np.zeros(len(res.potential), dtype=bool)
    heap, scanned = sorted((0.0, r) for r in res.roots), 0
    rc = reduced(res)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for eid, v in out_arcs(res, u):
            scanned += 1
            nd = d + max(float(rc[eid]), 0.0)
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist, scanned


def residual_states(graph, max_paths=6):
    """The residual graph after 0, 1, ... augmentations of an SSP solve,
    each with reduced costs converted so every arc is non-negative."""
    res = ResidualGraph(graph)
    path, labels = dag_shortest_path(res)
    for _ in range(max_paths):
        labels = convert_edge_costs(res, labels)
        yield res
        if path is None or path_original_cost(res, path) >= 0.0:
            return
        build_residual(res, path)
        path, labels = dijkstra_full(res)


def flowed_exits(res):
    """The reversed exits, the arcs out of the sink root."""
    g = res.graph
    return int(np.count_nonzero((g.e_kind == EXIT) & g.e_alive
                                & (res.flow == 1)))


def tracker_residuals(window=4):
    """A windowed tracker's own residual at frames mid-stream: its slots are
    recycled, and its sink root carries the reversed exits of the tracks
    that continue."""
    frames, model = synthetic_frames()
    tracker = OnlineTracker(TrackerConfig(model=model, window=window))
    for f in sorted(frames):
        tracker.process_frame(frames[f], frame=f)
        if f >= 6 and f % 3 == 0:
            yield tracker.cache.residual


def multi_push_states(seed, rounds=4):
    """(residual, seeds, labels) after each of the first rounds of a dssp
    solve of a crossing scene, pushed and settled by the solver's own
    push_round and settle: the sink root carries the pushed paths' reversed
    exits, the labels are max(d - d_k, 0) and the seeds are the used nodes
    and the target, as successive_shortest_paths broadcasts them."""
    cfg = SyntheticConfig(n_frames=20, n_initial_tracks=4, crossing=True,
                          miss_rate=0.1, fp_rate=0.2)
    graph = build_batch_graph(generate_synthetic(cfg, seed)[0], CostModel())
    res = ResidualGraph(graph)
    path, labels = dag_shortest_path(res)
    labels = convert_edge_costs(res, labels)
    for _ in range(rounds):
        cap, certified, used = ssp.push_round(
            res, path, labels, SolverStats(), graph.n_detections, single=False)
        res.settle(labels.dist, cap)
        if certified:
            return
        labels.dist = np.maximum(labels.dist - cap, 0.0)
        yield res, np.append(np.flatnonzero(used), res.target), labels
        path, labels = dijkstra_full(res)
        if path is None:
            return


class TestCompiledDijkstra:
    """dijkstra_full against the plain-heap reference on the same residual
    graphs: every distance, whether the sink is reached, the counters."""

    def check(self, res, ref=None):
        """ref, if given, is the residual the reference searches instead."""
        stats = SolverStats()
        path, labels = dijkstra_full(res, stats)
        want, scanned = heap_dijkstra(res if ref is None else ref)
        reached = np.isfinite(want)
        assert np.array_equal(np.isfinite(labels.dist), reached)
        assert np.allclose(labels.dist[reached], want[reached],
                           rtol=0.0, atol=1e-12)
        assert (path is None) == (not reached[res.target])
        assert stats.relaxations == scanned
        assert stats.queue_pushes == int(reached.sum())
        if path is not None:
            # the path follows the labels: every arc on it is tight; the
            # path names the target the sink
            g, heads = res.graph, path.nodes[1:-1] + [res.target]
            for u, v, w, eid in zip(path.nodes, path.nodes[1:], heads,
                                    path.eids):
                ends = int(g.e_src[eid]), int(g.e_dst[eid])
                assert (ends if res.flow[eid] == 0 else ends[::-1]) == (u, v)
                assert labels.dist[w] == pytest.approx(
                    labels.dist[u] + max(float(reduced(res, eid)), 0.0),
                    abs=1e-12)
        return path

    def test_matches_heap_reference_after_each_augmentation(self):
        checked = 0
        for seed in range(15):
            frames, model = make_random_instance(seed, frame_range=(3, 6),
                                                 dets_range=(1, 4))
            for res in residual_states(build_graph(frames, model)):
                self.check(res)
                checked += 1
        assert checked > 30

    def test_matches_heap_reference_on_recycled_slots(self):
        # a windowed tracker's graph: clipped node and edge ids are free or
        # reused by later frames, so ids no longer follow frame order
        cfg = SyntheticConfig(n_frames=30, n_initial_tracks=4, miss_rate=0.1,
                              fp_rate=0.2, spawn_prob=0.1, death_prob=0.05)
        dets, _ = generate_synthetic(cfg, 3)
        tracker = OnlineTracker(TrackerConfig(model=CostModel(), window=4))
        appended = 0
        for f in sorted(dets):
            tracker.process_frame(dets[f], frame=f)
            appended += len(dets[f])
            g = tracker.graph
            if f >= 6 and f % 3 == 0:
                assert len(g.node_kind) < 2 + 2 * appended
                for res in residual_states(g):
                    self.check(res)

    def test_matches_heap_reference_from_the_sink_root(self):
        # residuals whose sink root carries reversed exits: a windowed
        # tracker's mid-stream, and a dssp solve's after each multi-push
        # round; the searches reach nodes from the sink root
        states = from_sink = 0
        for res in tracker_residuals():
            assert flowed_exits(res) > 0
            self.check(res)
            from_sink += int(np.count_nonzero(dijkstra_full(res)[1].pred == SINK))
            states += 1
        for seed in range(6):
            for res, _, _ in multi_push_states(seed):
                assert flowed_exits(res) > 0
                self.check(res)
                from_sink += int(np.count_nonzero(
                    dijkstra_full(res)[1].pred == SINK))
                states += 1
        assert states > 15 and from_sink > 2 * states

    def test_matches_heap_reference_between_frames(self):
        # a tracker's residual as each frame leaves it, with nothing run
        # since: the frame's last settle raised the potentials after its
        # last search. The search must weigh each arc by the reduced cost
        # its flow and potentials give now, as it does on a residual built
        # afresh over the same graph, flow and potentials.
        frames, model = synthetic_frames()
        for window in (4, None):
            tracker = OnlineTracker(TrackerConfig(model=model, window=window))
            for f in sorted(frames):
                tracker.process_frame(frames[f], frame=f)
                res = tracker.cache.residual
                fresh = ResidualGraph(res.graph)
                fresh.flow, fresh.potential = res.flow.copy(), res.potential.copy()
                self.check(res, fresh)

    def test_zero_cost_arc_is_an_edge(self):
        # every arc costs exactly 0, so every node is reached only through
        # explicit zero weights
        g = TrackingGraph(gating=False)
        g.append_frame([det(0, 0)],
                       StubModel(entry=0.0, detection=0.0, exit_=0.0), frame=0)
        res = ResidualGraph(g)
        path = self.check(res)
        assert path is not None and len(path.eids) == 3
        _, labels = dijkstra_full(res)
        assert np.all(labels.dist[[SOURCE, SINK, res.target]] == 0.0)

    def test_negative_arc_out_of_reached_node_raises(self):
        res = ResidualGraph(single_det_graph())  # detection edge costs -5
        with pytest.raises(InvariantBreach, match="negative reduced cost"):
            dijkstra_full(res)

    def test_negative_arc_out_of_unreached_node_ignored(self):
        g = single_det_graph()
        res = ResidualGraph(g)
        # the detection's u node is only entered by its entry edge; marked
        # as carrying flow, that arc points back to the source, so u, v and
        # the sink are unreached and u's -5 detection arc is never scanned
        entry = g.entry_edge_of(det(0, 0))
        res.flow[entry] = 1
        stats = SolverStats()
        path, labels = dijkstra_full(res, stats)
        assert path is None
        assert np.isfinite(labels.dist).sum() == len(res.roots)
        assert stats.relaxations == 0 and stats.queue_pushes == len(res.roots)


def in_arcs(res, node):
    """Residual arcs into node, as (edge id, tail), from the edge columns;
    forward arcs end at their forward heads (the target for the sink)."""
    g, fl = res.graph, res.flow
    yield from edges_at(g, (fwd_dst(res) == node) & (fl == 0), g.e_src)
    yield from edges_at(g, (g.e_src == node) & (fl == 1), g.e_dst)


def arc_cost(res, eid):
    """Residual arc cost clamped for queue ordering."""
    rc = float(reduced(res, eid))
    if rc < -res.eps:
        raise InvariantBreach(f"negative reduced cost {rc} on edge {eid}")
    return rc if rc > 0.0 else 0.0


def python_broadcast(res, seeds, labels, stats):
    """Plain reference for dynamic_broadcast: the interpreted broadcast, with
    a children index rebuilt over every node and a heap seeded from the
    frontier's in-arcs. relaxations counts the arcs into the affected set out
    of reached nodes, queue_pushes the nodes settled."""
    dist, pred = labels.dist, labels.pred
    n = len(res.potential)
    children = [[] for _ in range(n)]
    for x in range(n):
        if pred[x] >= 0:
            children[pred[x]].append(x)
    affected = set()
    stack = [s for s in set(seeds) if s not in res.roots]
    while stack:
        x = stack.pop()
        if x in affected:
            continue
        affected.add(x)
        stack.extend(children[x])

    for x in affected:
        dist[x] = np.inf
        pred[x] = -1
    heap = []
    for x in affected:
        best, best_pred = np.inf, -1
        for eid, w in in_arcs(res, x):
            if w in affected or not np.isfinite(dist[w]):
                continue
            stats.relaxations += 1
            nd = dist[w] + arc_cost(res, eid)
            if nd < best:
                best, best_pred = nd, w
        if best_pred >= 0:
            dist[x] = best
            pred[x] = best_pred
            heapq.heappush(heap, (best, x))

    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done or d > dist[u]:
            continue
        done.add(u)
        stats.queue_pushes += 1
        for eid, v in out_arcs(res, u):
            if v not in affected:
                continue
            stats.relaxations += 1
            nd = d + arc_cost(res, eid)
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return extract_path(res, labels), labels


def copy_labels(labels):
    out = PredecessorMap(len(labels.dist), ())
    out.dist, out.pred = labels.dist.copy(), labels.pred.copy()
    return out


def single_det_tree():
    """single_det_graph's residual with zero labels over the tree source ->
    u -> v -> target; the u -> v detection arc costs -5."""
    g = single_det_graph()
    res = ResidualGraph(g)
    u, v = g.u_node(det(0, 0)), g.v_node(det(0, 0))
    labels = PredecessorMap(len(res.potential), res.roots)
    labels.dist[:] = 0.0
    labels.pred[[u, v, res.target]] = [SOURCE, u, v]
    return res, labels, u, v


class TestCompiledBroadcast:
    """dynamic_broadcast against the plain Python reference on the same
    residual graphs and labels: every distance, the path, the counters."""

    def check(self, res, seeds, labels):
        want_stats, stats = SolverStats(), SolverStats()
        want_path, want = python_broadcast(res, seeds, copy_labels(labels),
                                           want_stats)
        path, got = dynamic_broadcast(res, seeds, labels, stats)
        reached = np.isfinite(want.dist)
        assert np.array_equal(np.isfinite(got.dist), reached)
        assert np.allclose(got.dist[reached], want.dist[reached],
                           rtol=0.0, atol=1e-12)
        assert (path is None) == (want_path is None)
        if path is not None:
            assert (path.nodes, path.eids) == (want_path.nodes, want_path.eids)
        assert stats.relaxations == want_stats.relaxations
        assert stats.queue_pushes == want_stats.queue_pushes
        return path

    def solve(self, graph, max_paths=6):
        """Check every broadcast of a dssp solve; the first one reverses
        nothing (its seeds are the DAG's path, whose labels stay valid).
        Returns the number of broadcasts checked."""
        res = ResidualGraph(graph)
        path, labels = dag_shortest_path(res)
        labels = convert_edge_costs(res, labels)
        path = self.check(res, path.nodes, labels)
        checked = 1
        while (path is not None and path_original_cost(res, path) < 0.0
               and checked <= max_paths):
            labels = convert_edge_costs(res, labels)
            build_residual(res, path)
            path = self.check(res, path.nodes, labels)
            checked += 1
        return checked

    def test_matches_reference_after_each_augmentation(self):
        checked = 0
        for seed in range(15):
            frames, model = make_random_instance(seed, frame_range=(3, 6),
                                                 dets_range=(1, 4))
            checked += self.solve(build_graph(frames, model))
        assert checked > 30

    def test_matches_reference_on_a_crossing_scene(self):
        cfg = SyntheticConfig(n_frames=30, n_initial_tracks=4, crossing=True,
                              miss_rate=0.1, fp_rate=0.2)
        dets, _ = generate_synthetic(cfg, 1)
        assert self.solve(build_batch_graph(dets, CostModel()),
                          max_paths=10 ** 6) > 4

    def test_empty_seeds_are_a_no_op(self):
        g, _, _ = canonical_graph()
        res = ResidualGraph(g)
        path, labels = dag_shortest_path(res)
        before = copy_labels(labels)
        stats = SolverStats()
        path2, _ = dynamic_broadcast(res, [], labels, stats)
        assert stats == SolverStats()
        assert np.array_equal(labels.dist, before.dist)
        assert np.array_equal(labels.pred, before.pred)
        assert (path2.nodes, path2.eids) == (path.nodes, path.eids)

    def test_negative_arc_out_of_reached_node_raises(self):
        res, labels, _, v = single_det_tree()
        with pytest.raises(InvariantBreach, match="negative reduced cost"):
            dynamic_broadcast(res, [v], labels)

    def test_negative_arc_out_of_unreached_node_ignored(self):
        res, labels, u, v = single_det_tree()
        labels.dist[u] = np.inf
        stats = SolverStats()
        path, _ = dynamic_broadcast(res, [v], labels, stats)
        assert path is None
        assert not np.isfinite(labels.dist[[v, res.target]]).any()
        assert stats.relaxations == 0 and stats.queue_pushes == 0

    def test_negative_frontier_label_raises(self):
        res, labels, u, v = single_det_tree()
        labels.dist[u] = -1.5
        with pytest.raises(InvariantBreach, match="label"):
            dynamic_broadcast(res, [v], labels)

    def solve_multi_push(self, graph, max_rounds=50):
        """Check every broadcast of a multi-push solve: each round pushes
        the exits' tree paths in order of value dist(v) + clamped reduced
        cost while they cost < 0 and avoid the sink (no cycles) and the
        nodes of earlier pushes, raises the potentials by the labels capped
        at d_k, the last pushed value (the target's by d_k), and broadcasts
        from the used nodes and the target with labels max(d - d_k, 0).
        Returns the labels above 0 the broadcasts started from."""
        g, res = graph, ResidualGraph(graph)
        _, labels = dag_shortest_path(res)
        labels = convert_edge_costs(res, labels)
        above_zero = 0
        for _ in range(max_rounds):
            dist = labels.dist
            exits = np.flatnonzero((g.e_kind == EXIT) & g.e_alive
                                   & (res.flow == 0))
            tails = g.e_src[exits]
            values = dist[tails] + np.maximum(reduced(res, exits), 0.0)
            used, cap = {SINK}, None
            for i in np.argsort(values, kind="stable"):
                if not np.isfinite(values[i]):
                    break
                path = extract_path(res, labels, via=int(tails[i]))
                if (used & set(path.nodes[:-1])
                        or path_original_cost(res, path) >= 0.0):
                    break
                used |= set(path.nodes[1:-1])
                build_residual(res, path)
                cap = float(values[i])
            if cap is None:
                return above_zero
            raised = np.minimum(dist, cap)
            raised[res.target] = cap
            res.potential += raised
            labels.dist = np.maximum(dist - cap, 0.0)
            above_zero += int(np.count_nonzero(np.isfinite(labels.dist)
                                               & (labels.dist > 0.0)))
            self.check(res, sorted(used | {res.target}), labels)
        return above_zero

    def test_matches_reference_after_a_multi_push_settle(self):
        # frontier labels need not be 0: after several pushes from one tree
        # and a settle with the cap d_k, the old labels become max(d - d_k, 0)
        above_zero = 0
        for seed in range(12):
            cfg = SyntheticConfig(n_frames=20, n_initial_tracks=4,
                                  crossing=True, miss_rate=0.1, fp_rate=0.2)
            dets, _ = generate_synthetic(cfg, seed)
            above_zero += self.solve_multi_push(
                build_batch_graph(dets, CostModel()))
        for seed in range(15):
            frames, model = make_random_instance(seed, frame_range=(3, 6),
                                                 dets_range=(1, 4))
            above_zero += self.solve_multi_push(build_graph(frames, model))
        assert above_zero > 100

    def test_matches_reference_from_the_sink_root(self):
        # a windowed tracker's residual mid-stream, from a full search's
        # labels: re-label the subtrees of the nodes the sink root's arcs
        # reach and the target's; and a dssp solve's after each multi-push
        # round, from the labels, used nodes and target that round leaves
        checked = 0
        for res in tracker_residuals():
            _, labels = dijkstra_full(res)
            below_sink = np.flatnonzero(labels.pred == SINK)
            assert len(below_sink)
            self.check(res, np.append(below_sink, res.target), labels)
            checked += 1
        for seed in range(6):
            for res, seeds, labels in multi_push_states(seed):
                assert flowed_exits(res) > 0
                self.check(res, seeds, labels)
                checked += 1
        assert checked > 15

    def test_broken_or_cyclic_chain_raises(self):
        res, labels, u, v = single_det_tree()
        labels.pred[u] = v
        with pytest.raises(InvariantBreach, match="cycle"):
            extract_path(res, labels)
        labels.pred[u] = -1
        with pytest.raises(InvariantBreach, match="broken"):
            extract_path(res, labels)


class TestDynamicBroadcast:
    def test_empty_seed_queue_is_a_no_op(self):
        g, _, _ = canonical_graph()
        res = ResidualGraph(g)
        path, labels = dag_shortest_path(res)
        from flowtrack.ssp import SolverStats
        stats = SolverStats()
        path2, _ = dynamic_broadcast(res, [], labels, stats)
        assert stats.relaxations == 0
        assert path2.eids == path.eids

    def test_matches_dijkstra_sink_distance_per_search(self, monkeypatch):
        # dssp against the same loop with a full search in place of each
        # broadcast: the same rounds, each search at the same sink distance
        dists, _ = record_trace(monkeypatch)
        for seed in range(25):
            frames, model = make_random_instance(seed)
            s1, _ = ssp._solve_batch(build_graph(frames, model),
                                     broadcast=False, single=False)
            d1 = dists[:]
            dists.clear()
            s2, _ = solve_dssp(build_graph(frames, model))
            d2 = dists[:]
            dists.clear()
            assert s1.total_cost == pytest.approx(s2.total_cost, abs=1e-9)
            assert len(d1) == len(d2)
            for a, b in zip(d1, d2):
                if np.isfinite(a) or np.isfinite(b):
                    assert a == pytest.approx(b, abs=1e-12)

    def test_fewer_relaxations_than_full_dijkstra(self):
        # two far-apart corridors: reversing one path should not force
        # relaxing the other corridor's nodes
        model = StubModel(links={((f, i), (f + 1, i)): -1.0
                                 for f in range(20) for i in range(2)})
        g = TrackingGraph(gating=False)
        for f in range(21):
            g.append_frame([det(f, 0, x=0.0), det(f, 1, x=9000.0)], model,
                           frame=f)
        s1, st1 = solve_ssp(g)
        g2 = TrackingGraph(gating=False)
        for f in range(21):
            g2.append_frame([det(f, 0, x=0.0), det(f, 1, x=9000.0)], model,
                            frame=f)
        s2, st2 = solve_dssp(g2)
        assert s1.total_cost == pytest.approx(s2.total_cost)
        assert st2.relaxations < st1.relaxations


def python_dag(res, stats, excluded=frozenset()):
    """Plain reference for dag_shortest_path: the interpreted topological
    sweep. Pushes the source's out-arcs, then each frame's u nodes' and then
    v nodes' out-arcs, in the order out_arcs gives, with a strict-<
    relaxation, skipping unreached tails and excluded nodes."""
    g = res.graph
    labels = PredecessorMap(len(res.potential), res.roots)
    if g.is_empty:
        return None, labels
    dist, pred = labels.dist, [-1] * len(res.potential)
    rc = reduced(res)

    def relax(u, eid, v):
        stats.relaxations += 1
        nd = dist[u] + rc[eid]
        if nd < dist[v]:
            dist[v] = nd
            pred[v] = u

    for eid, v in out_arcs(res, SOURCE):
        if v not in excluded:
            relax(SOURCE, eid, v)
    for dets in g.frames.values():
        for nodes in ([g.u_node(d) for d in dets], [g.v_node(d) for d in dets]):
            for u in nodes:
                if u in excluded or not np.isfinite(dist[u]):
                    continue
                for eid, v in out_arcs(res, u):
                    if v not in excluded:
                        relax(u, eid, v)
    labels.pred = np.array(pred, dtype=np.int64)
    return extract_path(res, labels), labels


def python_dp_greedy(graph):
    """Reference greedy baseline over python_dag: commit the cheapest path,
    exclude its nodes, repeat while paths cost < 0."""
    stats = SolverStats()
    res = ResidualGraph(graph)
    excluded, trajectories, total = set(), [], 0.0
    flow = np.zeros(len(graph.e_src), dtype=np.int8)
    for _ in range(graph.n_detections + 1):
        path, labels = python_dag(res, stats, excluded)
        if path is None or labels.dist[res.target] >= 0.0:
            break
        cost = float(labels.dist[res.target])
        stats.iterations += 1
        dets = [graph.node_det[n] for n in path.nodes
                if graph.node_kind[n] == KIND_U]
        trajectories.append(Trajectory(len(trajectories), dets, cost))
        total += cost
        flow[path.eids] = 1
        excluded.update(path.nodes[1:-1])
    return FlowSolution(trajectories, total, flow), stats


def dyadic_frames(seed, n_frames=6, max_dets=4, skip=False):
    """(frames, model) with costs drawn from a few multiples of 1/2, so
    equal-cost paths and in-edges tie exactly. With skip, frame indices jump
    by 1-3 and some frames are empty."""
    rng = np.random.default_rng(seed)
    frames, f = {}, 0
    for _ in range(n_frames):
        n = int(rng.integers(0 if skip else 1, max_dets + 1))
        frames[f] = [det(f, i, x=float(rng.uniform(0, 500))) for i in range(n)]
        f += int(rng.integers(1, 4)) if skip else 1
    half = lambda lo, hi: float(rng.integers(lo, hi + 1)) / 2.0
    dets = [d for ds in frames.values() for d in ds]
    model = StubModel(
        entry={d.key: half(2, 3) for d in dets},
        exit_={d.key: half(2, 3) for d in dets},
        detection={d.key: half(-6, -4) for d in dets},
        links={(a.key, b.key): half(-1, 1) for a in dets for b in dets
               if b.frame == a.frame + 1})
    return frames, model


def dyadic_instance(seed, **kwargs):
    """dyadic_frames as a batch graph; empty frames are appended too."""
    return build_graph(*dyadic_frames(seed, **kwargs))


def recycled_graphs(frames, model, window=4):
    """Graphs of a windowed tracker after clips: their node and edge ids are
    reused by later frames, so ids no longer follow frame or push order."""
    tracker = OnlineTracker(TrackerConfig(model=model, window=window,
                                          gating=False))
    for f in sorted(frames):
        tracker.process_frame(frames[f], frame=f)
        if f >= window:
            yield tracker.graph


def synthetic_frames(seed=3):
    cfg = SyntheticConfig(n_frames=30, n_initial_tracks=4, miss_rate=0.1,
                          fp_rate=0.2, spawn_prob=0.1, death_prob=0.05)
    return generate_synthetic(cfg, seed)[0], CostModel()


class TestCompiledDagSweep:
    """dag_shortest_path against the interpreted sweep on the same graphs:
    bit-identical distances and predecessors, the same path and the same
    relaxations."""

    def check(self, graph, excluded=None):
        res = ResidualGraph(graph)
        want_stats, stats = SolverStats(), SolverStats()
        skip = set() if excluded is None else set(np.flatnonzero(excluded))
        want_path, want = python_dag(res, want_stats, skip)
        path, got = dag_shortest_path(res, stats, excluded)
        assert np.array_equal(got.dist, want.dist)
        assert np.array_equal(got.pred, want.pred)
        assert stats.relaxations == want_stats.relaxations
        assert stats.queue_pushes == 0
        assert (path is None) == (want_path is None)
        if path is not None:
            assert (path.nodes, path.eids) == (want_path.nodes, want_path.eids)
        return res

    def random_mask(self, graph, rng):
        # one entry per search node: the node slots, then the target
        mask = np.zeros(len(graph.node_kind) + 1, dtype=bool)
        for nodes in graph.frame_nodes.values():
            for u, v in nodes.T.tolist():
                if rng.random() < 0.3:
                    mask[u if rng.random() < 0.5 else v] = True
        return mask

    def test_random_instances(self):
        for seed in range(20):
            frames, model = make_random_instance(seed, frame_range=(2, 6),
                                                 dets_range=(1, 4))
            self.check(build_graph(frames, model))

    def test_dyadic_ties_keep_the_first_in_push_order(self):
        ties = 0
        for seed in range(20):
            res = self.check(dyadic_instance(seed))
            _, labels = dag_shortest_path(res)
            eids = np.flatnonzero(res.graph.e_alive)
            tails, heads = res.graph.e_src[eids], fwd_dst(res, eids)
            via = labels.dist[tails] + reduced(res, eids)
            tight = heads[np.isfinite(via) & (via == labels.dist[heads])]
            ties += len(tight) - len(np.unique(tight))
        assert ties > 50  # many nodes have two or more tight in-edges

    def test_skipped_and_empty_frames(self):
        for seed in range(20):
            graph = dyadic_instance(seed, n_frames=8, skip=True)
            assert graph.n_frames > len(graph.frames) or any(
                not ds for ds in graph.frames.values())
            self.check(graph)

    def test_excluded_masks(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            for graph in (dyadic_instance(seed, skip=seed % 2 == 1),
                          build_graph(*make_random_instance(seed))):
                self.check(graph, self.random_mask(graph, rng))
        # excluding every node leaves the sink unreached
        graph = dyadic_instance(0)
        mask = np.ones(len(graph.node_kind) + 1, dtype=bool)
        mask[[SOURCE, SINK, -1]] = False
        res = self.check(graph, mask)
        assert dag_shortest_path(res, excluded=mask)[0] is None

    def check_resumed(self, graph, rng):
        """Sweep under a random mask, exclude more nodes in frames from a
        random one on, and resume from that frame with the kept labels: the
        same labels, predecessors and path as the interpreted full sweep
        under the grown mask, and the relaxations of the re-labelled part,
        whose target is re-labelled from every exit."""
        res = ResidualGraph(graph)
        mask = self.random_mask(graph, rng)
        _, labels = dag_shortest_path(res, excluded=mask)
        frames = list(graph.frames)
        start = frames[rng.integers(len(frames))]
        relabelled = np.zeros(len(mask), dtype=bool)
        for f in frames[frames.index(start):]:
            relabelled[graph.frame_nodes[f].ravel()] = True
        relabelled[-1] = True
        grown = mask | (self.random_mask(graph, rng) & relabelled)
        stats, want_stats = SolverStats(), SolverStats()
        path, got = dag_shortest_path(res, stats, grown, labels, start)
        want_path, want = python_dag(res, want_stats,
                                     set(np.flatnonzero(grown)))
        assert np.array_equal(got.dist, want.dist)
        assert np.array_equal(got.pred, want.pred)
        assert (path is None) == (want_path is None)
        if path is not None:
            assert (path.nodes, path.eids) == (want_path.nodes, want_path.eids)
        eids = np.flatnonzero(graph.e_alive)
        heads = fwd_dst(res, eids)
        relaxed = np.isfinite(want.dist[graph.e_src[eids]]) & ~grown[heads]
        assert np.count_nonzero(relaxed) == want_stats.relaxations
        assert stats.relaxations == np.count_nonzero(relaxed
                                                     & relabelled[heads])
        assert stats.searches == 1
        return start != frames[0] and (grown != mask).any()

    def test_resumed_sweeps(self):
        rng = np.random.default_rng(3)
        resumed = 0
        for seed in range(20):
            for graph in (build_graph(*make_random_instance(
                              seed, frame_range=(2, 6), dets_range=(1, 4))),
                          dyadic_instance(seed),
                          dyadic_instance(seed, n_frames=8, skip=True)):
                for _ in range(3):
                    resumed += self.check_resumed(graph, rng)
        assert resumed > 60  # frames kept and nodes newly excluded

    def test_recycled_ids(self):
        # push order, not edge id order, breaks ties: exits into the sink
        # come in frame order while their recycled ids do not
        rng = np.random.default_rng(1)
        reordered = 0
        for frames, model in [synthetic_frames()] + [
                dyadic_frames(seed, n_frames=12) for seed in range(6)]:
            for graph in recycled_graphs(frames, model):
                self.check(graph)
                self.check(graph, self.random_mask(graph, rng))
                exits = np.concatenate([graph.node_out[v] for _, v
                                        in graph.frame_nodes.values()])
                reordered += bool(np.any(np.diff(exits) < 0))
        assert reordered > 20

    def test_empty_graph_and_frames_without_detections(self):
        self.check(TrackingGraph())
        graph = TrackingGraph()
        graph.append_frame([], StubModel(), frame=4)
        graph.append_frame([], StubModel(), frame=5)
        res = ResidualGraph(graph)
        path, labels = dag_shortest_path(res)
        assert path is None and np.isinf(labels.dist[res.target])

    @pytest.mark.parametrize("kind", ["entry", "detection", "link", "exit"])
    def test_refuses_a_residual_carrying_flow(self, kind):
        g, _, (d00, _, d10, _) = canonical_graph()
        eid = {"entry": g.entry_edge_of(d00),
               "detection": g.detection_edge_of(d00),
               "link": link_edge_between(g, d00, d10),
               "exit": int(g.node_out[g.v_node(d10)])}[kind]
        res = ResidualGraph(g)
        res.flow[eid] = 1
        with pytest.raises(InvariantBreach, match="carrying flow"):
            dag_shortest_path(res)


def sweep_outcomes(res, rng):
    """Three sweeps of res, with its flow set aside: over every frame with
    no mask and under a random one, then resumed from a random frame under
    a grown mask. Each as (dist and pred bytes, relaxations, path)."""
    g, saved = res.graph, res.flow.copy()
    mask = np.zeros(len(res.potential), dtype=bool)
    mask[rng.integers(2, len(mask), size=len(mask) // 4)] = True
    frames = list(g.frames)
    start = frames[rng.integers(len(frames))] if frames else None
    grown = mask.copy()
    for f in frames[frames.index(start):] if frames else ():
        grown[g.frame_nodes[f].ravel()[rng.random(g.frame_nodes[f].size)
                                       < 0.3]] = True
    res.flow[:] = 0
    outcomes, labels = [], None
    try:
        for excluded, begin in ((None, None), (mask, None), (grown, start)):
            stats = SolverStats()
            path, labels = dag_shortest_path(
                res, stats, excluded, labels if begin is not None else None,
                begin)
            outcomes.append((labels.dist.tobytes(), labels.pred.tobytes(),
                             stats.relaxations, None if path is None else
                             (path.nodes, path.eids, path.cost)))
    finally:
        res.flow[:] = saved
    return outcomes


class TestSweepPlan:
    """The sweep plan a residual keeps (ResidualGraph.sweep_plan)."""

    @pytest.mark.parametrize("window", [3, 4])
    def test_append_and_clip_drop_the_plan(self, monkeypatch, window):
        # After every append and every clip of a windowed tracker, whose
        # slot ids are recycled, its residual sweeps bit for bit as a fresh
        # residual over the same graph.
        checked = {"append": 0, "clip": 0}

        def checking(name, method):
            def wrapped(res, *args):
                method(res, *args)
                seed = sum(checked.values())
                got = sweep_outcomes(res, np.random.default_rng(seed))
                want = sweep_outcomes(ResidualGraph(res.graph),
                                      np.random.default_rng(seed))
                assert got == want
                checked[name] += not res.graph.is_empty
            return wrapped

        monkeypatch.setattr(ResidualGraph, "append_frame", checking(
            "append", ResidualGraph.append_frame))
        monkeypatch.setattr(ResidualGraph, "clip_oldest_frame", checking(
            "clip", ResidualGraph.clip_oldest_frame))
        recycled = 0
        for seed in range(4):
            frames, model = dyadic_frames(seed, n_frames=14, skip=True)
            tracker = OnlineTracker(TrackerConfig(model=model, window=window,
                                                  gating=False))
            for f, dets in frames.items():
                tracker.process_frame(dets, frame=f)
                g = tracker.graph
                if not g.is_empty:
                    u = np.concatenate([g.frame_nodes[t][0] for t in g.frames])
                    recycled += bool(np.any(np.diff(u) < 0))
        assert checked["append"] > 40 and checked["clip"] > 20
        assert recycled > 5  # slot ids no longer follow frame order

    def test_a_dp_solve_builds_one_plan(self, monkeypatch):
        built = []
        build = ssp._sweep_plan

        def counted(*args):
            built.append(1)
            return build(*args)

        monkeypatch.setattr(ssp, "_sweep_plan", counted)
        cfg = SyntheticConfig(n_frames=80, n_initial_tracks=8, crossing=True,
                              spawn_prob=0.0, death_prob=0.0, miss_rate=0.05,
                              fp_rate=0.2)
        dets, _ = generate_synthetic(cfg, 5)
        _, stats = solve_dp_greedy(build_batch_graph(dets, CostModel()))
        assert stats.searches >= 10
        assert len(built) == 1


class TestAppendRelaxation:
    """The potentials ResidualGraph.append_frame gives a frame's nodes."""

    def check_cold_start(self, frames, model, gating):
        """An empty tracker's residual, given frames one by one and never
        solved, holds as potentials the DAG shortest-path distances of the
        batch graph over the same frames, bit for bit; the target's
        potential starts at 0, so it holds the least of 0 and its
        distance."""
        tracker = OnlineTracker(TrackerConfig(model=model, gating=gating))
        res = tracker.cache.residual
        for f in sorted(frames):
            res.append_frame(frames[f], model,
                             res.graph.prepare_frame(frames[f], model, f))
        batch = build_batch_graph(frames, model, gating=gating)
        for name in NODE_COLUMNS + EDGE_COLUMNS:  # the same slot ids
            assert np.array_equal(getattr(res.graph, name),
                                  getattr(batch, name)), name
        _, labels = dag_shortest_path(ResidualGraph(batch))
        want = labels.dist
        want[-1] = min(want[-1], 0.0)
        assert np.array_equal(res.potential, want)

    @pytest.mark.parametrize("skip", [False, True])
    def test_tied_instances(self, skip):
        for seed in range(20):
            frames, model = dyadic_frames(seed, n_frames=10, skip=skip)
            assert skip == (list(frames) != list(range(len(frames))))
            self.check_cold_start(frames, model, gating=False)

    def test_gated_scene_with_empty_frames(self):
        frames, model = synthetic_frames()
        frames = {f: [] if f % 7 == 3 else ds for f, ds in frames.items()
                  if f % 11 != 5}
        self.check_cold_start(frames, model, gating=True)

    @pytest.mark.parametrize("window", [None, 4])
    def test_solved_potentials_relax_into_the_new_frame(self, monkeypatch,
                                                        window):
        # Between frames the potentials are a solve's, not DAG distances: a
        # v node's is often not its u node's plus the detection edge, and
        # the new frame's links read the v nodes' own. Checked against an
        # interpreted relaxation, to the bit.
        appended = []
        append = ResidualGraph.append_frame

        def recorded(res, detections, model, prepared):
            target = res.potential[-1]
            append(res, detections, model, prepared)
            appended.append((prepared.frame, target, res.potential.copy()))

        monkeypatch.setattr(ResidualGraph, "append_frame", recorded)
        frames, model = synthetic_frames()
        tracker = OnlineTracker(TrackerConfig(model=model, window=window))
        drifted = 0
        for f in sorted(frames):
            tracker.process_frame(frames[f], frame=f)
            frame, target, p = appended[-1]
            g, c = tracker.graph, tracker.graph.e_cost.tolist()
            links = g.frame_links[frame].tolist()
            want = {}
            for u, v in zip(*g.frame_nodes[frame].tolist()):
                want[u] = min([p[SOURCE] + c[g.node_in[u]]] + [
                    p[g.e_src[l]] + c[l] for l in links if g.e_dst[l] == u])
                want[v] = want[u] + c[g.node_out[u]]
                target = min(target, want[v] + c[g.node_out[v]])
            assert {x: p[x] for x in want} == want and p[-1] == target
            for l in links:
                tail = g.e_src[l]
                drifted += p[tail] != p[g.e_src[g.node_in[tail]]] + c[
                    g.node_in[tail]]
        assert drifted > 10


class TestCompiledGreedyDp:
    """solve_dp_greedy against the greedy built on the interpreted sweep."""

    def check(self, build):
        got, stats = solve_dp_greedy(build())
        want, want_stats = python_dp_greedy(build())
        assert ([([d.key for d in t.detections], t.cost)
                 for t in got.trajectories]
                == [([d.key for d in t.detections], t.cost)
                    for t in want.trajectories])
        assert got.total_cost == want.total_cost
        assert np.array_equal(got.flow, want.flow)
        assert stats.iterations == want_stats.iterations
        assert stats.relaxations <= want_stats.relaxations
        return stats

    def test_random_instances(self):
        for seed in range(20):
            frames, model = make_random_instance(seed, frame_range=(3, 6),
                                                 dets_range=(1, 4))
            self.check(lambda: build_graph(frames, model))

    def test_tied_instances(self):
        iterations = 0
        for seed in range(20):
            iterations += self.check(
                lambda: dyadic_instance(seed, skip=seed % 2 == 1)).iterations
        assert iterations > 20

    def test_crossing_scene(self):
        cfg = SyntheticConfig(n_frames=30, n_initial_tracks=4, crossing=True,
                              miss_rate=0.1, fp_rate=0.2)
        dets, _ = generate_synthetic(cfg, 1)
        stats = self.check(lambda: build_batch_graph(dets, CostModel()))
        assert stats.iterations > 3
        assert stats.searches < stats.iterations + 1  # several per sweep


class TestDpReadsNoSlotTable:
    """solve_dp_greedy with ResidualGraph.arcs made to raise returns what it
    returns when its sweeps' paths are read through the slot table
    (extract_path): the same trajectories, costs, flow and counters."""

    @staticmethod
    def check(build):
        with mock.patch.object(ssp, "_sweep_walk", extract_path):
            want, want_stats = solve_dp_greedy(build())
        with mock.patch.object(ResidualGraph, "arcs",
                               side_effect=AssertionError("slot table")):
            got, stats = solve_dp_greedy(build())
        assert ([([d.key for d in t.detections], t.cost.hex())
                 for t in got.trajectories]
                == [([d.key for d in t.detections], t.cost.hex())
                    for t in want.trajectories])
        assert got.total_cost.hex() == want.total_cost.hex()
        assert np.array_equal(got.flow, want.flow)
        assert stats == want_stats
        return len(got.trajectories)

    def test_criterion_6_scenes(self):
        tracks = 0
        for seed in range(10):
            cfg = SyntheticConfig(n_frames=110, n_initial_tracks=4,
                                  miss_rate=0.1, fp_rate=0.1,
                                  spawn_prob=0.05, death_prob=0.02)
            dets, _ = generate_synthetic(cfg, seed)
            tracks += self.check(lambda: build_batch_graph(dets, CostModel()))
        assert tracks > 40

    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None)
    @given(tied_scenes())
    def test_tied_scenes(self, scene):
        frames, model = scene
        self.check(lambda: build_batch_graph(frames, model))

    def test_sweep_paths_are_the_table_paths(self):
        """Every reached v node's tree path and the target's, as ssp and
        dssp take their first path from a sweep."""
        paths = 0
        for seed in range(3):
            cfg = SyntheticConfig(n_frames=30, n_initial_tracks=4,
                                  crossing=True, miss_rate=0.1, fp_rate=0.2)
            dets, _ = generate_synthetic(cfg, seed)
            res = ResidualGraph(build_batch_graph(dets, CostModel()))
            path, labels = dag_shortest_path(res)
            assert path == extract_path(res, labels)
            for v in res.sweep_plan().v.tolist():
                assert (ssp.sweep_path(res, labels, via=v)
                        == extract_path(res, labels, via=v))
                paths += 1
        assert paths > 100


class TestLayerHooks:
    """perfbench's layer map wraps ssp's module attributes from outside: the
    solvers must reach the DAG sweep through the module attribute, so
    ssp.dag_calls counts one call per search."""

    def count_dag_calls(self, monkeypatch, solve, graph):
        calls = []
        sweep = ssp.dag_shortest_path

        def counted(*args, **kwargs):
            calls.append(1)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(ssp, "dag_shortest_path", counted)
        _, stats = solve(graph)
        return len(calls), stats

    def test_one_sweep_per_search(self, monkeypatch):
        cfg = SyntheticConfig(n_frames=20, n_initial_tracks=4, crossing=True)
        dets, _ = generate_synthetic(cfg, 2)
        calls, stats = self.count_dag_calls(
            monkeypatch, ssp.solve_dp_greedy, build_batch_graph(dets, CostModel()))
        assert stats.iterations > 1
        assert calls == stats.searches < stats.iterations + 1
        for solve in (ssp.solve_ssp, ssp.solve_dssp):
            calls, stats = self.count_dag_calls(
                monkeypatch, solve, build_batch_graph(dets, CostModel()))
            assert stats.iterations > 1 and calls == 1


class TestSolveSsp:
    def test_single_negative_detection(self):
        solution, _ = solve_ssp(single_det_graph())
        assert solution.total_cost == pytest.approx(-1.0)
        assert len(solution.trajectories) == 1

    def test_single_positive_detection_empty_solution(self):
        solution, _ = solve_ssp(single_det_graph(detection=-3.0))  # sum +1
        assert solution.total_cost == 0.0
        assert solution.trajectories == []

    def test_canonical(self):
        g, _, _ = canonical_graph()
        solution, stats = solve_ssp(g)
        assert solution.total_cost == pytest.approx(-12.0)
        assert len(solution.trajectories) == 2
        assert stats.iterations == 2
        check_flow_conservation(g, solution)
        # both trajectories use matched links
        for t in solution.trajectories:
            assert t.detections[0].local_index == t.detections[1].local_index

    def test_empty_graph(self):
        solution, _ = solve_ssp(TrackingGraph())
        assert solution.total_cost == 0.0

    def test_iteration_bound_and_monotone_objective(self, monkeypatch):
        _, costs = record_trace(monkeypatch)
        for seed in range(20):
            frames, model = make_random_instance(seed)
            g = build_graph(frames, model)
            costs.clear()
            solution, stats = solve_ssp(g)
            assert stats.iterations <= g.n_detections
            # accepted path costs are the per-iteration deltas; all negative
            accepted = [c for c in costs if c < 0]
            assert len(accepted) == stats.iterations
            assert all(np.diff(np.cumsum(accepted)) <= 0) if accepted else True

    def test_termination_rules_agree(self, monkeypatch):
        dists, costs = record_trace(monkeypatch)
        agree = checked = 0
        for seed in range(40):
            frames, model = make_random_instance(seed)
            g = build_graph(frames, model)
            dists.clear()
            costs.clear()
            solve_ssp(g)
            prose, alg1 = stop_iterations(dists, costs)
            if prose is None:
                continue
            checked += 1
            if alg1 is not None:
                assert alg1 == prose
                agree += 1
        assert checked > 0
        print(f"termination-rule agreement on {agree}/{checked} "
              "instances where both rules fired")


class TestSolveDssp:
    def test_canonical(self):
        g, _, _ = canonical_graph()
        solution, _ = solve_dssp(g)
        assert solution.total_cost == pytest.approx(-12.0)

    def test_matches_ssp_everywhere(self):
        for seed in range(30):
            frames, model = make_random_instance(seed, frame_range=(3, 6),
                                                 dets_range=(1, 4))
            s1, _ = solve_ssp(build_graph(frames, model))
            s2, _ = solve_dssp(build_graph(frames, model))
            assert s1.total_cost == pytest.approx(s2.total_cost, abs=1e-9)

    def test_fewer_searches_than_ssp_on_criterion_6_scenes(self):
        # several paths per search: on criterion 6's scenes dssp runs at most
        # 0.75x the searches of one-path ssp, for the same augmentations
        for seed in range(10):
            cfg = SyntheticConfig(n_frames=110, n_initial_tracks=4,
                                  miss_rate=0.1, fp_rate=0.1, spawn_prob=0.05,
                                  death_prob=0.02)
            dets, _ = generate_synthetic(cfg, seed)
            _, st1 = solve_ssp(build_batch_graph(dets, CostModel()))
            _, st2 = solve_dssp(build_batch_graph(dets, CostModel()))
            assert st2.iterations == st1.iterations, seed
            assert st2.searches <= 0.75 * st1.searches, seed

    def test_same_trajectories_as_ssp_on_crossing_scenes(self):
        def record(solution):
            return ([(tuple(d.key for d in t.detections), float.hex(t.cost))
                     for t in solution.trajectories],
                    float.hex(float(solution.total_cost)))

        for seed in range(20):
            cfg = SyntheticConfig(n_frames=30, n_initial_tracks=5,
                                  crossing=True, miss_rate=0.1, fp_rate=0.2)
            dets, _ = generate_synthetic(cfg, seed)
            s1, _ = solve_ssp(build_batch_graph(dets, CostModel()))
            s2, _ = solve_dssp(build_batch_graph(dets, CostModel()))
            assert record(s1) == record(s2), seed


class TestDecodeTrajectories:
    def test_canonical_two_chains(self):
        g, _, _ = canonical_graph()
        solution, _ = solve_ssp(g)
        keys = sorted(tuple(d.key for d in t.detections)
                      for t in solution.trajectories)
        assert keys == [(((0, 0)), ((1, 0))), (((0, 1)), ((1, 1)))]
        for t in solution.trajectories:
            assert [d.frame for d in t.detections] == [0, 1]

    def test_no_flow_empty_list(self):
        solution, _ = solve_ssp(single_det_graph(detection=-3.0))
        assert solution.trajectories == []


class TestGreedyDp:
    def test_canonical_no_interchange_needed(self):
        g, _, _ = canonical_graph()
        solution, _ = solve_dp_greedy(g)
        assert solution.total_cost == pytest.approx(-12.0)

    def test_interchange_greedy_is_suboptimal(self):
        g, _, _ = interchange_graph()
        greedy, _ = solve_dp_greedy(g)
        g2, _, _ = interchange_graph()
        optimal, _ = solve_ssp(g2)
        assert greedy.total_cost == pytest.approx(-12.0)
        assert optimal.total_cost == pytest.approx(-18.0)
        assert greedy.total_cost > optimal.total_cost

    def test_empty_graph(self):
        solution, _ = solve_dp_greedy(TrackingGraph())
        assert solution.trajectories == []

    def test_greedy_dominates_optimum(self):
        for seed in range(30):
            frames, model = make_random_instance(seed)
            greedy, _ = solve_dp_greedy(build_graph(frames, model))
            optimal, _ = solve_ssp(build_graph(frames, model))
            assert greedy.total_cost >= optimal.total_cost - 1e-9


@pytest.mark.parametrize("solve", [solve_ssp, solve_dssp, solve_dp_greedy])
def test_batch_solution_retains_under_8_bytes_per_link(solve):
    """Two frames of 250 identical boxes admit all 62,500 links, and with
    cheap entries and exits each box pairs up. What the solution keeps after
    the solve returns, measured by tracemalloc, stays under 8 B a link: no
    per-edge structure outlives the solve."""
    n = 250
    model = CostModel(entry_cost=0.5, exit_cost=0.5)
    graph = build_batch_graph({f: [det(f, i, x=0.0) for i in range(n)]
                               for f in (0, 1)}, model)
    links = len(graph.frame_links[1])
    assert links == n * n
    gc.collect()
    tracemalloc.start()
    try:
        solution, _ = solve(graph)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(solution.trajectories) == n
    assert retained / links < 8, retained / links


def scaled_model(scale):
    """CostModel whose every edge cost is exactly scale x the default's, for
    a power-of-two scale."""
    m = CostModel()
    return replace(m, entry_cost=m.entry_cost * scale,
                   exit_cost=m.exit_cost * scale,
                   det_offset=m.det_offset * scale,
                   det_weight=m.det_weight * scale,
                   feature_weights=tuple(w * scale for w in m.feature_weights))


class TestCostScaling:
    """The reduced-cost tolerance is relative to the largest |edge cost|, so
    scaling every cost by a power of two, which is exact in floating point,
    scales the objective and leaves every decision alone."""

    SCALES = [2.0 ** k for k in range(-30, 41, 10)]

    def test_solvers_invariant_under_power_of_two_scaling(self):
        cfg = SyntheticConfig(n_frames=30, n_initial_tracks=4, miss_rate=0.1,
                              fp_rate=0.2, crossing=True)
        dets, _ = generate_synthetic(cfg, 1)

        def online(model):
            tracker = OnlineTracker(TrackerConfig(model=model))
            for f in sorted(dets):
                solution = tracker.process_frame(dets[f], frame=f)
            return solution

        solvers = {
            "ssp": lambda m: solve_ssp(build_batch_graph(dets, m))[0],
            "dssp": lambda m: solve_dssp(build_batch_graph(dets, m))[0],
            "odssp": online,
        }
        for name, solve in solvers.items():
            base = solve(CostModel())
            assert base.trajectories
            for scale in self.SCALES:
                got = solve(scaled_model(scale))
                assert got.total_cost == base.total_cost * scale, (name, scale)
                assert ([[d.key for d in t.detections] for t in got.trajectories]
                        == [[d.key for d in t.detections]
                            for t in base.trajectories]), (name, scale)
