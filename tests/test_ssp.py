import heapq
from dataclasses import replace

import numpy as np
import pytest

from conftest import (StubModel, build_graph, canonical_graph, det,
                      interchange_graph, make_random_instance)
from flowtrack.cost_model import CostModel
from flowtrack.errors import DataError, InvariantBreach
from flowtrack.graph import (LINK, SINK, SOURCE, TrackingGraph,
                             build_batch_graph, check_flow_conservation)
from flowtrack.ssp import (Path, PredecessorMap, ResidualGraph, SolverStats,
                           build_residual, convert_edge_costs,
                           dag_shortest_path, dijkstra_full, dynamic_broadcast,
                           extract_path, path_original_cost, solve_dp_greedy,
                           solve_dssp, solve_ssp)
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.synthetic import SyntheticConfig, generate_synthetic


def single_det_graph(detection=-5.0):
    model = StubModel(detection=detection)
    g = TrackingGraph(gating=False)
    g.append_frame([det(0, 0)], model, frame=0)
    return g


class TestDagShortestPath:
    def test_single_detection(self):
        res = ResidualGraph(single_det_graph())
        path, labels = dag_shortest_path(res)
        assert labels.dist[SINK] == pytest.approx(-1.0)  # 2 - 5 + 2
        assert path.nodes[0] == SOURCE and path.nodes[-1] == SINK
        assert len(path.eids) == 3

    def test_canonical_first_path(self):
        g, _, _ = canonical_graph()
        res = ResidualGraph(g)
        path, labels = dag_shortest_path(res)
        assert labels.dist[SINK] == pytest.approx(-6.0)
        # the path uses a matched (cost 0) link
        link = [e for e in path.eids if g.e_kind[e] == LINK]
        assert len(link) == 1 and g.e_cost[link[0]] == 0.0

    def test_empty_graph_sink_unreachable(self):
        g = TrackingGraph()
        res = ResidualGraph(g)
        path, labels = dag_shortest_path(res)
        assert path is None
        assert not np.isfinite(labels.dist[SINK])

    def test_matches_dijkstra_on_converted_graph(self):
        for seed in range(10):
            frames, model = make_random_instance(seed)
            res = ResidualGraph(build_graph(frames, model))
            p1, l1 = dag_shortest_path(res)
            convert_edge_costs(res, l1)
            p2, l2 = dijkstra_full(res)
            assert l2.dist[SINK] == pytest.approx(0.0, abs=1e-9)


class TestConvertEdgeCosts:
    def test_shortest_path_edges_become_zero(self):
        g, _, _ = canonical_graph()
        res = ResidualGraph(g)
        path, labels = dag_shortest_path(res)
        convert_edge_costs(res, labels)
        for eid in path.eids:
            assert res.rcost[eid] == pytest.approx(0.0, abs=1e-12)
        assert float(res.rcost[res.alive_arr].min()) >= -1e-9

    def test_formula_by_hand(self):
        # edge (u,v) with C=1, d(u)=-3, d(v)=-6 -> C' = 1 + (-3) - (-6) = 4
        model = StubModel(entry=-3.0, detection=1.0, exit_=-100.0)
        g = TrackingGraph(gating=False)
        g.append_frame([det(0, 0)], model, frame=0)
        res = ResidualGraph(g)
        u, v = g.det_nodes[(0, 0)]
        det_eid = g.detection_edge_of(det(0, 0))
        labels = PredecessorMap(res.n_nodes)
        labels.dist[u] = -3.0
        labels.dist[v] = -6.0
        labels.dist[SINK] = -106.0
        convert_edge_costs(res, labels)
        assert res.rcost[det_eid] == pytest.approx(4.0)

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
        labels = PredecessorMap(res.n_nodes)
        labels.dist[:] = 0.0
        before = res.rcost.copy()
        convert_edge_costs(res, labels)
        assert np.array_equal(res.rcost, before)

    def test_stale_labels_detected(self):
        g = single_det_graph()
        res = ResidualGraph(g)
        labels = PredecessorMap(res.n_nodes)
        labels.dist[:] = 0.0
        labels.dist[SINK] = 100.0  # inconsistent with exit cost 2
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
        assert res.iteration == 1

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


def heap_dijkstra(res):
    """Plain-heap reference search: (distances, arcs scanned out of settled
    nodes). Negative reduced costs count as 0, as in the solvers; on the
    converted graphs below they lie within eps of 0."""
    dist = np.full(res.n_nodes, np.inf)
    dist[SOURCE] = 0.0
    done = np.zeros(res.n_nodes, dtype=bool)
    heap, scanned = [(0.0, SOURCE)], 0
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for eid, v in res.out_arcs(u):
            scanned += 1
            nd = d + max(float(res.rcost[eid]), 0.0)
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


class TestCompiledDijkstra:
    """dijkstra_full against the plain-heap reference on the same residual
    graphs: every distance, whether the sink is reached, the counters."""

    def check(self, res):
        stats = SolverStats()
        path, labels = dijkstra_full(res, stats)
        want, scanned = heap_dijkstra(res)
        reached = np.isfinite(want)
        assert np.array_equal(np.isfinite(labels.dist), reached)
        assert np.allclose(labels.dist[reached], want[reached],
                           rtol=0.0, atol=1e-12)
        assert (path is None) == (not reached[SINK])
        assert stats.relaxations == scanned
        assert stats.queue_pushes == int(reached.sum())
        if path is not None:
            # the path follows the labels: every arc on it is tight
            for u, v, eid in zip(path.nodes, path.nodes[1:], path.eids):
                assert res.res_endpoints(eid) == (u, v)
                assert labels.dist[v] == pytest.approx(
                    labels.dist[u] + max(float(res.rcost[eid]), 0.0),
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

    def test_zero_cost_arc_is_an_edge(self):
        # every arc costs exactly 0, so every node is reached only through
        # explicit zero weights
        res = ResidualGraph(single_det_graph())
        res.rcost[:] = 0.0
        path = self.check(res)
        assert path is not None and len(path.eids) == 3
        _, labels = dijkstra_full(res)
        assert np.all(labels.dist[[SOURCE, SINK]] == 0.0)

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
        res.rcost[entry] = 0.0
        stats = SolverStats()
        path, labels = dijkstra_full(res, stats)
        assert path is None
        assert np.isfinite(labels.dist).sum() == 1
        assert stats.relaxations == 0 and stats.queue_pushes == 1


def in_arcs(res, node):
    """Residual arcs into node, as (edge id, tail)."""
    g, fl = res.graph, res.flow
    for eid in g.in_edges[node]:
        if fl[eid] == 0:
            yield eid, g.e_src[eid]
    for eid in g.out_edges[node]:
        if fl[eid] == 1:
            yield eid, g.e_dst[eid]


def arc_cost(res, eid):
    """Residual arc cost clamped for queue ordering."""
    rc = float(res.rcost[eid])
    if rc < -res.eps:
        raise InvariantBreach(f"negative reduced cost {rc} on edge {eid}")
    return rc if rc > 0.0 else 0.0


def python_broadcast(res, seeds, labels, stats):
    """Plain reference for dynamic_broadcast: the interpreted broadcast, with
    a children index rebuilt over every node and a heap seeded from the
    frontier's in-arcs. relaxations counts the arcs into the affected set out
    of reached nodes, queue_pushes the nodes settled."""
    dist, pred = labels.dist, labels.pred
    n = res.n_nodes
    children = [[] for _ in range(n)]
    for x in range(n):
        if pred[x] >= 0:
            children[pred[x]].append(x)
    affected = set()
    stack = [s for s in set(seeds) if s != SOURCE]
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
        for eid, v in res.out_arcs(u):
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
    out = PredecessorMap(len(labels.dist))
    out.dist, out.pred = labels.dist.copy(), labels.pred.copy()
    return out


def single_det_tree():
    """single_det_graph's residual with zero labels over the tree source ->
    u -> v -> sink; the u -> v detection arc costs -5."""
    g = single_det_graph()
    res = ResidualGraph(g)
    u, v = g.det_nodes[(0, 0)]
    labels = PredecessorMap(res.n_nodes)
    labels.dist[:] = 0.0
    labels.pred[[u, v, SINK]] = [SOURCE, u, v]
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
        assert not np.isfinite(labels.dist[[v, SINK]]).any()
        assert stats.relaxations == 0 and stats.queue_pushes == 0

    def test_nonzero_frontier_label_raises(self):
        res, labels, u, v = single_det_tree()
        res.rcost[:] = 0.0
        labels.dist[u] = 1.5
        with pytest.raises(InvariantBreach, match="label"):
            dynamic_broadcast(res, [v], labels)

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

    def test_matches_dijkstra_sink_distance_per_iteration(self):
        for seed in range(25):
            frames, model = make_random_instance(seed)
            s1, st1 = solve_ssp(build_graph(frames, model))
            s2, st2 = solve_dssp(build_graph(frames, model))
            assert s1.total_cost == pytest.approx(s2.total_cost, abs=1e-9)
            assert len(st1.reduced_sink_dists) == len(st2.reduced_sink_dists)
            for a, b in zip(st1.reduced_sink_dists, st2.reduced_sink_dists):
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

    def test_iteration_bound_and_monotone_objective(self):
        for seed in range(20):
            frames, model = make_random_instance(seed)
            g = build_graph(frames, model)
            solution, stats = solve_ssp(g)
            assert stats.iterations <= g.n_detections
            # accepted path costs are the per-iteration deltas; all negative
            accepted = [c for c in stats.path_original_costs if c < 0]
            assert len(accepted) == stats.iterations
            assert all(np.diff(np.cumsum(accepted)) <= 0) if accepted else True

    def test_termination_rules_agree(self):
        agree = checked = 0
        for seed in range(40):
            frames, model = make_random_instance(seed)
            _, stats = solve_ssp(build_graph(frames, model))
            if stats.prose_stop_iteration is None:
                continue
            checked += 1
            if stats.alg1_stop_iteration is not None:
                assert stats.alg1_stop_iteration == stats.prose_stop_iteration
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
