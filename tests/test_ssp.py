from dataclasses import replace

import numpy as np
import pytest

from conftest import (StubModel, build_graph, canonical_graph, det,
                      interchange_graph, make_random_instance)
from flowtrack.cost_model import CostModel
from flowtrack.errors import DataError, InvariantBreach
from flowtrack.graph import (LINK, SINK, SOURCE, TrackingGraph,
                             build_batch_graph, check_flow_conservation)
from flowtrack.ssp import (Path, PredecessorMap, ResidualGraph, build_residual,
                           convert_edge_costs, dag_shortest_path,
                           dijkstra_full, dynamic_broadcast,
                           path_original_cost, solve_dp_greedy, solve_dssp,
                           solve_ssp)
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
