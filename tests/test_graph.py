import math

import pytest

from conftest import StubModel, build_graph, canonical_graph, det, \
    make_random_instance
from flowtrack.cost_model import CostModel
from flowtrack.errors import DataError, InvariantBreach
from flowtrack.graph import (LINK, FlowSolution, TrackingGraph, Trajectory,
                             build_batch_graph, check_flow_conservation,
                             check_layered_dag, graphs_structurally_equal)
from flowtrack.ssp import solve_ssp


class TestStructure:
    def test_empty(self):
        g = build_batch_graph([], CostModel())
        assert g.n_live_nodes == 2
        assert g.n_live_edges == 0
        assert g.is_empty

    def test_single_detection(self):
        g = build_batch_graph([det(0, 0)], CostModel())
        assert g.n_live_nodes == 4
        assert g.n_live_edges == 3
        kinds = sorted(g.e_kind[e] for e in g.live_edges())
        assert kinds == ["det", "entry", "exit"]

    def test_two_by_two_all_links(self):
        g, _, _ = canonical_graph()
        assert g.n_live_nodes == 10
        assert g.n_live_edges == 16
        by_kind = {}
        for e in g.live_edges():
            by_kind[g.e_kind[e]] = by_kind.get(g.e_kind[e], 0) + 1
        assert by_kind == {"entry": 4, "det": 4, "exit": 4, "link": 4}

    def test_layered_dag_invariant(self):
        g, _, _ = canonical_graph()
        check_layered_dag(g)


class TestAppendFrame:
    def test_append_to_empty(self):
        g = TrackingGraph()
        g.append_frame([det(0, 0), det(0, 1)], CostModel(), frame=0)
        assert g.n_live_nodes == 6
        assert g.n_live_edges == 6

    def test_fold_equals_batch(self):
        frames, model = make_random_instance(7)
        folded = build_graph(frames, model)
        dets = [d for f in sorted(frames) for d in frames[f]]
        batch = TrackingGraph(gating=False)
        for f in sorted(frames):
            batch.append_frame(frames[f], model, frame=f)
        assert graphs_structurally_equal(folded, batch)

    def test_batch_builder_equals_fold(self):
        dets = [det(0, 0), det(0, 1), det(1, 0)]
        model = CostModel()
        a = build_batch_graph(dets, model)
        b = TrackingGraph()
        b.append_frame([det(0, 0), det(0, 1)], model, frame=0)
        b.append_frame([det(1, 0)], model)
        assert graphs_structurally_equal(a, b)

    def test_empty_frame_increments_tmax(self):
        g = build_batch_graph([det(0, 0)], CostModel())
        nodes = g.n_live_nodes
        g.append_frame([], CostModel())
        assert g.n_live_nodes == nodes
        assert g.t_max == 1
        # links cannot bridge the gap
        g.append_frame([det(2, 0)], CostModel())
        assert all(g.e_kind[e] != LINK for e in g.live_edges())

    def test_frame_gap_rejected(self):
        g = build_batch_graph([det(0, 0)], CostModel())
        with pytest.raises(DataError):
            g.append_frame([det(5, 0)], CostModel())

    def test_mixed_frames_rejected(self):
        g = TrackingGraph()
        with pytest.raises(DataError):
            g.append_frame([det(0, 0), det(1, 1)], CostModel(), frame=0)

    def test_duplicate_local_index_rejected(self):
        g = TrackingGraph()
        with pytest.raises(DataError):
            g.append_frame([det(0, 0), det(0, 0, x=50.0)], CostModel(), frame=0)

    def test_empty_graph_needs_frame_index(self):
        with pytest.raises(DataError):
            TrackingGraph().append_frame([], CostModel())


class TestGatingAndCosts:
    def test_gate_blocks_distant_pairs(self):
        a, b = det(0, 0, x=0.0), det(1, 0, x=5000.0)
        g = build_batch_graph([a, b], CostModel(), gating=True)
        assert all(g.e_kind[e] != LINK for e in g.live_edges())
        g2 = build_batch_graph([a, b], CostModel(), gating=False)
        assert any(g2.e_kind[e] == LINK for e in g2.live_edges())

    def test_infinite_link_cost_means_no_edge(self):
        model = StubModel(links={})  # every link cost +inf
        g = TrackingGraph(gating=False)
        g.append_frame([det(0, 0)], model, frame=0)
        g.append_frame([det(1, 0)], model)
        assert all(g.e_kind[e] != LINK for e in g.live_edges())

    def test_nan_link_cost_rejected(self):
        model = StubModel(links={((0, 0), (1, 0)): math.nan})
        g = TrackingGraph(gating=False)
        g.append_frame([det(0, 0)], model, frame=0)
        with pytest.raises(DataError):
            g.append_frame([det(1, 0)], model)


def _solve(graph):
    solution, _ = solve_ssp(graph)
    return solution


class TestClipOldestFrame:
    def _three_frame_chain(self):
        links = {((0, 0), (1, 0)): 0.0, ((1, 0), (2, 0)): 0.0}
        model = StubModel(links=links)
        g = TrackingGraph(gating=False)
        for f in range(3):
            g.append_frame([det(f, 0)], model, frame=f)
        return g

    def test_synthesized_entry_cost(self):
        g = self._three_frame_chain()
        solution = _solve(g)
        assert solution.total_cost == pytest.approx(-11.0)  # 2 -5 -5 -5 +2
        g.clip_oldest_frame(solution)
        eid = g.entry_edge_of(det(1, 0))
        # remembered prefix: entry 2 + det -5 + link 0 = -3
        assert g.e_cost[eid] == -3.0
        assert g.e_origin[eid] == solution.trajectories[0].track_id

    def test_suffix_cost_preserved_exactly(self):
        g = self._three_frame_chain()
        solution = _solve(g)
        g.clip_oldest_frame(solution)
        clipped = _solve(g)
        assert clipped.total_cost == solution.total_cost  # exact, same fp order

    def test_untracked_detection_simply_deleted(self):
        model = StubModel(detection=100.0, links={})
        g = TrackingGraph(gating=False)
        g.append_frame([det(0, 0)], model, frame=0)
        g.append_frame([det(1, 0)], model)
        g.clip_oldest_frame(FlowSolution())
        assert g.n_live_nodes == 4
        eid = g.entry_edge_of(det(1, 0))
        assert g.e_cost[eid] == 2.0
        assert g.e_origin[eid] is None

    def test_clip_only_frame_rejected(self):
        g = build_batch_graph([det(0, 0)], CostModel())
        with pytest.raises(DataError):
            g.clip_oldest_frame(FlowSolution())

    def test_prefix_cost_survives_repeated_clips(self):
        links = {((0, 0), (1, 0)): 0.0, ((1, 0), (2, 0)): 0.0,
                 ((2, 0), (3, 0)): 0.0}
        model = StubModel(links=links)
        g = TrackingGraph(gating=False)
        for f in range(4):
            g.append_frame([det(f, 0)], model, frame=f)
        sol = _solve(g)
        g.clip_oldest_frame(sol)
        g.clip_oldest_frame(_solve(g))
        # the second fold carries the first one's prefix along
        assert _solve(g).total_cost == sol.total_cost

    def test_node_budget_bounded_under_windowing(self):
        model = CostModel()
        g = TrackingGraph()
        tau, d_max = 4, 2
        for f in range(30):
            dets = [det(f, i, x=20.0 * i, y=1.0 * f) for i in range(d_max)]
            if not g.is_empty and g.n_frames >= tau:
                g.clip_oldest_frame(_solve(g))
            g.append_frame(dets, model, frame=f)
            assert g.n_live_nodes <= 2 * tau * d_max + 2
            check_layered_dag(g)


class TestTrajectoryAndSolution:
    def test_trajectory_validation(self):
        with pytest.raises(InvariantBreach):
            Trajectory(0, [], 0.0)
        with pytest.raises(InvariantBreach):
            Trajectory(0, [det(0, 0), det(2, 0)], 0.0)

    def test_flow_conservation_checker(self):
        g, _, _ = canonical_graph()
        solution = _solve(g)
        check_flow_conservation(g, solution)
        broken = dict(solution.edge_flow)
        flowed = [e for e, f in broken.items() if f == 1]
        broken[flowed[0]] = 0
        with pytest.raises(InvariantBreach):
            check_flow_conservation(g, FlowSolution(
                trajectories=solution.trajectories,
                total_cost=solution.total_cost, edge_flow=broken))
