import math

import pytest

from conftest import BATCH_FAULTS, StubModel, build_graph, canonical_graph, \
    det, faulty_batch, make_random_instance
from flowtrack.cost_model import CostModel, FrameBoxes
from flowtrack.errors import DataError, InvariantBreach
from flowtrack.graph import (DET, EDGE_COLUMNS, ENTRY, EXIT, LINK,
                             NODE_COLUMNS, FlowSolution, TrackingGraph,
                             Trajectory,
                             build_batch_graph, check_flow_conservation)
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.ssp import solve_ssp
from reference import (check_layered_dag, graphs_structurally_equal,
                       link_edge_between, live_edges)


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
        kinds = sorted(g.e_kind[live_edges(g)].tolist())
        assert kinds == sorted([DET, ENTRY, EXIT])

    def test_two_by_two_all_links(self):
        g, _, _ = canonical_graph()
        assert g.n_live_nodes == 10
        assert g.n_live_edges == 16
        by_kind = {}
        for e in live_edges(g):
            kind = int(g.e_kind[e])
            by_kind[kind] = by_kind.get(kind, 0) + 1
        assert by_kind == {ENTRY: 4, DET: 4, EXIT: 4, LINK: 4}

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
        assert all(g.e_kind[e] != LINK for e in live_edges(g))

    def test_frame_gap_links_nothing(self):
        model = CostModel()
        g = build_batch_graph([det(0, 0)], model)
        g.append_frame([det(5, 0)], model)
        assert (g.t_min, g.t_max, list(g.frames)) == (0, 5, [0, 5])
        assert all(g.e_kind[e] != LINK for e in live_edges(g))
        check_layered_dag(g)
        # the same graph as with the skipped frames appended empty
        filled = TrackingGraph()
        for f in range(6):
            filled.append_frame([det(f, 0)] if f in (0, 5) else [], model,
                                frame=f)
        assert graphs_structurally_equal(g, filled)
        # the implicit next frame is still t_max + 1
        g.append_frame([], model)
        assert g.t_max == 6

    def test_rejected_cost_leaves_graph_untouched(self):
        frame0, frame1 = [det(0, 0)], [det(1, 0), det(1, 1)]
        good = StubModel(links={((0, 0), (1, 0)): 0.0, ((0, 0), (1, 1)): 1.0})
        bad_models = (
            StubModel(links={((0, 0), (1, 0)): 0.0, ((0, 0), (1, 1)): math.nan}),
            StubModel(exit_={(0, 0): 2.0, (1, 0): 2.0, (1, 1): math.inf},
                      links=good.links),
        )
        for bad in bad_models:
            g = TrackingGraph(gating=False)
            g.append_frame(frame0, good, frame=0)

            def state():
                return (g.t_min, g.t_max, list(g.frames), g.n_detections,
                        g.n_live_nodes, g.n_live_edges)

            before = state()
            with pytest.raises(DataError, match="non-finite"):
                g.append_frame(frame1, bad)
            assert state() == before
            g.append_frame(frame1, good)
            assert graphs_structurally_equal(
                g, build_graph({0: frame0, 1: frame1}, good))

    @pytest.mark.parametrize("faults,message", BATCH_FAULTS)
    def test_batch_raises_the_first_error_of_frame_by_frame(self, faults,
                                                           message):
        """A batch is checked and priced as one block; it must still raise
        the error that appending its frames one by one meets first."""
        frames, model = faulty_batch(**faults)
        g = TrackingGraph(gating=False)
        with pytest.raises(DataError) as one_by_one:
            for f in sorted(frames):
                g.append_frame(frames[f], model, frame=f)
        with pytest.raises(DataError) as batch:
            build_batch_graph(frames, model, gating=False)
        assert str(batch.value) == str(one_by_one.value) == message

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
        assert all(g.e_kind[e] != LINK for e in live_edges(g))
        g2 = build_batch_graph([a, b], CostModel(), gating=False)
        assert any(g2.e_kind[e] == LINK for e in live_edges(g2))

    def test_infinite_link_cost_means_no_edge(self):
        model = StubModel(links={})  # every link cost +inf
        g = TrackingGraph(gating=False)
        g.append_frame([det(0, 0)], model, frame=0)
        g.append_frame([det(1, 0)], model)
        assert all(g.e_kind[e] != LINK for e in live_edges(g))

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
        assert g.e_origin[eid] == -1  # no origin

    def test_clip_only_frame_empties_graph(self):
        g = build_batch_graph([det(0, 0)], CostModel())
        g.clip_oldest_frame(FlowSolution())
        assert g.is_empty and g.t_max is None and g.frames == {}
        assert (g.n_detections, g.n_live_nodes, g.n_live_edges) == (0, 2, 0)
        check_layered_dag(g)
        with pytest.raises(DataError, match="empty graph"):
            g.clip_oldest_frame(FlowSolution())
        g.append_frame([det(7, 0)], CostModel())
        assert (g.t_min, g.t_max, g.n_live_nodes) == (7, 7, 4)

    def test_freed_slots_are_reused_before_columns_grow(self):
        # the clip frees the detection's u and v node, its entry, detection
        # and exit edge and its link out; an append that fits in those slots
        # takes only them and grows no column
        model = StubModel(links={((0, 0), (1, 0)): 0.0})
        g = TrackingGraph(gating=False)
        g.append_frame([det(0, 0)], model, frame=0)
        g.append_frame([det(1, 0)], model)
        old = det(0, 0)
        freed_nodes = set(g.det_nodes[old.key])
        freed_edges = {g.entry_edge_of(old), g.detection_edge_of(old),
                       int(g.node_out[g.v_node(old)]),
                       link_edge_between(g, old, det(1, 0))}

        def lengths():
            return [len(getattr(g, name)) for name in
                    ("node_det",) + NODE_COLUMNS + EDGE_COLUMNS]

        before = lengths()
        g.clip_oldest_frame(FlowSolution())
        assert lengths() == before
        d = det(2, 5, x=9000.0)
        g.append_frame([d], model)  # no link into it
        assert set(g.det_nodes[d.key]) == freed_nodes
        assert {g.entry_edge_of(d), g.detection_edge_of(d),
                int(g.node_out[g.v_node(d)])} < freed_edges
        assert lengths() == before
        assert (g.n_live_nodes, g.n_live_edges) == (6, 6)
        check_layered_dag(g)

    def test_trajectory_over_a_missing_link_is_a_breach(self):
        g = TrackingGraph(gating=False)
        for f in range(2):
            g.append_frame([det(f, 0)], StubModel(links={}), frame=f)
        solution = FlowSolution([Trajectory(0, [det(0, 0), det(1, 0)], 0.0)])
        with pytest.raises(InvariantBreach, match=r"^solution trajectory uses "
                           r"missing link \(0, 0\)->\(1, 0\)$"):
            g.clip_oldest_frame(solution)

    def test_clip_moves_tmin_past_a_gap(self):
        model = CostModel()
        g = TrackingGraph()
        for f in (2, 3, 9):
            g.append_frame([det(f, 0)], model, frame=f)
        g.clip_oldest_frame(_solve(g))
        assert (g.t_min, g.n_frames) == (3, 7)
        g.clip_oldest_frame(_solve(g))
        assert (g.t_min, g.t_max, list(g.frames), g.n_detections) == (9, 9, [9], 1)
        check_layered_dag(g)

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
        broken = solution.flow.copy()
        broken[broken.argmax()] = 0  # the first flowed slot
        with pytest.raises(InvariantBreach):
            check_flow_conservation(g, FlowSolution(
                trajectories=solution.trajectories,
                total_cost=solution.total_cost, flow=broken))
        # Twice the flow on every flowed edge is conserved at every node,
        # but no detection may carry more than one track.
        doubled = FlowSolution(trajectories=solution.trajectories,
                               total_cost=solution.total_cost,
                               flow=2 * solution.flow)
        with pytest.raises(InvariantBreach, match=r"^detection \(\d+, \d+\) "
                           r"carries flow 2$"):
            check_flow_conservation(g, doubled)


class TestHeldGeometry:
    """A graph keeps box geometry only for t_max, the frame whose detections
    the next frame links to, in an array of its own: no view keeps the
    geometry of earlier frames or runs alive."""

    @staticmethod
    def held(g) -> list[FrameBoxes]:
        found = []
        for value in vars(g).values():
            found += [b for b in (value.values() if isinstance(value, dict)
                                  else [value]) if isinstance(b, FrameBoxes)]
        return found

    def check(self, g):
        held = self.held(g)
        dets = [] if g.is_empty else g.frames[g.t_max]
        if not dets:
            assert held == [] and g.last_boxes is None
            return
        assert held == [g.last_boxes] and g.last_boxes.dets == dets
        assert g.last_boxes.geo.base is None
        assert g.last_boxes.geo.tolist() == FrameBoxes(dets).geo.tolist()

    @pytest.mark.parametrize("window", [None, 2, 3])
    def test_after_each_frame(self, window):
        tracker = OnlineTracker(TrackerConfig(model=CostModel(),
                                              window=window))
        for f in range(8):  # frames 3 and 6 hold no detection
            dets = [] if f % 3 == 0 and f else [det(f, i, x=10.0 * i + f)
                                                 for i in range(3)]
            tracker.process_frame(dets, frame=f)
            self.check(tracker.graph)

    def test_after_a_run_and_each_clip(self):
        g = build_batch_graph([det(f, i) for f in range(4) for i in range(2)],
                              CostModel())
        self.check(g)
        while not g.is_empty:
            g.clip_oldest_frame(_solve(g))
            self.check(g)
        g.append_frame([det(9, 0)], CostModel())
        self.check(g)
