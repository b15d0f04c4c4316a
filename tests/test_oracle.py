import numpy as np
import pytest

from conftest import (StubModel, build_graph, canonical_graph, det,
                      make_random_instance, two_frame_pairs)
from flowtrack.errors import DataError
from flowtrack.graph import TrackingGraph, check_flow_conservation
from flowtrack.oracle import brute_force_optimum, enumerate_paths
from reference import trajectory_flow


class TestEnumeratePaths:
    def test_canonical_path_count(self):
        g, _, _ = canonical_graph()
        paths = enumerate_paths(g)
        # 4 single-detection paths + 4 two-detection paths
        assert len(paths) == 8
        costs = sorted(c for _, _, c in paths)
        assert costs[0] == pytest.approx(-6.0)

    def test_empty_graph(self):
        assert enumerate_paths(TrackingGraph()) == []


class TestBruteForceOptimum:
    def test_canonical_matched_assignment(self):
        g, _, _ = canonical_graph()
        solution = brute_force_optimum(g)
        assert solution.total_cost == pytest.approx(-12.0)
        assert len(solution.trajectories) == 2
        for t in solution.trajectories:
            assert t.detections[0].local_index == t.detections[1].local_index
        check_flow_conservation(g, solution)

    def test_single_positive_detection_empty(self):
        model = StubModel(detection=-3.0)  # total path cost +1
        g = TrackingGraph(gating=False)
        g.append_frame([det(0, 0)], model, frame=0)
        solution = brute_force_optimum(g)
        assert solution.total_cost == 0.0
        assert solution.trajectories == []

    def test_crossed_links_cheaper(self):
        g, _, _ = two_frame_pairs({(0, 0): 2.0, (1, 1): 2.0,
                                   (0, 1): -1.0, (1, 0): -1.0})
        solution = brute_force_optimum(g)
        assert solution.total_cost == pytest.approx(-14.0)
        for t in solution.trajectories:
            assert t.detections[0].local_index != t.detections[1].local_index

    def test_enumeration_order_independent(self):
        for seed in range(10):
            frames, model = make_random_instance(seed)
            base = brute_force_optimum(build_graph(frames, model))
            for shuffle_seed in (1, 2, 3):
                again = brute_force_optimum(build_graph(frames, model),
                                            seed=shuffle_seed)
                assert again.total_cost == pytest.approx(base.total_cost,
                                                         abs=1e-12)

    def test_trajectories_are_disjoint(self):
        for seed in range(10):
            frames, model = make_random_instance(seed)
            g = build_graph(frames, model)
            solution = brute_force_optimum(g)
            seen = set()
            for t in solution.trajectories:
                for d in t.detections:
                    assert d.key not in seen
                    seen.add(d.key)
            check_flow_conservation(g, solution)

    def test_flow_is_the_trajectories_flow(self):
        for seed in range(10):
            frames, model = make_random_instance(seed)
            g = build_graph(frames, model)
            solution = brute_force_optimum(g)
            assert np.array_equal(solution.flow,
                                  trajectory_flow(g, solution.trajectories))

    def test_size_bound_enforced(self):
        frames = {0: [det(0, i, x=30.0 * i) for i in range(13)]}
        g = build_graph(frames, StubModel())
        with pytest.raises(DataError):
            brute_force_optimum(g)
        assert brute_force_optimum(g, max_detections=13) is not None
