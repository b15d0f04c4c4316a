"""Exactness at scale: the solvers against the benchmark's LP oracle.

perfbench/check.py::lp_optimum solves the min-cost flow as an LP on the
node-arc incidence matrix with HiGHS. Network matrices are totally
unimodular, so its optimum is the integral one, and it checks graphs of
thousands of detections, far past what brute force reaches. The scenes are
gated, hold explicitly empty frames and carved gaps (frame indices that never
occur) and start after frame 0.
"""
import os
import sys

import numpy as np
import pytest

from flowtrack.cost_model import CostModel
from flowtrack.graph import build_batch_graph
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.ssp import solve_dp_greedy, solve_dssp, solve_ssp
from flowtrack.synthetic import SyntheticConfig, generate_synthetic

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from check import REL_TOL, Scene, lp_optimum, same_objective  # noqa: E402
from reference import trajectory_flow  # noqa: E402


def gapped_scene(cfg: SyntheticConfig, seed: int) -> dict:
    """The synthetic scene with frames 0-1 and two runs of frames carved out
    and two more frames emptied."""
    n = cfg.n_frames
    carved = {0, 1, *range(n // 5, n // 5 + 3), *range(n // 2, n // 2 + 7)}
    emptied = {n // 3, 2 * n // 3}
    detections, _ = generate_synthetic(cfg, seed)
    return {f: [] if f in emptied else dets
            for f, dets in detections.items() if f not in carved}


def optimum(frames: dict, model: CostModel) -> float:
    return lp_optimum(Scene([d for f in sorted(frames) for d in frames[f]]),
                      model)


#: (scene, seed, run odssp too); 300-2,000 detections each.
SCENES = (
    (SyntheticConfig(n_frames=60, n_initial_tracks=8, miss_rate=0.1,
                     fp_rate=0.3, crossing=True), 1, True),
    (SyntheticConfig(n_frames=60, n_initial_tracks=7, miss_rate=0.1,
                     fp_rate=0.3), 4, True),
    (SyntheticConfig(n_frames=100, n_initial_tracks=12, miss_rate=0.05,
                     fp_rate=0.3), 2, False),
    (SyntheticConfig(n_frames=150, n_initial_tracks=22, miss_rate=0.05,
                     fp_rate=0.3, crossing=True), 3, False),
)


@pytest.mark.parametrize("cfg,seed,online", SCENES)
def test_solvers_reach_the_lp_optimum(cfg, seed, online):
    model = CostModel()
    frames = gapped_scene(cfg, seed)
    n_dets = sum(len(dets) for dets in frames.values())
    assert 300 <= n_dets <= 2000
    assert any(not dets for dets in frames.values())
    assert len(frames) < cfg.n_frames - 10
    want = optimum(frames, model)
    graph = build_batch_graph(frames, model)
    for solve in (solve_ssp, solve_dssp):
        got = solve(graph)[0].total_cost
        assert same_objective(got, want), (solve.__name__, got, want, REL_TOL)
    if online:
        tracker = OnlineTracker(TrackerConfig(model=model))
        for f in sorted(frames):
            last = tracker.process_frame(frames[f], frame=f)
        assert same_objective(last.total_cost, want), (last.total_cost, want)


@pytest.mark.parametrize("cfg,seed", [scene[:2] for scene in SCENES])
def test_solution_flow_is_the_trajectories_flow(cfg, seed):
    """A batch solution's flow is the flow its trajectories carry, edge
    for edge: the solver pushed exactly what it decoded."""
    graph = build_batch_graph(gapped_scene(cfg, seed), CostModel())
    for solve in (solve_ssp, solve_dssp, solve_dp_greedy):
        solution = solve(graph)[0]
        assert solution.trajectories
        assert np.array_equal(solution.flow, trajectory_flow(
            graph, solution.trajectories)), solve.__name__
