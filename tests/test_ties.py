"""Exactness under ties: every exact solver against the LP oracle on small
scenes whose costs are multiples of 1/4, so equal-cost paths and optima are
common and all sums are exact.

The scenes are gated (lp_optimum gates at the CLI's default radius, and so
do the solvers), hold empty frames, and skip frame indices. Which of several
equal optima a solver returns depends on how its shortest-path search breaks
ties; the batch solvers are compared by objective only. The online trackers
(odssp, and mbodssp with a window spanning the scene) must also return the
same trajectories on every frame.
"""
import os
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import StubModel, det
from flowtrack.graph import build_batch_graph
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.ssp import solve_dssp, solve_ssp

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from check import Scene, lp_optimum, same_objective  # noqa: E402

QUARTERS = st.integers(-12, 6).map(lambda k: k / 4)


@st.composite
def tied_scenes(draw):
    """(frames, model): up to 5 frames of 0-3 detections starting at frame
    0-2, with gaps of up to 2 skipped indices; boxes sit on a 20-pixel grid,
    so the gate (about 28 pixels here) admits neighbours only."""
    frames, frame = {}, draw(st.integers(0, 2))
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 3))
        xs = draw(st.lists(st.sampled_from([0.0, 20.0, 40.0, 60.0]),
                           min_size=n, max_size=n))
        frames[frame] = [det(frame, i, x=x) for i, x in enumerate(xs)]
        frame += draw(st.sampled_from([1, 1, 1, 2, 3]))
    dets = [d for ds in frames.values() for d in ds]
    cost = {}
    for table, values in (("entry", st.integers(1, 6).map(lambda k: k / 4)),
                          ("exit_", st.integers(1, 6).map(lambda k: k / 4)),
                          ("detection", QUARTERS)):
        cost[table] = {d.key: draw(values) for d in dets}
    links = {}
    for f, ds in frames.items():
        for a in ds:
            for b in frames.get(f + 1, []):
                if draw(st.booleans()):
                    links[(a.key, b.key)] = draw(QUARTERS)
    return frames, StubModel(links=links, **cost)


def optimum(frames, model):
    return lp_optimum(Scene([d for f in sorted(frames) for d in frames[f]]),
                      model)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(tied_scenes())
def test_tied_objectives_match_lp(scene):
    frames, model = scene
    want = optimum(frames, model)
    for solve in (solve_ssp, solve_dssp):
        got = solve(build_batch_graph(frames, model))[0].total_cost
        assert same_objective(got, want), (solve.__name__, got, want)
    span = max(frames) - min(frames) + 1
    trackers = {"odssp": OnlineTracker(TrackerConfig(model=model)),
                "mbodssp": OnlineTracker(TrackerConfig(model=model,
                                                       window=max(span, 2)))}
    for f in sorted(frames):
        want = optimum({k: v for k, v in frames.items() if k <= f}, model)
        tracks = {}
        for name, tracker in trackers.items():
            solution = tracker.process_frame(frames[f], frame=f)
            assert same_objective(solution.total_cost, want), (
                name, f, solution.total_cost, want)
            tracks[name] = sorted(tuple(d.key for d in t.detections)
                                  for t in solution.trajectories)
        assert tracks["odssp"] == tracks["mbodssp"], f
