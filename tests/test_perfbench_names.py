"""The flowtrack names the benchmark under perfbench/ hooks and reads.

perfbench wraps functions listed in tracing.LAYER_HOOKS and reads tracker
and graph attributes after each run; a name that moves fails only one of its
operations there. These checks name the missing attribute instead.
"""
import importlib
import os
import sys

import pytest

from conftest import det
from flowtrack import cli
from flowtrack.cost_model import CostModel
from flowtrack.graph import build_batch_graph
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.ssp import solve_ssp

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("owner,attr", [
    (owner, attr) for owner, attr, _ in tracing.LAYER_HOOKS])
def test_layer_hook_resolves_in_its_owner(owner, attr):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    if cls:
        target = getattr(target, cls)
    assert attr in vars(target), f"{owner} has no {attr}"


def test_tracker_and_graph_names_the_worker_reads():
    assert cli.OnlineTracker is OnlineTracker
    for window in (None, 2):
        tracker = OnlineTracker(TrackerConfig(model=CostModel(), window=window))
        tracker.process_frame([det(0, 0), det(0, 1)], frame=0)
        stats = tracker.stats
        for name in ("relaxations", "queue_pushes", "iterations",
                     "cache_hits", "cache_misses"):
            assert isinstance(getattr(stats, name), int), name
        assert tracker.frame_stats[-1].live_nodes == 6
        assert tracker.frame_stats[-1].live_edges == 6
        assert sum(len(v) for v in tracker.frozen.values()) == 0
        assert isinstance(tracker.final_tracks(), list)
    graph = build_batch_graph([det(0, 0), det(1, 0)], CostModel())
    assert (graph.n_live_nodes, graph.n_live_edges) == (6, 7)
    _, stats = solve_ssp(graph)
    for name in ("relaxations", "queue_pushes", "iterations"):
        assert isinstance(getattr(stats, name), int), name


@pytest.mark.parametrize("solver", ["ssp", "dssp", "dp"])
def test_a_traced_batch_track_records_one_solve_span(tmp_path, solver):
    # cli resolves the batch solver at call time, so the wrapper runs.
    detections = tmp_path / "det.csv"
    assert cli.main(["synth", "--frames", "6", "-o", str(detections)]) == 0
    rec = tracing.SpanRecorder()
    restore = tracing.install(rec)
    try:
        assert cli.main(["track", "-i", str(detections), "-o",
                         str(tmp_path / "tracks.csv"), "--solver",
                         solver]) == 0
    finally:
        restore()
    assert [rec.names[code] for code in rec.code].count("ssp.solve") == 1
