"""The dynamic broadcast held to the broadcast it replaced, and the state a
residual keeps for it held to the same state built afresh.

reference.dynamic_broadcast is the broadcast before it kept a usable mask
with the residual: it reads the flow of every slot on every call. Every
broadcast of the dssp solves below runs it on copies of the labels and
counters first, and must then give the same bytes: every node's distance
and predecessor, the path with its price, and the counters. The kept state
(ResidualGraph.broadcast_index) is checked after every flip, and on
windowed trackers after every append and clip, which must drop it."""
from dataclasses import replace

import numpy as np
import pytest

import flowtrack.ssp as ssp
import reference
from conftest import build_graph
from flowtrack.cost_model import CostModel
from flowtrack.graph import build_batch_graph
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.ssp import PredecessorMap, ResidualGraph, SolverStats, solve_dssp
from flowtrack.synthetic import SyntheticConfig, generate_synthetic
from test_online import quarter_frames
from test_ssp import dyadic_frames, multi_push_states, synthetic_frames

CRITERION_6 = SyntheticConfig(n_frames=110, n_initial_tracks=4, miss_rate=0.1,
                              fp_rate=0.1, spawn_prob=0.05, death_prob=0.02)
CROSSING = SyntheticConfig(n_frames=30, n_initial_tracks=4, crossing=True,
                           miss_rate=0.1, fp_rate=0.2)


def copied(labels):
    out = PredecessorMap.__new__(PredecessorMap)
    out.dist, out.pred = labels.dist.copy(), labels.pred.copy()
    return out


@pytest.fixture
def against_reference(monkeypatch):
    """Check each broadcast that ssp's loop runs against the reference on
    the same residual; returns the list of broadcasts checked, each as the
    number of seeds it was given."""
    checked, broadcast = [], ssp.dynamic_broadcast

    def both(res, seeds, labels, stats=None):
        stats = SolverStats() if stats is None else stats
        want, want_stats = copied(labels), replace(stats)
        want_path, _ = reference.dynamic_broadcast(res, seeds, want,
                                                   want_stats)
        path, got = broadcast(res, seeds, labels, stats)
        assert got.dist.tobytes() == want.dist.tobytes()
        assert got.pred.tobytes() == want.pred.tobytes()
        assert (path is None) == (want_path is None)
        if path is not None:
            assert ((path.nodes, path.eids, path.cost)
                    == (want_path.nodes, want_path.eids, want_path.cost))
        assert stats == want_stats
        checked.append(len(seeds))
        return path, got

    monkeypatch.setattr(ssp, "dynamic_broadcast", both)
    return checked


def test_criterion_6_scenes_match_the_reference(against_reference):
    for seed in range(10):
        dets, _ = generate_synthetic(CRITERION_6, seed)
        solve_dssp(build_batch_graph(dets, CostModel()))
    assert len(against_reference) > 50


def test_crossing_scene_matches_the_reference(against_reference):
    dets, _ = generate_synthetic(CROSSING, 1)
    solve_dssp(build_batch_graph(dets, CostModel()))
    assert len(against_reference) >= 4


def test_tie_families_match_the_reference(against_reference):
    # quarter-step costs: tracks split, merge and tie, so equal labels and
    # equal start labels are common
    for seed in range(40):
        frames, model = quarter_frames(seed)
        solve_dssp(build_graph(frames, model))
    assert len(against_reference) > 100


def check_kept(res):
    """The broadcasts' index res keeps, if it keeps one, against one built
    afresh from its slot table and flow. Returns whether it keeps one."""
    kept = res._index
    if kept is None:
        return False
    res._index = None
    try:
        fresh = res.broadcast_index()
    finally:
        res._index = kept
    t, live = res.arcs(), np.flatnonzero(res.graph.e_alive)
    assert np.array_equal(kept.usable, fresh.usable)
    assert np.array_equal(kept.usable, res.flow[t.eid] == t.rev)
    assert np.array_equal(kept.slot[:, live], fresh.slot[:, live])
    assert np.array_equal(t.eid[kept.slot[:, live]], np.stack((live, live)))
    assert np.array_equal(t.rev[kept.slot[:, live]],
                          np.stack((np.zeros_like(live, dtype=bool),
                                    np.ones_like(live, dtype=bool))))
    return True


@pytest.fixture
def checked_flips(monkeypatch):
    """check_kept after every flip; returns the count of flips that found
    an index kept."""
    flips, flip = [0], ResidualGraph.flip

    def checked(res, eids):
        flip(res, eids)
        flips[0] += check_kept(res)

    monkeypatch.setattr(ResidualGraph, "flip", checked)
    return flips


def test_kept_index_after_every_flip_of_dssp_solves(checked_flips):
    for seed in range(3):
        dets, _ = generate_synthetic(CRITERION_6, seed)
        solve_dssp(build_batch_graph(dets, CostModel()))
    solve_dssp(build_batch_graph(generate_synthetic(CROSSING, 1)[0],
                                 CostModel()))
    for seed in range(10):
        solve_dssp(build_graph(*quarter_frames(seed)))
    for seed in range(4):
        for _ in multi_push_states(seed):
            pass
    assert checked_flips[0] > 100


@pytest.mark.parametrize("stream", ["windowed", "gapped-windowed",
                                    "tied-windowed"])
def test_kept_index_through_windowed_trackers(monkeypatch, checked_flips,
                                              stream):
    # Trackers never broadcast, so they build no index. Here one is built
    # after every append and clip, which must each drop the one before: the
    # frame's flips must then keep it, and the next append or clip drop it.
    frames, model, window = {
        "windowed": lambda: (*synthetic_frames(), 4),
        "gapped-windowed": lambda: (*dyadic_frames(6, n_frames=16,
                                                   skip=True), 3),
        "tied-windowed": lambda: (*quarter_frames(3), 5),
    }[stream]()
    changed = [0]

    def rebuilt(method):
        def run(res, *args, **kwargs):
            out = method(res, *args, **kwargs)
            assert res._index is None
            res.broadcast_index()
            changed[0] += check_kept(res)
            return out
        return run

    for name in ("append_frame", "clip_oldest_frame"):
        monkeypatch.setattr(ResidualGraph, name,
                            rebuilt(getattr(ResidualGraph, name)))
    tracker = OnlineTracker(TrackerConfig(model=model, window=window))
    for f in sorted(frames):
        tracker.process_frame(frames[f], frame=f)
    assert changed[0] > len(frames) and checked_flips[0] > 5
