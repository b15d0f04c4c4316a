from dataclasses import replace

import numpy as np
import pytest

from conftest import StubModel, build_graph, det, make_random_instance
from flowtrack.cost_model import CostModel
from flowtrack.errors import DataError
from flowtrack.graph import FlowSolution, Trajectory, build_batch_graph
from flowtrack.online import (OnlineTracker, TrackerConfig, TrackRegistry,
                              assign_track_ids, trajectory_model_cost)
from flowtrack.ssp import solve_ssp
from flowtrack.synthetic import SyntheticConfig, generate_synthetic


def stream(tracker, frames, cold=False):
    """Feed frames in order; cold drops the DAG warm start before each one."""
    for f in sorted(frames):
        if cold:
            tracker.cache.clip()
        tracker.process_frame(frames[f], frame=f)
    return tracker


def gated_scene(seed):
    """~25-frame synthetic scene, gating on, with misses, false positives,
    births, deaths and a few frames emptied outright."""
    cfg = SyntheticConfig(n_frames=25, n_initial_tracks=4, miss_rate=0.15,
                          fp_rate=0.15, spawn_prob=0.15, death_prob=0.04)
    dets, _ = generate_synthetic(cfg, seed)
    rng = np.random.default_rng(seed)
    for f in rng.choice(sorted(dets), size=3, replace=False):
        dets[int(f)] = []
    return dets


class TestOptimalOnline:
    def test_canonical_streamed(self):
        links = {((0, 0), (1, 0)): 0.0, ((0, 1), (1, 1)): 0.0,
                 ((0, 0), (1, 1)): 1.0, ((0, 1), (1, 0)): 1.0}
        model = StubModel(links=links)
        tr = OnlineTracker(TrackerConfig(model=model, gating=False))
        tr.process_frame([det(0, 0), det(0, 1)], frame=0)
        solution = tr.process_frame([det(1, 0), det(1, 1)], frame=1)
        assert solution.total_cost == pytest.approx(-12.0)
        assert len(solution.trajectories) == 2

    def test_every_prefix_matches_batch(self):
        for seed in range(12):
            frames, model = make_random_instance(seed, frame_range=(4, 7),
                                                 dets_range=(1, 3))
            tr = OnlineTracker(TrackerConfig(model=model, gating=False))
            for f in sorted(frames):
                solution = tr.process_frame(frames[f], frame=f)
                prefix = {k: v for k, v in frames.items() if k <= f}
                batch, _ = solve_ssp(build_graph(prefix, model))
                assert solution.total_cost == pytest.approx(batch.total_cost,
                                                            abs=1e-9)
        model = CostModel()
        for seed in range(40):
            frames = gated_scene(seed)
            tr = OnlineTracker(TrackerConfig(model=model))
            for f in sorted(frames):
                solution = tr.process_frame(frames[f], frame=f)
                prefix = {k: v for k, v in frames.items() if k <= f}
                batch, _ = solve_ssp(build_batch_graph(prefix, model))
                assert solution.total_cost == pytest.approx(batch.total_cost,
                                                            abs=1e-9)

    def test_empty_frame_keeps_cost(self):
        model = StubModel(links={((0, 0), (1, 0)): 0.0})
        tr = OnlineTracker(TrackerConfig(model=model, gating=False))
        tr.process_frame([det(0, 0)], frame=0)
        before = tr.process_frame([det(1, 0)], frame=1).total_cost
        after = tr.process_frame([], frame=2).total_cost
        assert after == pytest.approx(before)

    def test_cold_dag_start_changes_stats_not_costs(self):
        for seed in range(8):
            frames, model = make_random_instance(seed, frame_range=(4, 6),
                                                 dets_range=(2, 3))
            warm = stream(OnlineTracker(
                TrackerConfig(model=model, gating=False)), frames)
            cold = stream(OnlineTracker(
                TrackerConfig(model=model, gating=False)), frames, cold=True)
            assert cold.solution.total_cost == pytest.approx(
                warm.solution.total_cost, abs=1e-9)
            # one hit or miss per frame; only the first frame starts cold
            assert (cold.stats.cache_hits, cold.stats.cache_misses) == (
                0, len(frames))
            assert (warm.stats.cache_hits, warm.stats.cache_misses) == (
                len(frames) - 1, 1)

    def test_out_of_order_frames_rejected(self):
        tr = OnlineTracker(TrackerConfig(model=CostModel()))
        tr.process_frame([det(0, 0)], frame=0)
        with pytest.raises(DataError):
            tr.process_frame([det(0, 0)], frame=0)
        with pytest.raises(DataError):
            tr.process_frame([det(5, 0)], frame=5)


class TestBoundedOnline:
    def test_window_below_two_rejected(self):
        # a one-frame window would have to clip the only frame it holds
        for window in (0, 1):
            with pytest.raises(DataError, match="window must be >= 2"):
                TrackerConfig(model=CostModel(), window=window)
        tr = OnlineTracker(TrackerConfig(model=CostModel(), window=2))
        for f in range(4):
            tr.process_frame([det(f, 0)], frame=f)
        assert tr.graph.n_frames == 2

    def test_rejected_frame_leaves_full_window_untouched(self):
        cfg = SyntheticConfig(n_frames=12, n_initial_tracks=3, miss_rate=0.0,
                              fp_rate=0.1, spawn_prob=0.0, death_prob=0.0)
        dets, _ = generate_synthetic(cfg, 4)
        window, nxt = 5, 8
        dup = replace(dets[nxt][0], box=(500.0, 500.0, 20.0, 40.0))
        rejected = (
            ("wrong index", dets[nxt + 1], nxt + 1),
            ("repeated index", dets[nxt - 1], nxt - 1),
            ("frame argument", dets[nxt], nxt + 1),
            ("mixed frames", dets[nxt] + dets[nxt + 1], None),
            ("duplicate local_index", dets[nxt] + [dup], nxt),
        )
        for what, bad, frame in rejected:
            ref = OnlineTracker(TrackerConfig(model=CostModel(), window=window))
            tr = OnlineTracker(TrackerConfig(model=CostModel(), window=window))
            stream(ref, {f: dets[f] for f in range(nxt)})
            stream(tr, {f: dets[f] for f in range(nxt)})
            assert tr.graph.n_frames == window
            before = (tr.graph.t_min, tr.graph.n_live_nodes)
            with pytest.raises(DataError):
                tr.process_frame(bad, frame=frame)
            assert (tr.graph.t_min, tr.graph.n_live_nodes) == before, what
            got = tr.process_frame(dets[nxt], frame=nxt)
            want = ref.process_frame(dets[nxt], frame=nxt)
            assert got.total_cost == want.total_cost, what
            assert ([(t.track_id, [d.key for d in t.detections])
                     for t in got.trajectories] ==
                    [(t.track_id, [d.key for d in t.detections])
                     for t in want.trajectories]), what

    def test_wide_window_identical_to_optimal(self):
        for seed in range(6):
            frames, model = make_random_instance(seed, frame_range=(4, 6),
                                                 dets_range=(1, 3))
            opt = OnlineTracker(TrackerConfig(model=model, gating=False))
            bnd = OnlineTracker(TrackerConfig(model=model, gating=False,
                                              window=50))
            for f in sorted(frames):
                so = opt.process_frame(frames[f], frame=f)
                sb = bnd.process_frame(frames[f], frame=f)
                assert sb.total_cost == pytest.approx(so.total_cost, abs=1e-9)
                ko = sorted(tuple(d.key for d in t.detections)
                            for t in so.trajectories)
                kb = sorted(tuple(d.key for d in t.detections)
                            for t in sb.trajectories)
                assert ko == kb

    def test_node_bound_holds(self):
        cfg = SyntheticConfig(n_frames=60, n_initial_tracks=4, miss_rate=0.1,
                              fp_rate=0.1, spawn_prob=0.1, death_prob=0.05)
        dets, _ = generate_synthetic(cfg, 3)
        tau = 5
        tr = OnlineTracker(TrackerConfig(model=CostModel(), window=tau))
        d_max = 0
        for f in sorted(dets):
            d_max = max(d_max, len(dets[f]))
            tr.process_frame(dets[f], frame=f)
            assert tr.graph.n_live_nodes <= 2 * tau * d_max + 2
            assert tr.graph.n_frames <= tau

    def test_track_id_stable_across_many_windows(self):
        # one straight, clean track alive for 40 frames with a 10-frame window
        cfg = SyntheticConfig(n_frames=40, n_initial_tracks=1, spawn_prob=0.0,
                              death_prob=0.0, motion_noise=0.1,
                              observation_noise=0.1, miss_rate=0.0,
                              fp_rate=0.0)
        dets, _ = generate_synthetic(cfg, 7)
        tr = OnlineTracker(TrackerConfig(model=CostModel(), window=10))
        ids_seen = set()
        for f in sorted(dets):
            solution = tr.process_frame(dets[f], frame=f)
            # the first frames may not yet carry a negative-cost path
            assert len(solution.trajectories) <= 1
            ids_seen.update(t.track_id for t in solution.trajectories)
        assert len(ids_seen) == 1
        tracks = tr.final_tracks()
        assert len(tracks) == 1
        assert [d.frame for d in tracks[0].detections] == list(range(40))

    def test_final_cost_matches_model_recomputation(self):
        cfg = SyntheticConfig(n_frames=25, n_initial_tracks=3, miss_rate=0.05,
                              fp_rate=0.05)
        dets, _ = generate_synthetic(cfg, 11)
        model = CostModel()
        tr = OnlineTracker(TrackerConfig(model=model, window=6))
        for f in sorted(dets):
            tr.process_frame(dets[f], frame=f)
        for t in tr.final_tracks():
            assert t.cost == pytest.approx(
                trajectory_model_cost(t.detections, model), abs=1e-12)

    def test_frozen_prefixes_cover_all_emitted_detections(self):
        cfg = SyntheticConfig(n_frames=30, n_initial_tracks=2, miss_rate=0.0,
                              fp_rate=0.0, spawn_prob=0.0, death_prob=0.0,
                              motion_noise=0.2, observation_noise=0.2)
        dets, _ = generate_synthetic(cfg, 5)
        tr = OnlineTracker(TrackerConfig(model=CostModel(), window=8))
        for f in sorted(dets):
            tr.process_frame(dets[f], frame=f)
        emitted = {d.key for t in tr.final_tracks() for d in t.detections}
        expected = {d.key for ds in dets.values() for d in ds}
        assert emitted == expected


class TestAssignTrackIds:
    def _traj(self, tid, dets):
        return Trajectory(tid, dets, 0.0)

    def test_identity_on_unchanged_solution(self):
        dets = [det(0, 0), det(1, 0)]
        prev = FlowSolution(trajectories=[self._traj(4, dets)])
        cur = FlowSolution(trajectories=[self._traj(0, list(dets))])
        reg = TrackRegistry(next_id=5)
        assign_track_ids(prev, cur, reg)
        assert cur.trajectories[0].track_id == 4

    def test_extension_keeps_id(self):
        prev = FlowSolution(trajectories=[self._traj(2, [det(0, 0)])])
        cur = FlowSolution(trajectories=[self._traj(0, [det(0, 0), det(1, 0)])])
        assign_track_ids(prev, cur, TrackRegistry(next_id=3))
        assert cur.trajectories[0].track_id == 2

    def test_majority_overlap_with_tie_to_lower_id(self):
        # current trajectory shares one detection with each previous track
        prev = FlowSolution(trajectories=[
            self._traj(7, [det(0, 0)]), self._traj(3, [det(1, 0)])])
        cur = FlowSolution(trajectories=[
            self._traj(0, [det(0, 0), det(1, 0), det(2, 0)])])
        assign_track_ids(prev, cur, TrackRegistry(next_id=8))
        assert cur.trajectories[0].track_id == 3

    def test_majority_beats_minority(self):
        prev = FlowSolution(trajectories=[
            self._traj(1, [det(0, 0), det(1, 0)]),
            self._traj(0, [det(2, 0)])])
        cur = FlowSolution(trajectories=[
            self._traj(0, [det(0, 0), det(1, 0), det(2, 0)])])
        assign_track_ids(prev, cur, TrackRegistry(next_id=2))
        assert cur.trajectories[0].track_id == 1

    def test_fresh_id_for_new_track(self):
        prev = FlowSolution()
        cur = FlowSolution(trajectories=[self._traj(0, [det(0, 0)])])
        reg = TrackRegistry(next_id=6)
        assign_track_ids(prev, cur, reg)
        assert cur.trajectories[0].track_id == 6
        assert reg.next_id == 7

    def test_origin_takes_priority(self):
        prev = FlowSolution(trajectories=[self._traj(9, [det(1, 0)])])
        cur = FlowSolution(trajectories=[self._traj(0, [det(1, 0), det(2, 0)])])
        assign_track_ids(prev, cur, TrackRegistry(next_id=10), origins={0: 4})
        assert cur.trajectories[0].track_id == 4

    def test_inherited_ids_injective(self):
        prev = FlowSolution(trajectories=[
            self._traj(5, [det(0, 0), det(1, 0)])])
        cur = FlowSolution(trajectories=[
            self._traj(0, [det(0, 0)]), self._traj(1, [det(1, 0), det(2, 0)])])
        assign_track_ids(prev, cur, TrackRegistry(next_id=6))
        ids = [t.track_id for t in cur.trajectories]
        assert len(set(ids)) == 2
        assert 5 in ids


class TestReuseStatistics:
    def test_dag_label_reuse_reduces_relaxations(self):
        cfg = SyntheticConfig(n_frames=40, n_initial_tracks=3, miss_rate=0.0,
                              fp_rate=0.0, spawn_prob=0.0, death_prob=0.0)
        dets, _ = generate_synthetic(cfg, 2)
        model = CostModel()
        warm = stream(OnlineTracker(TrackerConfig(model=model)), dets)
        cold = stream(OnlineTracker(TrackerConfig(model=model)), dets,
                      cold=True)
        assert warm.solution.total_cost == pytest.approx(
            cold.solution.total_cost, abs=1e-9)
        assert warm.stats.relaxations < cold.stats.relaxations
