import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import StubModel, build_graph, det, make_random_instance
import flowtrack
from flowtrack.cost_model import CostModel, Detection
import flowtrack.ssp as ssp
from flowtrack.errors import DataError, InvariantBreach
from flowtrack.graph import EDGE_COLUMNS, ENTRY, EXIT, NODE_COLUMNS
from flowtrack.graph import (FlowSolution, TrackingGraph, Trajectory,
                            build_batch_graph)
from flowtrack.online import (OnlineTracker, TrackerConfig, TrackRegistry,
                              assign_track_ids, trajectory_model_cost)
from flowtrack.ssp import (SolverStats, _solution_from_residual,
                           build_residual, dijkstra_full, path_original_cost,
                           solve_dssp, solve_ssp)
from flowtrack.synthetic import SyntheticConfig, generate_synthetic
from reference import decode_trajectories, reduced
from test_ssp import dyadic_frames
from test_stream_emit import SCENES as STREAM_SCENES


def stream(tracker, frames):
    """Feed frames in order."""
    for f in sorted(frames):
        tracker.process_frame(frames[f], frame=f)
    return tracker


def track_keys(trajectories):
    return sorted(tuple(d.key for d in t.detections) for t in trajectories)


def stream_against_cold(tracker, frames):
    """Feed frames in order; after each one, check the warm solution against
    forced cold solves: batch SSP and dSSP from zero flow over the tracker's
    graph, whose slots a window leaves dead or recycled and whose entries it
    folds. Returns the cold SSP solves' total augmentations."""
    cold_iterations = 0
    for f in sorted(frames):
        warm = tracker.process_frame(frames[f], frame=f)
        cold, stats = solve_ssp(tracker.graph)
        dynamic, _ = solve_dssp(tracker.graph)
        for solution in (cold, dynamic):
            assert warm.total_cost == pytest.approx(solution.total_cost,
                                                    abs=1e-9), f
            assert (track_keys(warm.trajectories)
                    == track_keys(solution.trajectories)), f
        cold_iterations += stats.iterations
    return cold_iterations


def single_push_solve(tracker, frame):
    """Reference for OnlineTracker._solve: one push per compiled search.
    Each search's shortest path or cycle is pushed unless it costs >= 0, and
    the potentials settle with the target's distance as the cap."""
    res, run, stats = tracker.cache.residual, SolverStats(), tracker.stats
    if tracker.cache.lookup() is None:
        run.cache_misses = 1
    else:
        run.cache_hits = 1
    guard = 2 * tracker.graph.n_detections + 2
    while tracker.graph.n_detections:
        path, labels = dijkstra_full(res, run)
        if path is None:
            break
        res.settle(labels.dist, labels.dist[res.target])
        if path_original_cost(res, path) >= 0.0:
            break
        if run.iterations >= guard:
            raise InvariantBreach("online SSP exceeded its iteration bound")
        build_residual(res, path)
        run.iterations += 1
    tracker.cache.frame = frame
    stats.relaxations += run.relaxations
    stats.queue_pushes += run.queue_pushes
    stats.iterations += run.iterations
    stats.searches += run.searches
    stats.cache_hits += run.cache_hits
    stats.cache_misses += run.cache_misses
    return _solution_from_residual(res), run


class SinglePushTracker(OnlineTracker):
    _solve = single_push_solve


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

    def test_warm_solve_matches_cold_solve(self):
        for seed in range(8):
            frames, model = make_random_instance(seed, frame_range=(4, 6),
                                                 dets_range=(2, 3))
            tr = OnlineTracker(TrackerConfig(model=model, gating=False))
            stream_against_cold(tr, frames)
            # one hit or miss per frame; only the first frame starts cold
            assert (tr.stats.cache_hits, tr.stats.cache_misses) == (
                len(frames) - 1, 1)
            assert tr.stats.iterations == sum(
                fs.iterations for fs in tr.frame_stats)

    def test_solve_stays_warm_across_a_gap(self):
        cfg = SyntheticConfig(n_frames=16, n_initial_tracks=3, miss_rate=0.1,
                              fp_rate=0.2)
        dets, _ = generate_synthetic(cfg, 2)
        frames = {f: ds for f, ds in dets.items()
                  if ds and f not in (4, 5, 9, 10, 11)}
        tr = OnlineTracker(TrackerConfig(model=CostModel()))
        cold_iterations = stream_against_cold(tr, frames)
        # the optimum of the frame before a gap is where the next solve starts
        assert (tr.stats.cache_hits, tr.stats.cache_misses) == (
            len(frames) - 1, 1)
        assert tr.stats.iterations < cold_iterations

    def test_equal_continuations_do_not_swap_forever(self):
        # two identical detections continue one track at equal cost: the
        # cycle swapping them costs 0 exactly, though a left-to-right float
        # sum of its costs reads -2.8e-17
        model = CostModel(entry_cost=0.1, exit_cost=0.1)
        tr = OnlineTracker(TrackerConfig(model=model))
        box = (0.0, 0.0, 1.0, 1.0)
        tr.process_frame([Detection(0, box, 0.0, 0)], frame=0)
        solution = tr.process_frame([Detection(1, box, 0.0, i)
                                     for i in range(2)], frame=1)
        assert [len(t.detections) for t in solution.trajectories] == [2]
        assert tr.frame_stats[-1].iterations == 1

    def test_out_of_order_frames_rejected(self):
        tr = OnlineTracker(TrackerConfig(model=CostModel()))
        tr.process_frame([det(0, 0)], frame=0)
        with pytest.raises(DataError):
            tr.process_frame([det(0, 0)], frame=0)
        tr.process_frame([det(5, 0)], frame=5)  # a gap is accepted
        for f in (5, 3):
            with pytest.raises(DataError, match="strictly in order"):
                tr.process_frame([det(f, 0)], frame=f)
        assert list(tr.graph.frames) == [0, 5]

    def test_arrays_grow_in_place(self):
        # odssp never clips, so every append grows the columns: each array
        # is an exact-length view over a buffer that doubles, so the
        # buffers an array goes through stay logarithmic in its length
        cfg = SyntheticConfig(n_frames=300, n_initial_tracks=3,
                              spawn_prob=0.0, death_prob=0.0, miss_rate=0.1,
                              fp_rate=0.1)
        frames = generate_synthetic(cfg, 5)[0]
        tr = OnlineTracker(TrackerConfig(model=CostModel()))
        g, res = tr.graph, tr.cache.residual
        seen = {}  # array name -> the distinct buffers it went through
        for f in range(300):
            tr.process_frame(frames.get(f, []), frame=f)
            n_nodes = 2 + 2 * g.n_detections  # every slot is live
            n_edges = 3 * g.n_detections + sum(map(len, g.frame_links.values()))
            arrays = {name: (getattr(g, name), n_nodes)
                      for name in NODE_COLUMNS}
            arrays.update((name, (getattr(g, name), n_edges))
                          for name in EDGE_COLUMNS)
            arrays.update(flow=(res.flow, n_edges),
                          potential=(res.potential, n_nodes + 1))
            for name, (a, size) in arrays.items():
                assert a.shape == (size,), (name, f)
                buf = a if a.base is None else a.base
                buffers = seen.setdefault(name, [])
                if not any(buf is b for b in buffers):
                    buffers.append(buf)
        assert n_edges > 1000
        for name, (a, size) in arrays.items():
            assert len(seen[name]) <= math.log2(size) + 2, name


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

    def test_every_frame_matches_cold_solve(self):
        # windows of 2-4 over scenes with births, deaths and gaps longer than
        # the window, which empty the graph; clipped ids are recycled
        model = CostModel()
        for seed in range(12):
            frames = {f: ds for f, ds in gated_scene(seed).items()
                      if not (8 <= f < 13 or 17 <= f < 22)}
            for window in (2, 3, 4):
                tr = OnlineTracker(TrackerConfig(model=model, window=window))
                stream_against_cold(tr, frames)
                g = tr.graph
                appended = sum(len(ds) for ds in frames.values())
                assert len(g.node_kind) < 2 + 2 * appended
                # a cold start on the first frame and after each emptying
                assert tr.stats.cache_misses == 3, (seed, window)

    def test_rejected_frame_leaves_full_window_untouched(self):
        cfg = SyntheticConfig(n_frames=12, n_initial_tracks=3, miss_rate=0.0,
                              fp_rate=0.1, spawn_prob=0.0, death_prob=0.0)
        dets, _ = generate_synthetic(cfg, 4)
        window, nxt = 5, 8
        dup = replace(dets[nxt][0], box=(500.0, 500.0, 20.0, 40.0))
        rejected = (
            ("lower index", dets[nxt - 2], nxt - 2),
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

        # A cost rejected while the window is full: the clip that the frame
        # would cause must not happen either.
        class PoisonedLinks(StubModel):
            def link_cost_of(self, a, b):
                if b.box[0] == 300.0:
                    return math.nan
                return super().link_cost_of(a, b)

        model = PoisonedLinks(links={((f, 0), (f + 1, 0)): -1.0
                                     for f in range(4)})
        ref, tr = (OnlineTracker(TrackerConfig(model=model, window=3,
                                               gating=False))
                   for _ in range(2))
        stream(ref, {f: [det(f, 0)] for f in range(3)})
        stream(tr, {f: [det(f, 0)] for f in range(3)})
        before = (tr.graph.t_min, tr.graph.n_live_nodes, dict(tr.frozen))
        with pytest.raises(DataError, match="link cost"):
            tr.process_frame([det(3, 0, x=300.0)], frame=3)
        assert (tr.graph.t_min, tr.graph.n_live_nodes, tr.frozen) == before
        assert before[:2] == (0, 8) and not before[2]
        got = tr.process_frame([det(3, 0)], frame=3)
        want = ref.process_frame([det(3, 0)], frame=3)
        assert got.total_cost == want.total_cost
        assert ([(t.track_id, [d.key for d in t.detections])
                 for t in got.trajectories] ==
                [(t.track_id, [d.key for d in t.detections])
                 for t in want.trajectories])
        assert tr.frozen == ref.frozen

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

    def test_slots_grow_only_to_the_live_peak(self):
        # clips recycle every freed slot before new ones are added, and new
        # ones come at exact size: the allocated node and edge slots are the
        # running peak of the live counts, frame by frame
        stationary = SyntheticConfig(n_frames=500, n_initial_tracks=5,
                                     spawn_prob=0.0, death_prob=0.0,
                                     miss_rate=0.1, fp_rate=0.1)
        gapped = {f: ds for f, ds in gated_scene(2).items()
                  if not 8 <= f < 13}
        for frames in (generate_synthetic(stationary, 0)[0], gapped):
            for window in (2, 10):
                tr = OnlineTracker(TrackerConfig(model=CostModel(),
                                                 window=window))
                peak_nodes = peak_edges = 0
                for f in sorted(frames):
                    tr.process_frame(frames[f], frame=f)
                    g = tr.graph
                    peak_nodes = max(peak_nodes, g.n_live_nodes)
                    peak_edges = max(peak_edges, g.n_live_edges)
                    assert len(g.node_kind) == peak_nodes, (window, f)
                    assert len(g.e_src) == peak_edges, (window, f)

    def test_live_edge_count_follows_the_columns(self):
        # the live edge count is kept from the slots clips free and appends
        # take; it must match the e_alive column after every frame
        for frames in (generate_synthetic(
                SyntheticConfig(n_frames=60, n_initial_tracks=4, miss_rate=0.2,
                                fp_rate=0.3), 4)[0], gated_scene(2)):
            for window in (2, 5):
                tr = OnlineTracker(TrackerConfig(model=CostModel(),
                                                 window=window))
                for f in sorted(frames):
                    tr.process_frame(frames[f], frame=f)
                    g = tr.graph
                    assert g.n_live_edges == np.count_nonzero(g.e_alive), f

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
        # Here a chain's fold carries the prefix of the lineage its entry's
        # origin names, not the frozen prefix of the id it holds, so the
        # folds cannot price the final tracks.
        frames, model = make_random_instance(111, frame_range=(8, 16),
                                             dets_range=(2, 5))
        tr = stream(OnlineTracker(TrackerConfig(model=model, window=3,
                                                gating=False)), frames)
        tracks = tr.final_tracks()
        for t in tracks:
            assert t.cost == pytest.approx(
                trajectory_model_cost(t.detections, model), abs=1e-12)
        final = {(t.track_id, t.detections[-1].key): t.cost for t in tracks}
        assert any(final[t.track_id, t.detections[-1].key] != t.cost
                   for t in tr.solution.trajectories)

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

    def test_a_prefix_that_does_not_reach_its_track_stays_apart(self):
        # A frozen prefix joins the current track that holds its id only if
        # it ends on the frame before that track's first; else each is a
        # track of its own, priced on its own detections.
        model = CostModel()
        tr = OnlineTracker(TrackerConfig(model=model, window=3))
        head = [det(0, 0), det(1, 0)]
        tail = [det(3, 0), det(4, 0)]
        tr.frozen = {4: head}
        tr.solution = FlowSolution([Trajectory(4, tail, 0.0)])
        tracks = tr.final_tracks()
        assert [(t.track_id, t.detections, t.cost) for t in tracks] == [
            (4, head, trajectory_model_cost(head, model)),
            (4, tail, trajectory_model_cost(tail, model))]
        assert tracks[0].detections is not head

    def test_check_bounds_names_each_breach(self):
        frames = {f: [det(f, i) for i in range(3)] for f in range(4)}
        tr = stream(OnlineTracker(TrackerConfig(model=CostModel(), window=3)),
                    frames)
        tr._check_bounds()
        tr.config = replace(tr.config, window=2)
        with pytest.raises(InvariantBreach,
                           match="^graph exceeds the frame window$"):
            tr._check_bounds()
        tr.config = replace(tr.config, window=3)
        tr.max_dets_per_frame = 1
        with pytest.raises(InvariantBreach,
                           match="^live nodes 20 exceed the bound 8$"):
            tr._check_bounds()


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
    def test_warm_solve_needs_fewer_augmentations(self):
        # a cold solve pushes one path per track of the prefix, and misses
        # break tracks; a warm one extends the live tracks and starts the new
        cfg = SyntheticConfig(n_frames=40, n_initial_tracks=3, miss_rate=0.1,
                              fp_rate=0.1, spawn_prob=0.0, death_prob=0.0)
        dets, _ = generate_synthetic(cfg, 2)
        tr = OnlineTracker(TrackerConfig(model=CostModel()))
        cold_iterations = stream_against_cold(tr, dets)
        assert 3 * tr.stats.iterations < 2 * cold_iterations

    def test_augmentations_per_frame_stay_flat(self):
        # the stationary criteria 4-5 scene: the graph keeps growing, the
        # paths and cycles pushed per frame do not
        cfg = SyntheticConfig(n_frames=150, n_initial_tracks=5,
                              spawn_prob=0.0, death_prob=0.0, miss_rate=0.1,
                              fp_rate=0.1)
        dets, _ = generate_synthetic(cfg, 0)
        tr = stream(OnlineTracker(TrackerConfig(model=CostModel())), dets)
        iterations = [fs.iterations for fs in tr.frame_stats]
        assert np.mean(iterations[100:150]) <= 1.5 * np.mean(iterations[20:60])
        relaxations = [fs.relaxations for fs in tr.frame_stats]
        assert np.mean(relaxations[-40:]) > 2 * np.mean(relaxations[20:60])

    def test_frame_records_sum_to_the_totals(self):
        # each frame's record is its solve's own SolverStats: the records'
        # counters sum to the tracker's totals, and each counts one cache hit
        # or one miss, a miss where the solve starts from zero flow: on the
        # first frame and, with a window, after each gap that empties the
        # graph
        counters = ("relaxations", "queue_pushes", "iterations", "searches",
                    "cache_hits", "cache_misses")

        class Tracker(OnlineTracker):
            def _solve(self, frame):
                self.zero_flow.append(
                    not self.cache.residual.flow[self.graph.e_alive].any())
                return super()._solve(frame)

        for seed in range(4):
            frames = {f: ds for f, ds in gated_scene(seed).items()
                      if not (8 <= f < 13 or 17 <= f < 22)}
            order = sorted(frames)
            for window in (None, 2):
                tr = Tracker(TrackerConfig(model=CostModel(), window=window))
                tr.zero_flow = []
                stream(tr, frames)
                records = tr.frame_stats
                assert [fs.frame for fs in records] == order
                for name in counters:
                    assert (sum(getattr(fs, name) for fs in records)
                            == getattr(tr.stats, name)), (seed, window, name)
                cold = [f == order[0] or (window is not None
                                          and f - prev >= window)
                        for prev, f in zip([None, *order], order)]
                assert [fs.cache_misses for fs in records] == cold
                assert all(fs.cache_hits + fs.cache_misses == 1
                           for fs in records)
                assert all(z for z, miss in zip(tr.zero_flow, cold) if miss)
                assert sum(cold) == (1 if window is None else 3)


class TestSeveralPushesPerSearch:
    def test_matches_single_push_reference(self):
        # odssp and mbodssp with windows of 2-4 over scenes with births,
        # deaths, misses, recycled ids and gaps that empty the graph
        model = CostModel()
        searches = reference_searches = 0
        for seed in range(12):
            frames = {f: ds for f, ds in gated_scene(seed).items()
                      if not (8 <= f < 13 or 17 <= f < 22)}
            for window in (None, 2, 3, 4):
                config = TrackerConfig(model=model, window=window)
                tr, ref = OnlineTracker(config), SinglePushTracker(config)
                for f in sorted(frames):
                    got = tr.process_frame(frames[f], frame=f)
                    want = ref.process_frame(frames[f], frame=f)
                    assert got.total_cost == pytest.approx(want.total_cost,
                                                           abs=1e-9)
                    assert (track_keys(got.trajectories) ==
                            track_keys(want.trajectories)), (seed, window, f)
                    assert (tr.frame_stats[-1].iterations ==
                            ref.frame_stats[-1].iterations), (seed, window, f)
                assert tr.stats.searches <= ref.stats.searches
                assert tr.stats.searches == sum(
                    fs.searches for fs in tr.frame_stats)
                searches += tr.stats.searches
                reference_searches += ref.stats.searches
        assert searches < reference_searches

    def test_one_search_per_frame_on_stationary_scene(self):
        # the criteria 4-5 scene: each frame continues about five tracks,
        # which the first search of the frame already holds
        cfg = SyntheticConfig(n_frames=150, n_initial_tracks=5,
                              spawn_prob=0.0, death_prob=0.0, miss_rate=0.1,
                              fp_rate=0.1)
        dets, _ = generate_synthetic(cfg, 0)
        for window in (None, 10):
            tr = stream(OnlineTracker(TrackerConfig(model=CostModel(),
                                                    window=window)), dets)
            late = tr.frame_stats[20:150]
            assert np.mean([fs.searches for fs in late]) <= 1.5, window
            assert np.mean([fs.iterations for fs in late]) > 2.5, window

    def test_freed_exit_ranks_before_later_candidates(self, monkeypatch):
        # Track (0, 0) continues into (1, 0) by a cycle from the sink root,
        # which frees the exit of (0, 0); a path through that exit is at
        # least dist(v) + reduced cost long, so the lone (1, 1), which ranks
        # after it, is not pushed from the same search even if its cost reads
        # negative, as rounding could make it: the potentials stay valid.
        model = StubModel(links={((0, 0), (1, 0)): 0.0},
                          detection={(0, 0): -5.0, (1, 0): -5.0, (1, 1): 1.0})
        monkeypatch.setattr(ssp, "path_original_cost", lambda res, p: -1.0)
        tr = OnlineTracker(TrackerConfig(model=model, gating=False))
        tr.process_frame([det(0, 0)], frame=0)
        solution = tr.process_frame([det(1, 0), det(1, 1)], frame=1)
        assert track_keys(solution.trajectories) == [((0, 0), (1, 0))]
        assert tr.frame_stats[-1].iterations == 1
        res = tr.cache.residual
        assert reduced(res)[res.graph.e_alive].min() >= -res.eps


def reference_frame(tracker, previous, registry):
    """The tracker's last solution as the full decode of its flow and the
    id rule over the whole previous and current solution give it. previous
    is the reference's solution of the frame before, registry its id
    source. Returns the solution and the events the frame exercised:
    origins passed to the rule, and trajectories whose top overlap with a
    previous one ties."""
    g, res = tracker.graph, tracker.cache.residual
    kept = [Trajectory(t.track_id, dets, t.cost)
            for t in previous.trajectories
            if (dets := [d for d in t.detections if d.frame >= g.t_min])]
    trajectories = decode_trajectories(res)
    current = FlowSolution(trajectories=trajectories,
                           total_cost=sum(t.cost for t in trajectories))
    entries = g.node_in[[g.u_node(t.detections[0]) for t in trajectories]]
    origins = {i: o for i, o in enumerate(g.e_origin[entries].tolist())
               if o >= 0}
    prev_id = {d.key: t.track_id for t in kept for d in t.detections}
    ties = 0
    for t in trajectories:
        counts = {}
        for d in t.detections:
            if (p := prev_id.get(d.key)) is not None:
                counts[p] = counts.get(p, 0) + 1
        top = sorted(counts.values(), reverse=True)
        ties += len(top) > 1 and top[0] == top[1]
    assign_track_ids(FlowSolution(trajectories=kept), current, registry,
                     origins)
    return current, len(origins), ties


def solution_record(solution):
    return ([(t.track_id, [d.key for d in t.detections], float.hex(t.cost))
             for t in solution.trajectories],
            float.hex(float(solution.total_cost)))


def criteria_scene(n_frames=500):
    cfg = SyntheticConfig(n_frames=n_frames, n_initial_tracks=5,
                          spawn_prob=0.0, death_prob=0.0, miss_rate=0.1,
                          fp_rate=0.1)
    return generate_synthetic(cfg, 0)[0]


def quarter_frames(seed, n_frames=40, max_dets=8):
    """(frames, model) with cheap entries and exits and link costs on a
    quarter step in [-2, 2], so tracks are short, split and merge often and
    sometimes tie. Up to max_dets detections per frame; some frames are
    empty and some frame indices jump by 2-3."""
    rng = np.random.default_rng(seed)
    frames, f = {}, 0
    for _ in range(n_frames):
        n = 0 if rng.random() < 0.15 else int(rng.integers(1, max_dets + 1))
        frames[f] = [det(f, i, x=float(rng.uniform(0, 500))) for i in range(n)]
        f += 1 if rng.random() < 0.8 else int(rng.integers(2, 4))
    quarter = lambda lo, hi: float(rng.integers(4 * lo, 4 * hi + 1)) / 4.0
    dets = [d for ds in frames.values() for d in ds]
    model = StubModel(
        entry={d.key: quarter(0, 1) for d in dets},
        exit_={d.key: quarter(0, 1) for d in dets},
        detection={d.key: quarter(-2, 0) for d in dets},
        links={(a.key, b.key): quarter(-2, 2) for a in dets for b in dets
               if b.frame == a.frame + 1})
    return frames, model


def invariant_instances():
    """The windowed streams TestKeptDecode runs: tied and gapped dyadic
    ones, random ones and quarter-step ones."""
    for seed in range(12):
        yield dyadic_frames(seed, n_frames=24, max_dets=6, skip=seed % 2 == 1)
        yield make_random_instance(100 + seed, frame_range=(8, 16),
                                   dets_range=(2, 5))
        yield quarter_frames(seed, n_frames=24)


def check_out_edges(tracker):
    """The decoder's out-edge map holds exactly the decoded u nodes, each
    mapped to the live, flowed edge out of its v node."""
    g, res = tracker.graph, tracker.cache.residual
    dec = res.decoded
    held = [x for c in dec.chains for x in c.nodes]
    assert sorted(dec.out) == sorted(held)
    eids = np.array([dec.out[x] for x in held], dtype=np.int64)
    assert g.e_alive[eids].all() and (res.flow[eids] == 1).all()
    assert (g.e_src[eids] == g.e_dst[g.node_out[held]]).all()


class TestKeptDecode:
    """The decode and ids the tracker keeps from frame to frame, against the
    full walk of the flow and the id rule over the whole solutions, frame by
    frame: detection keys, costs and total to the bit, and ids."""

    def compare(self, frames, window, model=CostModel(), gating=True):
        tracker = OnlineTracker(TrackerConfig(model=model, window=window,
                                              gating=gating))
        previous, registry = FlowSolution(), TrackRegistry()
        origins = ties = 0
        for f in sorted(frames):
            got = tracker.process_frame(frames[f], frame=f)
            want, n_origins, n_ties = reference_frame(tracker, previous,
                                                      registry)
            assert solution_record(got) == solution_record(want), (window, f)
            check_out_edges(tracker)
            assert tracker.registry.next_id == registry.next_id, (window, f)
            previous = want
            origins += n_origins
            ties += n_ties
        recycled = len(tracker.graph.node_kind) < 2 + 2 * sum(
            len(ds) for ds in frames.values())
        return origins, ties, recycled

    @pytest.mark.parametrize("window", [None, 2, 3, 10])
    def test_stream_scenes_match_full_decode(self, window):
        for cfg, seed, carved in STREAM_SCENES:
            self.compare({f: ds for f, ds in
                          generate_synthetic(cfg, seed)[0].items()
                          if f not in carved}, window)

    @pytest.mark.parametrize("window", [None, 2, 3, 5])
    def test_random_instances_match_full_decode(self, window):
        # Random link costs reroute the history: trajectories split and
        # merge, and some overlap two previous ones equally. A window folds
        # entries, whose origins the rule reads, and recycles the slots it
        # clips.
        events = []
        for seed in range(100, 175):
            frames, model = make_random_instance(seed, frame_range=(8, 16),
                                                 dets_range=(2, 5))
            events.append(self.compare(frames, window, model, gating=False))
        origins, ties, recycled = map(sum, zip(*events))
        assert ties > 0 or window == 2
        assert (origins > 0 and recycled == len(events)) == (window is not None)

    @pytest.mark.parametrize("window", [2, 3, 4, 5])
    def test_tied_and_gapped_instances_match_full_decode(self, window):
        # Dyadic costs tie paths and overlaps exactly, and are often
        # re-routed; gaps and empty frames clip several frames at once or
        # empty the window, so whole trajectories leave with their ids.
        events = []
        for seed in range(40):
            frames, model = dyadic_frames(seed, n_frames=24, max_dets=6,
                                          skip=seed % 2 == 1)
            events.append(self.compare(frames, window, model, gating=False))
        origins, ties, recycled = map(sum, zip(*events))
        assert origins > 0 and recycled == len(events)
        assert ties > 0 or window == 2

    @pytest.mark.parametrize("window", [None, 2, 3, 10])
    def test_criteria_scene_matches_full_decode(self, window):
        self.compare(criteria_scene(), window)

    @pytest.mark.parametrize("window", [2, 3, 4, 6])
    def test_quarter_step_instances_match_full_decode(self, window):
        # Cheap entries and exits and links of either sign start, end and
        # re-route many short tracks per frame, up to 8 detections wide;
        # empty frames and index jumps clip several frames at once.
        events = []
        for seed in range(60):
            frames, model = quarter_frames(seed)
            events.append(self.compare(frames, window, model, gating=False))
        origins, ties, recycled = map(sum, zip(*events))
        assert origins > 0 and recycled == len(events)
        assert ties > 0 or window == 2

    @pytest.mark.parametrize("window", [None, 2, 3, 6])
    def test_long_wide_quarter_step_instances_match_full_decode(self, window):
        # Past the other families' sizes: 80 frames of up to 12 detections,
        # so most chains go un-walked for many frames while a few re-route.
        events = []
        for seed in range(16):
            frames, model = quarter_frames(seed, n_frames=80, max_dets=12)
            events.append(self.compare(frames, window, model, gating=False))
        origins, ties, recycled = map(sum, zip(*events))
        assert (origins > 0 and recycled == len(events)) == (window is not None)
        assert ties > 0 or window == 2


class TestFlowInvariants:
    """Two invariants of the flow: the kept decode rests on the first
    (FlowDecoder); the second pins where clips leave origins."""

    def test_an_unflowed_entry_is_a_breach(self):
        # No push unflows an entry, so the decoder ends no chain; an entry
        # that lost its flow anyway is reported, not decoded around.
        frames, model = dyadic_frames(3, n_frames=8, max_dets=4)
        tracker = stream(OnlineTracker(TrackerConfig(
            model=model, window=3, gating=False)), frames)
        g, res = tracker.graph, tracker.cache.residual
        flowed = np.flatnonzero(g.e_alive & (g.e_kind == ENTRY)
                                & (res.flow == 1))
        assert len(flowed)
        res.flip(flowed[:1])
        with pytest.raises(InvariantBreach, match="unflowed the entry"):
            res.decode()

    def test_an_exit_unflowed_with_nothing_in_its_place_is_a_breach(self):
        # The out-edge map drops an exit that lost its flow, so the walk
        # finds no flowed edge out of that v node instead of the stale one.
        frames, model = dyadic_frames(3, n_frames=8, max_dets=4)
        tracker = stream(OnlineTracker(TrackerConfig(
            model=model, window=3, gating=False)), frames)
        g, res = tracker.graph, tracker.cache.residual
        flowed = np.flatnonzero(g.e_alive & (g.e_kind == EXIT)
                                & (res.flow == 1))
        assert len(flowed)
        res.flip(flowed[:1])
        with pytest.raises(InvariantBreach, match="no outflow"):
            res.decode()

    @pytest.mark.parametrize("window", [2, 3, 4, 5])
    def test_origins_sit_at_the_oldest_frame_and_were_moved(self, window):
        """Each live entry that carries an origin leads into the oldest
        frame, and each chain it starts was trimmed by this frame's clips.
        The id rule, which runs over every chain, no longer depends on
        this; it pins how clips fold entries."""
        seen = 0
        for frames, model in invariant_instances():
            tracker = OnlineTracker(TrackerConfig(model=model, window=window,
                                                  gating=False))
            assign, dec = tracker._assign_ids, tracker.cache.residual.decoded
            clip, moved = dec.clip, []

            def recorded(heads):
                moved.extend(c for c in heads if len(c.nodes) > 1)
                clip(heads)

            def checked():
                nonlocal seen
                carried = [c for c in dec.chains if c.origin >= 0]
                assert set(carried) <= set(moved)
                moved.clear()
                seen += len(carried)
                assign()

            dec.clip, tracker._assign_ids = recorded, checked
            g = tracker.graph
            for f in sorted(frames):
                tracker.process_frame(frames[f], frame=f)
                folded = g.e_alive & (g.e_kind == ENTRY) & (g.e_origin >= 0)
                if folded.any():
                    oldest = set(g.frame_nodes[g.t_min][0].tolist())
                    assert set(g.e_dst[folded].tolist()) <= oldest, f
        assert seen > 0


class TestWhatACallerMayKeep:
    """process_frame returns the tracker's live solution, which later frames
    change in place; final_tracks() returns trajectories of the caller's
    own, which later frames leave as they were."""

    @pytest.mark.parametrize("window", [None, 3])
    def test_final_tracks_stay_as_returned(self, window):
        def record(tracks):
            return [(t.track_id, [d.key for d in t.detections],
                     float.hex(t.cost)) for t in tracks]

        revised = 0
        for seed in range(100, 110):
            frames, model = make_random_instance(seed, frame_range=(8, 16),
                                                 dets_range=(2, 5))
            tracker = OnlineTracker(TrackerConfig(model=model, window=window,
                                                  gating=False))
            kept, ids = [], {}
            for f in sorted(frames):
                got = tracker.process_frame(frames[f], frame=f)
                assert got is tracker.solution
                now = {d.key: t.track_id for t in got.trajectories
                       for d in t.detections}
                revised += sum(ids.get(k, v) != v for k, v in now.items())
                ids = now
                tracks = tracker.final_tracks()
                kept.append((tracks, record(tracks)))
            for tracks, want in kept:
                assert record(tracks) == want, (window, seed)
        assert revised > 0  # some later frame re-routed a kept track


def test_detections_put_into_new_trajectories_stay_flat(monkeypatch):
    """Over 500 odssp frames of five tracks without misses, the detections
    a frame puts into newly built Trajectory objects do not grow with the
    tracks' length: the decode cuts and extends each chain's own."""
    built = []
    check = Trajectory.__post_init__

    def counted(self):
        built[-1] += len(self.detections)
        check(self)

    cfg = SyntheticConfig(n_frames=500, n_initial_tracks=5, spawn_prob=0.0,
                          death_prob=0.0, miss_rate=0.0, fp_rate=0.0)
    frames = generate_synthetic(cfg, 0)[0]
    tracker = OnlineTracker(TrackerConfig(model=CostModel()))
    monkeypatch.setattr(Trajectory, "__post_init__", counted)
    for f in sorted(frames):
        built.append(0)
        tracker.process_frame(frames[f], frame=f)
    assert np.mean(built[400:500]) <= 1.5 * np.mean(built[20:100]) + 1


def test_keys_read_per_frame_stay_flat(monkeypatch):
    """Over 500 odssp frames of the criteria 4-5 scene, the detection keys a
    frame reads (to decode, assign ids and price) do not grow with the
    history the graph holds."""
    reads = []
    key = Detection.key

    def counted(d):
        reads[-1] += 1
        return key.fget(d)

    frames = criteria_scene()
    tracker = OnlineTracker(TrackerConfig(model=CostModel()))
    monkeypatch.setattr(Detection, "key", property(counted))
    for f in sorted(frames):
        reads.append(0)
        tracker.process_frame(frames[f], frame=f)
    assert np.mean(reads[400:500]) <= 1.5 * np.mean(reads[20:100])


def test_positions_walked_per_frame_stay_flat(monkeypatch):
    """Over 500 odssp frames of the criteria 4-5 scene, the positions the
    decode walks per frame, past the prefixes of chains it keeps, do not
    grow with the history the graph holds."""
    walked = []
    walk = ssp.FlowDecoder._walk

    def counted(self, flow, changed, c, p, x):
        out = walk(self, flow, changed, c, p, x)
        walked[-1] += len(c.nodes) - p
        return out

    frames = criteria_scene()
    tracker = OnlineTracker(TrackerConfig(model=CostModel()))
    monkeypatch.setattr(ssp.FlowDecoder, "_walk", counted)
    for f in sorted(frames):
        walked.append(0)
        tracker.process_frame(frames[f], frame=f)
    assert np.mean(walked[400:500]) <= 1.5 * np.mean(walked[20:100])


#: The process_frame step each package function belongs to, innermost
#: first (calls_per_frame): the table build counts with the search.
STEPS = ((TrackingGraph.prepare_frame, "prepare"),
         (ssp.ResidualGraph.check_frame, "check"),
         (OnlineTracker._clip_one_frame, "clip"),
         (ssp.ResidualGraph.append_frame, "append"),
         (ssp.dijkstra_full, "search"),
         (ssp.push_round, "push"),
         (ssp.ResidualGraph.settle, "settle"),
         (ssp.ResidualGraph.decode, "decode"),
         (OnlineTracker._assign_ids, "ids"))


def calls_per_frame(window, first, last):
    """The mean calls a tracker frame makes from flowtrack's own code, over
    frames first..last - 1 of the criteria 4-5 scene of seed 7000: the
    sys.setprofile call and c_call events whose caller runs in a file of the
    package. Calls made inside numpy and scipy do not count. Returns the
    mean and its split by the process_frame step that made each call (see
    STEPS; "other" for the rest), which sums to it."""
    package = os.path.dirname(flowtrack.__file__) + os.sep
    cfg = SyntheticConfig(n_frames=last, n_initial_tracks=5, spawn_prob=0.0,
                          death_prob=0.0, miss_rate=0.1, fp_rate=0.1)
    frames = generate_synthetic(cfg, 7000)[0]
    tracker = OnlineTracker(TrackerConfig(model=CostModel(), window=window))
    step_of = {f.__code__: name for f, name in STEPS}
    top = OnlineTracker.process_frame.__code__
    calls = dict.fromkeys([name for _, name in STEPS] + ["other"], 0)

    def count(frame, event, arg):
        if event == "call":
            caller = frame.f_back
        elif event == "c_call":
            caller = frame
        else:
            return
        if caller is None or not caller.f_code.co_filename.startswith(package):
            return
        while frame is not None and frame.f_code is not top:
            if (step := step_of.get(frame.f_code)) is not None:
                calls[step] += 1
                return
            frame = frame.f_back
        calls["other"] += 1

    for f in range(last):
        if f >= first:
            sys.setprofile(count)
        try:
            tracker.process_frame(frames.get(f, []), frame=f)
        finally:
            sys.setprofile(None)
    split = {name: n / (last - first) for name, n in calls.items()}
    return sum(calls.values()) / (last - first), split


@pytest.mark.parametrize("window, first, last, bound",
                         [(10, 20, 200, 566), (None, 20, 40, 500)])
def test_calls_per_frame_stay_bounded(window, first, last, bound):
    """The fixed cost of a stream frame as a count that does not depend on
    the machine: mbodssp (window 10) and odssp frames make at most bound
    calls each from the package's code."""
    total, split = calls_per_frame(window, first, last)
    assert total <= bound
    assert math.isclose(sum(split.values()), total)
