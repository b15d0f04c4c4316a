"""Acceptance gates: one test per criterion, each printing a PASS line with
the measured value so the run log doubles as a report. Criterion 10 is a
machine-dependent soft gate: it reports and warns instead of failing."""
import time
import warnings

import numpy as np
import pytest

from conftest import build_graph, hyps_from_trajectories, make_random_instance
from flowtrack.cost_model import CostModel
from flowtrack.graph import build_batch_graph
from flowtrack.io import parse_detections, write_detections, write_tracks
from flowtrack.metrics import GroundTruth, clear_mot
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.oracle import brute_force_optimum
from flowtrack.ssp import solve_dp_greedy, solve_dssp, solve_ssp
from flowtrack.synthetic import SyntheticConfig, generate_synthetic

TOL = 1e-9
MODEL = CostModel()


def run_online(dets, window=None):
    tracker = OnlineTracker(TrackerConfig(model=MODEL, window=window))
    for f in sorted(dets):
        tracker.process_frame(dets[f], frame=f)
    return tracker


def test_01_oracle_optimality():
    """solve_ssp and solve_dssp match the brute-force optimum on 200+
    random small instances with mixed-sign costs."""
    t0 = time.perf_counter()
    n = 0
    for seed in range(200):
        frames, model = make_random_instance(seed, frame_range=(2, 4),
                                             dets_range=(1, 3))
        optimum = brute_force_optimum(build_graph(frames, model))
        s1, _ = solve_ssp(build_graph(frames, model))
        s2, _ = solve_dssp(build_graph(frames, model))
        assert abs(s1.total_cost - optimum.total_cost) <= TOL, f"seed {seed}"
        assert abs(s2.total_cost - optimum.total_cost) <= TOL, f"seed {seed}"
        n += 1
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"\nPASS criterion 1: ssp and dssp equal the oracle on {n}/200 "
          f"instances (|delta| <= 1e-9) in {dt:.2f}s")


def test_02_online_optimality_per_prefix():
    """Every prefix of 50+ streamed sequences costs exactly the batch
    optimum of that prefix."""
    checked = 0
    for seed in range(50):
        cfg = SyntheticConfig(n_frames=8 + seed % 9, n_initial_tracks=2,
                              miss_rate=0.1, fp_rate=0.15, spawn_prob=0.15,
                              death_prob=0.08)
        dets, _ = generate_synthetic(cfg, seed)
        dets = {f: v[:5] for f, v in dets.items()}  # cap at 5 per frame
        tracker = OnlineTracker(TrackerConfig(model=MODEL))
        for f in sorted(dets):
            solution = tracker.process_frame(dets[f], frame=f)
            prefix = {k: v for k, v in dets.items() if k <= f}
            batch, _ = solve_ssp(build_batch_graph(prefix, MODEL))
            assert abs(solution.total_cost - batch.total_cost) <= TOL, \
                f"seed {seed} frame {f}"
            checked += 1
    print(f"\nPASS criterion 2: online == batch cost on {checked} prefixes "
          "of 50 sequences (|delta| <= 1e-9)")


def test_03_bounded_window_degeneracy():
    """With the window at least as long as the sequence, the bounded tracker
    is frame-for-frame identical to the optimal one."""
    for seed in range(20):
        cfg = SyntheticConfig(n_frames=12, n_initial_tracks=3, miss_rate=0.1,
                              fp_rate=0.1, spawn_prob=0.1, death_prob=0.05)
        dets, _ = generate_synthetic(cfg, seed)
        opt = OnlineTracker(TrackerConfig(model=MODEL))
        bnd = OnlineTracker(TrackerConfig(model=MODEL, window=12))
        for f in sorted(dets):
            so = opt.process_frame(dets[f], frame=f)
            sb = bnd.process_frame(dets[f], frame=f)
            assert so.total_cost == sb.total_cost, f"seed {seed} frame {f}"
            keys_o = sorted(tuple(d.key for d in t.detections)
                            for t in so.trajectories)
            keys_b = sorted(tuple(d.key for d in t.detections)
                            for t in sb.trajectories)
            assert keys_o == keys_b, f"seed {seed} frame {f}"
    print("\nPASS criterion 3: bounded == optimal frame-for-frame on 20 "
          "sequences with window >= length")


def _stationary_500():
    cfg = SyntheticConfig(n_frames=500, n_initial_tracks=5, spawn_prob=0.0,
                          death_prob=0.0, miss_rate=0.1, fp_rate=0.1)
    return generate_synthetic(cfg, 0)[0]


def test_04_memory_bound():
    """Bounded tracker with a 10-frame window never exceeds 2*10*D_max + 2
    live nodes over 500 frames, and the count is constant past warmup on a
    constant-detection sequence."""
    dets = _stationary_500()
    d_max = max(len(v) for v in dets.values())
    tracker = run_online(dets, window=10)
    bound = 2 * 10 * d_max + 2
    peak = max(fs.live_nodes for fs in tracker.frame_stats)
    assert peak <= bound
    # constancy on a noise-free constant-count sequence
    cfg = SyntheticConfig(n_frames=60, n_initial_tracks=4, spawn_prob=0.0,
                          death_prob=0.0, miss_rate=0.0, fp_rate=0.0)
    clean, _ = generate_synthetic(cfg, 1)
    tr2 = run_online(clean, window=10)
    steady = {fs.live_nodes for fs in tr2.frame_stats if fs.frame > 10}
    assert len(steady) == 1
    print(f"\nPASS criterion 4: peak live nodes {peak} <= bound {bound} over "
          f"500 frames; steady-state node count constant at {steady.pop()}")


def test_05_computation_bound():
    """Per-frame relaxations of the bounded tracker stay flat over 500
    stationary frames (slope <= 1% of mean), while the optimal online
    tracker's per-frame work keeps growing."""
    dets = _stationary_500()
    bounded = run_online(dets, window=10)
    rel = np.array([fs.relaxations for fs in bounded.frame_stats[20:]],
                   dtype=float)
    slope = np.polyfit(np.arange(len(rel)), rel, 1)[0]
    ratio = abs(slope) / rel.mean()
    assert ratio <= 0.01
    # a 150-frame prefix suffices to expose the unbounded growth; the full
    # 500 frames would take minutes precisely because of that growth
    prefix = {f: v for f, v in dets.items() if f < 150}
    optimal = run_online(prefix)
    rel_o = [fs.relaxations for fs in optimal.frame_stats]
    early = np.mean(rel_o[20:60])
    late = np.mean(rel_o[-40:])
    assert late > 2 * early
    print(f"\nPASS criterion 5: mbod slope/mean = {ratio:.5f} <= 0.01 over "
          f"500 frames; optimal online per-frame work grows {late / early:.1f}x"
          " over a 150-frame prefix of the same sequence")


def test_06_dynamic_solver_efficiency():
    """dSSP needs at most 0.7x the relaxations of SSP on 10 sequences of
    100+ frames; wall time reported informatively."""
    ratios, times = [], []
    for seed in range(10):
        cfg = SyntheticConfig(n_frames=110, n_initial_tracks=4, miss_rate=0.1,
                              fp_rate=0.1, spawn_prob=0.05, death_prob=0.02)
        dets, _ = generate_synthetic(cfg, seed)
        t0 = time.perf_counter()
        s1, st1 = solve_ssp(build_batch_graph(dets, MODEL))
        t1 = time.perf_counter()
        s2, st2 = solve_dssp(build_batch_graph(dets, MODEL))
        t2 = time.perf_counter()
        assert abs(s1.total_cost - s2.total_cost) <= TOL
        ratios.append(st2.relaxations / st1.relaxations)
        times.append((t1 - t0, t2 - t1))
    assert max(ratios) <= 0.7
    mean_ssp = np.mean([a for a, _ in times])
    mean_dssp = np.mean([b for _, b in times])
    print(f"\nPASS criterion 6: dssp/ssp relaxation ratio max {max(ratios):.3f}"
          f" <= 0.7 over 10 sequences (informative wall time: ssp "
          f"{mean_ssp * 1000:.0f}ms, dssp {mean_dssp * 1000:.0f}ms mean)")


def test_07_approximation_quality():
    """Bounded tracker (window 10) lands within 5% of the batch optimum and
    switches ids no more than the greedy baseline on >= 90% of 50 crossing
    sequences."""
    ok_cost = ok_ids = 0
    n = 50
    for seed in range(n):
        cfg = SyntheticConfig(n_frames=40, n_initial_tracks=4, miss_rate=0.05,
                              fp_rate=0.05, crossing=True)
        dets, gt = generate_synthetic(cfg, seed)
        batch, _ = solve_ssp(build_batch_graph(dets, MODEL))
        greedy, _ = solve_dp_greedy(build_batch_graph(dets, MODEL))
        tracker = run_online(dets, window=10)
        cost = tracker.total_output_cost()
        rel = abs(cost - batch.total_cost) / max(abs(batch.total_cost), TOL)
        if rel <= 0.05:
            ok_cost += 1
        ids_b = clear_mot(gt, hyps_from_trajectories(
            tracker.final_tracks())).id_switches
        ids_dp = clear_mot(gt, hyps_from_trajectories(
            greedy.trajectories)).id_switches
        if ids_b <= ids_dp:
            ok_ids += 1
    assert ok_cost >= 0.9 * n
    assert ok_ids >= 0.9 * n
    print(f"\nPASS criterion 7: cost within 5% on {ok_cost}/{n}, id switches "
          f"<= greedy baseline on {ok_ids}/{n} crossing sequences")


def test_08_metric_correctness():
    """clear_mot reproduces hand-computed cases exactly."""
    box = (0.0, 0.0, 10.0, 10.0)
    gt = GroundTruth()
    for f in range(10):
        gt.add(f, 0, box)
    perfect = {f: [(0, box)] for f in range(10)}
    r = clear_mot(gt, perfect)
    assert abs(r.mota - 1.0) <= TOL and abs(r.motp - 1.0) <= TOL
    assert r.id_switches == 0 and r.fragmentations == 0

    split = {f: [(0 if f < 5 else 1, box)] for f in range(10)}
    r = clear_mot(gt, split)
    assert r.id_switches == 1
    assert abs(r.mota - 0.9) <= TOL

    r = clear_mot(gt, {})
    assert abs(r.mota - 0.0) <= TOL
    assert r.false_negatives == 10

    shifted = {f: [(0, (5.0, 0.0, 10.0, 10.0))] for f in range(10)}
    r = clear_mot(gt, shifted, iou_threshold=0.3)
    assert abs(r.motp - 1 / 3) <= TOL
    print("\nPASS criterion 8: clear_mot matches all hand-computed cases "
          "(MOTA/MOTP to 1e-9, counts exact)")


def test_09_determinism(tmp_path):
    """Identical input and configuration produce byte-identical track files."""
    cfg = SyntheticConfig(n_frames=30, n_initial_tracks=4, miss_rate=0.1,
                          fp_rate=0.15, spawn_prob=0.1, death_prob=0.05)
    dets, _ = generate_synthetic(cfg, 17)
    det_path = tmp_path / "det.csv"
    write_detections(det_path, dets)
    outputs = []
    for run in range(2):
        parsed = parse_detections(det_path)
        tracker = run_online(parsed, window=8)
        out = tmp_path / f"run{run}.csv"
        write_tracks(out, tracker.final_tracks())
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    print(f"\nPASS criterion 9: repeated runs byte-identical "
          f"({len(outputs[0])} bytes)")


def test_10_throughput_soft_gate():
    """Soft gate: bounded tracker should average < 10 ms per frame on frames
    of <= 20 detections; warns instead of failing on slow machines."""
    cfg = SyntheticConfig(n_frames=300, n_initial_tracks=8, miss_rate=0.05,
                          fp_rate=0.2, spawn_prob=0.1, death_prob=0.02)
    dets, _ = generate_synthetic(cfg, 4)
    assert max(len(v) for v in dets.values()) <= 20
    tracker = run_online(dets, window=10)
    per_frame = np.mean([fs.wall_time for fs in tracker.frame_stats]) * 1000
    if per_frame < 10.0:
        print(f"\nPASS criterion 10 (soft): {per_frame:.2f} ms/frame mean "
              "< 10 ms")
    else:
        warnings.warn(f"criterion 10 (soft): {per_frame:.2f} ms/frame mean "
                      "exceeds the 10 ms target on this machine")
        print(f"\nWARN criterion 10 (soft): {per_frame:.2f} ms/frame mean "
              ">= 10 ms (reported, not failed)")
