"""Evaluation metrics and solver benchmarking.

Tracks a noisy synthetic scene with three solvers, scores each against
the generator's ground truth with CLEAR-MOT metrics, then sweeps the
bounded tracker's window size to show the work/accuracy trade-off.
"""
import numpy as np

import flowtrack as ft
from flowtrack.bench import run_bench

model = ft.CostModel()

cfg = ft.SyntheticConfig(n_frames=60, n_initial_tracks=5, crossing=True,
                         miss_rate=0.1, fp_rate=0.1)
dets, gt = ft.generate_synthetic(cfg, seed=11)


def hyps(trajectories):
    out = {}
    for traj in trajectories:
        for d in traj.detections:
            out.setdefault(d.frame, []).append((traj.track_id, d.box))
    return out


print(f"{'solver':>8} {'MOTA':>7} {'MOTP':>7} {'IDS':>4} {'FP':>4} {'FN':>4}")
for name, trajectories in [
        ("ssp", ft.solve_ssp(ft.build_batch_graph(dets, model))[0]
         .trajectories),
        ("greedy", ft.solve_dp_greedy(ft.build_batch_graph(dets, model))[0]
         .trajectories)]:
    r = ft.clear_mot(gt, hyps(trajectories))
    print(f"{name:>8} {r.mota:>7.4f} {r.motp:>7.4f} {r.id_switches:>4} "
          f"{r.false_positives:>4} {r.false_negatives:>4}")

tracker = ft.OnlineTracker(ft.TrackerConfig(model=model, window=10))
for f in sorted(dets):
    tracker.process_frame(dets[f], frame=f)
r = ft.clear_mot(gt, hyps(tracker.final_tracks()))
print(f"{'mbod-10':>8} {r.mota:>7.4f} {r.motp:>7.4f} {r.id_switches:>4} "
      f"{r.false_positives:>4} {r.false_negatives:>4}")

print("\nwindow sweep (bounded tracker, per-frame relaxations after warmup):")
rows = run_bench(dets, model, solvers=("mbodssp",), taus=(2, 5, 10, 20))
for tau in (2, 5, 10, 20):
    rel = [row.relaxations for row in rows if row.tau == tau][20:]
    print(f"  window {tau:>2}: mean {np.mean(rel):>7.0f} relaxations/frame")
