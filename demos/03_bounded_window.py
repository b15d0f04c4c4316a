"""Memory-bounded tracking with a sliding window.

Runs the bounded tracker (window of 10 frames) over a long stationary
sequence.  Frames older than the window are clipped from the graph: each
surviving track's past is folded into a synthesized entry edge, so its
cost and identity persist even though the detections themselves are gone.
Live node count and per-frame work stay constant; the final output is
compared against the batch optimum over the whole sequence.
"""
import numpy as np

import flowtrack as ft

model = ft.CostModel()
WINDOW = 10

# miss_rate stays 0 so trajectories are unbroken: links only join
# consecutive frames, so a missed detection necessarily splits a track
cfg = ft.SyntheticConfig(n_frames=200, n_initial_tracks=5, spawn_prob=0.0,
                         death_prob=0.0, miss_rate=0.0, fp_rate=0.1)
dets, _ = ft.generate_synthetic(cfg, seed=0)

tracker = ft.OnlineTracker(ft.TrackerConfig(model=model, window=WINDOW))
for f in sorted(dets):
    tracker.process_frame(dets[f], frame=f)

nodes = [fs.live_nodes for fs in tracker.frame_stats]
relax = [fs.relaxations for fs in tracker.frame_stats]
d_max = max(len(v) for v in dets.values())
print(f"live nodes: peak {max(nodes)}, bound 2*{WINDOW}*{d_max}+2 = "
      f"{2 * WINDOW * d_max + 2}")
print(f"relaxations/frame after warmup: mean {np.mean(relax[20:]):.0f}, "
      f"max {max(relax[20:])} (flat, not growing)")

tracks = tracker.final_tracks()
cost = tracker.total_output_cost()
batch, _ = ft.solve_ssp(ft.build_batch_graph(dets, model))
print(f"\nbounded output cost {cost:.4f} vs batch optimum "
      f"{batch.total_cost:.4f} "
      f"({100 * (cost - batch.total_cost) / abs(batch.total_cost):.2f}% off)")

spans = {}
for traj in tracks:
    lo = min(d.frame for d in traj.detections)
    hi = max(d.frame for d in traj.detections)
    old = spans.get(traj.track_id)
    spans[traj.track_id] = (min(lo, old[0]), max(hi, old[1])) if old \
        else (lo, hi)
long_lived = sum(1 for lo, hi in spans.values() if hi - lo >= 150)
print(f"{len(spans)} track ids, {long_lived} of them span >= 150 frames "
      f"(ids survive clipping)")
