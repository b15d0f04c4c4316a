"""Online tracking matches the batch optimum on every prefix.

Streams a synthetic sequence frame by frame through the online tracker
(unbounded window) and, after each frame, re-solves the same prefix from
scratch with the batch solver.  The costs agree to floating-point noise:
the online tracker runs the same dynamic SSP loop as the batch solver,
starting its DAG bootstrap from the previous frame's labels, so only the
edges into the new frame are relaxed there.
"""
import flowtrack as ft

model = ft.CostModel()

cfg = ft.SyntheticConfig(n_frames=20, n_initial_tracks=3, miss_rate=0.1,
                         fp_rate=0.1, spawn_prob=0.1, death_prob=0.05)
dets, _ = ft.generate_synthetic(cfg, seed=3)

tracker = ft.OnlineTracker(ft.TrackerConfig(model=model))
prefix = {}
print(f"{'frame':>5} {'online':>10} {'batch':>10} {'|delta|':>9} "
      f"{'relaxations':>11}")
for f in sorted(dets):
    tracker.process_frame(dets[f], frame=f)
    prefix[f] = dets[f]
    batch, _ = ft.solve_ssp(ft.build_batch_graph(prefix, model))
    online_cost = tracker.solution.total_cost
    fs = tracker.frame_stats[-1]
    print(f"{f:>5} {online_cost:>10.4f} {batch.total_cost:>10.4f} "
          f"{abs(online_cost - batch.total_cost):>9.2e} {fs.relaxations:>11}")

stats = tracker.stats
print(f"\nDAG warm starts over the run: {stats.cache_hits} of "
      f"{stats.cache_hits + stats.cache_misses} frames")
