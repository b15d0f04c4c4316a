"""Online tracking matches the batch optimum on every prefix.

Streams a synthetic sequence frame by frame through the online tracker
(unbounded window) and, after each frame, re-solves the same prefix from
scratch with the batch solver.  The costs agree to floating-point noise:
the online tracker re-solves each frame from the previous frame's optimum,
keeping its flow and node potentials, so it pushes only the paths and cycles
the new frame calls for (extended, new and rerouted tracks) where the batch
solver pushes one path per track of the prefix. One compiled search usually
finds all of them, so searches stay near one per frame.
"""
import flowtrack as ft

model = ft.CostModel()

cfg = ft.SyntheticConfig(n_frames=20, n_initial_tracks=3, miss_rate=0.1,
                         fp_rate=0.1, spawn_prob=0.1, death_prob=0.05)
dets, _ = ft.generate_synthetic(cfg, seed=3)

tracker = ft.OnlineTracker(ft.TrackerConfig(model=model))
prefix = {}
print(f"{'frame':>5} {'online':>10} {'batch':>10} {'|delta|':>9} "
      f"{'augment':>7} {'searches':>8} {'batch augment':>13}")
for f in sorted(dets):
    tracker.process_frame(dets[f], frame=f)
    prefix[f] = dets[f]
    batch, batch_stats = ft.solve_ssp(ft.build_batch_graph(prefix, model))
    online_cost = tracker.solution.total_cost
    fs = tracker.frame_stats[-1]
    print(f"{f:>5} {online_cost:>10.4f} {batch.total_cost:>10.4f} "
          f"{abs(online_cost - batch.total_cost):>9.2e} {fs.iterations:>7} "
          f"{fs.searches:>8} {batch_stats.iterations:>13}")

stats = tracker.stats
print(f"\nper frame online: {stats.iterations / len(dets):.2f} augmentations "
      f"in {stats.searches / len(dets):.2f} searches, "
      f"solved from the previous optimum on {stats.cache_hits} of "
      f"{stats.cache_hits + stats.cache_misses} frames")
