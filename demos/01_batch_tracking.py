"""Batch tracking walkthrough.

Generates a small synthetic scene with crossing targets, builds the
tracking graph, and compares the successive-shortest-paths solver against
the greedy dynamic-programming baseline.  The greedy baseline commits to
one trajectory at a time, so on crossing targets it can lock in a wrong
pairing that the flow solver later undoes via residual edges.  The paper's
dSSP reaches the same optimum while re-labelling only the part of the
shortest-path tree that each augmentation invalidates.
"""
import time

import flowtrack as ft

model = ft.CostModel()

cfg = ft.SyntheticConfig(n_frames=25, n_initial_tracks=4, crossing=True,
                         miss_rate=0.05, fp_rate=0.05)
dets, gt = ft.generate_synthetic(cfg, seed=7)
n_dets = sum(len(v) for v in dets.values())
print(f"scene: {len(dets)} frames, {n_dets} detections")

graph = ft.build_batch_graph(dets, model)
print(f"graph: {graph.n_live_nodes} nodes, {graph.n_live_edges} edges")


def timed(solve):
    graph = ft.build_batch_graph(dets, model)
    start = time.perf_counter()
    solution, stats = solve(graph)
    return solution, stats, time.perf_counter() - start


optimal, stats, ssp_s = timed(ft.solve_ssp)
dynamic, dstats, dssp_s = timed(ft.solve_dssp)
greedy, _ = ft.solve_dp_greedy(ft.build_batch_graph(dets, model))

print(f"\nssp    cost {optimal.total_cost:10.4f}  "
      f"tracks {len(optimal.trajectories):3d}  "
      f"({stats.iterations} augmenting paths)")
print(f"dssp   cost {dynamic.total_cost:10.4f}  "
      f"tracks {len(dynamic.trajectories):3d}  "
      f"(same optimum: {abs(dynamic.total_cost - optimal.total_cost) < 1e-9})")
print(f"dssp relaxes {dstats.relaxations} arcs, "
      f"{dstats.relaxations / stats.relaxations:.2f}x ssp's {stats.relaxations}; "
      f"solve time dssp {dssp_s * 1e3:.1f} ms, ssp {ssp_s * 1e3:.1f} ms")
print(f"greedy cost {greedy.total_cost:10.4f}  "
      f"tracks {len(greedy.trajectories):3d}")
gap = greedy.total_cost - optimal.total_cost
print(f"greedy pays {gap:.4f} extra (0 means greedy happened to be optimal)")

print("\nfirst three optimal trajectories:")
for traj in optimal.trajectories[:3]:
    first, last = traj.detections[0], traj.detections[-1]
    print(f"  track {traj.track_id}: frames {first.frame}-{last.frame}, "
          f"{len(traj.detections)} boxes, cost {traj.cost:.4f}")
