"""The benchmark's named workloads and the inputs each one generates.

A run of a workload measures several scenes. Scene j of a run with seed s is
the synthetic scene generated from seed ``s * 1000 + j``, written out as the
detection CSV the CLI reads (batch) or streams (one block per frame), plus
the ground truth the checker scores MOTA against. Inputs are a pure function
of (workload, seed, j); the program under test only sees the detection CSV or
stream. Several scenes per run average out how much one random scene's work
differs from another's, so runs with different seeds agree.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from flowtrack.synthetic import SyntheticConfig, generate_synthetic

#: The criteria 4-5 scene: stationary population, nothing born or dying.
STATIONARY = SyntheticConfig(n_frames=500, n_initial_tracks=5, spawn_prob=0.0,
                             death_prob=0.0, miss_rate=0.1, fp_rate=0.1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene: SyntheticConfig
    frames: int                    # frames of the scene that are used
    solvers: tuple[str, ...]       # one `track` run per solver and scene
    scene_count: int               # scenes per run
    op_seconds: float              # nominal time of one scene's runs
    stream: bool = False
    args: tuple[str, ...] = ()     # extra `track` arguments

    def cycles(self, seconds: float) -> int:
        """Cycles over the run's scenes: as many as fill `seconds` at the
        nominal speed, at least one.

        Fixed by the settings, not by the measured speed, so a faster
        program is measured on the same work."""
        return max(1, round(seconds / (self.scene_count * self.op_seconds)))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="batch-crowded",
        why="one large batch solve each for ssp, dssp and dp on an 80-frame, "
            "12-target crossing scene: the inner shortest-path search "
            "dominates, no online code runs",
        scene=SyntheticConfig(n_frames=80, n_initial_tracks=12, crossing=True,
                              spawn_prob=0.0, death_prob=0.0, miss_rate=0.05,
                              fp_rate=0.2),
        frames=80, solvers=("ssp", "dssp", "dp"), scene_count=8, op_seconds=1.25),
    Workload(
        name="stream-bounded",
        why="first 200 frames of the criteria 4-5 scene, closed-loop stream "
            "through mbodssp, window 10: many small solves, graph "
            "append/clip and per-frame output costs dominate",
        scene=STATIONARY, frames=200, solvers=("mbodssp",), scene_count=6,
        op_seconds=1.6, stream=True,
        args=("--window", "10", "--confirm-lag", "0")),
    Workload(
        name="stream-exact",
        why="first 40 frames of the same scene through odssp: the graph only "
            "grows and every frame rebuilds the residual graph and replays "
            "the prefix",
        scene=STATIONARY, frames=40, solvers=("odssp",), scene_count=12,
        op_seconds=0.5, stream=True,
        args=("--confirm-lag", "0")),
)}


def _fmt(x: float) -> str:
    return "%.6g" % x


def scene_seed(seed: int, j: int) -> int:
    return seed * 1000 + j


def write_inputs(workload: Workload, seed: int, j: int, dest: str) -> dict:
    """Write det.csv and gt.csv of scene j of (workload, seed) into dest.

    Returns {"det": path, "gt": path, "frames": n, "detections": n}.
    """
    detections, gt = generate_synthetic(workload.scene, scene_seed(seed, j))
    det_path = os.path.join(dest, "det.csv")
    gt_path = os.path.join(dest, "gt.csv")
    n_det = 0
    with open(det_path, "w", newline="") as f:
        for frame in range(workload.frames):
            for d in detections.get(frame, []):
                x, y, w, h = d.box
                f.write(f"{frame},{d.local_index},{_fmt(x)},{_fmt(y)},"
                        f"{_fmt(w)},{_fmt(h)},{_fmt(d.score)}\n")
                n_det += 1
    with open(gt_path, "w", newline="") as f:
        for frame in range(workload.frames):
            for gid, (x, y, w, h) in gt.frames.get(frame, []):
                f.write(f"{frame},{gid},{_fmt(x)},{_fmt(y)},{_fmt(w)},{_fmt(h)}\n")
    return {"det": det_path, "gt": gt_path, "frames": workload.frames,
            "detections": n_det}
