"""Output checks for the benchmark, run outside every timed region.

A track file is checked against the detection CSV it was computed from: rows
must be well formed, each (frame, id) pair appears once, each detection is
used at most once and each id covers consecutive frames. Objectives are
recomputed from the rows with the cost model (a trajectory through a link
the graph does not admit costs infinity) and compared with an independent
optimum: the LP relaxation of the min-cost flow on the node-arc incidence
matrix with 0/1 bounds, solved by HiGHS. Network matrices are totally
unimodular, so its optimum is the integral optimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from flowtrack.cost_model import CostModel, Detection
from flowtrack.graph import default_gate
from flowtrack.metrics import GroundTruth, clear_mot

#: Relative tolerance for objectives that must equal the optimum.
REL_TOL = 1e-9
GATE_RADIUS = 2.0       # the CLI's default --gate-radius-factor


def _fmt(x: float) -> str:
    return "%.6g" % x


@dataclass
class Scene:
    """The detections of one input file, indexed the way output rows name them."""

    detections: list[Detection]
    by_row: dict[tuple, list[int]] = field(default_factory=dict)

    @classmethod
    def read(cls, path) -> "Scene":
        dets, per_frame = [], {}
        with open(path) as f:
            for line in f:
                c = line.rstrip("\n").split(",")
                frame = int(c[0])
                idx = per_frame.get(frame, 0)
                per_frame[frame] = idx + 1
                box = tuple(float(v) for v in c[2:6])
                dets.append(Detection(frame=frame, box=box, score=float(c[6]),
                                      local_index=idx))
        scene = cls(dets)
        for i, d in enumerate(dets):
            scene.by_row.setdefault((d.frame, *map(_fmt, d.box)), []).append(i)
        return scene


@dataclass
class TrackCheck:
    """Result of checking one track file."""

    problems: list[tuple[int, str]]   # (row index, what is wrong)
    cost: float                       # objective recomputed from the rows

    @property
    def ok(self) -> bool:
        return not self.problems


def parse_rows(text: str) -> list[tuple[int, int, tuple] | None]:
    """Track CSV rows as (frame, id, box strings); None for a malformed row."""
    rows = []
    for line in text.splitlines():
        c = line.split(",")
        try:
            if len(c) != 6:
                raise ValueError
            frame, tid = int(c[0]), int(c[1])
            if not all(math.isfinite(float(v)) for v in c[2:]):
                raise ValueError
            rows.append((frame, tid, tuple(c[2:])))
        except ValueError:
            rows.append(None)
    return rows


def run_cost(dets: list[Detection], model: CostModel) -> float:
    """Path cost of consecutive detections; inf if a link is not in the graph."""
    cost = model.entry_cost_of(dets[0]) + model.detection_cost_of(dets[0])
    for a, b in zip(dets, dets[1:]):
        if not default_gate(a, b, GATE_RADIUS):
            return math.inf
        cost += model.link_cost_of(a, b) + model.detection_cost_of(b)
    return cost + model.exit_cost_of(dets[-1])


def check_tracks(text: str, scene: Scene, model: CostModel,
                 consecutive: bool = True) -> TrackCheck:
    """Check track rows against the scene and recompute their objective.

    With consecutive=False an id may cover several runs of frames (the
    memory-bounded tracker can reuse an id after a gap); each run is costed
    as its own trajectory.
    """
    problems = []
    used: set[int] = set()
    seen: set[tuple[int, int]] = set()
    tracks: dict[int, list[tuple[int, int, int]]] = {}   # id -> (frame, det, row)
    for r, row in enumerate(parse_rows(text)):
        if row is None:
            problems.append((r, "malformed row"))
            continue
        frame, tid, box = row
        if (frame, tid) in seen:
            problems.append((r, f"(frame {frame}, id {tid}) emitted twice"))
            continue
        seen.add((frame, tid))
        cands = [i for i in scene.by_row.get((frame, *box), []) if i not in used]
        if not cands:
            known = (frame, *box) in scene.by_row
            problems.append((r, "detection used twice" if known
                             else "row matches no detection"))
            continue
        used.add(cands[0])
        tracks.setdefault(tid, []).append((frame, cands[0], r))
    cost = 0.0
    for tid, members in tracks.items():
        members.sort()
        run = [members[0]]
        for prev, cur in zip(members, members[1:]):
            if cur[0] == prev[0] + 1:
                run.append(cur)
                continue
            if consecutive:
                problems.append((cur[2], f"id {tid} skips frames "
                                 f"{prev[0] + 1}..{cur[0] - 1}"))
            cost += run_cost([scene.detections[m[1]] for m in run], model)
            run = [cur]
        cost += run_cost([scene.detections[m[1]] for m in run], model)
    return TrackCheck(problems, cost)


def check_streamed(text: str, scene: Scene) -> tuple[list[tuple[int, str]], list]:
    """Check rows streamed with ``--confirm-lag 0`` (emit and possibly revise).

    A later row for a detection already emitted is a revision: it moves the
    detection to its new id and supersedes the earlier row, so a detection may
    appear more than once and an id may keep rows it later lost. Every row must
    still be well formed and match a detection of its frame, and each
    (frame, id) pair appears once. Returns the problems and the rows left once
    every revision has superseded what it revises.
    """
    problems = []
    seen: set[tuple[int, int]] = set()
    latest: dict[tuple, tuple] = {}        # (frame, box) -> row
    for r, row in enumerate(parse_rows(text)):
        if row is None:
            problems.append((r, "malformed row"))
            continue
        frame, tid, box = row
        if (frame, tid) in seen:
            problems.append((r, f"(frame {frame}, id {tid}) emitted twice"))
            continue
        seen.add((frame, tid))
        if (frame, *box) not in scene.by_row:
            problems.append((r, "row matches no detection"))
            continue
        latest[(frame, box)] = row
    return problems, list(latest.values())


def lp_optimum(scene: Scene, model: CostModel) -> float:
    """Min-cost flow optimum of the scene by LP.

    Nodes u_i = 2i, v_i = 2i+1; the source and sink are left out of the
    conservation rows, which leaves the amount of flow free as in SSP.
    """
    dets = scene.detections
    by_frame: dict[int, list[int]] = {}
    for i, d in enumerate(dets):
        by_frame.setdefault(d.frame, []).append(i)
    rows, cols, vals, cost = [], [], [], []

    def arc(src, dst, c):
        j = len(cost)
        cost.append(c)
        if src is not None:
            rows.append(src), cols.append(j), vals.append(-1.0)
        if dst is not None:
            rows.append(dst), cols.append(j), vals.append(1.0)

    for i, d in enumerate(dets):
        arc(None, 2 * i, model.entry_cost_of(d))
        arc(2 * i, 2 * i + 1, model.detection_cost_of(d))
        arc(2 * i + 1, None, model.exit_cost_of(d))
    for f, members in by_frame.items():
        for i in members:
            for j in by_frame.get(f + 1, []):
                a, b = dets[i], dets[j]
                if not default_gate(a, b, GATE_RADIUS):
                    continue
                c = model.link_cost_of(a, b)
                if math.isfinite(c):
                    arc(2 * i + 1, 2 * j, c)
    if not dets:
        return 0.0
    a_eq = coo_matrix((vals, (rows, cols)), shape=(2 * len(dets), len(cost))).tocsr()
    c = np.array(cost)
    res = linprog(c, A_eq=a_eq, b_eq=np.zeros(2 * len(dets)), bounds=(0, 1),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    x = res.x > 0.5
    if np.any(np.abs(a_eq @ x.astype(float)) > 0) or np.any(np.abs(res.x - x) > 1e-6):
        raise RuntimeError("LP oracle returned a fractional or unbalanced flow")
    return math.fsum(c[x])


def same_objective(a: float, b: float) -> bool:
    """Equal within REL_TOL; an infinite objective equals nothing."""
    return (math.isfinite(a) and math.isfinite(b)
            and abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b)))


def mota(rows: list, gt_path) -> float:
    """CLEAR-MOT MOTA of parsed track rows against a gt.csv written by workloads."""
    gt = GroundTruth()
    with open(gt_path) as f:
        for line in f:
            c = line.split(",")
            gt.add(int(c[0]), int(c[1]), tuple(float(v) for v in c[2:6]))
    hyp: dict[int, list] = {}
    for row in rows:
        if row is not None:
            frame, tid, box = row
            hyp.setdefault(frame, []).append((tid, tuple(map(float, box))))
    return clear_mot(gt, hyp).mota
