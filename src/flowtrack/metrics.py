"""CLEAR-MOT evaluation: MOTA, MOTP, MT/PT/ML, identity switches, fragments.

Matching is threshold-gated: matches from the previous frame are carried
forward while they still overlap, then the remaining objects are matched per
frame with the Hungarian algorithm maximizing IoU. FAR is reported as false
positives per frame.

scipy.optimize, which supplies the Hungarian step, is loaded only when
clear_mot runs: tracking never needs it, and it is slow to import.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cost_model import iou
from .errors import DataError


@dataclass
class GroundTruth:
    """Per-frame ground truth boxes keyed by stable track ids."""

    frames: dict[int, list[tuple[int, tuple]]] = field(default_factory=dict)
    taken: set = field(default_factory=set, repr=False, compare=False)

    def add(self, frame: int, gt_id: int, box):
        if (frame, gt_id) in self.taken:
            raise DataError(f"duplicate gt id {gt_id} in frame {frame}")
        self.taken.add((frame, gt_id))
        self.frames.setdefault(frame, []).append((gt_id, tuple(box)))


@dataclass
class MotReport:
    mota: float
    motp: float
    mostly_tracked: float
    partially_tracked: float
    mostly_lost: float
    id_switches: int
    fragmentations: int
    false_alarm_rate: float
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    total_gt: int = 0


def clear_mot(gt: GroundTruth, hypotheses: dict[int, list[tuple[int, tuple]]],
              iou_threshold: float = 0.5) -> MotReport:
    """Evaluate per-frame track hypotheses against ground truth."""
    # Imported here: scipy.optimize is slow to load and only scoring needs it.
    from scipy.optimize import linear_sum_assignment

    frames = sorted(set(gt.frames) | set(hypotheses))
    carried: dict[int, int] = {}          # gt id -> hyp id matched last frame
    last_hyp: dict[int, int] = {}         # gt id -> last hyp id ever matched
    matched_prev_presence: dict[int, bool] = {}  # matched at its previous appearance

    total_gt = fp = fn = ids = frags = tp = 0
    iou_sum = 0.0
    gt_frames: dict[int, int] = {}
    gt_matched_frames: dict[int, int] = {}

    for f in frames:
        gt_objs = gt.frames.get(f, [])
        hyp_objs = hypotheses.get(f, [])
        total_gt += len(gt_objs)
        gt_boxes = {g: b for g, b in gt_objs}
        hyp_boxes = {h: b for h, b in hyp_objs}

        matches: dict[int, int] = {}
        # Carry forward still-valid matches.
        for g, b in gt_objs:
            h = carried.get(g)
            if h is not None and h in hyp_boxes and h not in matches.values():
                if iou(b, hyp_boxes[h]) >= iou_threshold:
                    matches[g] = h
        # Hungarian on the remainder, maximizing IoU.
        free_gt = [g for g in gt_boxes if g not in matches]
        used_h = set(matches.values())
        free_hyp = [h for h in hyp_boxes if h not in used_h]
        if free_gt and free_hyp:
            cost = np.ones((len(free_gt), len(free_hyp)))
            for i, g in enumerate(free_gt):
                for j, h in enumerate(free_hyp):
                    ov = iou(gt_boxes[g], hyp_boxes[h])
                    if ov >= iou_threshold:
                        cost[i, j] = 1.0 - ov
            rows, cols = linear_sum_assignment(cost)
            for i, j in zip(rows, cols):
                if cost[i, j] < 1.0 - iou_threshold + 1e-12:
                    matches[free_gt[i]] = free_hyp[j]

        for g, b in gt_objs:
            gt_frames[g] = gt_frames.get(g, 0) + 1
            if g in matches:
                h = matches[g]
                tp += 1
                iou_sum += iou(b, hyp_boxes[h])
                gt_matched_frames[g] = gt_matched_frames.get(g, 0) + 1
                if g in last_hyp and last_hyp[g] != h:
                    ids += 1
                if g in last_hyp and not matched_prev_presence.get(g, True):
                    frags += 1
                last_hyp[g] = h
                matched_prev_presence[g] = True
            else:
                fn += 1
                matched_prev_presence[g] = False
        fp += len(hyp_objs) - len(matches)
        carried = dict(matches)

    n_frames = len(frames)
    mota = 1.0 - (fn + fp + ids) / total_gt if total_gt else math.nan
    motp = iou_sum / tp if tp else 0.0
    mt = pt = ml = 0
    for g, n in gt_frames.items():
        cover = gt_matched_frames.get(g, 0) / n
        if cover >= 0.8:
            mt += 1
        elif cover < 0.2:
            ml += 1
        else:
            pt += 1
    n_tracks = len(gt_frames)
    return MotReport(
        mota=mota,
        motp=motp,
        mostly_tracked=mt / n_tracks if n_tracks else 0.0,
        partially_tracked=pt / n_tracks if n_tracks else 0.0,
        mostly_lost=ml / n_tracks if n_tracks else 0.0,
        id_switches=ids,
        fragmentations=frags,
        false_alarm_rate=fp / n_frames if n_frames else 0.0,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        total_gt=total_gt,
    )
