"""Synthetic multi-target sequences with ground truth for tests and benchmarks.

Targets move with constant velocity plus noise inside a rectangular field.
Detections are the ground-truth boxes with observation jitter, dropped with a
configurable miss rate; false positives are mixed in so that a configurable
fraction of all emitted boxes carries no ground-truth identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost_model import Detection
from .errors import DataError
from .metrics import GroundTruth


@dataclass(frozen=True)
class SyntheticConfig:
    n_frames: int = 50
    n_initial_tracks: int = 3
    spawn_prob: float = 0.05
    death_prob: float = 0.02
    field_size: tuple[float, float] = (1000.0, 1000.0)
    box_size_range: tuple[float, float] = (30.0, 60.0)
    speed_range: tuple[float, float] = (2.0, 12.0)
    motion_noise: float = 1.0
    observation_noise: float = 1.0
    miss_rate: float = 0.0
    fp_rate: float = 0.0
    true_score_mean: float = 2.0
    false_score_mean: float = -1.0
    score_noise: float = 0.5
    crossing: bool = False

    def __post_init__(self):
        for name in ("spawn_prob", "death_prob", "miss_rate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise DataError(f"{name} must be in [0, 1], got {p}")
        if not 0.0 <= self.fp_rate < 1.0:
            raise DataError(f"fp_rate must be in [0, 1), got {self.fp_rate}")
        if self.n_frames < 1:
            raise DataError("n_frames must be >= 1")
        if self.n_initial_tracks < 0:
            raise DataError(f"n_initial_tracks must be >= 0, got "
                            f"{self.n_initial_tracks}")


class _Target:
    def __init__(self, rng, cfg: SyntheticConfig, frame: int, track_id: int,
                 toward_center: bool = False):
        fw, fh = cfg.field_size
        self.track_id = track_id
        self.w = rng.uniform(*cfg.box_size_range)
        self.h = rng.uniform(*cfg.box_size_range)
        self.x = rng.uniform(0.1 * fw, 0.9 * fw)
        self.y = rng.uniform(0.1 * fh, 0.9 * fh)
        speed = rng.uniform(*cfg.speed_range)
        if toward_center:
            # Aim at the field center so targets cross each other's paths.
            dx, dy = fw / 2 - self.x, fh / 2 - self.y
            norm = max(np.hypot(dx, dy), 1e-9)
            self.vx, self.vy = speed * dx / norm, speed * dy / norm
        else:
            angle = rng.uniform(0.0, 2 * np.pi)
            self.vx, self.vy = speed * np.cos(angle), speed * np.sin(angle)
        self.born = frame

    def step(self, rng, cfg: SyntheticConfig):
        self.x += self.vx + rng.normal(0.0, cfg.motion_noise)
        self.y += self.vy + rng.normal(0.0, cfg.motion_noise)
        fw, fh = cfg.field_size
        # Bounce off the field borders.
        if not 0.0 <= self.x <= fw - self.w:
            self.vx = -self.vx
            self.x = min(max(self.x, 0.0), fw - self.w)
        if not 0.0 <= self.y <= fh - self.h:
            self.vy = -self.vy
            self.y = min(max(self.y, 0.0), fh - self.h)

    @property
    def box(self):
        return (self.x, self.y, self.w, self.h)


def generate_synthetic(cfg: SyntheticConfig, seed: int):
    """Deterministic (detections per frame, GroundTruth) for a config and a
    seed >= 0."""
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    gt = GroundTruth()
    detections: dict[int, list[Detection]] = {}
    targets = [_Target(rng, cfg, 0, tid, toward_center=cfg.crossing)
               for tid in range(cfg.n_initial_tracks)]
    next_id = cfg.n_initial_tracks
    fp_odds = cfg.fp_rate / (1.0 - cfg.fp_rate) if cfg.fp_rate else 0.0

    for f in range(cfg.n_frames):
        if f > 0:
            targets = [t for t in targets if rng.random() >= cfg.death_prob]
            for t in targets:
                t.step(rng, cfg)
            if rng.random() < cfg.spawn_prob:
                targets.append(_Target(rng, cfg, f, next_id,
                                       toward_center=cfg.crossing))
                next_id += 1
        frame_dets = []
        for t in targets:
            gt.add(f, t.track_id, t.box)
            if rng.random() < cfg.miss_rate:
                continue
            x, y, w, h = t.box
            jitter = rng.normal(0.0, cfg.observation_noise, size=2)
            score = cfg.true_score_mean + cfg.score_noise * rng.normal()
            frame_dets.append(Detection(
                frame=f,
                box=(x + jitter[0], y + jitter[1], w, h),
                score=float(score),
                local_index=len(frame_dets)))
        # One Bernoulli false-positive opportunity per true emission keeps the
        # expected FP fraction of all emitted boxes equal to fp_rate.
        if fp_odds:
            n_true = len(frame_dets)
            for _ in range(n_true):
                if rng.random() < fp_odds:
                    fw, fh = cfg.field_size
                    w = rng.uniform(*cfg.box_size_range)
                    h = rng.uniform(*cfg.box_size_range)
                    score = cfg.false_score_mean + cfg.score_noise * rng.normal()
                    frame_dets.append(Detection(
                        frame=f,
                        box=(rng.uniform(0, fw - w), rng.uniform(0, fh - h), w, h),
                        score=float(score),
                        local_index=len(frame_dets)))
        detections[f] = frame_dets
    return detections, gt

