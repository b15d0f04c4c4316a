"""Edge cost model: detector scores and box geometry -> signed edge costs.

Four cost families are produced: entry, exit, detection and link. Link costs
come from a weighted offset feature vector; detection costs pass the detector
score through a logistic and map the resulting probability to a signed cost,
either affinely or through log-odds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DataError

#: Geometry-derived pairwise features, in order.
GEOMETRY_FEATURES = ("iou_overlap", "location_similarity", "size_similarity")


@dataclass(frozen=True)
class Detection:
    """One detected bounding box.

    box is (x, y, w, h) in pixels; score is the raw detector confidence.
    extras carries optional precomputed feature inputs from the input file.
    """

    frame: int
    box: tuple[float, float, float, float]
    score: float
    local_index: int
    extras: tuple[float, ...] = ()

    def __post_init__(self):
        x, y, w, h = self.box
        if not (w > 0 and h > 0):
            raise DataError(f"detection box must have positive size, got w={w}, h={h}")
        if self.frame < 0:
            raise DataError(f"detection frame must be >= 0, got {self.frame}")
        if not all(math.isfinite(v) for v in (x, y, w, h, self.score)):
            raise DataError("detection fields must be finite")

    @property
    def key(self) -> tuple[int, int]:
        """Stable identity of the detection within a sequence."""
        return (self.frame, self.local_index)

    @property
    def center(self) -> tuple[float, float]:
        x, y, w, h = self.box
        return (x + w / 2.0, y + h / 2.0)

    @property
    def area(self) -> float:
        return self.box[2] * self.box[3]

    @property
    def diagonal(self) -> float:
        return math.hypot(self.box[2], self.box[3])


def iou(box_a, box_b) -> float:
    """Intersection-over-union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = box_a
    bx, by, bw, bh = box_b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    if inter <= 0.0:
        return 0.0
    union = aw * ah + bw * bh - inter
    return min(1.0, inter / union)


def pairwise_features(a: Detection, b: Detection) -> tuple[float, ...]:
    """Geometry features for linking detection a (frame t) to b (frame t+1).

    Returns (iou_overlap, location_similarity, size_similarity), each in [0, 1].
    """
    overlap = iou(a.box, b.box)
    ca, cb = a.center, b.center
    dist = math.hypot(ca[0] - cb[0], ca[1] - cb[1])
    location = math.exp(-dist / a.diagonal)
    size = min(a.area, b.area) / max(a.area, b.area)
    clamp = lambda v: min(1.0, max(0.0, v))
    return (clamp(overlap), clamp(location), clamp(size))


def _logistic(z: float) -> float:
    """1 / (1 + exp(z)), and its limit 0.0 where exp(z) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(z))
    except OverflowError:
        return 0.0


@dataclass(frozen=True)
class CostModel:
    """Immutable parameter set mapping detections to edge costs.

    feature_offsets / feature_weights must have equal length; the first three
    components address the geometry features, any further components address
    precomputed extra feature columns carried on the detections.
    """

    beta: float = 1.0
    entry_cost: float = 2.0
    exit_cost: float = 2.0
    det_offset: float = -1.0
    det_weight: float = 2.0
    feature_offsets: tuple[float, ...] = (-0.4, -0.4, -0.4)
    feature_weights: tuple[float, ...] = (2.0, 1.0, 1.0)
    det_cost_form: str = "affine"  # "affine" or "logodds"

    def __post_init__(self):
        if len(self.feature_offsets) != len(self.feature_weights):
            raise DataError(
                "feature_offsets and feature_weights must have equal length "
                f"({len(self.feature_offsets)} != {len(self.feature_weights)})"
            )
        if len(self.feature_offsets) < len(GEOMETRY_FEATURES):
            raise DataError("cost model needs at least the three geometry features")
        params = (self.beta, self.entry_cost, self.exit_cost, self.det_offset,
                  self.det_weight, *self.feature_offsets, *self.feature_weights)
        if not all(math.isfinite(p) for p in params):
            raise DataError("cost model parameters must be finite")
        if self.det_cost_form not in ("affine", "logodds"):
            raise DataError(f"unknown det_cost_form {self.det_cost_form!r}")

    @property
    def n_features(self) -> int:
        return len(self.feature_weights)

    # -- per-edge costs -----------------------------------------------------

    def detection_probability(self, score: float) -> float:
        """Probability of the detection being a true positive."""
        return _logistic(-self.beta * score)

    def detection_cost(self, score: float) -> float:
        """Signed cost of keeping a detection; negative for confident ones."""
        logistic = _logistic(self.beta * score)
        if self.det_cost_form == "logodds":
            p = 1.0 - logistic
            p = min(max(p, 1e-12), 1.0 - 1e-12)
            return math.log((1.0 - p) / p)
        return self.det_offset + self.det_weight * logistic

    def link_cost(self, features) -> float:
        """Weighted offset link cost; negative offsets allow attractive links."""
        s = tuple(features)
        if len(s) != self.n_features:
            raise DataError(f"expected {self.n_features} features, got {len(s)}")
        return sum(((1.0 - sl) + o) * w
                   for sl, o, w in zip(s, self.feature_offsets, self.feature_weights))

    # -- detection-level interface used by the graph builder -----------------

    def entry_cost_of(self, det: Detection) -> float:
        return self.entry_cost

    def exit_cost_of(self, det: Detection) -> float:
        return self.exit_cost

    def detection_cost_of(self, det: Detection) -> float:
        return self.detection_cost(det.score)

    def link_cost_of(self, a: Detection, b: Detection) -> float:
        feats = list(pairwise_features(a, b))
        n_extra = self.n_features - len(feats)
        if n_extra > 0:
            # Extra features are precomputed per-pair values stored on the
            # successor detection's trailing CSV columns.
            extras = b.extras[:n_extra]
            if len(extras) < n_extra:
                raise DataError(
                    f"model expects {n_extra} extra feature column(s), detection "
                    f"{b.key} carries {len(b.extras)}"
                )
            feats.extend(min(1.0, max(0.0, e)) for e in extras)
        return self.link_cost(feats)
