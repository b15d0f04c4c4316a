"""Edge cost model: detector scores and box geometry -> signed edge costs.

Four cost families are produced: entry, exit, detection and link. Link costs
come from a weighted offset feature vector; detection costs pass the detector
score through a logistic and map the resulting probability to a signed cost,
either affinely or through log-odds.

`link_cost_of` prices one pair of detections and is the reference. The graph
prices every candidate pair of a run of frames at once with
`CostModel.link_costs_of`, over the `FrameBoxes` geometry computed once per
detection. It gives the same floats bit for bit: numpy does the elementwise
IEEE arithmetic, `math.hypot` and `math.exp` are mapped over lists (numpy's
hypot and exp differ in the last bit on some inputs), both add the weighted
terms one at a time from 0.0, left to right (the builtin `sum` compensates
its rounding from Python 3.12 on, and numpy's sum changes the order of
adding), and `np.fmin`/`np.fmax` keep the builtin `min`/`max` rule of
passing over a NaN second argument.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DataError

#: Geometry-derived pairwise features, in order.
GEOMETRY_FEATURES = ("iou_overlap", "location_similarity", "size_similarity")


@dataclass(frozen=True, slots=True)
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
        # w > 0 and w * h > 0 give h > 0; a sum of finite fields is finite
        # unless it overflows, which the checks below let pass.
        if not (w > 0 and w * h > 0 and self.frame >= 0
                and math.isfinite(x + y + w + h + self.score)):
            self._check_fields()

    def _check_fields(self):
        """DataError naming the first rule the fields break, if any."""
        x, y, w, h = self.box
        if not (w > 0 and h > 0):
            raise DataError(f"detection box must have positive size, got w={w}, h={h}")
        if self.frame < 0:
            raise DataError(f"detection frame must be >= 0, got {self.frame}")
        if not all(math.isfinite(v) for v in (x, y, w, h, self.score)):
            raise DataError("detection fields must be finite")
        if not w * h > 0:
            raise DataError(f"detection box area w*h underflows to zero, "
                            f"got w={w}, h={h}")

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
    if union == 0.0:  # rounding made inter equal the summed areas
        return 1.0
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


def nan_link_error(a: Detection, b: Detection) -> DataError:
    return DataError(f"non-finite link cost for {a.key}->{b.key}")


class FrameBoxes:
    """Detections (nonempty, a frame's in local-index order, or a run of
    frames'), with their box geometry as the rows of the (8, n) array `geo`:
    x, y, x + w, y + h, centre x, centre y, area and diagonal, each computed
    as the Detection properties and iou() compute it."""

    __slots__ = ("dets", "geo")

    def __init__(self, dets: list[Detection], geo: np.ndarray | None = None):
        self.dets = dets
        self.geo = geo if geo is not None else np.array(
            [(x, y, x + w, y + h, x + w / 2.0, y + h / 2.0, w * h,
              math.hypot(w, h)) for x, y, w, h in (d.box for d in dets)],
            dtype=float).T


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
        # columns that broadcast over a frame's pairs in link_costs_of
        object.__setattr__(self, "_offsets",
                           np.array(self.feature_offsets, dtype=float)[:, None])
        object.__setattr__(self, "_weights",
                           np.array(self.feature_weights, dtype=float)[:, None])

    @property
    def n_features(self) -> int:
        return len(self.feature_weights)

    # -- per-edge costs -----------------------------------------------------

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
        acc = 0.0  # left to right: the builtin sum rounds otherwise from 3.12
        for sl, o, w in zip(s, self.feature_offsets, self.feature_weights):
            acc += ((1.0 - sl) + o) * w
        return acc

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
                raise self._missing_extras(b)
            feats.extend(min(1.0, max(0.0, e)) for e in extras)
        return self.link_cost(feats)

    def link_costs_of(self, prev: FrameBoxes, new: FrameBoxes,
                      ip: np.ndarray, jn: np.ndarray) -> list[float]:
        """[link_cost_of(prev.dets[i], new.dets[j]) for i, j in zip(ip, jn)],
        bit for bit, in one array pass.

        Raises a DataError for the first pair whose cost is NaN or whose
        successor lacks the model's extra feature columns, with the text
        that pricing pair by pair gives.
        """
        a, b = prev.geo[:, ip], new.geo[:, jn]
        area_a, area_b = a[6], b[6]
        s = np.empty((self.n_features, len(ip)))
        with np.errstate(all="ignore"):
            ixy = np.minimum(a[2:4], b[2:4]) - np.maximum(a[0:2], b[0:2])
            np.maximum(ixy, 0.0, out=ixy)
            inter = ixy[0] * ixy[1]
            # iou(). Areas are positive, so inter == 0.0 gives 0.0 without
            # a branch, and inter / 0.0 is inf, which min() makes 1.0.
            np.fmin(1.0, inter / (area_a + area_b - inter), out=s[0])
            # exp(-dist / diagonal) in Python floats, as pairwise_features()
            dist = map(math.hypot, *(a[4:6] - b[4:6]).tolist())
            s[1] = list(map(math.exp, map(operator.truediv,
                                          map(operator.neg, dist),
                                          a[7].tolist())))
            np.divide(np.minimum(area_a, area_b), np.maximum(area_a, area_b),
                      out=s[2])
            missing = self._extras(new, s, jn)
            # The geometry features are at most 1.0 or NaN, and the extras
            # come clamped, so max(0.0, v) is what is left of the clamp.
            np.fmax(0.0, s, out=s)
            np.subtract(1.0, s, out=s)
            s += self._offsets
            s *= self._weights
            acc = 0.0 + s[0]  # as link_cost adds the terms, left to right
            for row in s[1:]:
                acc += row
        costs = acc.tolist()
        # the sum of the costs is NaN whenever one of them is
        if missing is not None or math.isnan(sum(costs)):
            bad = np.isnan(costs)
            if missing is not None:
                bad |= missing
            if bad.any():
                k = int(bad.argmax())
                pa, pb = prev.dets[ip[k]], new.dets[jn[k]]
                if missing is not None and missing[k]:
                    raise self._missing_extras(pb)
                raise nan_link_error(pa, pb)
        return costs

    def _extras(self, new: FrameBoxes, s: np.ndarray, jn: np.ndarray):
        """Fill s[3:] with the clamped extra columns of new.dets[jn].
        Returns the mask of the pairs whose successor lacks them, or None
        when none does."""
        n_extra = self.n_features - len(GEOMETRY_FEATURES)
        if not n_extra:
            return None
        rows = [d.extras[:n_extra] for d in new.dets]
        short = np.array([len(r) < n_extra for r in rows])
        table = np.array([(0.0,) * n_extra if lacks else r
                          for r, lacks in zip(rows, short)], dtype=float)
        s[3:] = np.fmin(1.0, np.fmax(0.0, table))[jn].T
        return short[jn] if short.any() else None

    def _missing_extras(self, b: Detection) -> DataError:
        n_extra = self.n_features - len(GEOMETRY_FEATURES)
        return DataError(f"model expects {n_extra} extra feature column(s), "
                         f"detection {b.key} carries {len(b.extras)}")
