"""Shared helpers: hand-built instances and a seeded random-instance factory."""
from __future__ import annotations

import math

import numpy as np
import pytest

from flowtrack.cost_model import Detection
from flowtrack.graph import TrackingGraph


def det(frame: int, index: int, x: float = None, y: float = 0.0,
        w: float = 10.0, h: float = 10.0, score: float = 1.0) -> Detection:
    """Detection with a default layout that keeps boxes apart."""
    if x is None:
        x = 100.0 * index
    return Detection(frame=frame, box=(x, y, w, h), score=score,
                     local_index=index)


class StubModel:
    """Cost model with explicitly tabulated per-detection/per-pair costs."""

    def __init__(self, entry=2.0, exit_=2.0, detection=-5.0, links=None):
        self.entry = entry
        self.exit = exit_
        self.detection = detection
        self.links = links or {}

    def _scalar(self, table, key):
        if isinstance(table, dict):
            return table[key]
        return table

    def entry_cost_of(self, d):
        return self._scalar(self.entry, d.key)

    def exit_cost_of(self, d):
        return self._scalar(self.exit, d.key)

    def detection_cost_of(self, d):
        return self._scalar(self.detection, d.key)

    def link_cost_of(self, a, b):
        return self.links.get((a.key, b.key), math.inf)

    def link_costs_of(self, prev, new, ip, jn):
        return [self.link_cost_of(prev.dets[i], new.dets[j])
                for i, j in zip(ip.tolist(), jn.tolist())]


def faulty_batch(nan_link=None, bad_exit=None, duplicate=None, n_frames=6):
    """Frames 0..n_frames - 1 of two detections each and a model pricing
    every link, except a NaN link into frame `nan_link` and an infinite exit
    cost in frame `bad_exit`; frame `duplicate` gets a third detection that
    repeats local index 1."""
    frames = {f: [det(f, 0), det(f, 1)] for f in range(n_frames)}
    links = {((f - 1, i), (f, j)): 0.5 * (i + j)
             for f in range(1, n_frames) for i in (0, 1) for j in (0, 1)}
    exits = {(f, i): 2.0 for f in frames for i in (0, 1)}
    if nan_link is not None:
        links[(nan_link - 1, 1), (nan_link, 0)] = math.nan
    if bad_exit is not None:
        exits[bad_exit, 1] = math.inf
    if duplicate is not None:
        frames[duplicate].append(det(duplicate, 1, x=500.0))
    return frames, StubModel(exit_=exits, links=links)


#: faulty_batch arguments and the error that comes first frame by frame.
BATCH_FAULTS = [
    (dict(nan_link=2, bad_exit=4), "non-finite link cost for (1, 1)->(2, 0)"),
    (dict(nan_link=4, bad_exit=2), "non-finite exit edge cost inf"),
    (dict(nan_link=4, bad_exit=4, duplicate=3),
     "duplicate local_index 1 in frame 3"),
    (dict(nan_link=2, duplicate=3), "non-finite link cost for (1, 1)->(2, 0)"),
]


def two_frame_pairs(links_by_index, **kwargs):
    """2 frames x 2 detections graph with link costs keyed by local indices."""
    d00, d01, d10, d11 = det(0, 0), det(0, 1), det(1, 0), det(1, 1)
    links = {((0, a), (1, b)): c for (a, b), c in links_by_index.items()}
    model = StubModel(links=links, **kwargs)
    graph = TrackingGraph(gating=False)
    graph.append_frame([d00, d01], model, frame=0)
    graph.append_frame([d10, d11], model)
    return graph, model, (d00, d01, d10, d11)


def canonical_graph():
    """Matched links free, crossed links cost 1; optimum is the matched
    assignment with total cost -12 (each path: 2 - 5 + 0 - 5 + 2 = -6)."""
    return two_frame_pairs({(0, 0): 0.0, (1, 1): 0.0, (0, 1): 1.0, (1, 0): 1.0})


def interchange_graph():
    """Greedy takes the single cheapest path (-8 via the -4 link), blocking
    both remaining detections; the optimum pairs 0-1 and 1-0 for -18."""
    return two_frame_pairs({(0, 0): -4.0, (0, 1): -3.0, (1, 0): -3.0})


def make_random_instance(seed: int, frame_range=(2, 4), dets_range=(1, 3)):
    """Seeded random instance with mixed-sign costs and all links present.

    Costs are drawn continuously, so optima are unique almost surely and the
    instance is identical however the graph is assembled.
    """
    rng = np.random.default_rng(seed)
    n_frames = int(rng.integers(frame_range[0], frame_range[1] + 1))
    frames = {}
    entry, exit_, detection, links = {}, {}, {}, {}
    for f in range(n_frames):
        dets = [det(f, i, x=float(rng.uniform(0, 500)),
                    y=float(rng.uniform(0, 500)))
                for i in range(int(rng.integers(dets_range[0],
                                                dets_range[1] + 1)))]
        frames[f] = dets
        for d in dets:
            entry[d.key] = float(rng.uniform(0.2, 3.0))
            exit_[d.key] = float(rng.uniform(0.2, 3.0))
            detection[d.key] = float(rng.uniform(-6.0, 1.0))
    for f in range(n_frames - 1):
        for a in frames[f]:
            for b in frames[f + 1]:
                links[(a.key, b.key)] = float(rng.uniform(-3.0, 3.0))
    model = StubModel(entry=entry, exit_=exit_, detection=detection,
                      links=links)
    return frames, model


def build_graph(frames, model):
    graph = TrackingGraph(gating=False)
    for f in sorted(frames):
        graph.append_frame(frames[f], model, frame=f)
    return graph


def hyps_from_trajectories(trajectories):
    """Trajectories -> {frame: [(track_id, box), ...]} for clear_mot."""
    out = {}
    for t in trajectories:
        for d in t.detections:
            out.setdefault(d.frame, []).append((t.track_id, d.box))
    return out


@pytest.fixture
def canonical():
    return canonical_graph()


@pytest.fixture
def interchange():
    return interchange_graph()
