"""Frame-at-a-time link pricing against the scalar references.

TrackingGraph.prepare_frame gates and prices the (previous frame x new frame)
block at once, with gate_block and CostModel.link_costs_of. These tests pin
both to default_gate and link_cost_of bit for bit, errors included, and pin
whole graphs, batch and windowed, to a builder that prices pair by pair.
"""
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtrack import graph, online
from flowtrack.cost_model import CostModel, Detection, FrameBoxes, iou
from flowtrack.errors import DataError
from flowtrack.graph import (LINK, TrackingGraph, build_batch_graph,
                             default_gate)
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.synthetic import SyntheticConfig, generate_synthetic
from reference import gate_block, pair_index_links

PROPERTY = settings(derandomize=True, database=None, max_examples=400,
                    deadline=None)

#: Box scales from tiny to where x + w and w * h overflow.
SCALES = (1e-150, 1e-40, 1e-3, 1.0, 50.0, 1e8, 1e16, 1e150, 1e300, 1e307)
unit = st.floats(-4.0, 4.0)
size = st.floats(0.01, 4.0)
extra = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(
    [math.inf, -math.inf, 0.0, -0.0, 1.0]))


@st.composite
def box_near(draw, prev):
    """A fresh box at some scale, or one identical to, touching or shifted
    from a box of the previous frame."""
    mode = draw(st.sampled_from(["fresh", "same", "touch", "shift"]))
    if prev and mode != "fresh":
        x, y, w, h = draw(st.sampled_from(prev))
        if mode == "touch":
            x += w
        elif mode == "shift":
            x += draw(unit) * w
            y += draw(unit) * h
        return (x, y, w, h)
    s = draw(st.sampled_from(SCALES))
    return (draw(unit) * s, draw(unit) * s, draw(size) * s, draw(size) * s)


@st.composite
def frame_pair(draw):
    """Two consecutive frames of 1-4 detections; new ones carry 0-2 extras."""
    prev_boxes = [draw(box_near([])) for _ in range(draw(st.integers(1, 4)))]
    new_boxes = [draw(box_near(prev_boxes))
                 for _ in range(draw(st.integers(1, 4)))]
    prev = [Detection(0, b, 0.0, i) for i, b in enumerate(prev_boxes)]
    new = [Detection(1, b, 0.0, i,
                     extras=tuple(draw(st.lists(extra, max_size=2))))
           for i, b in enumerate(new_boxes)]
    return prev, new


param = st.one_of(st.floats(-3.0, 3.0),
                  st.sampled_from([1e308, -1e308, 0.0]))


@st.composite
def models(draw):
    """3- and 4-feature models; huge parameters make inf and NaN costs."""
    n = draw(st.sampled_from([3, 4]))
    return CostModel(feature_offsets=tuple(draw(param) for _ in range(n)),
                     feature_weights=tuple(draw(param) for _ in range(n)))


def outcome(fn):
    """Hex of each returned float, or the DataError text."""
    try:
        return [c.hex() for c in fn()]
    except DataError as exc:
        return f"DataError: {exc}"


def scalar_costs(model, pairs):
    """link_cost_of pair by pair, stopping at the first error or NaN cost
    with the DataError the graph raises for it."""
    costs = []
    for a, b in pairs:
        cost = model.link_cost_of(a, b)
        if math.isnan(cost):
            raise DataError(f"non-finite link cost for {a.key}->{b.key}")
        costs.append(cost)
    return costs


@PROPERTY
@given(dets=frame_pair(), model=models(),
       radius=st.sampled_from([0.0, 0.5, 2.0, 1e300]))
def test_block_pricing_is_bit_identical_to_scalar(dets, model, radius):
    prev, new = dets
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pb, nb = FrameBoxes(prev), FrameBoxes(new)
        mask = gate_block(pb, nb, radius)
        assert mask.tolist() == [[default_gate(a, b, radius) for b in new]
                                 for a in prev]
        # gated pairs, then all pairs (gating off)
        for admitted in (mask, np.ones_like(mask)):
            ip, jn = np.nonzero(admitted)
            pairs = [(prev[i], new[j]) for i, j in zip(ip, jn)]
            assert (outcome(lambda: model.link_costs_of(pb, nb, ip, jn))
                    == outcome(lambda: scalar_costs(model, pairs)))


def test_gate_on_its_radius_follows_math_hypot():
    """Centre distances exactly on the gate radius, where np.hypot rounds
    above math.hypot: default_gate admits the pair, so gate_block must."""
    rng = np.random.default_rng(0)
    a = Detection(0, (0.0, 0.0, 1.0, 1.0), 0.0, 0)
    checked = 0
    while checked < 10:
        b = Detection(1, (*rng.uniform(-100.0, 100.0, 2).tolist(), 1.0, 1.0),
                      0.0, 0)
        dx, dy = a.center[0] - b.center[0], a.center[1] - b.center[1]
        dist = math.hypot(dx, dy)
        if np.hypot(dx, dy) <= dist:
            continue
        radius = dist / a.diagonal
        radius = next((r for r in (radius, math.nextafter(radius, 0.0),
                                   math.nextafter(radius, math.inf))
                       if r * a.diagonal == dist), None)
        if radius is None:
            continue
        assert default_gate(a, b, radius)
        assert gate_block(FrameBoxes([a]), FrameBoxes([b]), radius).tolist() \
            == [[True]]
        checked += 1


def test_overlap_rounded_up_to_the_summed_areas():
    """At 1e16, x + w rounds up by two units, so the intersection of two
    unit boxes equals their summed areas and the union is 0.0."""
    a = Detection(0, (1e16 + 2, 0.0, 1.0, 1.0), 0.0, 0)
    b = replace(a, frame=1)
    assert iou(a.box, b.box) == 1.0
    model = CostModel()
    one = np.array([0])
    assert model.link_costs_of(FrameBoxes([a]), FrameBoxes([b]), one, one) \
        == [model.link_cost_of(a, b)]


def test_block_terms_add_left_to_right():
    """Identical boxes have every geometry feature 1.0, so each term is its
    offset times its weight: 1e16, 1.0 and -1e16, which add up to 0.0 from
    left to right on every interpreter."""
    a = Detection(0, (3.0, 4.0, 2.0, 5.0), 0.0, 0)
    b = replace(a, frame=1)
    model = CostModel(feature_offsets=(1.0, 1.0, -1.0),
                      feature_weights=(1e16, 1.0, 1e16))
    one = np.array([0])
    assert model.link_costs_of(FrameBoxes([a]), FrameBoxes([b]), one, one) \
        == [model.link_cost_of(a, b)] == [0.0]


class _NodeCostsOnly:
    """The wrapped model, except that it prices every link +inf."""

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        return getattr(self.model, name)

    def link_costs_of(self, prev, new, ip, jn):
        return [math.inf] * len(ip)


class ScalarGraph(TrackingGraph):
    """Reference: gates and prices each (previous, new) pair on its own,
    with default_gate and link_cost_of."""

    def prepare_frame(self, new_detections, model, frame=None):
        prepared = super().prepare_frame(new_detections,
                                         _NodeCostsOnly(model), frame)
        prev = self.frames.get(prepared.frame - 1, [])
        ends, costs = [], []
        for i, p in enumerate(prev):
            for j, d in enumerate(prepared.dets, len(prev)):
                if self.gating and not default_gate(p, d,
                                                    self.gate_radius_factor):
                    continue
                cost = model.link_cost_of(p, d)
                if math.isnan(cost):
                    raise DataError(f"non-finite link cost for "
                                    f"{p.key}->{d.key}")
                if not math.isinf(cost):
                    ends.append((i, j))
                    costs.append(cost)
        # link ends index the previous frame's detections, then the new ones
        return replace(prepared,
                       link_ends=np.array(ends, dtype=np.int64).reshape(-1, 2).T,
                       link_costs=np.array(costs, dtype=float),
                       link_counts=[len(costs)])


def graph_arrays(g):
    """Everything the solvers read, as lists, costs as hex."""
    return (g.e_src.tolist(), g.e_dst.tolist(), g.e_kind.tolist(),
            [c.hex() for c in g.e_cost.tolist()], g.e_alive.tolist(),
            g.e_origin.tolist(), g.node_kind.tolist(), g.node_in.tolist(),
            g.node_out.tolist(),
            {f: x.tolist() for f, x in g.frame_nodes.items()},
            {f: x.tolist() for f, x in g.frame_links.items()},
            list(g.frames),
            None if g.last_boxes is None else g.last_boxes.geo.tolist())


CROWDED = SyntheticConfig(n_frames=25, n_initial_tracks=12, crossing=True,
                          spawn_prob=0.1, death_prob=0.05, miss_rate=0.05,
                          fp_rate=0.2)
STATIONARY = SyntheticConfig(n_frames=40, n_initial_tracks=5, spawn_prob=0.0,
                             death_prob=0.0, miss_rate=0.1, fp_rate=0.1)
#: The default model and a 4-feature one reading an extra column.
MODELS = (CostModel(), CostModel(feature_offsets=(-0.4, -0.4, -0.4, -0.2),
                                 feature_weights=(2.0, 1.0, 1.0, 0.5)))


def parsed(detections):
    """Synthetic detections as a CSV parse gives them: Python floats, here
    with one extra column."""
    return {f: [replace(d, box=tuple(map(float, d.box)), score=float(d.score),
                        extras=((d.local_index % 5) / 4.0,)) for d in ds]
            for f, ds in detections.items()}


def gate_boundary_scene():
    """3 x 4 boxes (diagonal 5) whose centres move from the origin to
    exactly 0, 0.5 and 2 diagonals away, along an axis and along the 3-4-5
    diagonal, or a hair further, and back: each radius factor of 0, 0.5 and
    2 has pairs right on its gate and just outside it. Each move takes
    three frames of its own, apart from the others'."""
    steps = [(0.0, 0.0), (2.0 ** -52, 0.0)]
    for r in (2.5, 10.0):
        beyond = r * (1.0 + 2.0 ** -40)
        steps += [(r, 0.0), (0.0, -r), (-0.6 * r, 0.8 * r), (beyond, 0.0),
                  (0.0, -beyond)]
    frames = {}
    for k, (cx, cy) in enumerate(steps):
        for f, (x, y) in enumerate([(0.0, 0.0), (cx, cy), (0.0, 0.0)]):
            # the box whose centre, x + w / 2 and y + h / 2, is (x, y)
            frames[4 * k + f] = [Detection(4 * k + f, (x - 1.5, y - 2.0, 3.0,
                                                       4.0), 1.0, 0)]
    return parsed(frames)


@pytest.mark.parametrize("gating,radius", [(True, 2.0), (True, 0.5),
                                           (False, 2.0)])
@pytest.mark.parametrize("model", MODELS)
def test_batch_graph_matches_scalar_builder(model, gating, radius):
    scenes = [generate_synthetic(CROWDED, seed)[0] for seed in (0, 1)]
    for detections in [parsed(s) for s in scenes] + [gate_boundary_scene()]:
        ref = ScalarGraph(gating=gating, gate_radius_factor=radius)
        for f in sorted(detections):
            ref.append_frame(detections[f], model, frame=f)
        got = build_batch_graph(detections, model, gating=gating,
                                gate_radius_factor=radius)
        assert graph_arrays(got) == graph_arrays(ref)
        assert sum(k == LINK for k in got.e_kind) > 0


def wide_scene():
    """A run with frames of 1 and of 200 detections, an empty frame, a gap
    and one frame pair (200 x 50) above the default PAIR_BUDGET, its boxes
    spread so that some pairs pass the gate and most do not."""
    rnd = random.Random(5)
    sizes = {0: 3, 1: 1, 2: 200, 3: 50, 4: 0, 6: 7, 7: 1, 8: 4}
    frames = {}
    for f, n in sizes.items():
        frames[f] = []
        for i in range(n):
            w = rnd.uniform(10.0, 40.0)
            frames[f].append(Detection(
                f, (rnd.uniform(0.0, 400.0), rnd.uniform(0.0, 400.0), w,
                    w * rnd.uniform(1.5, 2.5)), rnd.uniform(-1.0, 3.0), i,
                extras=((i % 5) / 4.0,)))
    return frames


@pytest.mark.parametrize("budget", [1, 7, 100, None])
def test_pair_budget_does_not_change_the_graph(budget, monkeypatch):
    """Gating and pricing blocks of at most PAIR_BUDGET pairs (None: the
    default), frame grids stacked or cut by rows, gives the graph and the
    first error of the default budget, and the link ends, costs and
    per-frame counts of the global pair index (pair_index_links), on a
    crowded run and on wide_scene; no gated block is larger."""
    scenes = [parsed({f: ds for f, ds in
                      generate_synthetic(CROWDED, 0)[0].items() if f < 8}),
              wide_scene()]
    nan_model = CostModel(feature_offsets=(1e308, 1e308, 0.0),
                          feature_weights=(1e308, -1e308, 1.0))

    def outcomes():
        out = []
        for detections in scenes:
            out += [graph_arrays(build_batch_graph(detections, m,
                                                   gating=gating))
                    for m in MODELS for gating in (True, False)]
            with pytest.raises(DataError) as error:
                build_batch_graph(detections, nan_model)
            out.append(str(error.value))
        return out

    default = outcomes()
    if budget is not None:
        monkeypatch.setattr(graph, "PAIR_BUDGET", budget)
    gate, cells = graph._gate, []

    def counted(ga, gb, radius_factor):
        cells.append(np.broadcast(ga[0], gb[0]).size)
        return gate(ga, gb, radius_factor)

    monkeypatch.setattr(graph, "_gate", counted)
    assert outcomes() == default
    # a gated block holds at most the budget, or one row of 200 or 50
    assert 0 < max(cells) <= max(budget or graph.PAIR_BUDGET, 200)
    for detections in scenes:
        for model in MODELS:
            for gating in (True, False):
                got = TrackingGraph(gating=gating).prepare_frame(detections,
                                                                 model)
                (ip, jn), cost, counts = pair_index_links(got, model, gating)
                assert [e.tolist() for e in got.link_ends] == [ip.tolist(),
                                                               jn.tolist()]
                assert ([c.hex() for c in got.link_costs.tolist()]
                        == [c.hex() for c in cost.tolist()])
                assert list(got.link_counts) == counts
    wide = TrackingGraph().prepare_frame(scenes[1], MODELS[0])
    assert 0 < wide.link_counts[3] < 200 * 50  # the gate admits some


@pytest.mark.parametrize("window", [3, None])
def test_online_graphs_match_scalar_builder(window, monkeypatch):
    """Windowed graphs recycle node and edge ids across clips; odssp's only
    grow. Every frame's graph and solution match the reference's."""
    detections = parsed(generate_synthetic(STATIONARY, 4)[0])
    for model in MODELS:
        config = TrackerConfig(model=model, window=window)
        got = OnlineTracker(config)
        with monkeypatch.context() as m:
            m.setattr(online, "TrackingGraph", ScalarGraph)
            ref = OnlineTracker(config)
        assert type(ref.graph) is ScalarGraph
        appended = 0  # edges ever appended
        for f in sorted(detections):
            sol_got = got.process_frame(detections[f], frame=f)
            appended += 3 * len(detections[f]) + len(got.graph.frame_links[f])
            sol_ref = ref.process_frame(detections[f], frame=f)
            assert graph_arrays(got.graph) == graph_arrays(ref.graph), f
            last = got.graph.last_boxes
            assert (last.dets if last else []) == got.graph.frames[f]
            assert (float(sol_got.total_cost).hex()
                    == float(sol_ref.total_cost).hex())
        if window is not None:  # clips recycled ids
            assert len(got.graph.e_src) < appended


def test_nan_link_leaves_graph_untouched():
    """Huge weights of opposite sign make every link cost inf - inf."""
    model = CostModel(feature_offsets=(1e308, 1e308, 0.0),
                      feature_weights=(1e308, -1e308, 1.0))
    frames = parsed(generate_synthetic(STATIONARY, 2)[0])
    for graph in (TrackingGraph(), ScalarGraph()):
        graph.append_frame(frames[0], CostModel(), frame=0)
        before = graph_arrays(graph)
        with pytest.raises(DataError, match="non-finite link cost for "
                                            r"\(0, 0\)->\(1, 0\)"):
            graph.append_frame(frames[1], model, frame=1)
        assert graph_arrays(graph) == before
