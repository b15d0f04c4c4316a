"""The slot table every search reads (ResidualGraph.arcs), held to the
edge-column references after every frame of windowed, gapped and tied
streams: each usable slot's reduced cost, the target's exit slots, path
prices, and scipy's search on the CSR the table keeps between frames; and
each full search's per-edge pricing held to the table's slots."""
import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import flowtrack.online as online
import flowtrack.ssp as ssp
import reference
from flowtrack.cost_model import CostModel, Detection
from flowtrack.errors import InvariantBreach
from flowtrack.graph import EXIT, KIND_DEAD, KIND_U, SINK, build_batch_graph
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.ssp import (ResidualGraph, SolverStats, dijkstra_full,
                           extract_path, solve_ssp)
from flowtrack.synthetic import SyntheticConfig, generate_synthetic
from reference import edge_path_cost, fwd_dst, reduced
from test_broadcast import CRITERION_6
from test_online import quarter_frames
from test_ssp import dyadic_frames, synthetic_frames

STREAMS = {
    "windowed": lambda: (*synthetic_frames(), 4),
    "gapped": lambda: (*dyadic_frames(5, n_frames=16, skip=True), None),
    "gapped-windowed": lambda: (*dyadic_frames(6, n_frames=16, skip=True), 3),
    "tied": lambda: (*quarter_frames(2), None),
    "tied-windowed": lambda: (*quarter_frames(3), 5),
}


def bits(a):
    """The float64 values as their bit patterns, to compare bit for bit."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def frames_of(name):
    """A tracker's residual after each frame of the named stream."""
    frames, model, window = STREAMS[name]()
    tracker = OnlineTracker(TrackerConfig(model=model, window=window))
    for f in sorted(frames):
        tracker.process_frame(frames[f], frame=f)
        yield tracker.cache.residual


def reference_exits(res, dist):
    """ResidualGraph.exits as the edge columns give it: the unflowed live
    exits in edge order, priced by reduced()."""
    g = res.graph
    eids = np.flatnonzero((g.e_kind == EXIT) & g.e_alive & (res.flow == 0))
    tails = g.e_src[eids]
    values = dist[tails] + np.maximum(reduced(res, eids), 0.0)
    order = np.argsort(values, kind="stable")
    order = order[np.isfinite(values[order])]
    return values[order], tails[order]


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_table_matches_the_edge_columns_after_every_frame(name):
    checked = paths = 0
    for res in frames_of(name):
        g, t = res.graph, res.arcs()
        live = np.flatnonzero(g.e_alive)
        # one forward and one reverse slot per live edge, by tail then head
        assert sorted(t.eid.tolist()) == sorted(2 * live.tolist())
        assert np.all(np.diff(t.key) > 0)
        assert np.array_equal(t.row, np.where(t.rev, g.e_dst[t.eid],
                                              g.e_src[t.eid]))
        assert np.array_equal(t.col, np.where(t.rev, g.e_src[t.eid],
                                              fwd_dst(res, t.eid)))
        usable = res.flow[t.eid] == t.rev
        assert np.array_equal(bits(res.slot_reduced(usable)),
                              bits(reduced(res, t.eid[usable])))
        # the kept exit slots are the live exits, in edge order
        exits = live[g.e_kind[live] == EXIT]
        assert t.eid[t.exits].tolist() == exits.tolist()
        assert not t.rev[t.exits].any()
        assert np.all(t.col[t.exits] == res.target)
        path, labels = dijkstra_full(res)
        want = reference_exits(res, labels.dist)
        for got in (res.exits(labels.dist, labels.rc), res.exits(labels.dist)):
            got = list(got)
            assert np.array_equal(bits([value for value, _ in got]),
                                  bits(want[0]))
            assert [v for _, v in got] == want[1].tolist()
        # every candidate's path costs its edge-column price
        for v in want[1].tolist():
            via = extract_path(res, labels, via=v)
            assert bits(via.cost) == bits(edge_path_cost(res, via))
            paths += 1
        if path is not None:
            assert bits(path.cost) == bits(edge_path_cost(res, path))
        checked += 1
    assert checked > 10 and paths > 10


def test_kept_csr_searches_as_a_new_one():
    """Over a windowed stream whose node count sometimes changes, scipy's
    search on the CSR the table keeps gives the labels and predecessors of
    a csr_matrix built afresh from the same arrays."""
    cfg = SyntheticConfig(n_frames=40, n_initial_tracks=4, miss_rate=0.1,
                          fp_rate=0.3, spawn_prob=0.1, death_prob=0.05)
    frames = generate_synthetic(cfg, 11)[0]
    tracker = OnlineTracker(TrackerConfig(model=CostModel(), window=5))
    res, kept, resized = tracker.cache.residual, [], []
    for f in sorted(frames):
        before = res.arcs().matrix
        shape = before.shape
        tracker.process_frame(frames[f], frame=f)
        matrix = res.arcs().matrix
        kept.append(matrix is before)
        assert kept[-1] == (matrix.shape == before.shape)
        dijkstra_full(res)  # fills the weights in place
        fresh = csr_matrix((matrix.data.copy(), matrix.indices.copy(),
                            matrix.indptr.copy()), shape=matrix.shape)
        for got, want in zip(
                dijkstra(matrix, indices=res.roots, min_only=True,
                         return_predecessors=True),
                dijkstra(fresh, indices=res.roots, min_only=True,
                         return_predecessors=True)):
            assert np.array_equal(got, want)
        resized.append(matrix.shape != shape)
    # the object is kept and resized when the node count changes
    assert all(kept[1:]) and any(resized[1:])


def test_search_right_after_a_clip():
    """A clip drops the slot table, eps and the cost sum with the edges it
    kills, as an append does: a search straight after it reaches no dead
    node, and eps and the cost sum are a fresh residual's."""
    cfg = SyntheticConfig(n_frames=12, n_initial_tracks=5, spawn_prob=0.0,
                          death_prob=0.0, miss_rate=0.1, fp_rate=0.1)
    frames = generate_synthetic(cfg, 7000)[0]
    tracker = OnlineTracker(TrackerConfig(model=CostModel(), window=5))
    for f in sorted(frames):
        tracker.process_frame(frames[f], frame=f)
    res = tracker.cache.residual
    tracker._clip_one_frame()
    _, labels = dijkstra_full(res)
    dead = np.append(tracker.graph.node_kind == KIND_DEAD, False)
    assert dead.any() and not np.isfinite(labels.dist[dead]).any()
    table, fresh = res.arcs(), ResidualGraph(tracker.graph).arcs()
    assert (table.eps, table.cost_sum) == (fresh.eps, fresh.cost_sum)


def test_no_frame_builds_the_table_twice(monkeypatch):
    """The cost check of a frame reads the live edges' cost sum without
    building the slot table, so a frame after one that ran no search, as
    at the start of a stream that opens with empty frames, builds it once,
    for its own search."""
    built = [0]  # per frame, after the tracker's own
    table = ssp.SlotTable

    def counted(*fields):
        built[-1] += 1
        return table(*fields)

    monkeypatch.setattr(ssp, "SlotTable", counted)
    tracker = OnlineTracker(TrackerConfig(model=CostModel(), window=3))
    for f in range(8):
        built.append(0)
        dets = [Detection(f, (10.0 + f, 10.0, 20.0, 40.0), 2.0, 0)] if f > 1 else []
        tracker.process_frame(dets, frame=f)
    assert built[1:] == [0, 0, 1, 1, 1, 1, 1, 1]


def slot_search(res, stats=None):
    """dijkstra_full held to the slots it replaced: the reduced costs it
    keeps (PredecessorMap.rc) are slot_reduced's on the usable slots, inf on
    the others, bit for bit, and it counts as relaxations the usable slots
    out of reached rows, as queue pushes the nodes reached."""
    stats = stats or SolverStats()
    before = stats.relaxations, stats.queue_pushes
    t = res.arcs()
    usable = res.flow[t.eid] == t.rev
    want = np.full(len(t.eid), np.inf)
    want[usable] = res.slot_reduced(usable)
    path, labels = dijkstra_full(res, stats)
    assert np.array_equal(bits(labels.rc), bits(want))
    reached = np.isfinite(labels.dist)
    assert (stats.relaxations - before[0], stats.queue_pushes - before[1]) \
        == (np.count_nonzero(usable & reached[t.row]),
            np.count_nonzero(reached))
    return path, labels


@pytest.fixture
def slot_searches(monkeypatch):
    """Route every full search through slot_search; the list of the
    residuals searched, each as its solve left it."""
    searched = []

    def search(res, stats=None):
        out = slot_search(res, stats)
        searched.append(res)
        return out

    monkeypatch.setattr(ssp, "dijkstra_full", search)
    monkeypatch.setattr(online, "dijkstra_full", search)
    return searched


@pytest.mark.parametrize("name", ["windowed", "gapped-windowed"])
def test_windowed_searches_price_the_usable_slots(name, slot_searches):
    """Windowed trackers over gapped streams: clips leave dead edge slots
    and appends take them again, and every search still keeps the slots'
    prices and counts their relaxations."""
    frames, model, window = STREAMS[name]()
    tracker = OnlineTracker(TrackerConfig(model=model, window=window))
    g = tracker.graph
    dead_seen = recycled = 0
    was_dead = np.zeros(0, dtype=bool)
    for f in sorted(frames):
        tracker.process_frame(frames[f], frame=f)
        alive = g.e_alive.copy()
        recycled += np.count_nonzero(was_dead & alive[:len(was_dead)])
        was_dead = ~alive
        dead_seen += g.n_live_edges < len(alive)
    assert len(slot_searches) > 10 and dead_seen > 5 and recycled > 0


def test_batch_searches_with_flowed_exits(slot_searches):
    """ssp on criterion 6's scenes: after the first push the flowed exits'
    reverse arcs leave the sink root, and every search keeps the slots'
    prices and counts their relaxations."""
    from_sink = 0
    for seed in range(3):
        solve_ssp(build_batch_graph(generate_synthetic(CRITERION_6, seed)[0],
                                    CostModel()))
        t = slot_searches[-1].arcs()
        from_sink += np.count_nonzero((t.row == SINK) & t.rev
                                      & (slot_searches[-1].flow[t.eid] == 1))
    assert len(slot_searches) > 30 and from_sink > 5


def test_an_arc_out_of_an_unreached_node_is_not_scanned():
    """A first-frame u node whose tight entry is marked flowed, and nothing
    else: its one in-arc turns round, so the node is unreached, and the
    entry's reverse arc, which leaves it, is not counted as scanned though
    the entry's src, the source, is reached."""
    g = build_batch_graph(generate_synthetic(CRITERION_6, 0)[0], CostModel())
    res = ResidualGraph(g)
    ssp.convert_edge_costs(res, ssp.dag_shortest_path(g))
    u = g.frame_nodes[min(g.frames)][0]
    tight = u[reduced(res, g.node_in[u]) == 0.0]
    res.flow[g.node_in[tight[0]]] = 1
    _, labels = slot_search(res)
    assert not np.isfinite(labels.dist[tight[0]])


def test_a_negative_arc_is_named_in_slot_order():
    """Raised potentials make arcs into two nodes negative: a late u node's
    entry, whose slot leaves the source and so comes first in slot order,
    and an early v node's detection edge, with a smaller edge id. The
    search raises and names the entry, as the slot-order scan it replaced
    names it (reference.dijkstra_full)."""
    g = build_batch_graph(generate_synthetic(CRITERION_6, 0)[0], CostModel())
    res = ResidualGraph(g)
    labels = ssp.convert_edge_costs(res, ssp.dag_shortest_path(g))
    path = extract_path(res, labels)
    for _ in range(3):
        cap, _, _ = ssp.push_round(res, path, labels, SolverStats(),
                                   g.n_detections, single=True)
        res.settle(labels.dist, cap)
        path, labels = dijkstra_full(res)
    us = np.flatnonzero(g.node_kind == KIND_U)
    # the u node with the last unflowed entry, and the first unflowed
    # detection edge out of a reached u node
    late = us[res.flow[g.node_in[us]] == 0][-1]
    early = us[(res.flow[g.node_out[us]] == 0) & np.isfinite(labels.dist[us])]
    entry, det_edge = int(g.node_in[late]), int(g.node_out[early[0]])
    res.potential[[late, g.e_dst[det_edge]]] += 100.0
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ResidualGraph, "slot_reduced",
                            reference.slot_reduced)
        with pytest.raises(InvariantBreach, match="negative reduced cost") \
                as want:
            reference.dijkstra_full(res)
    with pytest.raises(InvariantBreach) as got:
        dijkstra_full(res)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(f"on edge {entry}") and det_edge < entry
