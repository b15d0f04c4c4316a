"""The slot table every search reads (ResidualGraph.arcs), held to the
edge-column references after every frame of windowed, gapped and tied
streams: each usable slot's reduced cost, the target's exit slots, path
prices, and scipy's search on the CSR the table keeps between frames."""
import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import flowtrack.ssp as ssp
from flowtrack.cost_model import CostModel, Detection
from flowtrack.graph import EXIT, KIND_DEAD
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.ssp import ResidualGraph, dijkstra_full, extract_path
from flowtrack.synthetic import SyntheticConfig, generate_synthetic
from reference import edge_path_cost, fwd_dst, reduced
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
        assert np.array_equal(bits(res.slot_reduced()[usable]),
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
    fresh = ResidualGraph(tracker.graph)
    assert (res.eps, res.cost_sum) == (fresh.eps, fresh.cost_sum)


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
