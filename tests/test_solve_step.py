"""A frame's solve step held to the one it replaced, bit for bit.

reference.py keeps the slot table (ResidualGraph.arcs), the reduced costs
(slot_reduced), the target's exits, the full search, the path lookup, the
push round and the flip as they were before each of them took fewer passes.
Each stream of test_slot_table.STREAMS, frame by frame, and each of
criterion 6's batch scenes under ssp and dssp is solved twice: once with
those patched into flowtrack.ssp, once as the package has them. Every full
search, broadcast and push round records what it read and returned, and
each frame or solve its flow, potentials and counters; the two records
must be equal:
  - the table's columns and the CSR's arrays (the package's CSR has a row
    per slot of the potentials' buffer, so past the virtual root it holds
    empty rows);
  - every node's distance and predecessor, and the reduced costs the
    labels keep (the package keeps inf on the slots the flow makes
    unusable);
  - each path (nodes, edges, price bits), push round (cap, certification,
    used nodes, pushed paths) and the counters."""
import numpy as np
import pytest

import flowtrack.online as online
import flowtrack.ssp as ssp
import reference
from flowtrack.cost_model import CostModel
from flowtrack.errors import InvariantBreach
from flowtrack.graph import SOURCE, build_batch_graph
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.ssp import ResidualGraph, solve_dssp, solve_ssp
from flowtrack.synthetic import generate_synthetic
from test_broadcast import CRITERION_6
from test_slot_table import STREAMS


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tobytes()


def path_record(path):
    return None if path is None else (path.nodes, path.eids, bits(path.cost))


def stats_record(stats):
    return (stats.relaxations, stats.queue_pushes, stats.iterations,
            stats.searches)


def table_record(res):
    """The slot table's columns and CSR arrays, the CSR's rows cut to the
    search nodes and the virtual root, with whether any row past them
    holds a slot."""
    t, n = res.arcs(), len(res.potential)
    m = t.matrix
    tail = m.indptr[n + 2:]
    return (t.eid.tobytes(), t.rev.tobytes(), t.row.tobytes(),
            t.col.tobytes(), bits(t.cost), t.key.tobytes(), t.exits.tolist(),
            bits(t.eps), bits(t.cost_sum), m.indices.tobytes(),
            m.indptr[:n + 2].tobytes(), bool(np.any(tail != m.indptr[n + 1])),
            bits(m.data))


def recording(monkeypatch, trace, step):
    """Route the step's functions (step: name -> function, a residual
    method for the three that take self) through recorders that append to
    trace."""
    def search(res, stats=None):
        path, labels = step["dijkstra_full"](res, stats)
        t = res.arcs()
        usable = res.flow[t.eid] == t.rev
        rc = labels.rc
        if step["dijkstra_full"] is reference.dijkstra_full:
            rc = np.where(usable, rc, np.inf)  # what the package keeps
        trace.append(("search", table_record(res), labels.dist.tobytes(),
                      labels.pred.tobytes(), bits(rc), path_record(path),
                      None if stats is None else stats_record(stats)))
        return path, labels

    def broadcast(res, seeds, labels, stats=None):
        path, labels = dynamic_broadcast(res, seeds, labels, stats)
        trace.append(("broadcast", labels.dist.tobytes(),
                      labels.pred.tobytes(), path_record(path)))
        return path, labels

    pushed = []

    def flip(res, *paths):
        pushed.append([path_record(p) for p in paths])
        return step["build_residual"](res, *paths)

    def push(res, shortest, labels, stats, guard, single):
        del pushed[:]
        cap, certified, used = step["push_round"](res, shortest, labels,
                                                  stats, guard, single)
        if isinstance(used, np.ndarray):  # the reference's mask
            used = set(np.flatnonzero(used).tolist())
        trace.append(("push", bits(cap), certified, sorted(used),
                      list(pushed), stats_record(stats)))
        return cap, certified, used

    dynamic_broadcast = ssp.dynamic_broadcast
    for name in ("arcs", "slot_reduced", "exits"):
        monkeypatch.setattr(ResidualGraph, name, step[name])
    monkeypatch.setattr(ssp, "extract_path", step["extract_path"])
    monkeypatch.setattr(ssp, "_count_search", step["_count_search"])
    monkeypatch.setattr(ssp, "dijkstra_full", search)
    monkeypatch.setattr(online, "dijkstra_full", search)
    monkeypatch.setattr(ssp, "dynamic_broadcast", broadcast)
    monkeypatch.setattr(ssp, "push_round", push)
    flipped = "build_residual"
    if step[flipped] is reference.build_residual:
        monkeypatch.setattr(reference, flipped, flip)
    else:
        monkeypatch.setattr(ssp, flipped, flip)


PACKAGE = {"arcs": ResidualGraph.arcs,
           "slot_reduced": ResidualGraph.slot_reduced,
           "exits": ResidualGraph.exits, "extract_path": ssp.extract_path,
           "_count_search": ssp._count_search,
           "dijkstra_full": ssp.dijkstra_full,
           "push_round": ssp.push_round,
           "build_residual": ssp.build_residual}
REFERENCE = {"arcs": reference.arcs, "slot_reduced": reference.slot_reduced,
             "exits": reference.exits, "extract_path": reference.table_path,
             "_count_search": reference.count_search,
             "dijkstra_full": reference.dijkstra_full,
             "push_round": reference.push_round,
             "build_residual": reference.build_residual}


def traced(step, run):
    """run() under step, with its record."""
    trace = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        recording(monkeypatch, trace, step)
        run(trace)
    return trace


def stream_run(name):
    def run(trace):
        frames, model, window = STREAMS[name]()
        tracker = OnlineTracker(TrackerConfig(model=model, window=window))
        for f in sorted(frames):
            tracker.process_frame(frames[f], frame=f)
            res = tracker.cache.residual
            trace.append(("frame", res.flow.tobytes(), bits(res.potential),
                          stats_record(tracker.stats), tracker.frame_stats[-1]
                          .relaxations))
    return run


def batch_run(solve, seed):
    def run(trace):
        dets, _ = generate_synthetic(CRITERION_6, seed)
        solution, stats = solve(build_batch_graph(dets, CostModel()))
        trace.append(("solve", solution.flow.tobytes(),
                      bits(solution.total_cost), stats_record(stats)))
    return run


def assert_same(want, got):
    assert len(got) == len(want)
    for w, g in zip(want, got):
        assert g == w


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_streams_match_the_reference_step(name):
    want = traced(REFERENCE, stream_run(name))
    got = traced(PACKAGE, stream_run(name))
    assert_same(want, got)
    kinds = [record[0] for record in got]
    assert kinds.count("search") > 10 and kinds.count("push") > 10
    # some round pushes more than one path
    assert any(len(record[4][0]) > 1 for record in got
               if record[0] == "push" and record[4])


@pytest.mark.parametrize("solve", [solve_ssp, solve_dssp])
def test_criterion_6_scenes_match_the_reference_step(solve):
    broadcasts = 0
    for seed in range(10):
        want = traced(REFERENCE, batch_run(solve, seed))
        got = traced(PACKAGE, batch_run(solve, seed))
        assert_same(want, got)
        broadcasts += sum(record[0] == "broadcast" for record in got)
    assert (broadcasts > 50) == (solve is solve_dssp)


def test_a_tree_arc_without_a_slot_raises():
    """A predecessor no search set, the source before the v node that
    leaves to the target (the source's slots enter u nodes only), makes a
    tree arc that no slot holds: the path lookup raises instead of pricing
    the slot next to where that arc's key would be."""
    frames, model, window = STREAMS["windowed"]()
    tracker = OnlineTracker(TrackerConfig(model=model, window=window))
    for f in sorted(frames)[:8]:
        tracker.process_frame(frames[f], frame=f)
    res = tracker.cache.residual
    path, labels = ssp.dijkstra_full(res)
    assert ssp.extract_path(res, labels) == path
    labels.pred[path.nodes[-2]] = SOURCE
    with pytest.raises(InvariantBreach, match="no slot"):
        ssp.extract_path(res, labels)
