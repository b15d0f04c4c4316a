"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import dataclasses
import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from flowtrack import cli  # noqa: E402
from flowtrack.cost_model import CostModel  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _tiny(wl: workloads.Workload) -> workloads.Workload:
    frames = 12 if wl.stream else 10
    return dataclasses.replace(
        wl, frames=frames, op_seconds=1.0,
        scene=dataclasses.replace(wl.scene, n_frames=frames, n_initial_tracks=3))


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    wl = _tiny(workloads.WORKLOADS[name])
    a, b, c = (tmp_path / "a", tmp_path / "b", tmp_path / "c")
    for d in (a, b, c):
        d.mkdir()
    ia = workloads.write_inputs(wl, 7, 1, str(a))
    ib = workloads.write_inputs(wl, 7, 1, str(b))
    ic = workloads.write_inputs(wl, 7, 2, str(c))
    for key in ("det", "gt"):
        assert _read(ia[key]) == _read(ib[key])
        assert _read(ia[key]) != _read(ic[key])


def test_workload_names_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(tmp_path, monkeypatch, trace):
    monkeypatch.setattr(workloads, "WORKLOADS",
                        {k: _tiny(w) for k, w in workloads.WORKLOADS.items()})
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_RUNS", 2)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "all", "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    group = "per_layer" if trace else "end_to_end"
    expected = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"]
                for m in SPEC[group]}
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in SPEC[group]}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split(".", 1)[1]]


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A small crossing scene, its dssp tracks and the LP optimum."""
    d = tmp_path_factory.mktemp("solved")
    wl = dataclasses.replace(
        workloads.WORKLOADS["batch-crowded"], frames=40,
        scene=dataclasses.replace(workloads.WORKLOADS["batch-crowded"].scene,
                                  n_frames=40, n_initial_tracks=4))
    inputs = workloads.write_inputs(wl, 5, 0, str(d))
    out = d / "tracks.csv"
    assert cli.main(["track", "-i", inputs["det"], "-o", str(out),
                     "--solver", "dssp"]) == 0
    scene = check.Scene.read(inputs["det"])
    model = CostModel()
    return out.read_text(), scene, model, check.lp_optimum(scene, model)


def test_checker_accepts_the_optimum(solved):
    text, scene, model, optimum = solved
    tc = check.check_tracks(text, scene, model)
    assert tc.ok
    assert check.same_objective(tc.cost, optimum)


def test_checker_rejects_a_dropped_detection(solved):
    text, scene, model, optimum = solved
    rows = text.splitlines()
    by_id: dict[str, list[int]] = {}
    for i, row in enumerate(rows):
        by_id.setdefault(row.split(",")[1], []).append(i)
    longest = max(by_id.values(), key=len)
    for drop in (longest[len(longest) // 2], longest[-1]):
        kept = "\n".join(r for i, r in enumerate(rows) if i != drop) + "\n"
        tc = check.check_tracks(kept, scene, model)
        assert not tc.ok or not check.same_objective(tc.cost, optimum)


def _run_ops(tmp_path, name: str, frames: int) -> tuple:
    """One cycle of a small version of a workload, run as the benchmark runs
    it: (workload, ops with results, scenes)."""
    import worker
    from flowtrack import io as ftio
    base = workloads.WORKLOADS[name]
    wl = dataclasses.replace(base, frames=frames, scene=dataclasses.replace(
        base.scene, n_frames=frames, n_initial_tracks=4))
    scene = workloads.write_inputs(wl, 5, 0, str(tmp_path))
    ops = []
    for solver in wl.solvers:
        op = {"scene": 0, "cycle": 0, "solver": solver, "traced": False,
              "args": list(wl.args), "input": scene["det"],
              "output": str(tmp_path / f"{solver}.csv"),
              "final": str(tmp_path / f"{solver}-final.csv") if wl.stream else None,
              "spans": str(tmp_path / f"{solver}.spans")}
        op["result"] = worker.run_op(cli, ftio, "stream" if wl.stream else "batch",
                                     op, False)
        ops.append(op)
    return wl, ops, [scene]


def _edit_rows(path, edit):
    with open(path) as f:
        rows = f.read().splitlines()
    rows = edit(rows)
    with open(path, "w") as f:
        f.write("".join(r + "\n" for r in rows))


def _swap_ids(rows: list[str]) -> list[str]:
    """Swap the ids of two tracks that both run through the middle frame,
    from that frame on."""
    cells = [r.split(",") for r in rows]
    frames = sorted({int(c[0]) for c in cells})
    mid = frames[len(frames) // 2]
    ids = sorted({c[1] for c in cells if int(c[0]) == mid}
                 & {c[1] for c in cells if int(c[0]) == mid - 1})
    a, b = ids[0], ids[1]
    for c in cells:
        if int(c[0]) >= mid and c[1] in (a, b):
            c[1] = b if c[1] == a else a
    return [",".join(c) for c in sorted(cells, key=lambda c: (int(c[0]), int(c[1])))]


@pytest.fixture(scope="module")
def batch_run(tmp_path_factory):
    return _run_ops(tmp_path_factory.mktemp("batch"), "batch-crowded", 40)


@pytest.fixture(scope="module")
def stream_run(tmp_path_factory):
    return _run_ops(tmp_path_factory.mktemp("stream"), "stream-bounded", 60)


def test_check_ops_passes_the_program_output(batch_run, stream_run):
    for wl, ops, scenes in (batch_run, stream_run):
        checked = run.check_ops(wl, ops, scenes)
        assert checked["failed"] == 0, checked["problems"]
        assert checked["attempted"] == (len(ops) if not wl.stream else wl.frames)


def test_check_ops_rejects_an_objective_off_by_1e6(batch_run, monkeypatch):
    wl, ops, scenes = batch_run
    exact = check.lp_optimum
    monkeypatch.setattr(check, "lp_optimum",
                        lambda sc, model: exact(sc, model) * (1 + 1e-6))
    checked = run.check_ops(wl, ops, scenes)
    assert checked["failed"] == 2          # ssp and dssp; dp may lie above
    assert all("LP optimum" in p for p in checked["problems"])


def test_an_infinite_objective_equals_nothing():
    assert not check.same_objective(float("inf"), float("inf"))
    assert not check.same_objective(float("inf"), -100.0)
    assert check.same_objective(-100.0, -100.0 * (1 + 1e-12))


@pytest.mark.parametrize("corrupt", ["drop", "swap"])
def test_check_ops_rejects_a_corrupted_batch_output(tmp_path, batch_run, corrupt):
    wl, ops, scenes = batch_run
    ops = [dict(op) for op in ops]
    dssp = next(op for op in ops if op["solver"] == "dssp")
    path = tmp_path / "dssp.csv"
    path.write_text(open(dssp["output"]).read())
    dssp["output"] = str(path)
    if corrupt == "drop":
        _edit_rows(path, lambda rows: rows[:len(rows) // 2] + rows[len(rows) // 2 + 1:])
    else:
        _edit_rows(path, _swap_ids)
    checked = run.check_ops(wl, ops, scenes)
    # The dssp solve fails its LP check and, its objective changed, the
    # ssp-vs-dssp comparison fails too.
    assert checked["failed"] == 2, checked["problems"]


def test_check_ops_rejects_a_corrupted_streamed_row(tmp_path, stream_run):
    wl, ops, scenes = stream_run
    op = dict(ops[0])
    path = tmp_path / "streamed.csv"
    path.write_text(open(op["output"]).read())
    op["output"] = str(path)
    _edit_rows(path, lambda rows: rows + [rows[-1]])     # (frame, id) twice
    checked = run.check_ops(wl, [op], scenes)
    assert checked["failed"] == 1 and "emitted twice" in checked["problems"][0]
    _edit_rows(path, lambda rows: rows[:-1] + ["0,1,9999,9999,1,1"])
    assert run.check_ops(wl, [op], scenes)["failed"] == 1


def test_check_ops_rejects_a_corrupted_final_state(tmp_path, stream_run):
    wl, ops, scenes = stream_run
    op = dict(ops[0])
    path = tmp_path / "final.csv"
    path.write_text(open(op["final"]).read())
    op["final"] = str(path)
    _edit_rows(path, lambda rows: rows + ["%s,999999,%s" % tuple(rows[0].split(",", 2)[::2])])
    checked = run.check_ops(wl, [op], scenes)
    assert checked["failed"] == 1 and "used twice" in checked["problems"][0]


def test_streamed_revision_supersedes_the_earlier_row(solved):
    text, scene, _, _ = solved
    first = text.splitlines()[0].split(",")
    revised = text + ",".join([first[0], "999999", *first[2:]]) + "\n"
    problems, rows = check.check_streamed(revised, scene)
    assert problems == []
    assert len(rows) == len(text.splitlines())
    assert (int(first[0]), 999999, tuple(first[2:])) in rows


def test_checker_rejects_reused_detection_and_duplicate_pair(solved):
    text, scene, model, _ = solved
    first = text.splitlines()[0].split(",")
    again = ",".join([first[0], "999999", *first[2:]])
    assert not check.check_tracks(text + again + "\n", scene, model).ok
    assert not check.check_tracks(text + ",".join(first) + "\n", scene, model).ok
    assert not check.check_tracks(text + "1,2,3\n", scene, model).ok


class Boom(Exception):
    pass


def test_wrapper_passes_values_and_exceptions_through():
    rec = tracing.SpanRecorder()
    token = object()
    err = Boom("x")

    def give(*args, **kwargs):
        return token, args, kwargs

    def fail():
        raise err

    assert rec.wrap(give, "t.give")(1, k=2) == (token, (1,), {"k": 2})
    assert rec.wrap(give, "t.give")()[0] is token
    with pytest.raises(Boom) as info:
        rec.wrap(fail, "t.fail")()
    assert info.value is err
    assert list(rec.failed) == [2]
    assert rec._stack == [-1]
    summary = tracing.summarize({"names": rec.names, "code": rec.code,
                                 "parent": rec.parent, "failed": rec.failed,
                                 "start": rec.start, "end": rec.end})
    assert summary["t.give"]["calls"] == 2 and summary["t.fail"]["failed"] == 1


def test_install_covers_names_imported_elsewhere_and_restores():
    import flowtrack.online as online
    import flowtrack.ssp as ssp
    original = ssp.dijkstra_full
    assert online.dijkstra_full is original
    rec = tracing.SpanRecorder()
    restore = tracing.install(rec)
    try:
        assert online.dijkstra_full is ssp.dijkstra_full is not original
        assert online.dijkstra_full.__wrapped__ is original
    finally:
        restore()
    assert online.dijkstra_full is original and ssp.dijkstra_full is original


def test_self_time_excludes_children():
    ticks = iter(range(100))
    rec = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    outer = rec.open("a")        # t=0
    inner = rec.open("b")        # t=1
    rec.close(inner)             # t=2
    rec.close(outer)             # t=3
    s = tracing.summarize({"names": rec.names, "code": rec.code,
                           "parent": rec.parent, "failed": rec.failed,
                           "start": rec.start, "end": rec.end})
    assert s["a"]["total_s"] == 3.0 and s["a"]["self_s"] == 2.0
    assert s["b"]["self_s"] == 1.0


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail(list(range(500)))
    assert value == 489 and pct == 98.0
    assert run.tail([3.0, 1.0])[0] == 3.0


def test_frame_refs_average_the_samples_around_each_frame():
    import worker
    samples = [(0, 1.0), (2, 3.0), (5, 5.0)]
    assert worker.frame_refs(samples) == [2.0, 2.0, 4.0, 4.0, 4.0]


def test_stream_timings_are_scaled_per_frame():
    res = {"latency_ms": [10.0, 10.0], "ref_s": 0.05,
           "frame_ref_s": [0.05, 0.1]}
    assert run.frame_ms(res) == [10.0, 5.0]
    assert run.op_seconds(res) == 0.015
    del res["frame_ref_s"]
    assert run.frame_ms(res) == [10.0, 10.0]
    assert run.op_seconds({"wall_s": 2.0, "ref_s": 0.1}) == 1.0


def test_close_ends_spans_left_open_inside():
    rec = tracing.SpanRecorder()
    outer = rec.open("a")
    rec.open("frame")
    rec.close(outer)
    assert rec._stack == [-1] and all(e > 0 for e in rec.end)
    with pytest.raises(RuntimeError):
        rec.close(outer)
