"""flowtrack benchmark: runs one named workload through `flowtrack track`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the repository root. A run generates several scenes from --seed
(workloads.py). A cycle runs every solver on every scene (one batch solve or
one stream pass each) in a fresh worker process (worker.py), which calls the
CLI entry point in-process and times it at the CLI boundary. The number of
cycles fills --seconds at the workload's nominal speed. Timings are scaled to
a nominal machine speed by a reference task timed around each operation
(worker.py) and are medians over cycles. All outputs are checked afterwards
(check.py), outside the timed region.

With --trace 0 the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; with --trace 1, untraced and traced cycles alternate, a third
as many of each, and it holds the per-layer metrics from the traced ones,
plus the tracing overhead. The lines before it are a readable report with
units and sample counts. A JSON record of the run, with the environment, goes to
.perfbench_out/ at the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Fresh interpreters started to time set-up; the first one only warms the
#: file cache and writes bytecode, the median of the rest is reported.
SETUP_RUNS = 8
#: Latency samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Upper limit for one set-up measurement.
SETUP_TIMEOUT_S = 30
#: Workers still running this long after a workload's run began are stopped
#: and their operations count as failed.
RUN_LIMIT_S = 165
#: Thread count for the checker's numerical libraries (at most nproc).
CHECK_THREADS = "1"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# -- statistics ------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return s[k], 100.0 * (k + 1) / n


# -- environment -----------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "flowtrack")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    """HEAD of the repository the benchmark sits in; None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, timeout=10, capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "git_revision": git_revision(),
        "src_sha256_16": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, single process, single thread",
        "checker_threads": int(CHECK_THREADS),
    }


# -- child processes ---------------------------------------------------------------

def child_env(base: dict) -> dict:
    env = dict(base)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def measure_setup(wl, work: str, env: dict, deadline: float) -> dict:
    """Wall time for a fresh interpreter to import flowtrack, build the CLI,
    parse the workload's arguments and read (empty) input, then exit; scaled
    by the reference task timed before and after each start.

    Start-up (loading libraries, reading files) slows down less than the
    reference task, so scaled start-up reads somewhat high while the machine
    is fast; its median still moves less with the machine's speed than the
    raw one. Raw times and reference samples are recorded."""
    if wl.stream:
        argv = ["track", "--stream", "--solver", wl.solvers[0], *wl.args]
    else:
        empty = os.path.join(work, "empty.csv")
        open(empty, "w").close()
        argv = ["track", "-i", empty, "-o", os.path.join(work, "empty_out.csv"),
                "--solver", wl.solvers[0], *wl.args]
    times, raw, refs, errors = [], [], [], []
    ref = worker.reference_s()
    for i in range(SETUP_RUNS):
        timeout = max(1.0, min(SETUP_TIMEOUT_S, deadline - time.monotonic()))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "flowtrack.cli", *argv],
                                  stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, env=env, cwd=work,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            errors.append(f"no exit within {timeout:.0f} s")
            ref = worker.reference_s()
            continue
        dt = time.perf_counter() - t0
        before, ref = ref, worker.reference_s()
        if proc.returncode != 0:
            errors.append(proc.stderr.decode(errors="replace")[-500:])
        elif i > 0:
            refs.append((before + ref) / 2)
            times.append(dt * worker.REF_SECONDS / refs[-1])
            raw.append(dt)
    return {"times": times, "raw_s": raw, "ref_s": refs, "errors": errors}


def run_cycle(wl, scenes: list[dict], traced: bool, work: str, n: int,
              env: dict, deadline: float) -> list[dict]:
    """Every solver on every scene, in one fresh worker process."""
    d = os.path.join(work, f"cycle{n}")
    os.makedirs(d)
    ops = []
    for j, inputs in enumerate(scenes):
        for solver in wl.solvers:
            base = os.path.join(d, f"scene{j}-{solver}")
            ops.append({"scene": j, "cycle": n, "solver": solver, "traced": traced,
                        "args": list(wl.args), "input": inputs["det"],
                        "output": base + ".csv",
                        "final": base + "-final.csv" if wl.stream else None,
                        "spans": base + ".spans"})
    spec = {"src": SRC, "mode": "stream" if wl.stream else "batch",
            "trace": traced, "ops": ops, "result": os.path.join(d, "result.json")}
    with open(os.path.join(d, "spec.json"), "w") as f:
        json.dump(spec, f)
    stderr = ""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               os.path.join(d, "spec.json")],
                              stdin=subprocess.DEVNULL, capture_output=True,
                              env=env, cwd=work,
                              timeout=max(1.0, deadline - time.monotonic()))
        stderr = proc.stderr.decode(errors="replace")[-2000:]
    except subprocess.TimeoutExpired:
        stderr = "worker stopped at the run's time limit"
    try:
        with open(spec["result"]) as f:
            out = json.load(f)
    except (OSError, ValueError):
        out = {"peak_rss_mb": None,
               "ops": [{"exit": None, "error": f"worker wrote no result: {stderr}"}
                       for _ in ops]}
    for op, res in zip(ops, out["ops"]):
        op["result"] = res
        op["peak_rss_mb"] = out["peak_rss_mb"]
    return ops


def measure(wl, scenes: list[dict], work: str, seconds: float, trace: bool,
            env: dict, deadline: float) -> list[dict]:
    """Run the workload's cycles over the scenes; with trace, untraced and
    traced cycles alternate, a third as many of each (at least one)."""
    n_cycles = wl.cycles(seconds)
    kinds = [False, True] if trace else [False]
    if trace:
        n_cycles = max(1, n_cycles // 3)
    ops = []
    for n in range(n_cycles * len(kinds)):
        ops += run_cycle(wl, scenes, kinds[n % len(kinds)], work, n, env, deadline)
    return ops


def succeeded(op: dict) -> bool:
    return op["result"].get("exit") == 0 and op["result"].get("error") is None


def scale(res: dict) -> float:
    """Factor that turns an operation's timings into nominal-machine time."""
    return worker.REF_SECONDS / res["ref_s"]


def frame_ms(res: dict) -> list[float]:
    """A stream pass's frame latencies in nominal-machine ms, each scaled by
    the reference samples around it (around the pass when traced)."""
    refs = res.get("frame_ref_s") or [res["ref_s"]] * len(res["latency_ms"])
    return [ms * worker.REF_SECONDS / r for ms, r in zip(res["latency_ms"], refs)]


def op_seconds(res: dict) -> float:
    """A solve's wall time, or a stream pass's summed frame latencies (the
    closed loop leaves the CLI no other time), in nominal-machine seconds."""
    if "latency_ms" in res:
        return sum(frame_ms(res)) / 1e3
    return res["wall_s"] * scale(res)


# -- checking ----------------------------------------------------------------------

def check_ops(wl, ops: list[dict], scenes: list[dict]) -> dict:
    """Check every operation's output against its scene's LP optimum.

    An operation is a solve (batch) or a frame (streams). A stream frame fails
    when a row flushed after it breaks a check; a wrong final tracker state
    fails the last frame; a pass that did not finish fails every frame.
    """
    import check
    from flowtrack.cost_model import CostModel

    model = CostModel()
    parsed = [check.Scene.read(s["det"]) for s in scenes]
    optimum = [check.lp_optimum(sc, model) for sc in parsed]
    attempted = failed = 0
    problems: list[str] = []
    mota: dict[int, float] = {}
    gap: dict[int, float] = {}
    objective: dict[tuple, float] = {}
    for op in ops:
        j, res = op["scene"], op["result"]
        sc, opt = parsed[j], optimum[j]
        where = f"scene {j} {op['solver']}"
        n_ops = 1 if not wl.stream else wl.frames
        attempted += n_ops
        if not succeeded(op):
            failed += n_ops
            problems.append(f"{where}: {res.get('error') or 'exit %s' % res.get('exit')}")
            continue
        with open(op["output"]) as f:
            text = f.read()
        if not wl.stream:
            tc = check.check_tracks(text, sc, model)
            if j not in mota and op["solver"] == "dssp":
                mota[j] = check.mota(check.parse_rows(text), scenes[j]["gt"])
            objective[(op["cycle"], j, op["solver"])] = tc.cost
            reason = f"row {tc.problems[0][0]}: {tc.problems[0][1]}" if tc.problems else None
            if reason is None and op["solver"] == "dp":
                if tc.cost < opt and not check.same_objective(tc.cost, opt):
                    reason = f"objective {tc.cost!r} below the optimum {opt!r}"
            elif reason is None and not check.same_objective(tc.cost, opt):
                reason = f"objective {tc.cost!r} != LP optimum {opt!r}"
            if reason:
                failed += 1
                problems.append(f"{where}: {reason}")
            continue
        streamed, rows = check.check_streamed(text, sc)
        if j not in mota:
            mota[j] = check.mota(rows, scenes[j]["gt"])
        bad = set(range(res["frames_done"], res["blocks"]))
        row_block = [b for b, k in res["batches"] for _ in range(k)]
        for r, what in streamed:
            bad.add(min(row_block[r] if r < len(row_block) else res["blocks"],
                        res["blocks"] - 1))
            problems.append(f"{where}: streamed row {r}: {what}")
        with open(op["final"]) as f:
            final = check.check_tracks(f.read(), sc, model,
                                       consecutive=op["solver"] != "mbodssp")
        for r, what in final.problems:
            problems.append(f"{where}: final row {r}: {what}")
        if op["solver"] == "odssp":
            final_ok = check.same_objective(final.cost, opt)
        else:
            final_ok = math.isfinite(final.cost) and (
                final.cost >= opt or check.same_objective(final.cost, opt))
            gap[j] = 100.0 * (final.cost - opt) / abs(opt)
        if not final_ok:
            problems.append(f"{where}: final objective {final.cost!r} vs "
                            f"LP optimum {opt!r}")
        if final.problems or not final_ok:
            bad.add(res["blocks"] - 1)
        failed += len(bad)
    for (cycle, j, solver), cost in objective.items():
        other = objective.get((cycle, j, "dssp"))
        if solver == "ssp" and other is not None and not check.same_objective(cost, other):
            failed += 1
            problems.append(f"scene {j}: ssp objective {cost!r} != dssp {other!r}")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "optimum": optimum, "mota": mota, "bounded_gap_pct": gap}


# -- metrics -----------------------------------------------------------------------

def by_op(ops: list[dict]) -> dict:
    """(scene, solver) -> results of its untraced, successful cycles."""
    runs: dict[tuple, list[dict]] = {}
    for op in ops:
        if not op["traced"] and succeeded(op):
            runs.setdefault((op["scene"], op["solver"]), []).append(op["result"])
    return runs


def end_to_end(wl, ops: list[dict], setup: dict, checked: dict) -> dict:
    """Metric name -> (value, unit, samples description).

    Timings are scaled to the nominal machine speed and are medians over the
    run's cycles (per solve for batch, per frame for the streams); scenes are
    then pooled.
    """
    good = [op for op in ops if not op["traced"] and succeeded(op)]
    runs = by_op(ops)
    cycles = max((len(r) for r in runs.values()), default=0)
    m: dict = {}
    if setup["times"]:
        m["setup_s"] = (statistics.median(setup["times"]), "s",
                        f"median of {len(setup['times'])} fresh interpreters")
    if good:
        m["peak_rss_mb"] = (max(op["peak_rss_mb"] for op in good), "MB",
                            "max over worker processes")
        speed = [scale(op["result"]) for op in good]
        m["machine_slowdown"] = (1 / statistics.median(speed), "ratio",
                                 f"reference task time / nominal, median of "
                                 f"{len(speed)} operations (range "
                                 f"{1 / max(speed):.3g}-{1 / min(speed):.3g})")
    if not wl.stream:
        walls = {s: [statistics.median(op_seconds(r) for r in runs[(j, s)])
                     for j in range(len(checked["optimum"])) if (j, s) in runs]
                 for s in wl.solvers}
        note = f"{{}} scenes of {wl.frames} frames, median of {cycles} cycles each"
        for s, w in walls.items():
            if w:
                m[f"{s}_s"] = (statistics.mean(w), "s",
                               "mean solve time over " + note.format(len(w)))
        # A batch run releases every frame's rows when it ends, so each of its
        # frames waits the whole solve: each solver gets a fixed metric.
        if walls["ssp"]:
            m["frame_ms_tail"] = (1e3 * statistics.mean(walls["ssp"]), "ms",
                                  "ssp solve, mean over " + note.format(len(walls["ssp"])))
        if walls["dssp"]:
            m["frame_ms_p50"] = (1e3 * statistics.mean(walls["dssp"]), "ms",
                                 "dssp solve, mean over " + note.format(len(walls["dssp"])))
        if walls["dp"]:
            m["frames_per_s"] = (wl.frames / statistics.mean(walls["dp"]), "1/s",
                                 "frames / dp solve, mean over " + note.format(len(walls["dp"])))
    elif runs:
        # Per scene: each frame's median latency over the cycles, and the
        # median pass time; frames of all scenes are pooled.
        lat, per_scene, busy, frames = [], [], 0.0, 0
        for res in runs.values():
            done = min(r["frames_done"] for r in res)
            passes = [frame_ms(r) for r in res]
            scene_ms = [statistics.median(p[i] for p in passes) for i in range(done)]
            lat += scene_ms
            per_scene.append(scene_ms)
            busy += statistics.median(op_seconds(r) for r in res)
            frames += done
        value, pct = tail(lat)
        note = f"{len(lat)} frames of {len(runs)} scenes, median of {cycles} cycles each"
        m["frame_ms_p50"] = (statistics.median(lat), "ms", f"p50 of {note}")
        m["frame_ms_tail"] = (value, "ms", f"p{pct:.2f} of {note}")
        m["frames_per_s"] = (frames / busy, "1/s",
                             f"{frames} frames / summed median pass times of "
                             f"{len(runs)} scenes")
        if wl.frames >= 200:
            for label, part in (("first", slice(None, 100)), ("last", slice(-100, None))):
                m[f"frame_ms_{label}100_mean"] = (
                    statistics.mean(statistics.mean(b[part]) for b in per_scene),
                    "ms", f"mean of the {label} 100 frames, mean over {len(per_scene)} scenes")
    if checked["mota"]:
        vals = list(checked["mota"].values())
        m["mota"] = (statistics.median(vals), "ratio",
                     f"median of {len(vals)} scenes, "
                     + ("dssp output" if not wl.stream else "streamed rows after revisions"))
    if checked["bounded_gap_pct"]:
        vals = list(checked["bounded_gap_pct"].values())
        m["bounded_gap_pct"] = (statistics.median(vals), "%",
                                f"final mbodssp cost vs LP optimum, median of "
                                f"{len(vals)} scenes (max {max(vals):.4g})")
    m["failed_frac"] = (checked["failed"] / checked["attempted"], "ratio",
                        f"{checked['failed']} of {checked['attempted']} operations")
    return m


def layer_metrics(op: dict) -> dict:
    """Per-layer figures of one traced operation; times in nominal-machine
    seconds, like the end-to-end ones."""
    import tracing
    res = op["result"]
    summ = tracing.summarize(tracing.load_spans(op["spans"]))
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0}

    def g(name, key):
        return summ.get(name, zero)[key]

    def errors(layer):
        return sum(v["failed"] for k, v in summ.items() if k.startswith(layer + "."))

    b = res.get("batch", {})
    o = res.get("online", {})
    figures = {
        "io.parse_s": g("io.parse", "self_s"),
        "io.parse_calls": g("io.parse", "calls"),
        "io.write_s": g("io.write", "self_s"),
        "io.errors": errors("io"),
        "cost_model.link_calls": g("cost_model.link", "calls"),
        "cost_model.link_s": g("cost_model.link", "self_s"),
        "cost_model.errors": errors("cost_model"),
        "graph.build_s": g("graph.build", "self_s"),
        "graph.append_s": g("graph.append", "self_s"),
        "graph.append_calls": g("graph.append", "calls"),
        "graph.clip_s": g("graph.clip", "self_s"),
        "graph.clip_calls": g("graph.clip", "calls"),
        "graph.live_nodes_max": max(b.get("live_nodes_max", 0), o.get("live_nodes_max", 0)),
        "graph.live_edges_max": max(b.get("live_edges_max", 0), o.get("live_edges_max", 0)),
        "graph.errors": errors("graph"),
        "ssp.dijkstra_s": g("ssp.dijkstra", "self_s"),
        "ssp.dijkstra_calls": g("ssp.dijkstra", "calls"),
        "ssp.relaxations": b.get("relaxations", 0) + o.get("relaxations", 0),
        "ssp.queue_pushes": b.get("queue_pushes", 0) + o.get("queue_pushes", 0),
        "ssp.broadcast_s": g("ssp.broadcast", "self_s"),
        "ssp.broadcast_calls": g("ssp.broadcast", "calls"),
        "ssp.dag_s": g("ssp.dag", "self_s"),
        "ssp.dag_calls": g("ssp.dag", "calls"),
        "ssp.residual_init_s": g("ssp.residual_init", "self_s"),
        "ssp.convert_s": g("ssp.convert", "self_s"),
        "ssp.flip_s": g("ssp.flip", "self_s"),
        "ssp.decode_s": g("ssp.decode", "self_s"),
        "ssp.solve_self_s": g("ssp.solve", "self_s"),
        "ssp.iterations": b.get("iterations", 0) + o.get("iterations", 0),
        "ssp.errors": errors("ssp"),
        "online.process_frame_s": g("online.process_frame", "self_s"),
        "online.assign_ids_s": g("online.assign_ids", "self_s"),
        "online.cache_lookup_s": g("online.cache_lookup", "self_s"),
        "online.cache_hits": o.get("cache_hits", 0),
        "online.cache_lookups": o.get("cache_hits", 0) + o.get("cache_misses", 0),
        "online.final_tracks_s": g("online.final_tracks", "self_s"),
        "online.final_tracks_calls": g("online.final_tracks", "calls"),
        "online.frozen_dets": o.get("frozen_dets", 0),
        "online.errors": errors("online"),
        "cli.self_s": g("cli.main", "self_s") + g("cli.frame", "self_s"),
    }
    k = scale(res)
    return {name: v * k if name.endswith("_s") else v for name, v in figures.items()}


def per_layer(ops: list[dict]) -> dict:
    """Per-layer metrics per scene (the solvers' figures summed), median over
    the traced scenes; plus the tracing overhead against the untraced runs
    of the same scenes."""
    rounds: dict[tuple, list[dict]] = {}
    for op in ops:
        if op["traced"] and succeeded(op):
            rounds.setdefault((op["cycle"], op["scene"]), []).append(layer_metrics(op))
    plain = {(op["scene"], op["solver"]): op_seconds(op["result"])
             for op in reversed(ops) if not op["traced"] and succeeded(op)}
    if not rounds or not plain:
        return {}
    merged = []
    for per_op in rounds.values():
        r = {k: (max if k.endswith("_max") else sum)(p[k] for p in per_op)
             for k in per_op[0]}
        searches = r["ssp.dag_calls"] + r["ssp.dijkstra_calls"] + r["ssp.broadcast_calls"]
        r["ssp.accept_ratio"] = r["ssp.iterations"] / searches if searches else 0.0
        hits, lookups = r.pop("online.cache_hits"), r.pop("online.cache_lookups")
        r["online.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        merged.append(r)
    out = {k: statistics.median(r[k] for r in merged) for k in merged[0]}
    pairs = [(op_seconds(op["result"]), plain[(op["scene"], op["solver"])])
             for op in ops if op["traced"] and succeeded(op)
             and (op["scene"], op["solver"]) in plain]
    traced_s = sum(t for t, _ in pairs)
    base_s = sum(b for _, b in pairs)
    out["trace.overhead_s"] = (traced_s - base_s) / len(merged)
    out["trace.overhead_pct"] = 100.0 * (traced_s - base_s) / base_s
    out["trace.scenes"] = len(merged)
    return out


# -- main --------------------------------------------------------------------------

def run_workload(name: str, args, env: dict) -> dict:
    import workloads
    wl = workloads.WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(OUT, f"work-{name}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    k = wl.scene_count
    try:
        setup = measure_setup(wl, work, env, deadline)
        scenes = []
        for j in range(k):
            d = os.path.join(work, f"input{j}")
            os.makedirs(d)
            scenes.append(workloads.write_inputs(wl, args.seed, j, d))
        ops = measure(wl, scenes, work, args.seconds, bool(args.trace), env, deadline)
        checked = check_ops(wl, ops, scenes)
        checked["problems"] += [f"setup: {e}" for e in setup["errors"]]
        report = end_to_end(wl, ops, setup, checked)
        layers = per_layer(ops) if args.trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": name, "why": wl.why, "scenes": k,
            "frames": wl.frames,
            "detections": [s["detections"] for s in scenes],
            "setup_raw_s": setup["raw_s"], "setup_ref_s": setup["ref_s"],
            "attempted": checked["attempted"] + len(setup["errors"]),
            "failed": checked["failed"] + len(setup["errors"]),
            "problems": checked["problems"][:50], "optimum": checked["optimum"],
            "end_to_end": report, "per_layer": layers,
            "ops": [{k2: op.get(k2) for k2 in ("scene", "cycle", "solver", "traced")}
                    | {k2: op["result"].get(k2) for k2 in ("wall_s", "ref_s", "error")}
                    for op in ops]}


def print_report(run: dict):
    print(f"# workload {run['workload']}: {run['why']}")
    print(f"# input: {run['scenes']} scenes of {run['frames']} frames, "
          f"{min(run['detections'])}-{max(run['detections'])} detections each")
    print(f"# environment: {json.dumps(run['environment'], sort_keys=True)}")
    for name, (value, unit, samples) in run["end_to_end"].items():
        print(f"{run['workload']:15s} {name:24s} {value:14.6g} {unit:6s} [{samples}]")
    for name, value in run["per_layer"].items():
        print(f"{run['workload']:15s} {name:24s} {value:14.6g}")
    for p in run["problems"]:
        print(f"# CHECK FAILED: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flowtrack", "cli.py")):
        return _fail(f"no flowtrack sources under {SRC}")
    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        return _fail(f"unknown workload {args.workload!r}; one of {names} or 'all'")

    base_env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = CHECK_THREADS
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    env = child_env(base_env)
    os.makedirs(OUT, exist_ok=True)
    run_env = environment(args)
    wanted = ([m["name"] for m in spec["end_to_end"]] if not args.trace
              else [m["name"] for m in spec["per_layer"]])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    attempted = failed = 0
    metrics = {}
    for name in (names if args.workload == "all" else [args.workload]):
        run = run_workload(name, args, env)
        run["environment"] = run_env
        print_report(run)
        with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w") as f:
            json.dump(run, f, indent=1)
        attempted += run["attempted"]
        failed += run["failed"]
        values = {k: v[0] for k, v in run["end_to_end"].items()}
        values.update(run["per_layer"])
        missing = [k for k in wanted if k not in values]
        if missing:
            return _fail(f"{name}: no measurement for {missing}")
        prefix = f"{name}." if args.workload == "all" else ""
        for k in wanted:
            metrics[prefix + k] = {"value": values[k], "unit": units[k]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
