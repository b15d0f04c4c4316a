"""Runs ``flowtrack track`` invocations in this process and times them.

Usage: python3 worker.py SPEC.json

SPEC lists operations (one batch solve or one stream pass each); they run one
after another in this process, each as a fresh ``flowtrack.cli.main`` call
exactly as the console script makes it. Results, one per operation, and the
process's peak RSS go to the spec's result file.

Batch mode times main() from the call (CSV path in) to its return (track CSV
written and closed). Stream mode replaces sys.stdin and sys.stdout with an
in-memory feed and sink, one client in a closed loop: a frame's block, blank
line included, is available as soon as the CLI asks for its first line, and
the CLI only asks after it has flushed the previous frame's rows. A frame's
latency runs from that first read to the flush that follows the block.

The machine's speed drifts while it runs (it shares its cores), so a fixed
pure-Python reference task runs before the first operation and after each
one; an operation's result records the mean of the two reference times
around it, from which run.py scales its timings to a nominal machine speed.
An untraced stream pass also runs the task between frames, at most every
REF_INTERVAL_S, on the client's side of the loop and outside every frame's
latency, and records for each frame the mean of the samples around it.
"""
from __future__ import annotations

import gc
import heapq
import json
import os
import random
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

#: Time of the reference task on the nominal machine. Timings scaled by
#: REF_SECONDS / (measured reference time) are in seconds of that machine.
REF_SECONDS = 0.05
#: Least time between two reference samples inside a stream pass.
REF_INTERVAL_S = 0.25


def reference_s() -> float:
    """Seconds this process now takes for a fixed pure-Python task of heap,
    dict and float work, like the solvers' inner loops; the garbage collector
    is off meanwhile, so the program's heap does not change the task."""
    rnd = random.Random(1)
    heap: list = []
    totals: dict = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(40000):
            key = rnd.random()
            heapq.heappush(heap, (key, i))
            totals[i % 997] = totals.get(i % 997, 0.0) + key
            if len(heap) > 500:
                heapq.heappop(heap)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Feed:
    """Line iterator standing in for sys.stdin; timestamps each block.

    `between(b)`, if given, runs before block b is served, outside its
    latency; `between_s` adds up its time from block 1 on, which falls inside
    the stream's wall time.
    """

    def __init__(self, blocks: list[list[str]], between=None):
        self.lines = [line for block in blocks for line in block]
        self.block_of_start = {}
        pos = 0
        for b, block in enumerate(blocks):
            self.block_of_start[pos] = b
            pos += len(block)
        self.sent = [None] * len(blocks)
        self.current = -1
        self.pos = 0
        self.between = between
        self.between_s = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        pos = self.pos
        if pos == len(self.lines):
            raise StopIteration
        b = self.block_of_start.get(pos)
        if b is not None:
            if self.between is not None:
                t0 = time.perf_counter()
                self.between(b)
                if b > 0:
                    self.between_s += time.perf_counter() - t0
            self.sent[b] = time.perf_counter()
            self.current = b
        self.pos = pos + 1
        return self.lines[pos]


class Sink:
    """Write target standing in for sys.stdout; timestamps each flush.

    Rows written before a flush are attributed to the block the feed served
    last; the flush after end of input is attributed to block len(blocks).
    """

    def __init__(self, feed: Feed, on_flush=None):
        self.feed = feed
        self.parts: list[str] = []
        self.flushed = [None] * len(feed.sent)
        self.batches: list[tuple[int, int]] = []   # (block, rows in the batch)
        self._mark = 0
        self.on_flush = on_flush

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self):
        now = time.perf_counter()
        b = self.feed.current
        if self.feed.pos == len(self.feed.lines) and self.flushed[b] is not None:
            b = len(self.flushed)      # the end-of-input flush
        elif self.flushed[b] is None:
            self.flushed[b] = now
        self.batches.append((b, len(self.parts) - self._mark))
        self._mark = len(self.parts)
        if self.on_flush is not None:
            self.on_flush()


def stream_blocks(path) -> list[list[str]]:
    """Group a frame-sorted detection CSV into blank-line-terminated blocks."""
    blocks, frame = [], None
    with open(path) as f:
        for line in f:
            key = line.split(",", 1)[0]
            if key != frame:
                if blocks:
                    blocks[-1].append("\n")
                blocks.append([])
                frame = key
            blocks[-1].append(line)
    if blocks:
        blocks[-1].append("\n")
    return blocks


class _Trackers(list):
    """Records every OnlineTracker the CLI creates (for the final tracks and
    the tracker's own counters), by standing in for the class in cli."""

    def __init__(self, real):
        super().__init__()
        self.real = real

    def __call__(self, *args, **kwargs):
        tracker = self.real(*args, **kwargs)
        self.append(tracker)
        return tracker


def run_batch(cli, op: dict, result: dict):
    argv = ["track", "-i", op["input"], "-o", op["output"],
            "--solver", op["solver"], *op["args"]]
    t0 = time.perf_counter()
    result["exit"] = cli.main(argv)
    result["wall_s"] = time.perf_counter() - t0


def frame_refs(samples: list[tuple[int, float]]) -> list[float]:
    """Per frame, the mean of the reference samples (block, seconds) taken
    before and after it; samples start at block 0 and end after the last."""
    out = []
    for (b0, r0), (b1, r1) in zip(samples, samples[1:]):
        out += [(r0 + r1) / 2] * (b1 - b0)
    return out


def run_stream(cli, op: dict, result: dict, recorder=None):
    blocks = stream_blocks(op["input"])
    samples: list[tuple[int, float]] = []
    last = [-float("inf")]

    def sample(b):
        if time.perf_counter() - last[0] >= REF_INTERVAL_S:
            samples.append((b, reference_s()))
            last[0] = time.perf_counter()

    # Spans must not cover the client's reference samples: traced passes
    # take none and are scaled by the samples around the whole operation.
    feed = Feed(blocks, between=sample if recorder is None else None)
    frame_span = [None]

    def close_frame():
        if frame_span[0] is not None:
            recorder.close(frame_span[0])
            frame_span[0] = None

    sink = Sink(feed, on_flush=close_frame if recorder else None)
    import flowtrack.io as ftio
    parse = ftio.parse_stream_frame
    if recorder is not None:
        # Each frame is the parent span of its layer calls: it opens where the
        # CLI starts reading the block and closes at the flush of its rows.
        def frame_then_parse(fobj):
            frame_span[0] = recorder.open("cli.frame")
            try:
                return parse(fobj)
            except BaseException:
                close_frame()
                raise

        ftio.parse_stream_frame = frame_then_parse
    argv = ["track", "--stream", "--solver", op["solver"], *op["args"]]
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = feed, sink
    try:
        result["exit"] = cli.main(argv)
    finally:
        sys.stdin, sys.stdout = saved
        ftio.parse_stream_frame = parse
    done = [i for i, t in enumerate(sink.flushed) if t is not None]
    result["latency_ms"] = [(sink.flushed[i] - feed.sent[i]) * 1e3 for i in done]
    result["frames_done"] = len(done)
    result["blocks"] = len(blocks)
    if done:
        result["wall_s"] = sink.flushed[done[-1]] - feed.sent[0] - feed.between_s
    if samples:
        samples.append((len(blocks), reference_s()))
        result["frame_ref_s"] = frame_refs(samples)
    result["batches"] = sink.batches
    with open(op["output"], "w") as f:
        f.write("".join(sink.parts))


def run_op(cli, ftio, mode: str, op: dict, trace: bool) -> dict:
    """Run one operation; its result records any failure instead of raising."""
    import tracing
    result: dict = {"exit": None, "error": None}
    trackers = _Trackers(cli.OnlineTracker)
    cli.OnlineTracker = trackers
    recorder = restore = None
    try:
        if trace:
            recorder = tracing.SpanRecorder()
            restore = tracing.install(recorder)
        if mode == "batch":
            run_batch(cli, op, result)
        else:
            run_stream(cli, op, result, recorder)
    except Exception:
        result["error"] = traceback.format_exc(limit=8)
    finally:
        if restore is not None:
            restore()
        cli.OnlineTracker = trackers.real
    if trackers and result["error"] is None:
        tracker = trackers[-1]
        if op.get("final"):
            ftio.write_tracks(op["final"], tracker.final_tracks())
        result["online"] = {
            "relaxations": tracker.stats.relaxations,
            "queue_pushes": tracker.stats.queue_pushes,
            "iterations": tracker.stats.iterations,
            "cache_hits": tracker.stats.cache_hits,
            "cache_misses": tracker.stats.cache_misses,
            "live_nodes_max": max((s.live_nodes for s in tracker.frame_stats), default=0),
            "live_edges_max": max((s.live_edges for s in tracker.frame_stats), default=0),
            "frozen_dets": sum(len(v) for v in tracker.frozen.values()),
        }
    if recorder is not None:
        recorder.dump(op["spans"])
        stats = recorder.results.get("ssp.solve", [])
        graphs = recorder.results.get("graph.build", [])
        result["batch"] = {
            "relaxations": sum(s.relaxations for _, s in stats),
            "queue_pushes": sum(s.queue_pushes for _, s in stats),
            "iterations": sum(s.iterations for _, s in stats),
            "live_nodes_max": max((g.n_live_nodes for g in graphs), default=0),
            "live_edges_max": max((g.n_live_edges for g in graphs), default=0),
        }
    return result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with open(argv[0]) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, HERE)
    from flowtrack import cli
    from flowtrack import io as ftio
    refs = [reference_s()]
    results = []
    for op in spec["ops"]:
        results.append(run_op(cli, ftio, spec["mode"], op, spec["trace"]))
        refs.append(reference_s())
    for i, result in enumerate(results):
        result["ref_s"] = (refs[i] + refs[i + 1]) / 2
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as f:
        json.dump({"peak_rss_mb": peak, "ops": results}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
