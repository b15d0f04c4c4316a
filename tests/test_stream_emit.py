"""Streaming output path of `flowtrack track --stream`.

The CLI writes each frame's rows from those the tracker keeps until they are
written: the rows it froze, and the current rows that are new or got a new id.
So the decode, id and output work of a frame follow the rows the frame
changed, not the history. These tests pin that to the straightforward
emitter, which rescans every final track after each frame, and check that
the work per frame stays bounded.
"""
import io
import sys
from dataclasses import replace

import pytest

from flowtrack import cli
from flowtrack import io as ftio
from flowtrack.cost_model import CostModel
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.synthetic import SyntheticConfig, generate_synthetic

#: Scenes with births, deaths, missed detections and false positives, as
#: (config, seed, frames carved out). In the crowded crossing one, odssp
#: revises ids of rows it has already written. The high miss rate of the
#: third one leaves frames without detections, which the stream skips and the
#: reference emitter processes as explicit empty frames. The carved gaps of
#: the last one are longer than windows of 2 and 4, so mbodssp clips its
#: whole window at once, down to an empty graph.
SCENES = (
    (SyntheticConfig(n_frames=30, n_initial_tracks=3, spawn_prob=0.2,
                     death_prob=0.08, miss_rate=0.15, fp_rate=0.15), 3, ()),
    (SyntheticConfig(n_frames=30, n_initial_tracks=6, spawn_prob=0.1,
                     death_prob=0.05, miss_rate=0.2, fp_rate=0.3,
                     crossing=True, speed_range=(10.0, 25.0)), 9, ()),
    (SyntheticConfig(n_frames=30, n_initial_tracks=1, spawn_prob=0.1,
                     death_prob=0.1, miss_rate=0.5, fp_rate=0.1), 21, ()),
    (SyntheticConfig(n_frames=40, n_initial_tracks=4, spawn_prob=0.1,
                     death_prob=0.05, miss_rate=0.1, fp_rate=0.2), 5,
     (*range(8, 14), *range(20, 29), 33)),
)
RUNS = (("odssp", ()), ("mbodssp", ("--window", "2")),
        ("mbodssp", ("--window", "4")), ("mbodssp", ("--window", "10")))
LAGS = (0, 2, 6)


def stream_text(detections) -> str:
    """One block per frame with detections."""
    blocks = []
    for f in sorted(detections):
        if detections[f]:
            blocks.append("".join(
                f"{d.frame},-1," + ",".join(repr(float(v))
                                            for v in (*d.box, d.score)) + "\n"
                for d in detections[f]))
    return "\n".join(blocks) + "\n"


def run_stream(argv, text, monkeypatch) -> str:
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["track", "--stream", *argv]) == 0
    return out.getvalue()


def reference_stream(solver, window, lag, text) -> str:
    """The full-scan emitter: after each frame, every row of every final
    track that is at least `lag` frames old and not yet written."""
    config = TrackerConfig(model=CostModel(),
                           window=window if solver == "mbodssp" else None)
    tracker = OnlineTracker(config)
    out, emitted = [], set()

    def emit_through(frame):
        rows = []
        for traj in tracker.final_tracks():
            for d in traj.detections:
                if d.frame <= frame and (d.frame, traj.track_id) not in emitted:
                    rows.append((d.frame, traj.track_id, *d.box))
        for f, tid, x, y, w, h in sorted(rows):
            emitted.add((f, tid))
            out.append(f"{f},{tid},{'%.6g' % x},{'%.6g' % y},"
                       f"{'%.6g' % w},{'%.6g' % h}\n")

    fin, last = io.StringIO(text), None
    while (block := ftio.parse_stream_frame(fin)) is not None:
        frame, dets = block
        while last is not None and frame > last + 1:
            last += 1
            tracker.process_frame([], frame=last)
        tracker.process_frame(dets, frame=frame)
        last = frame
        emit_through(frame - lag)
    if last is not None:
        emit_through(last)
    return "".join(out)


def revised_rows(text: str) -> int:
    """Rows that write an already written box again, under another id."""
    seen, n = set(), 0
    for line in text.splitlines():
        f, _, *box = line.split(",")
        n += (f, *box) in seen
        seen.add((f, *box))
    return n


def scene_text(cfg, seed, carved) -> str:
    detections = generate_synthetic(cfg, seed)[0]
    return stream_text({f: dets for f, dets in detections.items()
                        if f not in carved})


@pytest.mark.parametrize("solver,args", RUNS)
def test_stream_matches_full_scan_emitter(solver, args, monkeypatch):
    revisions = 0
    for scene in SCENES:
        text = scene_text(*scene)
        for lag in LAGS:
            window = int(args[1]) if args else None
            expected = reference_stream(solver, window, lag, text)
            got = run_stream(["--solver", solver, *args,
                              "--confirm-lag", str(lag)], text, monkeypatch)
            assert got == expected, (scene, lag)
            revisions += revised_rows(expected)
    # The scenes exercise ids revised after their rows were written (mbodssp
    # keeps its ids on these scenes).
    assert revisions > 0 or solver == "mbodssp"


def test_stream_never_rebuilds_final_tracks(monkeypatch):
    calls = []

    class Tracker(OnlineTracker):
        def final_tracks(self):
            calls.append(1)
            return super().final_tracks()

    monkeypatch.setattr(cli, "OnlineTracker", Tracker)
    text = scene_text(*SCENES[0])
    for lag in LAGS:
        assert run_stream(["--solver", "mbodssp", "--window", "4",
                           "--confirm-lag", str(lag)], text, monkeypatch)
    assert calls == []


class CountingModel(CostModel):
    """Default cost model that counts the links it prices, one pair at a time
    (link_cost_of) or a frame's admitted pairs at once (link_costs_of)."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "link_calls", 0)

    def link_cost_of(self, a, b):
        object.__setattr__(self, "link_calls", self.link_calls + 1)
        return super().link_cost_of(a, b)

    def link_costs_of(self, prev, new, ip, jn):
        object.__setattr__(self, "link_calls", self.link_calls + len(ip))
        return super().link_costs_of(prev, new, ip, jn)


def test_stream_work_per_frame_stays_bounded(monkeypatch):
    """Links priced per frame of a CLI stream, counting the tracker's update
    and the output written after it, do not grow with stream length."""
    model = CountingModel()
    starts = []

    class Tracker(OnlineTracker):
        def __init__(self, config):
            super().__init__(replace(config, model=model))

        def process_frame(self, detections, frame=None):
            starts.append(model.link_calls)
            return super().process_frame(detections, frame)

    monkeypatch.setattr(cli, "OnlineTracker", Tracker)
    # Fixed population, no noise detections: every frame has the same tracks.
    cfg = SyntheticConfig(n_frames=200, n_initial_tracks=5, spawn_prob=0.0,
                          death_prob=0.0, miss_rate=0.0, fp_rate=0.0)
    text = stream_text(generate_synthetic(cfg, 0)[0])
    assert run_stream(["--solver", "mbodssp", "--window", "10"], text,
                      monkeypatch)
    assert len(starts) == 200
    per_frame = [b - a for a, b in zip(starts, starts[1:] + [model.link_calls])]
    assert 0 < sum(per_frame[150:200]) <= sum(per_frame[20:70])


@pytest.mark.parametrize("solver,args", (RUNS[0], RUNS[3]))
def test_lag_0_writes_each_frame_and_id_once(solver, args, monkeypatch):
    """At lag 0 no written row is withdrawn, and a row whose id a later
    frame revises is written again only under a (frame, id) not written
    yet. So the stream can lack final rows, each of whose (frame, id) it
    wrote for another detection."""
    text = scene_text(*SCENES[1])
    got = run_stream(["--solver", solver, *args, "--confirm-lag", "0"], text,
                     monkeypatch)
    streamed = [tuple(line.split(",")) for line in got.splitlines()]
    pairs = [row[:2] for row in streamed]
    assert len(set(pairs)) == len(pairs)
    # A lag past the last frame writes the final tracks.
    window = int(args[1]) if args else None
    final = reference_stream(solver, window, 10**6, text).splitlines()
    lacking = {tuple(line.split(",")) for line in final} - set(streamed)
    assert lacking
    assert {row[:2] for row in lacking} <= set(pairs)
