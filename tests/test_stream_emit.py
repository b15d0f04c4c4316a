"""Streaming output path of `flowtrack track --stream`.

The CLI builds each frame's rows from the tracker's window and the rows it
froze since the last emit. These tests pin that to the straightforward
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

#: Scenes with births, deaths, missed detections and false positives. In the
#: crowded crossing one, odssp revises ids of rows it has already written;
#: the high miss rate of the last one leaves empty frames that the CLI fills.
SCENES = (
    (SyntheticConfig(n_frames=30, n_initial_tracks=3, spawn_prob=0.2,
                     death_prob=0.08, miss_rate=0.15, fp_rate=0.15), 3),
    (SyntheticConfig(n_frames=30, n_initial_tracks=6, spawn_prob=0.1,
                     death_prob=0.05, miss_rate=0.2, fp_rate=0.3,
                     crossing=True, speed_range=(10.0, 25.0)), 9),
    (SyntheticConfig(n_frames=30, n_initial_tracks=1, spawn_prob=0.1,
                     death_prob=0.1, miss_rate=0.5, fp_rate=0.1), 21),
)
RUNS = (("odssp", ()), ("mbodssp", ("--window", "4")))
LAGS = (0, 2, 6)


def stream_text(detections) -> str:
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


@pytest.mark.parametrize("solver,args", RUNS)
def test_stream_matches_full_scan_emitter(solver, args, monkeypatch):
    revisions = 0
    for cfg, seed in SCENES:
        text = stream_text(generate_synthetic(cfg, seed)[0])
        for lag in LAGS:
            expected = reference_stream(solver, 4, lag, text)
            got = run_stream(["--solver", solver, *args,
                              "--confirm-lag", str(lag)], text, monkeypatch)
            assert got == expected, (cfg, seed, lag)
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
    cfg, seed = SCENES[0]
    text = stream_text(generate_synthetic(cfg, seed)[0])
    for lag in LAGS:
        assert run_stream(["--solver", "mbodssp", "--window", "4",
                           "--confirm-lag", str(lag)], text, monkeypatch)
    assert calls == []


class CountingModel(CostModel):
    """Default cost model that counts its link_cost_of calls."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "link_calls", 0)

    def link_cost_of(self, a, b):
        object.__setattr__(self, "link_calls", self.link_calls + 1)
        return super().link_cost_of(a, b)


def test_stream_work_per_frame_stays_bounded(monkeypatch):
    """link_cost_of calls per frame of a CLI stream, counting the tracker's
    update and the output written after it, do not grow with stream length."""
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
    assert sum(per_frame[150:200]) <= sum(per_frame[20:70])
