import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from conftest import (BATCH_FAULTS, StubModel, build_graph, det, faulty_batch,
                      make_random_instance)
from flowtrack import bench, cli
from flowtrack import io as ftio
from flowtrack.cost_model import CostModel
from flowtrack.errors import DataError
from flowtrack.graph import LINK_BUDGET, TrackingGraph, Trajectory
from flowtrack.metrics import clear_mot
from flowtrack.online import OnlineTracker
from flowtrack.oracle import (MAX_PATHS, MAX_SEARCHES, count_paths,
                              enumerate_paths)
from flowtrack.synthetic import SyntheticConfig, generate_synthetic


class TestParseDetections:
    def test_single_line(self):
        dets = ftio.parse_detections(io.StringIO("0,-1,10,20,30,40,0.9\n"))
        assert list(dets) == [0]
        d = dets[0][0]
        assert d.box == (10.0, 20.0, 30.0, 40.0)
        assert d.score == 0.9
        assert d.key == (0, 0)

    def test_empty_file(self):
        assert ftio.parse_detections(io.StringIO("")) == {}

    def test_zero_width_names_line(self):
        text = "0,-1,1,1,5,5,0.5\n1,-1,1,1,0,5,0.5\n"
        with pytest.raises(DataError, match="line 2"):
            ftio.parse_detections(io.StringIO(text))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            ftio.parse_detections(io.StringIO("0,-1,1,1,5,5,nan\n"))
        with pytest.raises(DataError, match="line 1"):
            ftio.parse_detections(io.StringIO("0,-1,x,1,5,5,0.5\n"))

    def test_sparse_frames_kept_sparse(self):
        text = "3,-1,1,1,5,5,0.5\n0,-1,1,1,5,5,0.5\n3,-1,2,2,5,5,0.5\n"
        dets = ftio.parse_detections(io.StringIO(text))
        # only the frames that occur, in frame order
        assert list(dets) == [0, 3]
        assert [d.local_index for d in dets[3]] == [0, 1]

    def test_local_indices_follow_file_order(self):
        text = "0,-1,1,1,5,5,0.5\n0,-1,9,9,5,5,0.7\n"
        dets = ftio.parse_detections(io.StringIO(text))
        assert [d.local_index for d in dets[0]] == [0, 1]

    def test_extra_columns_kept(self):
        dets = ftio.parse_detections(io.StringIO("0,-1,1,1,5,5,0.5,0.8,0.3\n"))
        assert dets[0][0].extras == (0.8, 0.3)

    def test_inconsistent_columns_rejected(self):
        text = "0,-1,1,1,5,5,0.5,0.8\n0,-1,2,2,5,5,0.5\n"
        with pytest.raises(DataError, match="line 2"):
            ftio.parse_detections(io.StringIO(text))

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n0,-1,1,1,5,5,0.5\n"
        assert len(ftio.parse_detections(io.StringIO(text))[0]) == 1


class TestWriteTracks:
    def test_sorted_and_formatted(self):
        trajs = [Trajectory(1, [det(0, 0), det(1, 0)], 0.0),
                 Trajectory(0, [det(0, 1, x=250.0), det(1, 1, x=250.0)], 0.0)]
        buf = io.StringIO()
        ftio.write_tracks(buf, trajs)
        lines = buf.getvalue().splitlines()
        assert lines == ["0,0,250,0,10,10", "0,1,0,0,10,10",
                         "1,0,250,0,10,10", "1,1,0,0,10,10"]

    def test_empty_solution_empty_file(self):
        buf = io.StringIO()
        ftio.write_tracks(buf, [])
        assert buf.getvalue() == ""

    def test_round_trip_via_parse_tracks(self):
        trajs = [Trajectory(3, [det(0, 0, x=12.5)], 0.0)]
        buf = io.StringIO()
        ftio.write_tracks(buf, trajs)
        frames = ftio.parse_tracks(io.StringIO(buf.getvalue()))
        assert frames == {0: [(3, (12.5, 0.0, 10.0, 10.0))]}

    def test_duplicate_track_id_in_frame_rejected(self):
        text = "0,3,1,1,5,5\n1,3,1,1,5,5\n1,4,2,2,5,5\n1,3,9,9,5,5\n"
        with pytest.raises(DataError, match="line 4: duplicate track id 3 "
                                            "in frame 1"):
            ftio.parse_tracks(io.StringIO(text))

    def test_many_rows_in_one_frame_parse_in_linear_time(self):
        # 32,000 rows of one frame: a duplicate check that scans the frame's
        # rows for each row took about 16 s on a 2-vCPU VM.
        rows = [f"0,{i},{i % 640}.5,{i % 480}.25,20,40\n" for i in range(32000)]
        gt_rows = [f"0,-1,{i % 640}.5,{i % 480}.25,20,40,0.5,{i}\n"
                   for i in range(32000)]
        start = time.perf_counter()
        frames = ftio.parse_tracks(io.StringIO("".join(rows)))
        _, gt = ftio.parse_ground_truth(io.StringIO("".join(gt_rows)))
        assert time.perf_counter() - start < 3.0
        assert len(frames[0]) == len(gt.frames[0]) == 32000


class TestGroundTruthIo:
    def test_round_trip(self):
        gt_text = "0,-1,1,1,5,5,0.5,7\n1,-1,2,2,5,5,0.5,7\n"
        dets, gt = ftio.parse_ground_truth(io.StringIO(gt_text))
        assert gt.frames[0] == [(7, (1.0, 1.0, 5.0, 5.0))]
        assert len(dets[1]) == 1

    def test_duplicate_gt_id_in_frame_rejected(self):
        text = "0,-1,1,1,5,5,0.5,7\n0,-1,9,9,5,5,0.5,7\n"
        with pytest.raises(DataError):
            ftio.parse_ground_truth(io.StringIO(text))


class TestConfig:
    def test_load_and_comments(self):
        text = "beta = 2.0  # slope\n\nentry_cost=1.5\n"
        cfg = ftio.load_config(io.StringIO(text))
        assert cfg == {"beta": "2.0", "entry_cost": "1.5"}

    def test_malformed_line(self):
        with pytest.raises(DataError, match="line 1"):
            ftio.load_config(io.StringIO("just words\n"))
        with pytest.raises(DataError):
            ftio.load_config(io.StringIO("= 3\n"))


class TestOpenOrStdio:
    def test_path_closed_even_on_error(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with ftio.open_or_stdio(path, "w") as fobj:
                fobj.write("row\n")
                raise RuntimeError("boom")
        assert fobj.closed
        assert path.read_text() == "row\n"

    def test_dash_and_none_are_stdio_left_open(self):
        for target in (None, "-"):
            with ftio.open_or_stdio(target) as fin:
                assert fin is sys.stdin
            with ftio.open_or_stdio(target, "w") as fout:
                assert fout is sys.stdout
        assert not sys.stdout.closed

    def test_file_object_passed_through(self):
        buf = io.StringIO()
        with ftio.open_or_stdio(buf, "w") as fobj:
            assert fobj is buf
        assert not buf.closed


class TestGroundTruthWriter:
    def test_round_trip(self):
        frames = {0: [(7, (1.0, 1.0, 5.0, 5.0)), (3, (9.0, 2.0, 4.0, 4.0))],
                  2: [(7, (2.0, 1.5, 5.0, 5.0))]}
        buf = io.StringIO()
        ftio.write_ground_truth(buf, frames)
        buf.seek(0)
        dets, gt = ftio.parse_ground_truth(buf)
        assert gt.frames == frames
        assert [d.score for d in dets[0]] == [1.0, 1.0]


class TestStreamBlocks:
    def test_blocks_parsed_in_order(self):
        text = "0,-1,1,1,5,5,0.5\n0,-1,9,9,5,5,0.6\n\n1,-1,2,2,5,5,0.5\n\n"
        stream = io.StringIO(text)
        f0 = ftio.parse_stream_frame(stream)
        f1 = ftio.parse_stream_frame(stream)
        end = ftio.parse_stream_frame(stream)
        assert f0[0] == 0 and len(f0[1]) == 2
        assert [d.local_index for d in f0[1]] == [0, 1]
        assert f1[0] == 1 and len(f1[1]) == 1
        assert end is None

    def test_mixed_frames_in_block_rejected(self):
        text = "0,-1,1,1,5,5,0.5\n1,-1,2,2,5,5,0.5\n\n"
        with pytest.raises(DataError):
            ftio.parse_stream_frame(io.StringIO(text))


class TestOneRowReader:
    """Files and --stream read rows through one csv.reader: comments and
    quoted fields mean the same on both paths, and every row that csv
    rejects is a data error that names its line."""

    #: A field one character over csv's limit, and a NUL byte in a number
    #: (csv rejects a NUL before Python 3.11; from 3.11 the number does).
    FAULTS = ("9" * (csv.field_size_limit() + 1), "10\x00")

    def test_stream_reads_rows_as_a_file_does(self, tmp_path):
        blocks = []
        dets, _ = generate_synthetic(SyntheticConfig(
            n_frames=12, n_initial_tracks=3, miss_rate=0.1, fp_rate=0.1), 3)
        for f in sorted(dets):
            rows = [f'"{d.frame}",-1,{",".join(map(repr, map(float, d.box)))}'
                    f'," {float(d.score)!r} "' for d in dets[f]]
            rows.insert(1, "# a comment inside a block")
            blocks.append("\n".join(rows))
        text = "# frame,id,x,y,w,h,score\n\n" + "\n\n\n".join(blocks) + "\n\n"
        path = tmp_path / "det.csv"
        path.write_text(text)
        args = ["--solver", "odssp", "-o", "-", "--confirm-lag", "1000"]
        batch = run_cli("track", "-i", str(path), *args[:-2])
        streamed = run_cli("track", "--stream", *args, stdin=text)
        assert batch.returncode == 0, batch.stderr
        assert streamed.returncode == 0, streamed.stderr
        assert streamed.stdout == batch.stdout and batch.stdout

    @pytest.mark.parametrize("fault", FAULTS, ids=["long-field", "nul"])
    @pytest.mark.parametrize("command", ["track", "stream", "oracle", "bench",
                                         "eval-gt", "eval-tracks",
                                         "tracks-to-gt"])
    def test_csv_errors_name_the_line(self, command, fault, tmp_path,
                                      monkeypatch, capsys):
        """The fault sits on line 2 of the one input that holds it."""
        rows = {"det": "0,-1,10,10,20,20,0.9\n1,-1,{},10,20,20,0.9\n",
                "gt": "0,-1,10,10,20,20,1,7\n1,-1,{},10,20,20,1,7\n",
                "tracks": "0,1,10,10,20,20\n1,1,{},10,20,20\n"}
        bad, good = {}, {}
        for name, text in rows.items():
            bad[name], good[name] = tmp_path / f"{name}.csv", tmp_path / name
            bad[name].write_text(text.format(fault))
            good[name].write_text(text.format(10))
        out = ["-o", str(tmp_path / "out")]
        argv = {
            "track": ["track", "-i", bad["det"], *out],
            "stream": ["track", "--stream", "--solver", "odssp", *out],
            "oracle": ["oracle", "-i", bad["det"], *out],
            "bench": ["bench", "-i", bad["det"], *out],
            "eval-gt": ["eval", "--gt", bad["gt"], "--tracks", good["tracks"]],
            "eval-tracks": ["eval", "--gt", good["gt"],
                            "--tracks", bad["tracks"]],
            "tracks-to-gt": ["tracks-to-gt", "-i", bad["tracks"], *out],
        }[command]
        monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            rows["det"].format(fault) + "\n"))
        assert cli.main(list(map(str, argv))) == 2
        assert "flowtrack: data error: line 2: " in capsys.readouterr().err


class TestStreamLineNumbers:
    """Stream errors name the row's line in the whole input, counted across
    blocks and blank lines."""

    TEXT = ("0,-1,1,1,5,5,0.5\n0,-1,9,9,5,5,0.6\n\n\n"
            "1,-1,2,2,5,5,0.5\n\n2,-1,3,3,5,5,0.5\n")

    def test_bad_row_in_first_and_third_block(self):
        for text, line in (("0,-1,5,5,1e-200,1e-200,2\n\n", 1),
                           (self.TEXT + "2,-1,4,4,5,x,0.5\n\n", 8),
                           (self.TEXT + "3,-1,4,4,5,5,0.5\n\n", 8)):
            lines = csv.reader(io.StringIO(text))
            with pytest.raises(DataError, match=f"^line {line}: "):
                while ftio.parse_stream_frame(lines) is not None:
                    pass

    def test_cli_names_the_input_line(self):
        r = run_cli("track", "--stream", "--solver", "odssp",
                    stdin="0,-1,5,5,1e-200,1e-200,2\n\n")
        assert r.returncode == 2
        assert "line 1: detection box area" in r.stderr
        r = run_cli("track", "--stream", "--solver", "mbodssp", "--window",
                    "2", stdin=self.TEXT + "2,-1,4,4,5,x,0.5\n\n")
        assert r.returncode == 2
        assert "line 8: bad h 'x'" in r.stderr


class TestTrackRows:
    """A track row holds a box that a detection could hold. Every command
    that reads tracks rejects any other row with exit 2 and names its
    line."""

    @pytest.mark.parametrize("row,message", [
        ("1,1,10,10,inf,20", "detection fields must be finite"),
        ("1,1,10,10,0,20", "positive size, got w=0.0"),
        ("1,1,10,10,20,-5", "positive size, got w=20.0, h=-5.0"),
        ("1,1,10,10,1e-200,1e-200", "area w*h underflows"),
        ("-1,1,10,10,20,20", "frame must be >= 0"),
    ])
    @pytest.mark.parametrize("command", ["eval", "tracks-to-gt"])
    def test_impossible_box_names_the_line(self, command, row, message,
                                           tmp_path, monkeypatch, capsys):
        tracks, gt = tmp_path / "tracks.csv", tmp_path / "gt.csv"
        tracks.write_text(f"0,1,10,10,20,20\n{row}\n")
        gt.write_text("0,-1,10,10,20,20,1,7\n1,-1,10,10,20,20,1,7\n")
        argv = {"eval": ["eval", "--gt", gt, "--tracks", tracks],
                "tracks-to-gt": ["tracks-to-gt", "-i", tracks,
                                 "-o", tmp_path / "out.csv"]}[command]
        monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        assert cli.main(list(map(str, argv))) == 2
        err = capsys.readouterr().err
        assert "flowtrack: data error: line 2: " in err and message in err

    def test_short_row_asks_for_at_least_six_columns(self):
        text = "0,1,10,10,20,20,0.9\n1,1,10,10,20\n"  # a longer row passes
        with pytest.raises(DataError, match="^line 2: expected at least 6 "
                                            "columns, got 5$"):
            ftio.parse_tracks(io.StringIO(text))


def run_python(*args, stdin=None, env_extra=None):
    """A fresh interpreter run with `args`, without $FLOWTRACK_CONFIG."""
    env = dict(os.environ)
    env.pop("FLOWTRACK_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *args],
                          input=stdin, capture_output=True, text=True, env=env)


def run_cli(*args, stdin=None, env_extra=None):
    return run_python("-m", "flowtrack.cli", *args, stdin=stdin,
                      env_extra=env_extra)


def stream_text(det_path) -> str:
    """A detection CSV as --stream input: one blank-line-ended block a frame."""
    blocks = []
    dets = ftio.parse_detections(str(det_path))
    for f in sorted(dets):
        rows = [f"{d.frame},-1,{d.box[0]},{d.box[1]},{d.box[2]},"
                f"{d.box[3]},{d.score}" for d in dets[f]]
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + "\n\n"


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    det_path = root / "det.csv"
    gt_path = root / "gt.csv"
    r = run_cli("synth", "--seed", "5", "--frames", "15", "--tracks", "3",
                "--miss-rate", "0.1", "--fp-rate", "0.1",
                "-o", str(det_path), "--gt-output", str(gt_path))
    assert r.returncode == 0, r.stderr
    return root, det_path, gt_path


class TestCli:
    def test_track_solvers_agree(self, sample_files):
        # same trajectories up to the (arbitrary) id labels
        root, det_path, _ = sample_files
        outs = {}
        for solver in ("ssp", "dssp", "odssp"):
            out = root / f"tracks_{solver}.csv"
            r = run_cli("track", "-i", str(det_path), "-o", str(out),
                        "--solver", solver)
            assert r.returncode == 0, r.stderr
            tracks = {}
            for f, objs in ftio.parse_tracks(str(out)).items():
                for tid, box in objs:
                    tracks.setdefault(tid, []).append((f, box))
            outs[solver] = sorted(sorted(v) for v in tracks.values())
        assert outs["ssp"] == outs["dssp"] == outs["odssp"]

    def test_track_deterministic_bytes(self, sample_files):
        root, det_path, _ = sample_files
        a, b = root / "a.csv", root / "b.csv"
        for out in (a, b):
            r = run_cli("track", "-i", str(det_path), "-o", str(out),
                        "--solver", "mbodssp", "--window", "6")
            assert r.returncode == 0, r.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_eval_reports_metrics(self, sample_files):
        root, det_path, gt_path = sample_files
        out = root / "tracks_eval.csv"
        run_cli("track", "-i", str(det_path), "-o", str(out))
        r = run_cli("eval", "--gt", str(gt_path), "--tracks", str(out))
        assert r.returncode == 0, r.stderr
        assert "MOTA" in r.stdout and "IDS" in r.stdout

    def test_round_trip_self_evaluation(self, sample_files):
        root, det_path, _ = sample_files
        tracks = root / "tracks_rt.csv"
        gt2 = root / "tracks_as_gt.csv"
        run_cli("track", "-i", str(det_path), "-o", str(tracks))
        r = run_cli("tracks-to-gt", "-i", str(tracks), "-o", str(gt2))
        assert r.returncode == 0, r.stderr
        r = run_cli("eval", "--gt", str(gt2), "--tracks", str(tracks))
        assert r.returncode == 0, r.stderr
        assert "MOTA 1.0000" in r.stdout
        assert "IDS 0" in r.stdout

    def test_oracle_matches_ssp_on_tiny_input(self, tmp_path):
        det_path = tmp_path / "tiny.csv"
        r = run_cli("synth", "--seed", "1", "--frames", "3", "--tracks", "2",
                    "-o", str(det_path))
        assert r.returncode == 0
        a, b = tmp_path / "ssp.csv", tmp_path / "oracle.csv"
        run_cli("track", "-i", str(det_path), "-o", str(a))
        r = run_cli("oracle", "-i", str(det_path), "-o", str(b),
                    "--max-detections", "20")
        assert r.returncode == 0, r.stderr
        assert a.read_text() == b.read_text()

    def test_negative_max_detections_is_usage_error(self, sample_files):
        _, det_path, _ = sample_files
        for limit in ("-1", "x"):
            r = run_cli("oracle", "-i", str(det_path), "-o", "-",
                        "--max-detections", limit)
            assert r.returncode == 1, (limit, r.stderr)
            assert "argument --max-detections" in r.stderr
            assert r.stdout == "" and "Traceback" not in r.stderr

    def test_oracle_refuses_a_long_chain(self, tmp_path):
        # one box a frame, 1,100 frames: its paths, 1100 * 1101 / 2, once
        # recursed past the interpreter's limit and now exit 2 up front
        det_path = tmp_path / "chain.csv"
        det_path.write_text("".join(f"{f},0,10,10,20,20,0.9\n"
                                    for f in range(1100)))
        t0 = time.perf_counter()
        r = run_cli("oracle", "-i", str(det_path), "-o", "-",
                    "--max-detections", "2000")
        assert time.perf_counter() - t0 < 10
        assert r.returncode == 2, r.stderr
        assert "source-to-sink paths, got 605550" in r.stderr
        assert "Traceback" not in r.stderr

    def test_oracle_gives_up_on_a_slow_chain(self, tmp_path):
        # one box a frame, 30 frames: 465 paths pass MAX_PATHS, but the
        # subset search needs 7.3 million steps (5.8 s); its budget ends it
        det_path = tmp_path / "chain.csv"
        det_path.write_text("".join(f"{f},0,10,10,20,20,0.9\n"
                                    for f in range(30)))
        t0 = time.perf_counter()
        r = run_cli("oracle", "-i", str(det_path), "-o", "-",
                    "--max-detections", "2000")
        assert time.perf_counter() - t0 < 10
        assert r.returncode == 2, r.stderr
        assert f"limited to {MAX_SEARCHES} search steps" in r.stderr
        assert "Traceback" not in r.stderr

    def test_oracle_path_count(self):
        for seed in range(20):
            frames, model = make_random_instance(seed)
            graph = build_graph(frames, model)
            assert count_paths(graph) == len(enumerate_paths(graph))
        # the most paths 12 detections admit, all frames fully linked
        frames = {f: [det(f, i) for i in range(1 if f in (0, 6) else 2)]
                  for f in range(7)}
        links = {(a.key, b.key): 0.0 for f in range(6) for a in frames[f]
                 for b in frames[f + 1]}
        graph = build_graph(frames, StubModel(links=links))
        assert count_paths(graph) == 272 < MAX_PATHS

    def test_bench_emits_rows(self, sample_files):
        root, det_path, _ = sample_files
        out = root / "bench.csv"
        r = run_cli("bench", "-i", str(det_path), "-o", str(out),
                    "--solvers", "ssp,mbodssp", "--taus", "4")
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("solver,tau,frame")
        assert any(line.startswith("mbodssp,4,") for line in lines)

    def test_bench_bad_taus_are_usage_errors(self, sample_files):
        _, det_path, _ = sample_files
        for taus in ("abc", ",", "", "4,x"):
            r = run_cli("bench", "-i", str(det_path), "-o", "-",
                        "--solvers", "mbodssp", "--taus", taus)
            assert r.returncode == 1, (taus, r.stderr)
            assert "argument --taus" in r.stderr
            assert "Traceback" not in r.stderr

    def test_eval_rejects_iou_outside_unit_interval(self, sample_files,
                                                    tmp_path):
        root, det_path, gt_path = sample_files
        out = root / "tracks_iou.csv"
        run_cli("track", "-i", str(det_path), "-o", str(out))
        cfg = tmp_path / "iou.cfg"
        for value in ("nan", "5", "-1", "inf"):
            r = run_cli("eval", "--gt", str(gt_path), "--tracks", str(out),
                        "--iou", value)
            assert r.returncode == 2, (value, r.stdout)
            assert "iou_threshold must be in [0, 1]" in r.stderr
            cfg.write_text(f"iou_threshold = {value}\n")
            r = run_cli("eval", "--gt", str(gt_path), "--tracks", str(out),
                        "--config", str(cfg))
            assert r.returncode == 2, (value, r.stdout)
            assert "iou_threshold must be in [0, 1]" in r.stderr
        for value in ("0", "1"):
            r = run_cli("eval", "--gt", str(gt_path), "--tracks", str(out),
                        "--iou", value)
            assert r.returncode == 0, r.stderr

    def test_synth_rejects_negative_seed_and_tracks(self, tmp_path):
        out = tmp_path / "synth.csv"
        for flag, value, message in (("--seed", "-1", "seed must be >= 0"),
                                     ("--tracks", "-2",
                                      "n_initial_tracks must be >= 0")):
            r = run_cli("synth", flag, value, "--frames", "3", "-o", str(out))
            assert r.returncode == 2, (flag, r.stderr)
            assert message in r.stderr
            assert "Traceback" not in r.stderr
            assert not out.exists()
        r = run_cli("synth", "--seed", "0", "--tracks", "0", "--frames", "3",
                    "-o", str(out))
        assert r.returncode == 0, r.stderr

    def test_streaming_mode(self, sample_files):
        _, det_path, _ = sample_files
        batch = run_cli("track", "-i", str(det_path), "-o", "-",
                        "--solver", "odssp")
        streamed = run_cli("track", "--stream", "--solver", "odssp",
                           "-o", "-", stdin=stream_text(det_path))
        assert streamed.returncode == 0, streamed.stderr
        assert sorted(streamed.stdout.splitlines()) == \
            sorted(batch.stdout.splitlines())

    def test_negative_confirm_lag_is_usage_error(self, sample_files):
        _, det_path, _ = sample_files
        stdin = stream_text(det_path)
        for lag in ("-3", "-1", "x"):
            r = run_cli("track", "--stream", "--solver", "odssp", "-o", "-",
                        "--confirm-lag", lag, stdin=stdin)
            assert r.returncode == 1, (lag, r.stderr)
            assert "argument --confirm-lag" in r.stderr
            assert r.stdout == "" and "Traceback" not in r.stderr
        r = run_cli("track", "--stream", "--solver", "odssp", "-o", "-",
                    "--confirm-lag", "0", stdin=stdin)
        assert r.returncode == 0, r.stderr

    def test_config_file_and_env_precedence(self, sample_files, tmp_path):
        root, det_path, _ = sample_files
        cfg = tmp_path / "model.cfg"
        cfg.write_text("entry_cost = 50\nexit_cost = 50\n")
        # huge entry/exit costs suppress all tracks
        r = run_cli("track", "-i", str(det_path), "-o", "-",
                    "--config", str(cfg))
        assert r.returncode == 0 and r.stdout == ""
        r = run_cli("track", "-i", str(det_path), "-o", "-",
                    env_extra={"FLOWTRACK_CONFIG": str(cfg)})
        assert r.returncode == 0 and r.stdout == ""
        # CLI flag overrides the file
        r = run_cli("track", "-i", str(det_path), "-o", "-",
                    "--config", str(cfg), "--entry-cost", "2",
                    "--exit-cost", "2")
        assert r.returncode == 0 and r.stdout != ""

    def test_unknown_config_key_is_data_error(self, sample_files, tmp_path):
        _, det_path, _ = sample_files
        cfg = tmp_path / "old.cfg"
        # keys that no longer exist
        for key, value in (("cache_size", "4"), ("clip_entry_mode", "prefix")):
            cfg.write_text(f"{key} = {value}\n")
            r = run_cli("track", "-i", str(det_path), "-o", "-",
                        "--config", str(cfg))
            assert r.returncode == 2
            assert f"unknown config key '{key}'" in r.stderr

    def test_gating_value_must_parse(self, sample_files, tmp_path):
        _, det_path, _ = sample_files
        cfg = tmp_path / "gating.cfg"
        track = ("track", "-i", str(det_path), "-o", "-")
        for value in ("ture", "2", "maybe", ""):
            cfg.write_text(f"gating = {value}\n")
            r = run_cli(*track, "--config", str(cfg))
            assert r.returncode == 2, (value, r.stdout)
            assert f"config key 'gating': cannot parse {value!r}" in r.stderr
        for value, flags in (("Yes", ()), ("OFF", ("--no-gating",))):
            cfg.write_text(f"gating = {value}\n")
            r = run_cli(*track, "--config", str(cfg))
            assert r.returncode == 0, (value, r.stderr)
            assert r.stdout == run_cli(*track, *flags).stdout, value

    def test_scaled_costs_give_the_same_tracks(self, tmp_path, monkeypatch):
        """Scaling every cost by a power of two changes no track, however
        large or small the costs get."""
        monkeypatch.delenv("FLOWTRACK_CONFIG", raising=False)
        det_path, out, cfg = (str(tmp_path / n)
                              for n in ("det.csv", "tracks.csv", "scaled.cfg"))
        scene = SyntheticConfig(n_frames=30, n_initial_tracks=4,
                                miss_rate=0.1, fp_rate=0.2, crossing=True)
        ftio.write_detections(det_path, generate_synthetic(scene, 1)[0])
        model = CostModel()

        def track(solver, *config):
            assert cli.main(["track", "-i", det_path, "-o", out,
                             "--solver", solver, *config]) == 0
            with open(out) as f:
                return f.read()

        for solver in ("ssp", "dssp", "odssp"):
            base = track(solver)
            for scale in (2.0 ** -30, 2.0 ** 20, 2.0 ** 40):
                weights = ",".join(repr(w * scale)
                                   for w in model.feature_weights)
                with open(cfg, "w") as f:
                    f.write(f"entry_cost = {model.entry_cost * scale!r}\n"
                            f"exit_cost = {model.exit_cost * scale!r}\n"
                            f"det_offset = {model.det_offset * scale!r}\n"
                            f"det_weight = {model.det_weight * scale!r}\n"
                            f"feature_weights = {weights}\n")
                assert track(solver, "--config", cfg) == base, (solver, scale)

    def test_exit_code_usage_error(self):
        r = run_cli("track", "--solver", "definitely-not-a-solver")
        assert r.returncode == 1
        r = run_cli("no-such-command")
        assert r.returncode == 1

    def test_exit_code_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,-1,1,1,0,5,0.5\n")  # zero width
        r = run_cli("track", "-i", str(bad), "-o", "-")
        assert r.returncode == 2
        assert "line 1" in r.stderr
        r = run_cli("track", "-i", str(tmp_path / "missing.csv"), "-o", "-")
        assert r.returncode == 2

    def test_extreme_scores_track_without_traceback(self, tmp_path):
        for score in ("1000", "-1000"):
            path = tmp_path / "one.csv"
            path.write_text(f"0,-1,10,10,20,20,{score}\n")
            for form in ("affine", "logodds"):
                r = run_cli("track", "-i", str(path), "-o", "-",
                            "--det-cost-form", form)
                assert r.returncode == 0, r.stderr
                assert "Traceback" not in r.stderr

    def test_mbodssp_requires_window(self, sample_files):
        _, det_path, _ = sample_files
        r = run_cli("track", "-i", str(det_path), "--solver", "mbodssp")
        assert r.returncode == 2
        # a one-frame window is refused before any frame is read
        r = run_cli("track", "-i", str(det_path), "-o", "-",
                    "--solver", "mbodssp", "--window", "1")
        assert r.returncode == 2
        assert "window must be >= 2" in r.stderr
        r = run_cli("track", "--stream", "--solver", "mbodssp", "--window", "1",
                    stdin="0,-1,10,10,20,40,2\n\n1,-1,12,10,20,40,2\n\n")
        assert r.returncode == 2
        assert "window must be >= 2" in r.stderr
        assert r.stdout == ""


#: Runs flowtrack.cli as `-m` does, then reports on stderr whether
#: scipy.optimize was loaded by the time the interpreter exits.
OPTIMIZE_PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('optimize loaded:', 'scipy.optimize' in "
    "sys.modules, file=sys.stderr))\n"
    "runpy.run_module('flowtrack.cli', run_name='__main__', alter_sys=True)\n")


class TestColdStart:
    """Only CLEAR-MOT scoring loads scipy.optimize, which is slow to import;
    tracking and a plain import of the package do not. The first main() call
    of a process freezes the heap the imports left, once; the collector stays
    on for everything made afterwards."""

    @pytest.mark.parametrize("args", [
        ("--solver", "ssp"), ("--solver", "dssp"), ("--solver", "dp"),
        ("--stream", "--solver", "odssp"),
        ("--stream", "--solver", "mbodssp", "--window", "3")])
    def test_track_does_not_load_optimize(self, args, sample_files):
        _, det_path, _ = sample_files
        stream = "--stream" in args
        r = run_python("-c", OPTIMIZE_PROBE, "track", "-o", "-", *args,
                       *(() if stream else ("-i", str(det_path))),
                       stdin=stream_text(det_path) if stream else None)
        assert r.returncode == 0, r.stderr
        assert r.stdout != ""
        assert r.stderr.endswith("optimize loaded: False\n"), r.stderr

    def test_import_does_not_load_optimize(self):
        r = run_python("-c", "import sys, flowtrack; "
                       "print('scipy.optimize' in sys.modules)")
        assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr

    def test_eval_loads_optimize_and_reports(self, sample_files, tmp_path,
                                             capsys, monkeypatch):
        _, det_path, gt_path = sample_files
        tracks = tmp_path / "tracks.csv"
        assert run_cli("track", "-i", str(det_path), "-o", str(tracks)).returncode == 0
        argv = ["eval", "--gt", str(gt_path), "--tracks", str(tracks)]
        r = run_python("-c", OPTIMIZE_PROBE, *argv)
        assert r.returncode == 0, r.stderr
        assert r.stderr == "optimize loaded: True\n"
        monkeypatch.delenv("FLOWTRACK_CONFIG", raising=False)
        assert cli.main(argv) == 0
        assert r.stdout == capsys.readouterr().out
        assert r.stdout.startswith("MOTA ")

    MAIN = ("import gc\n"
            "from flowtrack import cli\n"
            "def main():\n"
            "    assert cli.main(['track', '--stream', '--solver', 'odssp',\n"
            "                     '-o', '-']) == 0\n")

    def probe(self, code: str) -> str:
        r = run_python("-c", self.MAIN + code, stdin="")
        assert r.returncode == 0, r.stderr
        return r.stdout

    def test_import_freezes_nothing(self):
        assert self.probe("print(gc.get_freeze_count())") == "0\n"

    def test_first_main_freezes_and_keeps_the_collector_on(self):
        out = self.probe("main(); print(gc.get_freeze_count(), gc.isenabled())")
        count, enabled = out.split()
        assert int(count) > 0 and enabled == "True"

    def test_second_main_freezes_nothing_more(self):
        out = self.probe("main(); n = gc.get_freeze_count(); main(); "
                         "print(n, gc.get_freeze_count())")
        first, second = map(int, out.split())
        assert first > 0 and second == first

    def test_a_cycle_made_after_main_is_collected(self):
        out = self.probe("import weakref\n"
                         "class Node: pass\n"
                         "main(); node = Node(); node.self = node\n"
                         "ref = weakref.ref(node); del node; gc.collect()\n"
                         "print(ref() is None)")
        assert out == "True\n"

    def test_main_leaves_a_full_collection_little_to_walk(self):
        # gc.get_objects() lists the collected generations, not the frozen one
        out = self.probe("n = len(gc.get_objects()); main(); "
                         "print(n, len(gc.get_objects()))")
        imported, after = map(int, out.split())
        assert after < imported / 10, (imported, after)

    def test_one_process_answers_each_call_as_a_fresh_one(self, sample_files,
                                                          tmp_path):
        """main() keeps its parser across calls: no flag or default of one
        call reaches the next."""
        _, det_path, gt_path = sample_files
        tracks = tmp_path / "tracks.csv"
        assert run_cli("track", "-i", str(det_path), "-o", str(tracks)).returncode == 0
        det = str(det_path)
        calls = [
            ["track", "-i", det, "-o", "-", "--solver", "mbodssp",
             "--window", "3", "--entry-cost", "0.5", "--no-gating"],
            ["track", "--solver", "nope"],
            ["eval", "--gt", str(gt_path), "--tracks", str(tracks),
             "--iou", "0.3"],
            ["track", "-i", det, "-o", "-"],
            ["track", "-i", det, "-o", "-", "--solver", "mbodssp"],
        ]
        r = run_python("-c", "import contextlib, io, json, sys\n"
                       "from flowtrack import cli\n"
                       "runs = []\n"
                       "for argv in json.loads(sys.argv[1]):\n"
                       "    out, err = io.StringIO(), io.StringIO()\n"
                       "    with contextlib.redirect_stdout(out), \\\n"
                       "            contextlib.redirect_stderr(err):\n"
                       "        code = cli.main(argv)\n"
                       "    runs.append([code, out.getvalue(), err.getvalue()])\n"
                       "print(json.dumps(runs))\n", json.dumps(calls))
        assert r.returncode == 0, r.stderr
        fresh = [run_cli(*argv) for argv in calls]
        assert [code for code, _, _ in json.loads(r.stdout)] == [0, 1, 0, 0, 2]
        assert json.loads(r.stdout) == [[f.returncode, f.stdout, f.stderr]
                                        for f in fresh]


@pytest.mark.parametrize("solver,stream", [("ssp", False), ("dssp", False),
                                           ("dp", False), ("odssp", True),
                                           ("mbodssp", True)])
def test_degenerate_boxes_without_traceback(solver, stream, monkeypatch,
                                            capsys):
    """A box whose area underflows to zero is a data error. Boxes at 1e16,
    where x + w rounds up so far that the overlap equals the summed areas,
    are tracked."""
    def track(rows):
        monkeypatch.delenv("FLOWTRACK_CONFIG", raising=False)
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            "\n".join(rows) if stream else "".join(rows)))
        monkeypatch.setattr(sys, "stdout", out := io.StringIO())
        # cheap entries and exits make the two detections worth a track
        argv = ["track", "--solver", solver, "-o", "-", "--entry-cost",
                "0.25", "--exit-cost", "0.25"]
        argv += ["--stream"] if stream else ["-i", "-"]
        if solver == "mbodssp":
            argv += ["--window", "2"]
        return cli.main(argv), out.getvalue()

    code, _ = track([f"{f},-1,5,5,1e-200,1e-200,2\n" for f in range(2)])
    assert code == 2
    assert "detection box area w*h underflows" in capsys.readouterr().err
    code, out = track([f"{f},-1,10000000000000002,0,1,1,2\n"
                       for f in range(2)])
    assert code == 0 and "Traceback" not in capsys.readouterr().err
    # one track through both detections: their link was priced
    rows = [row.split(",") for row in out.splitlines()]
    assert [r[0] for r in rows] == ["0", "1"] and rows[0][1] == rows[1][1]


@pytest.mark.parametrize("faults,message", [
    case for case in BATCH_FAULTS if "duplicate" not in case[0]])
def test_track_reports_the_first_cost_error(faults, message, tmp_path,
                                            monkeypatch, capsys):
    """A CSV cannot repeat a local index, so only the cost faults reach the
    CLI; batch and online solvers name the first one and exit 2."""
    frames, model = faulty_batch(**faults)
    ftio.write_detections(tmp_path / "det.csv", frames)
    monkeypatch.setattr(cli, "_make_model", lambda settings: model)
    monkeypatch.delenv("FLOWTRACK_CONFIG", raising=False)
    for solver in ("ssp", "dssp", "dp", "odssp"):
        code = cli.main(["track", "-i", str(tmp_path / "det.csv"), "-o",
                         str(tmp_path / "tracks.csv"), "--solver", solver,
                         "--no-gating"])
        assert code == 2, solver
        assert capsys.readouterr().err == f"flowtrack: data error: {message}\n"


#: Every solver, batch and --stream.
GAP_RUNS = ([(solver, False) for solver in ("ssp", "dssp", "dp", "odssp",
                                             "mbodssp")]
            + [(solver, True) for solver in ("odssp", "mbodssp")])


@pytest.mark.parametrize("solver,stream", GAP_RUNS)
def test_frame_gap_costs_nothing(solver, stream, monkeypatch):
    """Two rows a million frames apart: two frames appended, at most two
    solves, and both detections tracked."""
    rows = ("0,-1,10,10,20,40,2\n", "1000000,-1,12,10,20,40,2\n")
    appends, solves = [], []

    def counting(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapper

    def counting_frames(fn, frames):
        """Frames added per call: a batch appends all of its frames at once."""
        def wrapper(graph, *args, **kwargs):
            before = len(graph.frame_nodes)
            result = fn(graph, *args, **kwargs)
            frames.append(len(graph.frame_nodes) - before)
            return result
        return wrapper

    monkeypatch.setattr(TrackingGraph, "append_frame",
                        counting_frames(TrackingGraph.append_frame, appends))
    monkeypatch.setattr(OnlineTracker, "_solve",
                        counting(OnlineTracker._solve, solves))
    for name in ("solve_ssp", "solve_dssp", "solve_dp_greedy"):
        monkeypatch.setattr(bench, name, counting(getattr(bench, name), solves))
    monkeypatch.delenv("FLOWTRACK_CONFIG", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        "\n".join(rows) if stream else "".join(rows)))
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    # cheap entries and exits make a one-detection track worth keeping
    argv = ["track", "--solver", solver, "-o", "-", "--entry-cost", "0.25",
            "--exit-cost", "0.25"]
    argv += ["--stream"] if stream else ["-i", "-"]
    if solver == "mbodssp":
        argv += ["--window", "5"]
    assert cli.main(argv) == 0
    assert sum(appends) == 2
    assert 1 <= len(solves) <= 2
    assert [line.split(",")[0] for line in out.getvalue().splitlines()] == \
        ["0", "1000000"]


@pytest.mark.parametrize("solver,stream", GAP_RUNS)
def test_overflowing_cost_sums_are_data_errors(solver, stream, tmp_path,
                                               monkeypatch, capsys):
    """Finite settings whose path sums overflow a float end in exit 2 for
    every solver, not in exit 3 or an infinite total."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("entry_cost = 1e300\nexit_cost = 1e300\n"
                   "det_offset = -1.7e308\n")
    rows = [f"{f},-1,{10 + f},10,20,40,2\n" for f in range(3)]
    monkeypatch.delenv("FLOWTRACK_CONFIG", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        "\n".join(rows) if stream else "".join(rows)))
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    argv = ["track", "--solver", solver, "-o", "-", "--config", str(cfg)]
    argv += ["--stream"] if stream else ["-i", "-"]
    if solver == "mbodssp":
        argv += ["--window", "2"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "edge costs too large" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["track", "oracle", "bench"])
def test_a_frame_pair_past_the_link_budget_is_a_data_error(command, tmp_path,
                                                            monkeypatch,
                                                            capsys):
    """Two frames of identical boxes admit every link between them: past
    LINK_BUDGET the file ends in exit 2, naming the frames and the count,
    in bounded time and memory instead of a solve of a million links."""
    n = math.isqrt(LINK_BUDGET) + 1  # n * n links
    dense = tmp_path / "dense.csv"
    dense.write_text("".join(f"{f},{i},0,0,10,20,1\n"
                             for f in (0, 1) for i in range(n)))
    monkeypatch.delenv("FLOWTRACK_CONFIG", raising=False)
    argv = [command, "-i", str(dense), "-o", str(tmp_path / "out.csv")]
    start = time.perf_counter()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 10.0
    assert peak < 64 * 2 ** 20, peak  # about 25 MB; a solve took 300 MB
    err = capsys.readouterr().err
    found = re.fullmatch(r"flowtrack: data error: frame 1 admits (\d+) links "
                         r"or more from frame 0, past the budget of "
                         rf"{LINK_BUDGET} a frame pair\n", err)
    assert found and LINK_BUDGET < int(found[1]) <= n * n, err
