import io
import os
import subprocess
import sys

import pytest

from conftest import BATCH_FAULTS, det, faulty_batch
from flowtrack import cli
from flowtrack import io as ftio
from flowtrack.cost_model import CostModel
from flowtrack.errors import DataError
from flowtrack.graph import TrackingGraph, Trajectory
from flowtrack.metrics import clear_mot
from flowtrack.online import OnlineTracker
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


class TestStreamLineNumbers:
    """Stream errors name the row's line in the whole input, counted across
    blocks and blank lines."""

    TEXT = ("0,-1,1,1,5,5,0.5\n0,-1,9,9,5,5,0.6\n\n\n"
            "1,-1,2,2,5,5,0.5\n\n2,-1,3,3,5,5,0.5\n")

    def test_bad_row_in_first_and_third_block(self):
        for text, line in (("0,-1,5,5,1e-200,1e-200,2\n\n", 1),
                           (self.TEXT + "2,-1,4,4,5,x,0.5\n\n", 8),
                           (self.TEXT + "3,-1,4,4,5,5,0.5\n\n", 8)):
            lines = ftio.LineCounter(io.StringIO(text))
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


def run_cli(*args, stdin=None, env_extra=None):
    env = dict(os.environ)
    env.pop("FLOWTRACK_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "flowtrack.cli", *args],
                          input=stdin, capture_output=True, text=True, env=env)


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
        blocks = []
        dets = ftio.parse_detections(str(det_path))
        for f in sorted(dets):
            rows = [f"{d.frame},-1,{d.box[0]},{d.box[1]},{d.box[2]},"
                    f"{d.box[3]},{d.score}" for d in dets[f]]
            blocks.append("\n".join(rows))
        stdin = "\n\n".join(blocks) + "\n\n"
        streamed = run_cli("track", "--stream", "--solver", "odssp",
                           "-o", "-", stdin=stdin)
        assert streamed.returncode == 0, streamed.stderr
        assert sorted(streamed.stdout.splitlines()) == \
            sorted(batch.stdout.splitlines())

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
        monkeypatch.setattr(cli, name, counting(getattr(cli, name), solves))
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
