import io

import numpy as np
import pytest

from flowtrack.bench import HEADER, run_bench, write_bench
from flowtrack.cost_model import CostModel
from flowtrack.errors import DataError
from flowtrack.graph import build_batch_graph
from flowtrack.online import OnlineTracker, TrackerConfig
from flowtrack.ssp import solve_ssp
from flowtrack.synthetic import SyntheticConfig, generate_synthetic


@pytest.fixture(scope="module")
def sequence():
    cfg = SyntheticConfig(n_frames=120, n_initial_tracks=4, miss_rate=0.05,
                          fp_rate=0.05)
    dets, _ = generate_synthetic(cfg, 6)
    return dets


class TestRunBench:
    def test_row_shapes(self, sequence):
        rows = run_bench(sequence, CostModel(), solvers=("ssp", "odssp"),
                         taus=())
        batch = [r for r in rows if r.solver == "ssp"]
        online = [r for r in rows if r.solver == "odssp"]
        assert len(batch) == 1 and batch[0].stats.frame == -1
        assert len(online) == len(sequence)
        assert [r.stats.frame for r in online] == sorted(sequence)

    def test_batch_solvers_are_read_at_call_time(self, sequence,
                                                 monkeypatch):
        # A wrapper set on the module attribute, as a tracer sets one, runs.
        import flowtrack.bench as bench
        calls = []

        def wrapped(graph):
            calls.append(graph)
            return solve_ssp(graph)

        monkeypatch.setattr(bench, "solve_ssp", wrapped)
        rows = run_bench(sequence, CostModel(), solvers=("ssp",))
        assert len(calls) == 1 and len(rows) == 1

    def test_unknown_solver_rejected(self, sequence):
        with pytest.raises(DataError):
            run_bench(sequence, CostModel(), solvers=("simplex",))

    def test_window_sweep_work_monotone(self, sequence):
        # per-frame relaxations grow with the window size (proxy for time)
        rows = run_bench(sequence, CostModel(), solvers=("mbodssp",),
                         taus=(2, 5, 10, 20))
        means = [np.mean([r.stats.relaxations for r in rows
                          if r.tau == tau][20:])
                 for tau in (2, 5, 10, 20)]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_bounded_node_count_constant_after_warmup(self):
        cfg = SyntheticConfig(n_frames=80, n_initial_tracks=3, spawn_prob=0.0,
                              death_prob=0.0, miss_rate=0.0, fp_rate=0.0)
        dets, _ = generate_synthetic(cfg, 1)
        rows = run_bench(dets, CostModel(), solvers=("mbodssp",), taus=(10,))
        nodes = [r.stats.live_nodes for r in rows if r.stats.frame > 10]
        assert len(set(nodes)) == 1

    def test_dssp_fewer_relaxations_than_ssp(self, sequence):
        rows = run_bench(sequence, CostModel(), solvers=("ssp", "dssp"))
        by = {r.solver: r.stats.relaxations for r in rows}
        assert by["dssp"] < by["ssp"]

    def test_csv_output(self, sequence):
        rows = run_bench(sequence, CostModel(), solvers=("dp",))
        buf = io.StringIO()
        write_bench(buf, rows)
        lines = buf.getvalue().splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "dp"

    def test_iterations_column(self, sequence):
        rows = run_bench(sequence, CostModel(), solvers=("ssp", "odssp"),
                         taus=())
        buf = io.StringIO()
        write_bench(buf, rows)
        lines = [line.split(",") for line in buf.getvalue().splitlines()]
        col = lines[0].index("iterations")
        assert {len(cells) for cells in lines} == {len(lines[0])}
        _, stats = solve_ssp(build_batch_graph(sequence, CostModel()))
        assert [int(c[col]) for c in lines if c[0] == "ssp"] == [stats.iterations]
        tracker = OnlineTracker(TrackerConfig(model=CostModel()))
        for f in sorted(sequence):
            tracker.process_frame(sequence[f], frame=f)
        assert ([int(c[col]) for c in lines if c[0] == "odssp"] ==
                [fs.iterations for fs in tracker.frame_stats])

    def test_searches_column(self, sequence):
        # the last column; batch ssp runs one DAG sweep and then one search
        # per path, and an online search can push several paths and cycles
        rows = run_bench(sequence, CostModel(), solvers=("ssp", "dp", "odssp"),
                         taus=())
        buf = io.StringIO()
        write_bench(buf, rows)
        lines = [line.split(",") for line in buf.getvalue().splitlines()]
        assert lines[0][-1] == "searches"
        assert lines[0][-2] == "iterations"
        batch = {c[0]: (int(c[-2]), int(c[-1])) for c in lines
                 if c[0] in ("ssp", "dp")}
        for solver, (iterations, searches) in batch.items():
            assert iterations > 1, solver
        iterations, searches = batch["ssp"]
        assert searches == iterations + 1
        iterations, searches = batch["dp"]
        assert 1 <= searches < iterations + 1
        online = [(int(c[-2]), int(c[-1])) for c in lines if c[0] == "odssp"]
        assert all(searches >= 1 for _, searches in online)
        iterations = sum(i for i, _ in online)
        searches = sum(s for _, s in online)
        assert searches < iterations
