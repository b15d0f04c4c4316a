"""Command-line interface.

Subcommands: track, bench, synth, eval, oracle, tracks-to-gt. Settings are
resolved as command line > config file (--config or $FLOWTRACK_CONFIG) >
built-in defaults. Exit codes: 0 success, 1 usage error, 2 bad input data,
3 internal invariant failure. The first `main` call of a process, the
`flowtrack` command's or an in-process caller's, freezes the heap its imports
left (`gc.freeze()`) so that no later collection and not the teardown walks
it; importing flowtrack freezes nothing.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import inspect
import math
import os
import sys

from . import io as ftio
from .bench import run_bench, write_bench
from .cost_model import CostModel
from .errors import DataError, InvariantBreach
from .graph import build_batch_graph
from .metrics import clear_mot
from .online import OnlineTracker, TrackerConfig
from .oracle import brute_force_optimum
from .ssp import solve_dp_greedy, solve_dssp, solve_ssp
from .synthetic import SyntheticConfig, generate_synthetic

CONFIG_ENV = "FLOWTRACK_CONFIG"


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


#: CostModel field -> converter of its text, by the type of its default.
_MODEL_KEYS = {f.name: _floats if isinstance(f.default, tuple)
               else type(f.default) for f in dataclasses.fields(CostModel)}
#: The spellings of a config flag, in any case.
_FLAGS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
#: Config file key -> converter of its text.
_CONFIG_KEYS = {
    **_MODEL_KEYS,
    "gating": lambda s: _FLAGS[s.lower()],
    "gate_radius_factor": float,
    "window": int,
    "iou_threshold": float,
}
_GATE_KEYS = ("gating", "gate_radius_factor")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_settings(args) -> dict:
    settings: dict = {}
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        for key, value in ftio.load_config(path).items():
            convert = _CONFIG_KEYS.get(key)
            if convert is None:
                raise DataError(f"unknown config key {key!r}")
            try:
                settings[key] = convert(value)
            except (KeyError, ValueError):
                raise DataError(f"config key {key!r}: cannot parse "
                                f"{value!r}") from None
    for key in _CONFIG_KEYS:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            settings[key] = cli_value
    factor = settings.get("gate_radius_factor")
    # nan or a negative factor would gate out every link without a word
    if factor is not None and not 0.0 <= factor < math.inf:
        raise DataError(f"gate_radius_factor must be finite and >= 0, "
                        f"got {factor!r}")
    iou = settings.get("iou_threshold")  # an overlap, in [0, 1]
    if iou is not None and not 0.0 <= iou <= 1.0:
        raise DataError(f"iou_threshold must be in [0, 1], got {iou!r}")
    return settings


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _nonneg_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


def _set(settings: dict, keys) -> dict:
    """The settings among keys that were set, as keyword arguments: the
    library's own defaults stand for the others."""
    return {k: settings[k] for k in keys if k in settings}


def _make_model(settings: dict) -> CostModel:
    return CostModel(**_set(settings, _MODEL_KEYS))


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value settings file "
                   f"(default: ${CONFIG_ENV})")
    for key, conv in _MODEL_KEYS.items():
        if conv is not _floats:  # the feature tuples are config keys only
            p.add_argument(f"--{key.replace('_', '-')}", type=conv, dest=key)
    p.add_argument("--no-gating", dest="gating", action="store_const",
                   const=False)
    p.add_argument("--gate-radius-factor", type=float, dest="gate_radius_factor")


# -- track ---------------------------------------------------------------------

def _cmd_track(args) -> int:
    settings = _load_settings(args)
    model = _make_model(settings)
    gate = _set(settings, _GATE_KEYS)
    solver = args.solver
    window = settings.get("window")
    if solver == "mbodssp" and window is None:
        raise DataError("mbodssp needs --window")

    def make_tracker():
        """The online tracker: a window makes it mbodssp; odssp ignores it."""
        return OnlineTracker(TrackerConfig(
            model=model, window=window if solver == "mbodssp" else None,
            **gate))

    if args.stream:
        if solver not in ("odssp", "mbodssp"):
            raise DataError("--stream requires an online solver")
        return _track_stream(args, make_tracker())

    detections = ftio.parse_detections(args.input)

    if solver in ("ssp", "dssp", "dp"):
        graph = build_batch_graph(detections, model, **gate)
        solve = {"ssp": solve_ssp, "dssp": solve_dssp, "dp": solve_dp_greedy}[solver]
        solution, _ = solve(graph)
        tracks = solution.trajectories
        total = solution.total_cost
    else:
        tracker = make_tracker()
        for f in sorted(detections):
            tracker.process_frame(detections[f], frame=f)
        tracks = tracker.final_tracks()
        total = sum(t.cost for t in tracks)

    ftio.write_tracks(args.output, tracks)
    print(f"tracks: {len(tracks)}  total cost: {total:.6g}", file=sys.stderr)
    return 0


def _track_stream(args, tracker: OnlineTracker) -> int:
    """Read blank-row-terminated frame blocks from stdin and emit track rows
    once they are --confirm-lag frames old (0 = emit and possibly revise)."""
    lag = args.confirm_lag
    with ftio.open_or_stdio(args.output, "w") as fout:
        # Rows already written: the track ids written per frame. A detection
        # whose id is revised later is written again under the new id if no
        # row holds that (frame, id) yet. Frames below t_min, the graph's
        # first frame, can never match again and are dropped.
        emitted, t_min = {}, None
        pending = tracker.pending_rows = {}  # the rows not written yet

        def emit_through(limit):
            """Write the not yet emitted rows of frames <= limit. The
            candidates are the frozen rows and the current solution's rows,
            which is what final_tracks() holds. Each was pending when new and
            again whenever its id changed, and a clip freezes a row under
            its last id, so only the pending rows are candidates. A row at
            or below a limit is written then or never, unless its id
            changes."""
            nonlocal t_min
            ready = [row for row in pending.values() if row[1].frame <= limit]
            rows = sorted((d.frame, tid, *d.box) for tid, d in ready
                          if tid not in emitted.get(d.frame, ()))
            for frame, tid, *_ in rows:
                emitted.setdefault(frame, set()).add(tid)
            ftio.write_track_rows(fout, rows)
            fout.flush()
            for _, d in ready:
                del pending[id(d)]
            if tracker.graph.t_min != t_min:
                t_min = tracker.graph.t_min
                for frame in [f for f in emitted if f < t_min]:
                    del emitted[frame]

        last, reader = None, csv.reader(sys.stdin)
        while (block := ftio.parse_stream_frame(reader)) is not None:
            last, dets = block
            tracker.process_frame(dets, frame=last)
            emit_through(last - lag)
        if last is not None:
            emit_through(last)
    return 0


# -- other subcommands -----------------------------------------------------------

def _cmd_synth(args) -> int:
    cfg = SyntheticConfig(
        n_frames=args.frames, n_initial_tracks=args.tracks,
        miss_rate=args.miss_rate, fp_rate=args.fp_rate,
        crossing=args.crossing)
    detections, gt = generate_synthetic(cfg, args.seed)
    ftio.write_detections(args.output, detections)
    if args.gt_output:
        ftio.write_ground_truth(args.gt_output, gt.frames)
    return 0


def _cmd_eval(args) -> int:
    settings = _load_settings(args)
    _, gt = ftio.parse_ground_truth(args.gt)
    hypotheses = ftio.parse_tracks(args.tracks)
    report = clear_mot(gt, hypotheses, **_set(settings, ("iou_threshold",)))
    print(f"MOTA {report.mota:.4f}")
    print(f"MOTP {report.motp:.4f}")
    print(f"MT {report.mostly_tracked:.4f}")
    print(f"PT {report.partially_tracked:.4f}")
    print(f"ML {report.mostly_lost:.4f}")
    print(f"IDS {report.id_switches}")
    print(f"FRAG {report.fragmentations}")
    print(f"FAR {report.false_alarm_rate:.4f}")
    print(f"TP {report.true_positives}  FP {report.false_positives}  "
          f"FN {report.false_negatives}  GT {report.total_gt}")
    return 0


def _cmd_oracle(args) -> int:
    settings = _load_settings(args)
    model = _make_model(settings)
    detections = ftio.parse_detections(args.input)
    graph = build_batch_graph(detections, model, **_set(settings, _GATE_KEYS))
    solution = brute_force_optimum(graph, seed=args.seed,
                                   max_detections=args.max_detections)
    ftio.write_tracks(args.output, solution.trajectories)
    print(f"optimum cost: {solution.total_cost:.6g}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    settings = _load_settings(args)
    model = _make_model(settings)
    detections = ftio.parse_detections(args.input)
    rows = run_bench(detections, model,
                     solvers=tuple(args.solvers.split(",")),
                     taus=args.taus, **_set(settings, _GATE_KEYS))
    with ftio.open_or_stdio(args.output, "w") as fout:
        write_bench(fout, rows)
    return 0


def _cmd_tracks_to_gt(args) -> int:
    ftio.write_ground_truth(args.output, ftio.parse_tracks(args.input))
    return 0


# -- entry point -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowtrack",
                     description="Min-cost flow multi-object tracking")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="associate detections into tracks")
    p.add_argument("--input", "-i", help="detection CSV ('-' = stdin)")
    p.add_argument("--output", "-o", help="track CSV ('-' = stdout)")
    p.add_argument("--solver", default="ssp",
                   choices=["ssp", "dssp", "dp", "odssp", "mbodssp"])
    p.add_argument("--window", type=int, help="frame budget for mbodssp")
    p.add_argument("--stream", action="store_true",
                   help="read blank-line-separated frame blocks from stdin")
    p.add_argument("--confirm-lag", type=_nonneg_int, default=0,
                   help="frames to wait before emitting streamed rows")
    _add_model_args(p)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("synth", help="generate a synthetic sequence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=50)
    p.add_argument("--tracks", type=int, default=3)
    p.add_argument("--miss-rate", type=float, default=0.0)
    p.add_argument("--fp-rate", type=float, default=0.0)
    p.add_argument("--crossing", action="store_true")
    p.add_argument("--output", "-o", help="detection CSV ('-' = stdout)")
    p.add_argument("--gt-output", help="ground-truth CSV path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="CLEAR-MOT metrics for a track file")
    p.add_argument("--gt", required=True, help="ground-truth CSV")
    p.add_argument("--tracks", required=True, help="track CSV")
    p.add_argument("--iou", type=float, dest="iou_threshold",
                   help="match threshold in [0, 1] (default "
                   f"{inspect.signature(clear_mot).parameters['iou_threshold'].default})")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle", help="brute-force optimum for tiny inputs")
    p.add_argument("--input", "-i", help="detection CSV ('-' = stdin)")
    p.add_argument("--output", "-o", help="track CSV ('-' = stdout)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-detections", type=_nonneg_int, default=12)
    _add_model_args(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="time the solvers over a detection set")
    p.add_argument("--input", "-i", help="detection CSV ('-' = stdin)")
    p.add_argument("--output", "-o", help="CSV report ('-' = stdout)")
    p.add_argument("--solvers", default="ssp,dssp,dp,odssp,mbodssp")
    p.add_argument("--taus", type=_int_list, default="10",
                   help="comma-separated mbodssp windows")
    _add_model_args(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("tracks-to-gt",
                       help="reinterpret a track file as ground truth")
    p.add_argument("--input", "-i", required=True, help="track CSV")
    p.add_argument("--output", "-o", help="ground-truth CSV ('-' = stdout)")
    p.set_defaults(func=_cmd_tracks_to_gt)
    return parser


#: The parser of this process, built by the first main() call.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        # numpy's and scipy's import-time objects live until exit; frozen,
        # full collections and the teardown no longer walk them. Once per
        # process: each later freeze would pin whatever is alive at the call.
        gc.freeze()
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except BrokenPipeError:
        return 0
    except DataError as exc:
        print(f"flowtrack: data error: {exc}", file=sys.stderr)
        return 2
    except InvariantBreach as exc:
        print(f"flowtrack: internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"flowtrack: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
