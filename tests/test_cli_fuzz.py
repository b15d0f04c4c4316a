"""Generated input through `flowtrack track`: every run ends in exit code 0,
1 or 2, never in a traceback.

Rows mix valid detections with bad numbers, short rows, non-positive sizes,
negative frames, comments, blank lines, NUL bytes and overlong fields;
frame indices reach 10^9, which costs nothing because skipped frames are
never created. Config files mix
known and unknown keys with junk, huge and non-finite numbers, and windows
of 0, 1 and 10^9. Detection, track and config files read by `track`,
`oracle`, `bench`, `tracks-to-gt` and `--config` also get bytes that are
not UTF-8. The settings are fixed so the test is deterministic.
"""
import csv
import io
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowtrack import cli

FUZZ = settings(derandomize=True, database=None, max_examples=200,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])

frames = st.one_of(st.integers(0, 6), st.integers(-3, 10 ** 9))
numbers = st.one_of(
    st.floats(1.0, 200.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["", "x", "nan", "-inf", "1e999", "1e308", "-0", "0x1"]),
)
#: The columns after the frame: a valid detection, or junk with too few or
#: too many columns, bad numbers or non-positive sizes.
good_tail = st.builds(
    lambda *v: ",".join(["-1", *map(repr, v)]),
    st.floats(0.0, 500.0), st.floats(0.0, 500.0), st.floats(1.0, 80.0),
    st.floats(1.0, 80.0), st.floats(-4.0, 6.0))
bad_tail = st.lists(numbers, max_size=8).map(lambda c: ",".join(["-1", *c]))
#: Rows that csv itself may reject: a field over its size limit, and a NUL
#: byte (rejected by csv before Python 3.11, by the number parser after).
csv_faults = [f"0,-1,{'9' * (csv.field_size_limit() + 1)},1,5,5,1",
              "0,-1,1,1,5,5,1\x00"]
odd_lines = st.sampled_from(["", "   ", "# comment", "#0,-1,1,1,5,5,1",
                             ",,,", "0", "x,-1,1,1,5,5,1", *csv_faults])
row = "{},{}".format
junk_lines = st.one_of(st.builds(row, frames, bad_tail), odd_lines)


@st.composite
def csv_lines(draw):
    """Valid rows with up to two junk lines in between."""
    lines = draw(st.lists(st.builds(row, frames, good_tail), max_size=12))
    for junk in draw(st.lists(junk_lines, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return lines


@st.composite
def stream_text(draw):
    """Blank-line-separated blocks. The frame advances by a small step or a
    jump of up to 10^8, or goes back; up to two junk lines, which may name
    another frame, land in random blocks."""
    blocks, frame = [], -1
    for step in draw(st.lists(st.one_of(st.integers(1, 3),
                                        st.integers(-1, 10 ** 8)),
                              max_size=6)):
        frame += step
        blocks.append([row(frame, tail) for tail in
                       draw(st.lists(good_tail, min_size=1, max_size=4))])
    for junk in draw(st.lists(junk_lines, max_size=2)):
        if blocks:
            block = blocks[draw(st.integers(0, len(blocks) - 1))]
            block.insert(draw(st.integers(0, len(block))), junk)
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


online = [["--solver", "odssp"], ["--solver", "mbodssp", "--window", "2"],
          ["--solver", "mbodssp", "--window", "3"]]
solvers = st.sampled_from([["--solver", "ssp"], ["--solver", "dssp"],
                           ["--solver", "dp"], *online])
#: Cheap entries and exits make even a lone detection a track.
costs = st.sampled_from([[], ["--entry-cost", "0.1", "--exit-cost", "0.1"]])


def run(argv, text, monkeypatch):
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.delenv("FLOWTRACK_CONFIG", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    code = cli.main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@FUZZ
@given(lines=csv_lines(), solver=solvers, costs=costs)
def test_batch_csv_never_crashes(lines, solver, costs, monkeypatch):
    run(["track", "-i", "-", "-o", "-", *solver, *costs],
        "\n".join(lines) + "\n", monkeypatch)


@FUZZ
@given(text=stream_text(), solver=st.sampled_from(online), costs=costs,
       lag=st.integers(0, 3))
def test_stream_never_crashes(text, solver, costs, lag, monkeypatch):
    run(["track", "--stream", "--confirm-lag", str(lag), *solver, *costs],
        text, monkeypatch)


#: Every config key, plus two unknown ones.
config_keys = st.sampled_from([
    "beta", "entry_cost", "exit_cost", "det_offset", "det_weight",
    "det_cost_form", "feature_offsets", "feature_weights", "gating",
    "gate_radius_factor", "window", "iou_threshold", "cache_size", "colour"])
config_values = st.one_of(
    numbers,
    st.sampled_from(["abc", "0", "1", "2", "1e9", "1000000000", "1,x",
                     "0.5,0.5,0.5", "1,2,3,4", "nan,1,1", "inf", "1e300",
                     "-1e300", "true", "off", "logodds", "affine"]))


@FUZZ
@given(config=st.lists(st.builds("{} = {}".format, config_keys,
                                 config_values), max_size=4),
       lines=csv_lines(), text=stream_text(), stream=st.booleans(),
       solver=st.sampled_from([["--solver", "ssp"], ["--solver", "dssp"],
                               ["--solver", "dp"], ["--solver", "odssp"],
                               ["--solver", "mbodssp"]]))
def test_config_file_never_crashes(config, lines, text, stream, solver,
                                   tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(config) + "\n")
    argv = ["track", "-o", "-", "--config", str(path), *solver]
    if stream and solver[1] in ("odssp", "mbodssp"):
        run([*argv, "--stream"], text, monkeypatch)
    else:
        run([*argv, "-i", "-"], "\n".join(lines) + "\n", monkeypatch)


#: Bytes that are not UTF-8: a lone continuation byte, a byte no UTF-8 text
#: holds and a cut-off two-byte sequence.
undecodable = st.sampled_from([b"\x80", b"\xff", b"\xc3"])
#: Commands reading a detection file, one reading a track file and one
#: reading a config file; the brute force is capped to keep runs short.
file_commands = st.sampled_from([
    ["track", "--solver", "ssp", "-i"],
    ["track", "--solver", "mbodssp", "--window", "2", "-i"],
    ["oracle", "--max-detections", "6", "-i"],
    ["bench", "--solvers", "ssp,odssp", "-i"],
    ["tracks-to-gt", "-i"],
    ["track", "-i", "-", "--config"],
])


config_lines = st.lists(st.builds("{} = {}".format, config_keys,
                                  config_values), max_size=4)


@FUZZ
@given(command=file_commands, data=st.data())
def test_undecodable_file_never_crashes(command, data, tmp_path, monkeypatch):
    # Each bad byte lands inside a line, a config key among them, or as a
    # line of its own.
    config = command[-1] == "--config"
    lines = data.draw(config_lines if config else csv_lines())
    raw = [line.encode() for line in lines] or [b""]
    for bad in data.draw(st.lists(undecodable, min_size=1, max_size=2)):
        i = data.draw(st.integers(0, len(raw) - 1))
        at = data.draw(st.integers(0, len(raw[i])))
        raw[i] = raw[i][:at] + bad + raw[i][at:]
    path = tmp_path / "input"
    path.write_bytes(b"\n".join(raw) + b"\n")
    run([*command, str(path), "-o", "-"], "", monkeypatch)
