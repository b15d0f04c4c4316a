"""parse_detections by columns held to the row-by-row parse it replaced.

On generated detection files, mostly well formed (padded, quoted and CRLF
rows, '#' comments, blank rows, extra columns) and some with one fault of
each kind (a short row, a bad, NaN or inf field, w or h <= 0, an
underflowing area, a negative frame, mixed widths, and rows the row path
converts field by field but accepts), io.parse_detections returns the dict
that reference.parse_detections_by_rows returns, or raises the same
DataError text, read from a path and from stdin. The settings are fixed so
the tests are deterministic.
"""
import io
import random
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference as ref
from flowtrack import io as ftio
from flowtrack.errors import DataError

PROPERTY = settings(derandomize=True, database=None, max_examples=300,
                    deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

PADS = [" ", "\t", "  "]

#: One fault per kind: (name, the row's fields -> the faulty fields, the
#: extra columns it needs). The last three are no faults, but rows the row
#: path converts field by field or sends to Detection's per-field checks,
#: and accepts.
FAULTS = [
    ("short", lambda f: f[:5], 0),
    ("bad", lambda f: f[:3] + ["x"] + f[4:], 0),
    ("nan", lambda f: f[:4] + ["nan"] + f[5:], 0),
    ("nan extra", lambda f: f[:7] + ["nan"] + f[8:], 1),
    ("inf", lambda f: f[:2] + ["inf"] + f[3:], 0),
    ("w <= 0", lambda f: f[:4] + ["0"] + f[5:], 0),
    ("h <= 0", lambda f: f[:5] + ["-2.5"] + f[6:], 0),
    ("w and h < 0", lambda f: f[:4] + ["-3", "-4"] + f[6:], 0),
    ("underflow", lambda f: f[:4] + ["1e-200", "1e-200"] + f[6:], 0),
    ("negative frame", lambda f: ["-1"] + f[1:], 0),
    ("mixed widths", lambda f: f + ["0.5"], 0),
    ("bad frame", lambda f: ["1.0"] + f[1:], 0),
    ("x1c padding", lambda f: f[:2] + ["\x1c" + f[2]] + f[3:], 0),
    ("overflowing sum", lambda f: f[:2] + ["1e308", "1e308"] + f[4:], 0),
    ("inf and -inf extras", lambda f: f[:7] + ["inf", "-inf"], 2),
]
ACCEPTED = 3


def fields(rnd, frame, i, extras):
    w = rnd.uniform(0.5, 80.0)
    row = [str(frame), str(i), repr(rnd.uniform(-50.0, 500.0)),
           str(rnd.randint(0, 400)), repr(w), repr(w * rnd.uniform(1.0, 3.0)),
           repr(rnd.uniform(-3.0, 3.0))]
    return row + [repr(rnd.uniform(0.0, 1.0)) for _ in range(extras)]


def text_of(rnd, rows):
    """Rows with padded and quoted fields now and then, comments and blank
    rows put in, joined by one kind of line end."""
    lines = []
    for row in rows:
        cells = []
        for c in row:
            if rnd.random() < 0.1:
                c = rnd.choice(PADS) + c + rnd.choice(PADS)
            cells.append(f'"{c}"' if rnd.random() < 0.1 else c)
        lines.append(",".join(cells))
    for _ in range(rnd.randint(0, 3)):
        lines.insert(rnd.randint(0, len(lines)),
                     rnd.choice(["", "  ", "# comment", " #0,1,2"]))
    end = rnd.choice(["\n", "\r\n"])
    return end.join(lines) + rnd.choice(["", end])


def detection_file(rnd, fault=None):
    """A file of 0-60 rows over frames in file order, some repeated or
    skipped, with 0-2 extra columns, and the fault put in one row."""
    extras, frame, rows = rnd.choice([0, 0, 1, 2]), rnd.randint(0, 3), []
    if fault is not None:
        extras = max(extras, fault[2])
    for _ in range(rnd.randint(0, 60)):
        frame += rnd.choice([0, 0, 1, 1, 2])
        rows.append(fields(rnd, frame, len(rows), extras))
    if fault is not None:
        while len(rows) < 2:  # a width is mixed only beside another row
            rows.append(fields(rnd, frame, len(rows), extras))
        at = rnd.randrange(len(rows))
        rows[at] = fault[1](rows[at])
    return text_of(rnd, rows)


def outcome(parse, source):
    try:
        return repr(parse(source))
    except DataError as exc:
        return f"DataError: {exc}"


def write(path, text):
    """text into a new file at path: truncating a file just written can
    wait for the disk on some file systems."""
    path.unlink(missing_ok=True)
    with open(path, "w", newline="") as f:
        f.write(text)


def both_ways(parse, text, path):
    """What parse makes of text read from path and from stdin."""
    write(path, text)
    stdin = io.TextIOWrapper(io.BytesIO(text.encode()), newline="")
    with mock.patch.object(sys, "stdin", stdin):
        from_stdin = outcome(parse, "-")
    return outcome(parse, path), from_stdin


randoms = st.randoms(use_true_random=True)


class TestColumnsMatchRows:
    @PROPERTY
    @given(rnd=randoms)
    def test_well_formed_files(self, rnd, tmp_path):
        text, path = detection_file(rnd), tmp_path / "det.csv"
        got = both_ways(ftio.parse_detections, text, path)
        assert got == both_ways(ref.parse_detections_by_rows, text, path)
        assert not got[0].startswith("DataError")

    @PROPERTY
    @given(rnd=randoms, fault=st.sampled_from(FAULTS))
    def test_files_with_a_fault(self, rnd, fault, tmp_path):
        text, path = detection_file(rnd, fault), tmp_path / "det.csv"
        assert both_ways(ftio.parse_detections, text, path) == both_ways(
            ref.parse_detections_by_rows, text, path)

    def test_every_fault_is_reached(self, tmp_path):
        """Each fault raises, and the no-faults at the end parse."""
        rnd, seen = random.Random(0), {}
        for _ in range(20):
            for fault in FAULTS:
                path = tmp_path / "det.csv"
                write(path, detection_file(rnd, fault))
                out = outcome(ftio.parse_detections, path)
                seen.setdefault(fault[0], set()).add(
                    out.startswith("DataError"))
        assert [seen[name] for name, *_ in FAULTS] == (
            [{True}] * (len(FAULTS) - ACCEPTED) + [{False}] * ACCEPTED)

    def test_a_clean_file_goes_by_columns(self, tmp_path):
        """A well-formed file never reaches the row converter."""
        text = detection_file(random.Random(1))
        path = tmp_path / "det.csv"
        write(path, text)
        want = ref.parse_detections_by_rows(path)
        assert want
        with mock.patch.object(ftio, "_add_detection",
                               side_effect=AssertionError("row path")):
            assert ftio.parse_detections(path) == want

    @pytest.mark.parametrize("tail", ["", "1,0,x,1,5,5,0.9\n"])
    def test_a_csv_error_after_the_rows(self, tail, tmp_path):
        """A csv error names its line unless a row before it is at fault,
        as row by row."""
        text = "0,0,1,1,5,5,0.9\n" + tail + "9" * 200_000 + "\n"
        got = both_ways(ftio.parse_detections, text, tmp_path / "det.csv")
        assert got == both_ways(ref.parse_detections_by_rows, text,
                                tmp_path / "det.csv")
        assert ("field larger" in got[0]) == (not tail)
