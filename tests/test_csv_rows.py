"""The CSV row path held to the field-by-field reference in reference.py.

On generated rows (padded and quoted fields, '#' comments, blank and
whitespace-only rows, short rows, extra columns, gt ids, negative frames,
NaN, inf, overflowing and underflowing numbers, underscores, non-numbers),
parse_detections, parse_ground_truth, parse_tracks and parse_stream_frame
give the same detections, or the same DataError text, as the reference.
write_track_rows gives the bytes of the per-row %.6g writer, and Detection
accepts and rejects what the reference's rules do, with the same text. The
settings are fixed so the tests are deterministic.
"""
import csv
import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from flowtrack import io as ftio
from flowtrack.cost_model import Detection
from flowtrack.errors import DataError

PROPERTY = settings(derandomize=True, database=None, max_examples=1000,
                    deadline=None)


#: Padding: str.strip removes all of it, int and float not the separators
#: \x1c-\x1f.
PADS = [" ", "\t", "  ", "\x1c", "\x1f", "\u3000", "\x85", " \x1d "]
ODD_NUMBERS = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999",
               "-1e999", "1e308", "-1e308", "5e-324", "1e-200", "0", "-0.0",
               "-1", "1_0", "1__0", "0x1", "1e", "", "x", "\u0661\u0662", "1,5",
               "\udcff", "7\n8", "+.5"]
ODD_INTS = ["-1", "-3", "1_0", "+2", "007", "1.0", "", "x", "9" * 30,
            "\u0663", "1e3", "nan"]
ODD_ROWS = ["", "   ", "\t", "# comment", "  #0,1,2", "#", ",", ",,,,,,,",
            " , ", "1,2,3", '"#x",1', '""',
            "1,0,0,0,1e-200,1e-200,1",  # its area underflows
            "9" * (csv.field_size_limit() + 1)]  # csv rejects it


def cell(rnd, core):
    """core padded on either side now and then, and now and then quoted."""
    pad = lambda: rnd.choice(PADS) if rnd.random() < 0.2 else ""
    text = pad() + core + pad()
    return f'"{text}"' if rnd.random() < 0.2 else text


def number(rnd):
    if rnd.random() < 0.04:
        return rnd.choice(ODD_NUMBERS)
    return repr(rnd.uniform(0.5, 500.0)) if rnd.random() < 0.5 else str(
        rnd.randint(1, 300))


def integer(rnd, top=40):
    return rnd.choice(ODD_INTS) if rnd.random() < 0.04 else str(
        rnd.randint(0, top))


def detection_row(rnd, frame, extras, gt=False):
    n_floats = 5 + (extras if rnd.random() < 0.93 else rnd.randint(0, 3))
    cells = [cell(rnd, frame), cell(rnd, integer(rnd))]
    cells += [cell(rnd, number(rnd)) for _ in range(n_floats)]
    if gt:
        cells.append(cell(rnd, integer(rnd)))
    if rnd.random() < 0.07:  # a short row
        cells = cells[:rnd.randint(0, len(cells))]
    return ",".join(cells)


def track_row(rnd):
    n_floats = 4 if rnd.random() < 0.93 else rnd.randint(0, 6)
    cells = [cell(rnd, integer(rnd, 3)), cell(rnd, integer(rnd))]
    return ",".join(cells + [cell(rnd, number(rnd)) for _ in range(n_floats)])


def text_of(rnd, rows):
    """rows with up to three odd rows put in, joined by one kind of line
    end."""
    for _ in range(rnd.randint(0, 3)):
        rows.insert(rnd.randint(0, len(rows)), rnd.choice(ODD_ROWS))
    end = rnd.choice(["\n", "\r\n", "\r"])
    return end.join(rows) + rnd.choice(["", end])


def detection_text(rnd, gt=False):
    extras = rnd.randint(0, 2)
    return text_of(rnd, [detection_row(rnd, integer(rnd, 3), extras, gt)
                         for _ in range(rnd.randint(0, 8))])


def track_text(rnd):
    return text_of(rnd, [track_row(rnd) for _ in range(rnd.randint(0, 8))])


def stream_text(rnd):
    """Blocks of rows that mostly share a frame, each ended by blank or
    whitespace-only rows."""
    rows = []
    for _ in range(rnd.randint(0, 4)):
        frame = integer(rnd, 3)
        for _ in range(rnd.randint(1, 4)):
            f = frame if rnd.random() < 0.9 else integer(rnd, 3)
            rows.append(detection_row(rnd, f, 0))
        rows += rnd.choices(["", " ", "\t"], k=rnd.randint(1, 2))
    return text_of(rnd, rows)


randoms = st.randoms(use_true_random=True)


def outcome(parse, text):
    """What parse makes of text read as a file, or its DataError's text."""
    try:
        return repr(parse(io.StringIO(text, newline="")))
    except DataError as exc:
        return f"DataError: {exc}"


def stream_outcome(parse, text):
    """Every block parse reads from one csv.reader over text, then None or
    the DataError's text."""
    reader, blocks = csv.reader(io.StringIO(text, newline="")), []
    try:
        while True:
            blocks.append(repr(block := parse(reader)))
            if block is None:
                break
    except DataError as exc:
        blocks.append(f"DataError: {exc}")
    return blocks


class TestParsersMatchTheReference:
    @PROPERTY
    @given(randoms)
    def test_detections(self, rnd):
        text = detection_text(rnd)
        assert outcome(ftio.parse_detections, text) == outcome(
            ref.parse_detections, text)

    @PROPERTY
    @given(randoms)
    def test_ground_truth(self, rnd):
        text = detection_text(rnd, gt=True)
        assert outcome(ftio.parse_ground_truth, text) == outcome(
            ref.parse_ground_truth, text)

    @PROPERTY
    @given(randoms)
    def test_tracks(self, rnd):
        text = track_text(rnd)
        assert outcome(ftio.parse_tracks, text) == outcome(
            ref.parse_tracks, text)

    @PROPERTY
    @given(randoms)
    def test_stream_blocks(self, rnd):
        text = stream_text(rnd)
        assert stream_outcome(ftio.parse_stream_frame, text) == stream_outcome(
            ref.parse_stream_frame, text)

    @PROPERTY
    @given(randoms)
    def test_stream_block_from_a_text_stream(self, rnd):
        def first_block(fobj):  # the reference reads csv.readers only
            return ref.parse_stream_frame(csv.reader(fobj))
        text = stream_text(rnd)
        assert outcome(ftio.parse_stream_frame, text) == outcome(
            first_block, text)

    def test_the_generated_rows_reach_every_outcome(self):
        """The row generators give valid files and each kind of error."""
        rnd, seen = random.Random(0), set()
        for _ in range(300):
            for parse, text in ((ftio.parse_ground_truth,
                                 detection_text(rnd, gt=True)),
                                (ftio.parse_detections, detection_text(rnd)),
                                (ftio.parse_tracks, track_text(rnd))):
                out = outcome(parse, text)
                seen.add("DataError" if out.startswith("DataError") else "ok")
                seen.update(part for part in KINDS if part in out)
        assert seen == {"ok", "DataError", *KINDS}


#: A part of the text of each kind of row error.
KINDS = ("is NaN", "bad", "expected at least", "positive size",
         "must be >= 0", "finite", "underflows", "inconsistent", "duplicate",
         "field larger")


class _Writes(io.StringIO):
    calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


track_floats = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e16, 1e16 + 2, 9999995.0, 999999.5, 1e-5, 0.0001,
                     123456.5, float("inf")]))
track_ids = st.one_of(st.integers(0, 50), st.integers(-1, 2 ** 70))
track_rows = st.lists(st.tuples(st.integers(0, 10 ** 9), track_ids,
                                track_floats, track_floats, track_floats,
                                track_floats), max_size=12)


class TestTrackWriterMatchesTheReference:
    @settings(PROPERTY, max_examples=300)
    @given(track_rows)
    def test_bytes_in_one_write(self, rows):
        out = _Writes()
        ftio.write_track_rows(out, rows)
        assert out.getvalue() == ref.track_rows_text(rows)
        assert out.calls == 1

    def test_named_values(self):
        rows = [(0, 0, -0.0, 5e-324, 1e16, 1.0), (7, 2 ** 64, 0.1, -1e-310,
                                                 123456789.0, 1e-7)]
        out = io.StringIO()
        ftio.write_track_rows(out, rows)
        assert out.getvalue() == ref.track_rows_text(rows) == (
            "0,0,-0,4.94066e-324,1e+16,1\n"
            "7,18446744073709551616,0.1,-1e-310,1.23457e+08,1e-07\n")


numbers = st.one_of(st.floats(), st.sampled_from(
    [5e-324, 1e-200, 1e-160, 1e154, 1e155, 1e308, -1e308, 1.7976931348623157e308]))


class TestDetectionMatchesTheReference:
    @PROPERTY
    @given(st.integers(-2, 3), st.tuples(numbers, numbers, numbers, numbers),
           numbers)
    def test_accepts_and_rejects_alike(self, frame, box, score):
        try:
            ref.check_detection(frame, box, score)
            expected = None
        except DataError as exc:
            expected = str(exc)
        try:
            Detection(frame, box, score, 0)
            got = None
        except DataError as exc:
            got = str(exc)
        assert got == expected

    def test_is_slotted(self):
        d = Detection(0, (1.0, 2.0, 3.0, 4.0), 0.5, 0)
        assert not hasattr(d, "__dict__")
