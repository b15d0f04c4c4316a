"""File formats: detection/track/ground-truth CSV and flat key=value configs.

Detections: ``frame,id,x,y,w,h,score[,extra...]`` — the id column is parsed
but ignored (detections carry no identity), extra columns become additional
pairwise features. Tracks: ``frame,track_id,x,y,w,h`` sorted by
(frame, track_id). Ground truth: detection columns plus a trailing gt_id.
Files and streams share one csv row reader (quoted fields, '#' comments; a
blank row ends a stream's frame block), whose every error, csv's included,
is a DataError that names the input line, and one track row writer, which
writes floats with ``%.6g`` so output is byte-identical across runs.
"""
from __future__ import annotations

import contextlib
import csv
import math
import os
import sys

from .cost_model import Detection
from .errors import DataError
from .metrics import GroundTruth

_READER = type(csv.reader(()))


@contextlib.contextmanager
def open_or_stdio(target, mode: str = "r"):
    """Yield a text file for target. A path is opened and closed on exit,
    None or "-" is stdin (mode "r") or stdout (mode "w"), and an open file
    object is used as is. A path read decodes bytes that are not UTF-8 to
    lone surrogates, as stdin does under a C locale, so they reach the
    parsers, which reject them with the line."""
    if target is None or target == "-":
        yield sys.stdin if mode == "r" else sys.stdout
    elif isinstance(target, (str, os.PathLike)):
        errors = "surrogateescape" if mode == "r" else None
        with open(target, mode, newline="", errors=errors) as fobj:
            yield fobj
    else:
        yield target


def _parse_float(text: str, what: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"line {lineno}: bad {what} {text!r}") from None
    if math.isnan(value):
        raise DataError(f"line {lineno}: {what} is NaN")
    return value


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"line {lineno}: bad {what} {text!r}") from None


def _rows(reader):
    """Yield (line number, stripped fields) for the rows of a csv.reader but
    '#' comments; a blank row gives no fields. A csv.Error becomes a
    DataError that names the line, counted over the reader's whole input."""
    try:
        for row in reader:
            fields = [c.strip() for c in row]
            if fields and fields[0].startswith("#"):
                continue
            yield reader.line_num, fields if fields != [""] else []
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None


def _file_rows(fobj):
    """The nonblank rows of a CSV file, as _rows gives them."""
    return ((lineno, row) for lineno, row in _rows(csv.reader(fobj)) if row)


def _add_detection(per_frame: dict[int, list[Detection]], row, lineno,
                   with_gt_id=False):
    """Parse one detection row and append it to its frame's list in
    per_frame, with the next local index of that frame. Returns the
    detection and its gt id (None without with_gt_id)."""
    tail = 1 if with_gt_id else 0
    if len(row) < 7 + tail:
        raise DataError(f"line {lineno}: expected at least {7 + tail} columns, "
                        f"got {len(row)}")
    frame = _parse_int(row[0], "frame", lineno)
    x = _parse_float(row[2], "x", lineno)
    y = _parse_float(row[3], "y", lineno)
    w = _parse_float(row[4], "w", lineno)
    h = _parse_float(row[5], "h", lineno)
    score = _parse_float(row[6], "score", lineno)
    extra_cols = row[7:len(row) - tail] if with_gt_id else row[7:]
    extras = tuple(_parse_float(c, f"extra column {i}", lineno)
                   for i, c in enumerate(extra_cols, start=7))
    gt_id = _parse_int(row[-1], "gt id", lineno) if with_gt_id else None
    dets = per_frame.setdefault(frame, [])
    try:
        dets.append(Detection(frame=frame, box=(x, y, w, h), score=score,
                              local_index=len(dets), extras=extras))
    except DataError as exc:
        raise DataError(f"line {lineno}: {exc}") from None
    return dets[-1], gt_id


def parse_detections(source) -> dict[int, list[Detection]]:
    """Read a detection CSV into {frame: [Detection, ...]} in frame order.

    Only frames that occur in the file are keys; local indices follow file
    order within each frame.
    """
    per_frame: dict[int, list[Detection]] = {}
    n_extras = None
    with open_or_stdio(source) as fobj:
        for lineno, row in _file_rows(fobj):
            det, _ = _add_detection(per_frame, row, lineno)
            if n_extras is None:
                n_extras = len(det.extras)
            elif len(det.extras) != n_extras:
                raise DataError(f"line {lineno}: inconsistent column count")
    return dict(sorted(per_frame.items()))


def parse_ground_truth(source) -> tuple[dict[int, list[Detection]], GroundTruth]:
    """Read a ground-truth CSV (detection columns plus trailing gt_id)."""
    per_frame: dict[int, list[Detection]] = {}
    gt = GroundTruth()
    with open_or_stdio(source) as fobj:
        for lineno, row in _file_rows(fobj):
            det, gt_id = _add_detection(per_frame, row, lineno, with_gt_id=True)
            gt.add(det.frame, gt_id, det.box)
    return dict(sorted(per_frame.items())), gt


def _fmt(x: float) -> str:
    return "%.6g" % x


def write_detections(dest, detections: dict[int, list[Detection]],
                     gt_ids: dict[tuple, int] | None = None):
    """Write detections (optionally with trailing gt ids) deterministically."""
    with open_or_stdio(dest, "w") as fobj:
        for f in sorted(detections):
            for d in detections[f]:
                x, y, w, h = d.box
                row = [str(d.frame), str(d.local_index), _fmt(x), _fmt(y),
                       _fmt(w), _fmt(h), _fmt(d.score)]
                row.extend(_fmt(e) for e in d.extras)
                if gt_ids is not None:
                    gid = gt_ids.get(d.key)
                    row.append(str(-1 if gid is None else gid))
                fobj.write(",".join(row) + "\n")


def write_ground_truth(dest, frames: dict[int, list[tuple[int, tuple]]]):
    """Write {frame: [(gt id, box), ...]} as ground-truth rows (score 1)."""
    detections, gt_ids = {}, {}
    for f in sorted(frames):
        detections[f] = []
        for gid, box in frames[f]:
            d = Detection(frame=f, box=box, score=1.0,
                          local_index=len(detections[f]))
            detections[f].append(d)
            gt_ids[d.key] = gid
    write_detections(dest, detections, gt_ids=gt_ids)


def write_tracks(dest, trajectories):
    """Write ``frame,track_id,x,y,w,h`` rows sorted by (frame, track_id)."""
    rows = []
    for traj in trajectories:
        for d in traj.detections:
            x, y, w, h = d.box
            rows.append((d.frame, traj.track_id, x, y, w, h))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open_or_stdio(dest, "w") as fobj:
        write_track_rows(fobj, rows)


def write_track_rows(fobj, rows):
    """Write (frame, track id, x, y, w, h) tuples as rows, one write each."""
    for f, tid, x, y, w, h in rows:
        fobj.write(f"{f},{tid},{_fmt(x)},{_fmt(y)},{_fmt(w)},{_fmt(h)}\n")


def parse_tracks(source) -> dict[int, list[tuple[int, tuple]]]:
    """Read a track CSV into {frame: [(track_id, box), ...]} hypotheses."""
    frames: dict[int, dict[int, tuple]] = {}  # frame -> track id -> box
    with open_or_stdio(source) as fobj:
        for lineno, row in _file_rows(fobj):
            if len(row) < 6:
                raise DataError(f"line {lineno}: expected 6 columns, got {len(row)}")
            f = _parse_int(row[0], "frame", lineno)
            tid = _parse_int(row[1], "track id", lineno)
            box = tuple(_parse_float(row[i], "box", lineno) for i in range(2, 6))
            if tid in (boxes := frames.setdefault(f, {})):
                raise DataError(f"line {lineno}: duplicate track id {tid} "
                                f"in frame {f}")
            boxes[tid] = box
    return {f: list(boxes.items()) for f, boxes in frames.items()}


def load_config(source) -> dict[str, str]:
    """Flat ``key = value`` config file; '#' starts a comment."""
    out: dict[str, str] = {}
    with open_or_stdio(source) as fobj:
        for lineno, line in enumerate(fobj, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise DataError(f"line {lineno}: expected key=value, got {text!r}")
            key, value = text.split("=", 1)
            key = key.strip()
            if not key:
                raise DataError(f"line {lineno}: empty key")
            out[key] = value.strip()
    return out


def parse_stream_frame(fobj) -> tuple[int, list[Detection]] | None:
    """Read one blank-row-terminated block of detection rows from a stream.

    Returns (frame, detections) or None at end of input. All rows in a block
    must share one frame index. Errors name input lines counted by fobj if
    it is a csv.reader, else (a text stream) from the first line this call
    reads.
    """
    reader = fobj if isinstance(fobj, _READER) else csv.reader(fobj)
    per_frame: dict[int, list[Detection]] = {}
    for lineno, row in _rows(reader):
        if not row:
            if per_frame:
                break
            continue  # leading blank rows
        det, _ = _add_detection(per_frame, row, lineno)
        frame = next(iter(per_frame))
        if det.frame != frame:
            raise DataError(f"line {lineno}: stream block mixes frames "
                            f"{frame} and {det.frame}")
    return next(iter(per_frame.items()), None)
