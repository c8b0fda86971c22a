"""Plain-text artifact writers: loss curves, field images, summary tables.

Everything here is deterministic byte-for-byte given the same inputs, which
the pipeline relies on for reproducibility checks.  Floats are written with
``repr`` so values round-trip exactly.  Every artifact is written through
:func:`replacing`, so a write that fails leaves the old file or none.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
from typing import Iterable, Sequence

import numpy as np


def write_csv(path, rows: Iterable[Sequence]) -> None:
    """Write ``rows`` as a CSV file, with CRLF line ends, through :func:`replacing`."""
    with replacing(path, newline="") as fh:
        csv.writer(fh).writerows(rows)


def write_loss_curve(path, curve: Sequence[tuple[int, float]]) -> None:
    rows = ((epoch, repr(float(loss))) for epoch, loss in curve)
    write_csv(path, itertools.chain([("epoch", "loss")], rows))


def save_field_csv(path, field: np.ndarray) -> None:
    write_csv(path, ([repr(float(v)) for v in row] for row in np.asarray(field, dtype=np.float64)))


def read_csv_floats(path, header: Sequence[str] | None = None) -> np.ndarray:
    """A CSV of floats as a 2-D array, or ValueError naming the file.

    With ``header`` the first line must equal it.  There must be a data row,
    every row must be as wide as the header or the first row, so a file cut
    short mid-row fails here, and every entry must be finite.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    skip = 0 if header is None else 1
    if skip and rows[:1] != [list(header)]:
        raise ValueError(f"{path}: expected the header {','.join(header)}")
    if len(rows) == skip:
        raise ValueError(f"{path}: no data rows")
    width = len(header) if skip else len(rows[0])
    table = []
    for line, row in enumerate(rows[skip:], start=skip + 1):
        if len(row) != width:
            raise ValueError(f"{path}: line {line} has {len(row)} fields, expected {width}")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from exc
        bad = [v for v, x in zip(row, values) if not np.isfinite(x)]
        if bad:
            raise ValueError(f"{path}: line {line}: non-finite value {bad[0]!r}")
        table.append(values)
    return np.array(table)


load_field_csv = read_csv_floats


def save_field_pgm(path, field: np.ndarray) -> None:
    """ASCII portable graymap; the value range is mapped linearly to 0..255."""
    arr = np.asarray(field, dtype=np.float64)
    lo, hi = arr.min(), arr.max()
    span = hi - lo if hi > lo else 1.0
    gray = np.rint((arr - lo) / span * 255).astype(int)
    lines = [f"P2", f"# range [{lo!r}, {hi!r}]", f"{arr.shape[1]} {arr.shape[0]}", "255"]
    lines += [" ".join(str(v) for v in row) for row in gray]
    with replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")


@contextlib.contextmanager
def replacing(path, mode: str = "w", newline: str | None = None):
    """A temporary file beside ``path`` that replaces it once the block ends
    without an exception, so ``path`` never holds a partial write; ``mode``
    and ``newline`` are those of :func:`open`."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:   # gone already unless the block or the replace raised
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_json(path, payload: dict) -> None:
    with replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, *required: str) -> dict:
    """The JSON in ``path``; ValueError naming it if bad or lacking a ``required`` key."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    for key in required:
        if not isinstance(payload, dict) or key not in payload:
            raise ValueError(f"{path}: missing key {key!r}")
    return payload
