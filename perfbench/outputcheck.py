"""Reference snapshots of campaign outputs and the check against them.

A snapshot holds the SHA-256 of every output file, the text of
``metrics.csv`` and the five feature columns of every samples CSV.  A run
whose files are byte-identical to the snapshot passes as "identical".
Otherwise ``metrics.csv`` and the feature columns are compared at a
relative tolerance of 1e-9 (the numeric companion to the golden digests);
a match passes as "within tolerance" and anything else is a mismatch.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
from pathlib import Path

RTOL = 1e-9
FEATURE_COLUMNS = ("f_mean", "f_var", "f_max", "f_min", "f_skew")
KEY_COLUMNS = ("sample_idx", "label")  # the condition id is in the file name

IDENTICAL = "identical"
WITHIN_TOLERANCE = "within tolerance"


class OutputMismatch(Exception):
    """Campaign outputs differ from the reference beyond the tolerance."""


def _features(text: str) -> list[list]:
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        rows.append([row[k] for k in KEY_COLUMNS]
                    + [float(row[k]) for k in FEATURE_COLUMNS])
    return rows


def snapshot(out_dir) -> dict:
    """The reference form of one campaign's output directory."""
    out = Path(out_dir)
    files = sorted(p for p in out.iterdir() if p.is_file())
    return {
        "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
        "metrics.csv": (out / "metrics.csv").read_text(encoding="utf-8"),
        "features": {p.name: _features(p.read_text(encoding="utf-8"))
                     for p in files if p.name.startswith("samples_")},
    }


def write_snapshot(snap: dict, path) -> None:
    data = json.dumps(snap, sort_keys=True, separators=(",", ":")).encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        # mtime 0 so that regenerating an unchanged reference gives the same bytes
        with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
            gz.write(data)


def read_snapshot(path) -> dict:
    with gzip.open(path, "rb") as gz:
        return json.loads(gz.read())


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def _compare_cells(where: str, expected, got) -> None:
    if isinstance(expected, float):
        if not _close(expected, got):
            raise OutputMismatch(f"{where}: {got!r} vs reference {expected!r}")
    elif expected != got:
        raise OutputMismatch(f"{where}: {got!r} vs reference {expected!r}")


def _compare_metrics(expected_text: str, got_text: str) -> None:
    expected = list(csv.reader(io.StringIO(expected_text)))
    got = list(csv.reader(io.StringIO(got_text)))
    if len(expected) != len(got) or expected[0] != got[0]:
        raise OutputMismatch("metrics.csv: header or row count differs")
    for r, (exp_row, got_row) in enumerate(zip(expected[1:], got[1:]), start=2):
        if len(exp_row) != len(got_row):
            raise OutputMismatch(f"metrics.csv line {r}: column count differs")
        for col, (e, g) in enumerate(zip(exp_row, got_row)):
            try:
                e_val, g_val = float(e), float(g)
            except ValueError:
                e_val, g_val = e, g
            _compare_cells(f"metrics.csv line {r} column {col + 1}", e_val, g_val)


def check_outputs(reference: dict, out_dir) -> str:
    """Compare a campaign's output directory with a reference snapshot.

    Returns IDENTICAL or WITHIN_TOLERANCE; raises OutputMismatch otherwise.
    """
    out = Path(out_dir)
    got_files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in out.iterdir() if p.is_file()}
    if got_files == reference["files"]:
        return IDENTICAL
    if set(got_files) != set(reference["files"]):
        missing = sorted(set(reference["files"]) - set(got_files))
        extra = sorted(set(got_files) - set(reference["files"]))
        raise OutputMismatch(f"output files differ: missing {missing}, extra {extra}")
    _compare_metrics(reference["metrics.csv"],
                     (out / "metrics.csv").read_text(encoding="utf-8"))
    for name, expected_rows in reference["features"].items():
        got_rows = _features((out / name).read_text(encoding="utf-8"))
        if len(got_rows) != len(expected_rows):
            raise OutputMismatch(f"{name}: {len(got_rows)} rows vs "
                                 f"{len(expected_rows)} in the reference")
        for i, (exp_row, got_row) in enumerate(zip(expected_rows, got_rows)):
            for col, e, g in zip(KEY_COLUMNS + FEATURE_COLUMNS, exp_row, got_row):
                _compare_cells(f"{name} row {i + 1} {col}", e, g)
    return WITHIN_TOLERANCE
