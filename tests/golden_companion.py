"""Numeric companion to the golden digests of ``tests/test_golden.py``.

The digests hold only on the platform that recorded them (numpy 2.4.6 with
scipy-openblas).  The companion is what another numpy or BLAS is checked
against.  For each reduced campaign it stores ``metrics.csv``, the five
feature columns of every samples CSV (with each row's sample index and
label), and each samples CSV's ``det_value`` and ``pred_label``.  A run
matches it when:

- ``metrics.csv`` and the features agree by the rule of
  ``perfbench/outputcheck.py``: rtol 1e-9, and NaN matches only NaN;
- every ``pred_label`` is the same;
- every ``det_value`` agrees within an absolute 1e-9, since a decision
  value near zero has no relative scale.

Re-record it only together with the digests, when a change is meant to
move outputs, and say why in CHANGES.md.  Run from the repository root:

    PYTHONPATH=src python3 tests/golden_companion.py
"""

from __future__ import annotations

import csv
import importlib.util
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "golden_companion.json.gz"
CAMPAIGNS = ((1, 24), (2, 60), (3, 24))  # (table, samples per condition)
SEED = 7
DET_ATOL = 1e-9


def _load_outputcheck():
    spec = importlib.util.spec_from_file_location(
        "outputcheck", ROOT / "perfbench" / "outputcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


outputcheck = _load_outputcheck()
OutputMismatch = outputcheck.OutputMismatch


def campaign_key(table: int, samples: int) -> str:
    return f"table{table}-samples{samples}"


def companion(out_dir) -> dict:
    """The companion form of one campaign's output directory."""
    out = Path(out_dir)
    samples = {}
    for path in sorted(out.glob("samples_*.csv")):
        text = path.read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
        samples[path.name] = {
            "features": outputcheck._features(text),
            "det_value": [float(row["det_value"]) for row in rows],
            "pred_label": [row["pred_label"] for row in rows],
        }
    return {"metrics.csv": (out / "metrics.csv").read_text(encoding="utf-8"),
            "samples": samples}


def check_companion(expected: dict, got: dict) -> None:
    """Raise OutputMismatch where ``got`` does not match ``expected``."""
    outputcheck._compare_metrics(expected["metrics.csv"], got["metrics.csv"])
    if sorted(expected["samples"]) != sorted(got["samples"]):
        raise OutputMismatch(f"samples files differ: {sorted(got['samples'])} "
                             f"vs {sorted(expected['samples'])}")
    columns = outputcheck.KEY_COLUMNS + outputcheck.FEATURE_COLUMNS
    for name, exp in expected["samples"].items():
        new = got["samples"][name]
        if len(new["features"]) != len(exp["features"]):
            raise OutputMismatch(f"{name}: {len(new['features'])} rows vs "
                                 f"{len(exp['features'])} in the companion")
        for i, (exp_row, got_row) in enumerate(zip(exp["features"],
                                                   new["features"])):
            for col, e, g in zip(columns, exp_row, got_row):
                outputcheck._compare_cells(f"{name} row {i + 1} {col}", e, g)
        for col, same in (("pred_label", str.__eq__),
                          ("det_value", lambda e, g: abs(e - g) <= DET_ATOL)):
            for i, (e, g) in enumerate(zip(exp[col], new[col])):
                if not same(e, g):
                    raise OutputMismatch(
                        f"{name} row {i + 1} {col}: {g!r} vs reference {e!r}")


def main() -> int:
    from debrisense.experiments import reproduce_table

    fixture = {}
    for table, samples in CAMPAIGNS:
        out = tempfile.mkdtemp()
        try:
            reproduce_table(table, SEED, out, samples=samples)
            fixture[campaign_key(table, samples)] = companion(out)
        finally:
            shutil.rmtree(out)
        print(f"table {table} at {samples} samples recorded", flush=True)
    outputcheck.write_snapshot(fixture, FIXTURE)
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
