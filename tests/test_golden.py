"""Golden digests of reduced headline campaigns, and their numeric companion.

Each digest is the SHA-256 over every output file of
``reproduce_table(table, 7, samples=samples)``, taken in name order as the
file name followed by its bytes.  A change that is meant to leave outputs
alone must keep them byte for byte; regenerate a digest only together with
a CHANGES.md entry that says why the outputs moved.

The digests hold only on the numpy and BLAS that recorded them.  The
numeric companion (``tests/golden_companion.py``, stored in
``tests/golden_companion.json.gz``) checks the same serial campaigns by
value: ``metrics.csv`` and the five feature columns at rtol 1e-9, every
``pred_label`` exactly and every ``det_value`` within an absolute 1e-9.  It
is what another platform, or a change that only reorders floating-point
work, must still pass; a change that moves outputs re-records it with the
digests.
"""

import hashlib

import numpy as np
import pytest

import golden_companion
from debrisense.experiments import reproduce_table

# Recorded with numpy 2.4.6 on x86-64 (scipy-openblas).
GOLDEN_NUMPY = "2.4.6"
GOLDEN = {
    (1, 24): "5224cd4e6fb27238a4208562cc67a154b8ce6303166c267a7bee7897de454c7a",
    (2, 60): "ac3e741b912de6d07ceee21e46412ff53caa32fa004e191d0c23563d574faf3b",
    (3, 24): "447b808160b1d5c8d021abe17b552351c93f2a49b8156f134e3adc88eb144ad5",
}


def output_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDEN),
                ids=lambda key: f"{key[0]}-{key[1]}")
def serial_campaign(request, tmp_path_factory):
    """(table, samples, output directory) of one serial golden campaign,
    run once for the digest and the companion."""
    table, samples = request.param
    out = tmp_path_factory.mktemp(f"table{table}")
    reproduce_table(table, 7, out, samples=samples)
    return table, samples, out


def test_reduced_campaign_matches_golden_digest(serial_campaign):
    table, samples, out = serial_campaign
    assert output_digest(out) == GOLDEN[(table, samples)], (
        f"outputs of table {table} at {samples} samples changed "
        f"(digest recorded with numpy {GOLDEN_NUMPY}, running {np.__version__})")


def test_reduced_campaign_matches_numeric_companion(serial_campaign):
    table, samples, out = serial_campaign
    fixture = golden_companion.outputcheck.read_snapshot(golden_companion.FIXTURE)
    expected = fixture[golden_companion.campaign_key(table, samples)]
    golden_companion.check_companion(expected, golden_companion.companion(out))


@pytest.mark.parametrize("table,samples", sorted(GOLDEN))
def test_pooled_campaign_matches_golden_digest(tmp_path, table, samples):
    # simulation and evaluation both run on the pool, which cuts every
    # scene family into blocks of samples; the outputs must not depend on
    # the worker count
    reproduce_table(table, 7, tmp_path, threads=2, samples=samples)
    assert output_digest(tmp_path) == GOLDEN[(table, samples)], (
        f"pooled outputs of table {table} at {samples} samples changed "
        f"(digest recorded with numpy {GOLDEN_NUMPY}, running {np.__version__})")
