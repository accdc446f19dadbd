"""Golden digests of reduced headline campaigns, and their numeric companion.

Each digest is the SHA-256 over every output file of
``reproduce_table(table, 7, samples=samples)``, taken in name order as the
file name followed by its bytes.  A change that is meant to leave outputs
alone must keep them byte for byte; regenerate a digest only together with
a CHANGES.md entry that says why the outputs moved.

The digests hold only on the numpy, BLAS and SIMD dispatch that recorded
them.  The numeric companion (``tests/golden_companion.py``, stored in
``tests/golden_companion.json.gz``) checks the same serial campaigns by
value: ``metrics.csv`` and the five feature columns at rtol 1e-9, every
``pred_label`` exactly and every ``det_value`` within an absolute 1e-9.  A
change that only reorders floating-point work must still pass it; a change
that moves outputs re-records it with the digests.  It does not carry the
suite to another CPU: with numpy's AVX-512 targets disabled
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``) the features
and labels hold, but decision values move by up to 9e-5, and 8 of these 9
tests fail.  A failing digest names the dispatch targets numpy found,
beside its version.
"""

import hashlib

import numpy as np
import pytest

import golden_companion
from debrisense.experiments import reproduce_table

# Recorded with numpy 2.4.6 on x86-64 (scipy-openblas), with every SIMD
# target numpy dispatches to found, beyond its X86_V2 baseline.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
GOLDEN = {
    (1, 24): "5224cd4e6fb27238a4208562cc67a154b8ce6303166c267a7bee7897de454c7a",
    (2, 60): "ac3e741b912de6d07ceee21e46412ff53caa32fa004e191d0c23563d574faf3b",
    (3, 24): "447b808160b1d5c8d021abe17b552351c93f2a49b8156f134e3adc88eb144ad5",
}


def simd_dispatch() -> str:
    """The SIMD targets beyond its baseline that numpy dispatches to on
    this CPU, as ``numpy.show_runtime()`` lists them under ``found``."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__[t]) or "none"


def changed(what: str, table: int, samples: int) -> str:
    return (f"{what} of table {table} at {samples} samples changed (digest "
            f"recorded with numpy {GOLDEN_NUMPY}, dispatch {GOLDEN_DISPATCH}; "
            f"running numpy {np.__version__}, dispatch {simd_dispatch()})")


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
    assert output_digest(out) == GOLDEN[(table, samples)], changed(
        "outputs", table, samples)


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
    assert output_digest(tmp_path) == GOLDEN[(table, samples)], changed(
        "pooled outputs", table, samples)
