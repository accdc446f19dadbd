"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkout  # noqa: E402

checkout.use_checkout_source()

import layertrace  # noqa: E402
import outputcheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from debrisense import experiments  # noqa: E402

TINY = 6  # samples per condition: the smallest every table accepts


def _traced(table, threads, out):
    tracer = layertrace.Tracer()
    with layertrace.installed(tracer):
        start = time.perf_counter()
        experiments.reproduce_table(table, 3, out, threads=threads, samples=TINY)
        wall_s = time.perf_counter() - start
    return layertrace.layer_metrics(tracer, wall_s)


def _attributes():
    return dict(vars(experiments)), dict(vars(experiments.SvmModel))


def test_wrappers_restore_original_functions():
    module_before, class_before = _attributes()
    with layertrace.installed(layertrace.Tracer()):
        module_during, class_during = _attributes()
    for _, attr, _ in layertrace.LAYER_FUNCTIONS:
        assert module_during[attr] is not module_before[attr]
    assert module_during["run_condition"] is not module_before["run_condition"]
    assert module_during["ProcessPoolExecutor"] is layertrace.TracedPool
    for attr in layertrace.PREDICT_METHODS:
        assert class_during[attr] is not class_before[attr]

    with pytest.raises(RuntimeError):
        with layertrace.installed(layertrace.Tracer()):
            raise RuntimeError("campaign failed")
    module_after, class_after = _attributes()
    assert module_after.keys() == module_before.keys()
    assert all(module_after[k] is module_before[k] for k in module_before)
    assert all(class_after[k] is class_before[k] for k in class_before)
    assert layertrace._active is None


def test_traced_runs_repeat_counters_exactly(tmp_path):
    first = _traced(2, 1, tmp_path / "a")
    second = _traced(2, 1, tmp_path / "b")
    assert first["experiments.paths_built"] > 0
    assert first["experiments.simulate_sample.calls"] == 12 * TINY
    assert {k: first[k] for k in layertrace.EXACT_METRICS} == \
        {k: second[k] for k in layertrace.EXACT_METRICS}
    assert first["trace.coverage"] >= 0.95


def test_pool_workers_send_their_spans_and_counts_back(tmp_path):
    serial = _traced(1, 1, tmp_path / "serial")
    pooled = _traced(1, 2, tmp_path / "pooled")
    assert pooled["experiments.pool.wait_s"] > 0
    assert pooled["experiments.simulate_sample.self_s"] > 0
    assert {k: serial[k] for k in layertrace.EXACT_METRICS} == \
        {k: pooled[k] for k in layertrace.EXACT_METRICS}


@pytest.fixture
def tiny_bench(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path / "reference")
    workload = workloads.Workload("tiny", table=2, samples=TINY, threads=1,
                                  corpus=1, why="self-test")
    out = tmp_path / "out"
    experiments.reproduce_table(2, 0, out, threads=1, samples=TINY)
    reference = outputcheck.snapshot(out)
    outputcheck.write_snapshot(reference, workload.reference_path(0))
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    return run.Bench(workload, 0, run_dir), reference, workload.reference_path(0)


def _perturbed(reference, rel):
    name = sorted(reference["features"])[0]
    reference["features"][name][0][2] *= 1.0 + rel  # f_mean of the first row
    reference["files"][name] = "0" * 64
    return reference


def test_matching_reference_passes(tiny_bench):
    bench, _, _ = tiny_bench
    assert bench.campaign(0).outcome == outputcheck.IDENTICAL
    assert (bench.attempted, bench.failed) == (1, 0)


def test_tiny_difference_passes_within_tolerance(tiny_bench):
    bench, reference, path = tiny_bench
    outputcheck.write_snapshot(_perturbed(reference, 1e-12), path)
    assert bench.campaign(0).outcome == outputcheck.WITHIN_TOLERANCE
    assert bench.failed == 0


def test_corrupted_reference_is_a_failed_run(tiny_bench):
    bench, reference, path = tiny_bench
    outputcheck.write_snapshot(_perturbed(reference, 1e-6), path)
    campaign = bench.campaign(0)
    assert campaign.outcome.startswith("FAILED OutputMismatch")
    path.write_bytes(b"not a gzip file")
    assert bench.campaign(0).outcome.startswith("FAILED")
    assert (bench.attempted, bench.failed) == (2, 2)


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package_source(tmp_path):
    # only BENCHMARK.json and the benchmark's own files: no src/
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "t2-snr-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
