"""Spans and counters around the layer calls of ``debrisense.experiments``.

``installed(tracer)`` replaces, for the duration of a ``with`` block, the
names that ``debrisense.experiments`` binds with ``from ... import`` (and
its own stage functions) with timing wrappers, wraps the two prediction
methods of ``SvmModel``, and swaps its ``ProcessPoolExecutor`` for a pool
that sends each worker's spans and counts back with the task's result.
Everything is put back on exit.  The package itself is not modified.

A span's self time is its duration minus the time of the spans it called.
Spans are aggregated per name as they close (calls, total, self), so the
cost of tracing is a few microseconds per call.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from debrisense import experiments
from debrisense.errors import ConvergenceWarning, EqualizationError

ROOT_SPAN = "experiments.reproduce_table"
POOL_WAIT_SPAN = "experiments.pool.wait"
ZF_SIZES = (4, 16, 64)

# Real flops of one complex n x n SVD (Golub & Van Loan, times 4 for complex
# arithmetic).  zf_equalize computes the singular values for its rank check,
# then np.linalg.pinv computes the full U, S, V^H unless the check raised.
_SVD_VALUES_FLOPS_PER_N3 = 4 * 8 / 3
_SVD_FULL_FLOPS_PER_N3 = 4 * 21

# The tracer the installed wrappers report to.  Module state because the
# patch itself is process-wide and forked pool workers inherit both.
_active: Tracer | None = None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Per-process span and counter aggregates for one traced campaign."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stats: dict[str, list[int]] = {}         # name -> [calls, total_ns, self_ns]
        self.worker_stats: dict[str, list[int]] = {}  # the same, merged from workers
        self.tallies: dict[str, list[int]] = {}       # key -> [calls, ns, rows]
        self.durations: dict[str, list[int]] = {}     # name -> inclusive ns per call
        self.counters: Counter = Counter()
        self.pool_workers = 1
        self._open: list[int] = []  # child time of each open span

    # -- recording ---------------------------------------------------------
    def _close(self, name: str, start_ns: int) -> int:
        total = perf_counter_ns() - start_ns
        child = self._open.pop()
        if self._open:
            self._open[-1] += total
        entry = self.stats.get(name)
        if entry is None:
            self.stats[name] = [1, total, total - child]
        else:
            entry[0] += 1
            entry[1] += total
            entry[2] += total - child
        return total

    @contextlib.contextmanager
    def span(self, name: str):
        self._open.append(0)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, start)

    def tally(self, key: str, ns: int, rows: int = 0) -> None:
        entry = self.tallies.setdefault(key, [0, 0, 0])
        entry[0] += 1
        entry[1] += ns
        entry[2] += rows

    def wrap(self, name: str, fn, hook=None):
        """``fn`` inside a span; ``hook(tracer, ns, args, kwargs, result, error)``
        runs after each call to derive counts from its arguments and result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open.append(0)
            start = perf_counter_ns()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                ns = tracer._close(name, start)
                if hook is not None:
                    hook(tracer, ns, args, kwargs, result, error)
        return traced

    # -- moving a worker's trace to the parent ------------------------------
    def export(self) -> dict:
        return {"stats": self.stats, "tallies": self.tallies,
                "durations": self.durations, "counters": dict(self.counters)}

    def merge(self, trace: dict) -> None:
        for name, (calls, total, own) in trace["stats"].items():
            entry = self.worker_stats.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for key, values in trace["tallies"].items():
            entry = self.tallies.setdefault(key, [0, 0, 0])
            for i, v in enumerate(values):
                entry[i] += v
        for name, values in trace["durations"].items():
            self.durations.setdefault(name, []).extend(values)
        self.counters.update(trace["counters"])

    def all_stats(self) -> dict[str, list[int]]:
        """Parent and worker aggregates summed per span name."""
        out = {name: list(v) for name, v in self.stats.items()}
        for name, values in self.worker_stats.items():
            entry = out.setdefault(name, [0, 0, 0])
            for i, v in enumerate(values):
                entry[i] += v
        return out


# ---------------------------------------------------------------------------
# Hooks: counts taken from each layer call's arguments and result
# ---------------------------------------------------------------------------

def _scene_hook(t, ns, args, kwargs, scene, error):
    if scene is not None:
        t.counters["scene.objects"] += len(scene.objects)


def _interactions_hook(t, ns, args, kwargs, interactions, error):
    for inter in interactions or ():
        t.counters[f"experiments.interactions.{inter.mechanism.value}"] += 1


def _paths_hook(t, ns, args, kwargs, paths, error):
    if paths is None:
        return
    interactions = _arg(args, kwargs, 1, "interactions")
    flags = _arg(args, kwargs, 4, "flags")
    built = len(paths) - 1  # the first path is line of sight
    skipped = len(interactions) - built
    t.counters["experiments.paths_built"] += built
    # build_paths appends exactly one flag per skipped interaction
    for flag in flags[len(flags) - skipped:] if skipped else ():
        reason = "path_error" if flag.startswith("path_error") else flag
        t.counters[f"experiments.paths_skipped.{reason}"] += 1


def _sample_hook(t, ns, args, kwargs, record, error):
    t.durations.setdefault("experiments.simulate_sample", []).append(ns)


def _zf_hook(t, ns, args, kwargs, result, error):
    n_tx = _arg(args, kwargs, 1, "csi").matrix.shape[1]
    t.tally(f"linksim.zf_equalize.nt{n_tx}", ns)
    flops_per_n3 = _SVD_VALUES_FLOPS_PER_N3
    t.counters["linksim.svd_calls_computed"] += 1
    if isinstance(error, EqualizationError):
        t.counters["linksim.eq_error"] += 1
    elif error is None:
        flops_per_n3 += _SVD_FULL_FLOPS_PER_N3
        t.counters["linksim.svd_calls_computed"] += 1
    t.counters["linksim.svd_flop_computed"] += int(flops_per_n3 * n_tx ** 3)


def _svm_hook(t, ns, args, kwargs, model, error):
    dataset = _arg(args, kwargs, 0, "dataset")
    task = ("detection" if experiments.NO_DEBRIS_LABEL in dataset.classes
            else "classification")
    t.tally(f"sensing.svm_train.{task}", ns, rows=len(dataset.labels))
    if model is None:
        return
    machines = ([model.binary] if model.binary is not None
                else list(model.multi.machines.values()))
    for machine in machines:
        n, d = machine.support_x.shape
        t.counters["svm.support_vectors"] += int(np.count_nonzero(machine.alpha))
        # squared distances (2 n^2 d from the Gram product) plus ~6 n^2
        # element-wise operations for the norms, clamp, scale and exp
        t.counters["svm.kernel_matrix_flop_computed"] += 2 * n * n * d + 6 * n * n


def _write_hook(t, ns, args, kwargs, result, error):
    out = Path(_arg(args, kwargs, 2, "out_dir"))
    t.counters["experiments.write_campaign_outputs.bytes"] += sum(
        p.stat().st_size for p in out.iterdir() if p.is_file())


def _record_convergence_warnings(tracer: Tracer, fn):
    """Count every ConvergenceWarning ``fn`` emits, undeduplicated."""
    @functools.wraps(fn)
    def recorded(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        tracer.counters["propagation.series_cap_hits"] += sum(
            issubclass(w.category, ConvergenceWarning) for w in caught)
        return result
    return recorded


# (span name, attribute of debrisense.experiments, hook)
LAYER_FUNCTIONS = (
    (ROOT_SPAN, "reproduce_table", None),
    ("experiments.run_campaign", "run_campaign", None),
    ("experiments.simulate_sample", "simulate_sample", _sample_hook),
    ("scene.generate_scene", "generate_scene", _scene_hook),
    ("experiments.draw_interactions", "draw_interactions", _interactions_hook),
    ("experiments.build_paths", "build_paths", _paths_hook),
    ("propagation.los_response", "los_response", None),
    ("propagation.reflected_response", "reflected_response", None),
    ("propagation.scattered_response", "scattered_response", None),
    ("propagation.diffracted_response", "diffracted_response", None),
    ("channel.assemble_subband", "assemble_subband", None),
    ("channel.apply_rician_smallscale", "apply_rician_smallscale", None),
    ("linksim.transmit", "transmit", None),
    ("linksim.estimate_csi", "estimate_csi", None),
    ("linksim.zf_equalize", "zf_equalize", _zf_hook),
    ("sensing.extract_features", "extract_features", None),
    ("experiments.evaluate_condition", "evaluate_condition", None),
    ("sensing.svm_train", "svm_train", _svm_hook),
    ("experiments.write_campaign_outputs", "write_campaign_outputs", _write_hook),
)
PREDICT_METHODS = ("decision_value", "predict")  # on SvmModel, as "sensing.predict"


class TracedPool(ProcessPoolExecutor):
    """``ProcessPoolExecutor`` whose ``map`` returns each worker's trace with
    its result and merges it into the parent's tracer."""

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        self.workers = self._max_workers

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        tracer = _active
        tracer.pool_workers = self.workers
        with tracer.span(POOL_WAIT_SPAN):
            pairs = list(super().map(functools.partial(_traced_task, fn),
                                     *iterables, timeout=timeout,
                                     chunksize=chunksize))
        for _, trace in pairs:
            tracer.merge(trace)
        return iter([result for result, _ in pairs])


def _traced_task(fn, *args):
    # A forked worker starts with a copy of the parent's tracer; keep only
    # what this task records.
    _active.reset()
    result = fn(*args)
    return result, _active.export()


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every layer call of ``debrisense.experiments`` inside the block."""
    global _active
    if _active is not None:
        raise RuntimeError("a tracer is already installed")
    saved = []
    try:
        for name, attr, hook in LAYER_FUNCTIONS:
            original = getattr(experiments, attr)
            saved.append((experiments, attr, original))
            setattr(experiments, attr, tracer.wrap(name, original, hook))
        original = experiments.run_condition
        saved.append((experiments, "run_condition", original))
        experiments.run_condition = tracer.wrap(
            "experiments.run_condition",
            _record_convergence_warnings(tracer, original))
        for attr in PREDICT_METHODS:
            original = getattr(experiments.SvmModel, attr)
            saved.append((experiments.SvmModel, attr, original))
            setattr(experiments.SvmModel, attr,
                    tracer.wrap("sensing.predict", original))
        saved.append((experiments, "ProcessPoolExecutor",
                      experiments.ProcessPoolExecutor))
        experiments.ProcessPoolExecutor = TracedPool
        _active = tracer
        yield tracer
    finally:
        _active = None
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced campaign
# ---------------------------------------------------------------------------

SELF_TIME_SPANS = (
    "experiments.build_paths", "propagation.los_response",
    "propagation.reflected_response", "propagation.scattered_response",
    "propagation.diffracted_response", "channel.assemble_subband",
    "channel.apply_rician_smallscale", "linksim.zf_equalize",
    "linksim.transmit", "linksim.estimate_csi", "experiments.simulate_sample",
    "sensing.extract_features", "scene.generate_scene",
    "experiments.draw_interactions", "sensing.svm_train", "sensing.predict",
    "experiments.evaluate_condition", "experiments.write_campaign_outputs",
)
CALL_COUNT_SPANS = (
    "propagation.los_response", "propagation.reflected_response",
    "propagation.scattered_response", "propagation.diffracted_response",
    "channel.apply_rician_smallscale", "linksim.zf_equalize", "sensing.predict",
    "experiments.simulate_sample",
)
COUNTERS = (
    "scene.objects", "experiments.interactions.reflection",
    "experiments.interactions.scattering", "experiments.interactions.diffraction",
    "experiments.paths_built", "experiments.paths_skipped.diff_skip",
    "experiments.paths_skipped.path_error", "propagation.series_cap_hits",
    "linksim.eq_error", "svm.support_vectors",
    "experiments.write_campaign_outputs.bytes",
    "linksim.svd_calls_computed",
)

# name -> unit, in the order reported; BENCHMARK.json lists the same names
PER_LAYER_UNITS = {
    **{f"{s}.self_s": "s" for s in SELF_TIME_SPANS},
    **{f"{s}.calls": "count" for s in CALL_COUNT_SPANS},
    **{f"linksim.zf_equalize.us_per_call.nt{n}": "us" for n in ZF_SIZES},
    "experiments.simulate_sample.p50_ms": "ms",
    "experiments.simulate_sample.p99_ms": "ms",
    "sensing.svm_train.detection_s": "s",
    "sensing.svm_train.classification_s": "s",
    "sensing.svm_train.detection_rows": "rows",
    "sensing.svm_train.detection_ms_per_call": "ms",
    "sensing.svm_train.wall_share": "ratio",
    "experiments.pool.wait_s": "s",
    "experiments.pool.worker_busy_s": "s",
    "experiments.pool.utilization": "ratio",
    **{c: "count" for c in COUNTERS},
    "experiments.write_campaign_outputs.bytes": "bytes",
    "experiments.path_yield": "ratio",
    "linksim.svd_gflop_computed": "GFLOP",
    "svm.kernel_matrix_gflop_computed": "GFLOP",
    "trace.wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}
# Metrics that must repeat exactly between traced runs of one seed.
EXACT_METRICS = (tuple(f"{s}.calls" for s in CALL_COUNT_SPANS) + COUNTERS
                 + ("experiments.path_yield", "linksim.svd_gflop_computed",
                    "svm.kernel_matrix_gflop_computed",
                    "sensing.svm_train.detection_rows"))


def _percentile(values, q):
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # nearest rank, rounded up
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced campaign whose wall time was ``wall_s``.

    Self times and call counts are summed over the parent and every pool
    worker.  ``trace.coverage`` is the parent's span self time, outside the
    campaign root, over ``wall_s``; on a pooled run the parent's wait for its
    workers is the ``experiments.pool.wait`` span.
    ``trace.overhead_s`` is filled in by the caller.
    """
    stats = tracer.all_stats()
    calls = {name: v[0] for name, v in stats.items()}
    self_s = {name: v[2] / 1e9 for name, v in stats.items()}
    m: dict[str, float] = {}
    for span in SELF_TIME_SPANS:
        m[f"{span}.self_s"] = self_s.get(span, 0.0)
    for span in CALL_COUNT_SPANS:
        m[f"{span}.calls"] = calls.get(span, 0)
    for n in ZF_SIZES:
        n_calls, ns, _ = tracer.tallies.get(f"linksim.zf_equalize.nt{n}", (0, 0, 0))
        m[f"linksim.zf_equalize.us_per_call.nt{n}"] = ns / n_calls / 1e3 if n_calls else 0.0
    sample_ns = tracer.durations.get("experiments.simulate_sample", [0])
    m["experiments.simulate_sample.p50_ms"] = _percentile(sample_ns, 50) / 1e6
    m["experiments.simulate_sample.p99_ms"] = _percentile(sample_ns, 99) / 1e6
    det_calls, det_ns, det_rows = tracer.tallies.get("sensing.svm_train.detection", (0, 0, 0))
    m["sensing.svm_train.detection_s"] = det_ns / 1e9
    m["sensing.svm_train.classification_s"] = (
        tracer.tallies.get("sensing.svm_train.classification", (0, 0, 0))[1] / 1e9)
    m["sensing.svm_train.detection_rows"] = det_rows / det_calls if det_calls else 0.0
    m["sensing.svm_train.detection_ms_per_call"] = det_ns / det_calls / 1e6 if det_calls else 0.0
    m["sensing.svm_train.wall_share"] = self_s.get("sensing.svm_train", 0.0) / wall_s

    busy_s = stats.get("experiments.run_condition", [0, 0, 0])[1] / 1e9
    pool_wait_s = stats.get(POOL_WAIT_SPAN, [0, 0, 0])[1] / 1e9
    simulate_wall_s = pool_wait_s if pool_wait_s else busy_s
    m["experiments.pool.wait_s"] = pool_wait_s
    m["experiments.pool.worker_busy_s"] = busy_s
    m["experiments.pool.utilization"] = (
        busy_s / (tracer.pool_workers * simulate_wall_s) if simulate_wall_s else 0.0)

    for name in COUNTERS:
        m[name] = tracer.counters.get(name, 0)
    built = m["experiments.paths_built"]
    attempted = (built + m["experiments.paths_skipped.diff_skip"]
                 + m["experiments.paths_skipped.path_error"])
    m["experiments.path_yield"] = built / attempted if attempted else 1.0
    m["linksim.svd_gflop_computed"] = tracer.counters["linksim.svd_flop_computed"] / 1e9
    m["svm.kernel_matrix_gflop_computed"] = (
        tracer.counters["svm.kernel_matrix_flop_computed"] / 1e9)

    root_self_s = tracer.stats.get(ROOT_SPAN, [0, 0, 0])[2] / 1e9
    parent_self_s = sum(v[2] for v in tracer.stats.values()) / 1e9 - root_self_s
    m["trace.wall_s"] = wall_s
    m["trace.unaccounted_s"] = root_self_s
    m["trace.coverage"] = parent_self_s / wall_s
    m["trace.overhead_s"] = 0.0
    return m


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced campaigns; exact counts are taken from the first."""
    return {name: runs[0][name] if name in EXACT_METRICS
            else statistics.median(run[name] for run in runs)
            for name in runs[0]}
