"""Campaign benchmark for debrisense.

Runs one workload's campaigns through ``reproduce_table`` in a closed loop
from a single process for about ``--seconds`` seconds, checks every
campaign's output files against the stored reference of its master seed,
prints a report, and ends with one JSON line:

  --trace 0   end-to-end metrics of untraced campaigns
  --trace 1   per-layer metrics of traced campaigns (see layertrace.py),
              alternated with untraced ones to measure the tracing overhead

Run from the repository root:

    python3 perfbench/run.py --workload t2-snr-serial [--seed 7] [--seconds 30] [--trace 0]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checkout import ROOT, SCRATCH, machine_facts, use_checkout_source
from outputcheck import check_outputs, read_snapshot
from workloads import DEFAULT_SEED, WORKLOADS, Workload

MIN_CAMPAIGNS = 2      # timed campaigns per run, however long they take
SETUP_REPEATS = 7      # fresh processes timed for setup_s
WARMUP_SAMPLES = 6     # samples per condition of the untimed warm-up campaign
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

END_TO_END_UNITS = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "success_fraction": "ratio"}


def say(line: str) -> None:
    print(line, flush=True)


@dataclass
class Campaign:
    master: int
    wall_s: float    # to the last output file written, or to the failure
    records: int
    outcome: str     # "identical", "within tolerance" or the failure


class Bench:
    def __init__(self, workload: Workload, seed: int, run_dir: Path):
        from debrisense import experiments
        self.experiments = experiments
        self.workload = workload
        self.masters = workload.master_seeds(seed)
        self.run_dir = run_dir
        self.failed = 0
        self.attempted = 0

    # -- one campaign ------------------------------------------------------
    def campaign(self, master: int, tracer=None) -> Campaign:
        """Run, time and check one campaign; a failure is counted, not raised."""
        import layertrace  # imports debrisense, so only once the source is found
        w = self.workload
        out = Path(tempfile.mkdtemp(dir=self.run_dir))
        self.attempted += 1
        start = perf_counter()
        try:
            traced = layertrace.installed(tracer) if tracer else contextlib.nullcontext()
            with traced:
                start = perf_counter()
                result = self.experiments.reproduce_table(
                    w.table, master, out, threads=w.threads, samples=w.samples)
                wall_s = perf_counter() - start
            records = sum(len(r) for r in result.records.values())
            outcome = check_outputs(read_snapshot(w.reference_path(master)), out)
            return Campaign(master, wall_s, records, outcome)
        except Exception as exc:  # the run goes on; the failure is reported
            wall_s = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return Campaign(master, wall_s, 0, f"FAILED {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def warm_up(self) -> None:
        """One small untimed campaign, so lazy set-up is not timed."""
        out = tempfile.mkdtemp(dir=self.run_dir)
        try:
            self.experiments.reproduce_table(
                self.workload.table, self.masters[0], out,
                threads=self.workload.threads, samples=WARMUP_SAMPLES)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def setup_times(self) -> list[float]:
        cmd = [sys.executable, str(PROBE), str(self.workload.table),
               str(self.workload.samples)]
        times = []
        for i in range(SETUP_REPEATS + 1):
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=60, check=True)
            if i:  # the first one compiles bytecode and fills the file cache
                times.append(float(done.stdout.strip().splitlines()[-1]))
        return times

    # -- the two kinds of run ------------------------------------------------
    def timed(self, seconds: float) -> dict:
        setup = self.setup_times()
        say(f"setup_s per fresh process: {', '.join(f'{t:.4f}' for t in setup)}")
        self.warm_up()
        campaigns: list[Campaign] = []
        start = perf_counter()
        while True:
            c = self.campaign(self.masters[len(campaigns) % len(self.masters)])
            campaigns.append(c)
            say(f"campaign {len(campaigns)}: master seed {c.master}, "
                f"wall {c.wall_s:.4f} s, {c.records} records, outputs {c.outcome}")
            passed = [x.wall_s for x in campaigns if x.records]
            typical = statistics.median(passed) if passed else c.wall_s
            if (len(campaigns) >= MIN_CAMPAIGNS
                    and perf_counter() - start + typical > seconds):
                break
        ok = [c for c in campaigns if c.records] or campaigns
        walls = [c.wall_s for c in ok]
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "wall_s": statistics.median(walls),
            "samples_per_s": statistics.median(c.records / c.wall_s for c in ok),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_kb / 1024.0,
            "success_fraction": (self.attempted - self.failed) / self.attempted,
        }
        say(f"wall_s: median {metrics['wall_s']:.4f} s of {len(walls)} campaigns "
            f"(min {min(walls):.4f}, max {max(walls):.4f}) at {self.workload.samples} "
            f"samples per condition")
        say(f"failed_fraction: {self.failed}/{self.attempted} = "
            f"{self.failed / self.attempted:g}")
        return metrics

    def traced(self, seconds: float) -> dict:
        """Untraced and traced campaigns of the run's first master seed, in turn."""
        import layertrace
        self.warm_up()
        master = self.masters[0]
        untraced, traced, layer_runs = [], [], []
        start = perf_counter()
        while True:
            pair_start = perf_counter()
            untraced.append(self.campaign(master))
            tracer = layertrace.Tracer()
            c = self.campaign(master, tracer)
            traced.append(c)
            if c.records:
                layer_runs.append(layertrace.layer_metrics(tracer, c.wall_s))
            say(f"pair {len(traced)}: master seed {master}, untraced "
                f"{untraced[-1].wall_s:.4f} s ({untraced[-1].outcome}), traced "
                f"{c.wall_s:.4f} s ({c.outcome})")
            if perf_counter() - start + (perf_counter() - pair_start) > seconds:
                break
        if not layer_runs:
            return {name: 0.0 for name in layertrace.PER_LAYER_UNITS}
        for name in layertrace.EXACT_METRICS:
            values = {run[name] for run in layer_runs}
            if len(values) > 1:
                say(f"counter {name} differs between traced campaigns: {sorted(values)}")
                self.failed += 1
        metrics = layertrace.median_metrics(layer_runs)
        metrics["trace.overhead_s"] = (
            statistics.median(c.wall_s for c in traced if c.records)
            - statistics.median(c.wall_s for c in untraced))
        say(f"traced campaigns: {len(layer_runs)}; self-time coverage "
            f"{metrics['trace.coverage']:.4f} of traced wall_s; svm_train "
            f"{metrics['sensing.svm_train.wall_share']:.4f} of it")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="debrisense campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    workload = WORKLOADS[args.workload]
    say(f"perfbench workload={workload.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    say(f"workload: table {workload.table}, {workload.samples} samples per "
        f"condition, threads={workload.threads}; {workload.why}")
    say("machine " + json.dumps(machine_facts(), sort_keys=True))

    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=SCRATCH, prefix="run-"))
    try:
        bench = Bench(workload, args.seed, run_dir)
        if args.trace:
            import layertrace
            values, units = bench.traced(args.seconds), layertrace.PER_LAYER_UNITS
        else:
            values, units = bench.timed(args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only if no other run is using it
    for name, unit in units.items():
        say(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
