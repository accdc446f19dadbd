"""The benchmark's campaign workloads and the inputs a run draws for them.

Each workload is one headline table run through ``reproduce_table`` at a
fixed number of samples per condition and a fixed worker count.  The sizes
keep the layer each workload is meant to stress heavy: path building on
table 2, ZF at Nt=64 on table 3 and the SVM tail (above 15% of wall time)
on table 1 with two workers.

A campaign's cost depends on its master seed through the debris paths its
scenes activate (on table 3, 2.9k to 5.3k paths per campaign across the
corpus), most on tables 2 and 3, whose few scenes are shared across SNRs
and frequencies.  So a run does not time one master seed: it times several
campaigns whose master seeds come from a small fixed corpus per workload,
in an order drawn from the run's ``--seed``, and one run covers most of the
corpus.  Every corpus seed has a reference snapshot under ``reference/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 7  # the seed of the roadmap's golden digests
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    table: int
    samples: int   # samples per condition
    threads: int   # worker processes passed to reproduce_table
    corpus: int    # master seeds 0 .. corpus-1 have references
    why: str

    def reference_path(self, master_seed: int) -> Path:
        return REFERENCE_DIR / self.name / f"master{master_seed}.json.gz"

    def master_seeds(self, seed: int) -> list[int]:
        """Master seeds of a run's campaigns, in the order they run.

        The first is ``seed`` modulo the corpus size (so the default seed 7
        runs the golden-digest seed first); the rest of the corpus follows
        in an order drawn from ``seed``.
        """
        first = seed % self.corpus
        rest = [s for s in range(self.corpus) if s != first]
        random.Random(seed).shuffle(rest)
        return [first] + rest


WORKLOADS = {w.name: w for w in (
    Workload("t2-snr-serial", table=2, samples=30, threads=1, corpus=12,
             why="table 2 serial: path building is heaviest and 3 of 4 "
                 "channels repeat across the SNR sweep"),
    Workload("t3-mimo-serial", table=3, samples=20, threads=1, corpus=8,
             why="table 3 serial: ZF/SVD at Nt=64 is heaviest and no channel "
                 "is shared across conditions"),
    Workload("t1-density-pool2", table=1, samples=80, threads=2, corpus=8,
             why="table 1 with a 2-worker process pool: the only pooled "
                 "workload, with the largest serial SVM train/predict tail"),
)}
