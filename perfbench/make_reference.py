"""Rebuild the reference snapshots of every workload's master-seed corpus.

Every reference is built through the serial path (``threads=1``), so a
pooled workload's timed runs also check that outputs do not depend on the
worker count.  Rebuild only when the workloads change or a change to the
program is meant to change its outputs, and say why in CHANGES.md.

Run from the repository root (takes several minutes):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile

from checkout import SCRATCH, use_checkout_source
from outputcheck import snapshot, write_snapshot
from workloads import WORKLOADS


def main() -> int:
    use_checkout_source()
    from debrisense import experiments

    SCRATCH.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        for master in range(workload.corpus):
            out = tempfile.mkdtemp(dir=SCRATCH)
            try:
                experiments.reproduce_table(workload.table, master, out, threads=1,
                                            samples=workload.samples)
                write_snapshot(snapshot(out), workload.reference_path(master))
            finally:
                shutil.rmtree(out)
            print(f"{workload.name} master {master}: {workload.reference_path(master)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
