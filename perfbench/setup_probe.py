"""Set-up time of one campaign, measured in a fresh process.

Times importing debrisense from the checkout's ``src`` and building a
table's config and condition grid, then prints the seconds taken.  Nothing
but ``sys`` and ``time`` is imported before the clock starts.

    python3 perfbench/setup_probe.py TABLE SAMPLES
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402  (already loaded by the interpreter; not timed work)
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import debrisense  # noqa: E402,F401
from debrisense.experiments import enumerate_conditions, table_config  # noqa: E402

enumerate_conditions(table_config(int(sys.argv[1]), samples=int(sys.argv[2])))
print(repr(time.perf_counter() - _start))
