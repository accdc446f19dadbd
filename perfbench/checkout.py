"""Where the checkout's source lives, and the facts about the machine a
result was measured on."""

from __future__ import annotations

import multiprocessing
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def use_checkout_source() -> None:
    """Import debrisense from this checkout's ``src``, never an installed copy.

    Exits with status 2 when the checkout holds no package source, so the
    benchmark cannot report a result for code it did not build.
    """
    if not (SRC / "debrisense" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC / 'debrisense'}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import debrisense
    if Path(debrisense.__file__).resolve().parent != (SRC / "debrisense").resolve():
        sys.stderr.write(f"perfbench: debrisense imported from {debrisense.__file__}, "
                         f"not from {SRC}\n")
        raise SystemExit(2)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unresolved ({ref})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def machine_facts() -> dict:
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "git_commit": _git_commit(),
    }
