"""Statistics and process helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

#: A percentile is reported only when at least this many samples lie
#: beyond it, so a tail figure never rests on one or two outliers.
MIN_BEYOND = 10

#: Iterations of the host-speed reference loop (about 11 ms).
REF_LOOPS = 100_000
#: The reference loop's median time on the nominal host (a 2-vCPU VM,
#: CPython 3.11); ``grid`` and ``train`` report times as they would read
#: there.
REF_NOMINAL_S = 0.011
#: Reference-loop samples behind ``serve``'s ``host.ref_s``.
REF_SAMPLES = 9

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile's rank."""
    return n - max(1, math.ceil(q * n - 1e-9))


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_BEYOND` beyond ``q``."""
    return n > 0 and beyond(n, q) >= MIN_BEYOND


def reference_s() -> float:
    """Time of one run of a fixed pure-Python loop that uses no program code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_ref_s() -> float:
    """Median of :data:`REF_SAMPLES` reference-loop times: a reading of
    the host's speed, printed beside raw per-layer times so runs on a
    faster or slower host can be told apart."""
    return median(reference_s() for _ in range(REF_SAMPLES))


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of another live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def work_dir() -> Path:
    """Scratch directory inside the checkout (ignored by git)."""
    WORK.mkdir(exist_ok=True)
    return WORK


def child_env() -> dict[str, str]:
    """Environment for subprocesses: the in-tree package and data."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_DATA_DIR"] = str(ROOT / "data")
    return env


def log(message: str) -> None:
    """Progress output; stdout is reserved for the report."""
    print(message, file=sys.stderr, flush=True)
