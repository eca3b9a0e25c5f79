"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid|serve|train --seed N \\
        --seconds S --trace 0|1

Prints a human-readable report, then, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics,
recorded by wrapping each layer's public entry (see
:mod:`perfbench.tracing`), plus the tracing overhead.  Exits non-zero when
any output disagrees with the recursive oracle (``"correct": false``),
and without a result when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "1",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "enum_ratio_vs_ri": "1",
}
WORKLOADS = ("grid", "serve", "train")


def nominal(measured: dict, refs: list[float], names=None) -> dict:
    """End-to-end metrics on the nominal host: durations times
    ``REF_NOMINAL_S / median(refs)``, rates divided by it; with ``names``,
    only those metrics.

    A shared host's speed drifts by 10-35% within minutes, for a fixed
    Python loop as much as for the program; the program's time over the
    time of a reference loop sampled between its units of work stays
    steady (see ``perfbench/README.md``).
    """
    from perfbench.measure import REF_NOMINAL_S

    scale = REF_NOMINAL_S / median(refs)
    factor = {"s": scale, "1/s": 1.0 / scale}
    return {name: value * factor.get(END_TO_END.get(name), 1.0)
            if names is None or name in names else value
            for name, value in measured.items()}


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # A shell that starts this command in the background ignores SIGINT,
    # and its children would inherit that; the servers stop on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # Import the package as ``perfbench.*`` (never its modules by bare
    # name from the script's directory) and the program from ``src/``.
    here = Path(__file__).resolve().parent
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        p for p in sys.path if Path(p or ".").resolve() != here
    ]
    os.environ["REPRO_DATA_DIR"] = str(ROOT / "data")

    from importlib import import_module

    from perfbench.measure import MIN_BEYOND, beyond, supported

    workload = import_module(f"perfbench.{args.workload}")
    if args.trace:
        from perfbench.tracing import UNITS, report_lines

        outcome = workload.run_traced(args.seed, args.seconds)
        units = UNITS
        for line in report_lines(outcome["metrics"]):
            print(line)
    else:
        outcome = workload.run(args.seed, args.seconds)
        units = END_TO_END
        metrics = measured = outcome["metrics"]
        measured["ok_ratio"] = 1.0 - outcome["failed"] / outcome["attempted"]
        refs = outcome.get("refs")
        if refs:
            metrics = outcome["metrics"] = nominal(measured, refs, outcome.get("scaled"))
        n = outcome["latency_n"]
        for name, unit in END_TO_END.items():
            note = ""
            if metrics[name] != measured[name]:
                note = f"  (measured {measured[name]:.6g})"
            if name in ("latency_p50_s", "latency_p90_s"):
                q = 0.5 if name.endswith("p50_s") else 0.9
                note += f"  (n={n}, beyond={beyond(n, q)})"
                if not supported(n, q):
                    note += f" UNSUPPORTED: fewer than {MIN_BEYOND} samples beyond"
            print(f"{name} = {metrics[name]:.6g} {unit}{note}")
        if refs:
            scaled = ", ".join(outcome.get("scaled", ())) or "times"
            print(f"host reference loop: median {median(refs):.6f} s over "
                  f"{len(refs)} samples; {scaled} scaled to the nominal host")
        for line in outcome.get("notes", ()):
            print(line)
    wrong = outcome["wrong"]
    print(f"attempted={outcome['attempted']} failed={outcome['failed']} wrong={wrong}")
    result = {
        "correct": wrong == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(outcome["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    if wrong:
        print(f"perfbench: {wrong} output(s) disagree with the recursive oracle",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
