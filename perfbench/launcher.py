"""Traced server: ``python -m perfbench.launcher SPANS_PATH [server args...]``.

Installs the span wrappers of :mod:`perfbench.tracing`, runs
``repro.server.cli.main`` with the remaining arguments, and after the
server stops on SIGINT writes every span (plus the plan-cache eviction
count) to ``SPANS_PATH`` as JSON.
"""

from __future__ import annotations

import json
import sys

from perfbench.tracing import Recorder, install


def main(argv: list[str]) -> int:
    spans_path, server_args = argv[0], argv[1:]
    import repro.server.cli as cli

    rec = Recorder()
    patches = install(rec)
    try:
        code = cli.main(server_args)
    finally:
        patches.undo()
        evictions = sum(cache.stats().evictions for cache in rec.caches.values())
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": [span.to_row() for span in rec.spans],
                 "evictions": evictions},
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
