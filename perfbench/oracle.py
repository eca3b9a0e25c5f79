"""Output check: every run against the recursive engine on the same plan.

A job is ``(dataset, query payload, order, match_limit, time_limit,
timed_out)`` describing one run of the program.  Its expected outcome
comes from ``Matcher(..., enumerator="recursive")`` executing the same
query along the same order:

* a run that completed (solved, or stopped by the match limit) must give
  exactly the oracle's ``(num_matches, #enum)``; the oracle runs without
  a deadline, so it cannot stop early;
* a run that hit its deadline must be one the oracle cannot finish under
  the same deadline either (the oracle is the slower engine, so a query
  it completes in time was never too hard for the program).

The outcome also carries the ``#enum`` of RI's order on the query -- the
reference of ``enum_ratio_vs_ri`` -- and whether RI's run hit the
deadline, which costs nothing extra when the job's order is RI's.  The
recursive engine is several times slower than the shipped one, so the
check runs after the timed window, on up to two worker processes
(``python -m perfbench.oracle``, each waited for on every path out), and
its answers are cached per workload in the checkout's scratch directory.
The cache file is named after a digest of the program (its sources and
data graphs) and keyed by the job's content, so an answer is reused only
for identical inputs to identical code (the ``serve`` pool recurs across
seeds; ``#enum`` moves with any change to filtering or enumeration).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

from perfbench.measure import ROOT, child_env, log, work_dir

#: Jobs below this count run inline rather than paying worker start-up.
_INLINE_JOBS = 8


def job(dataset: str, query, order, match_limit, time_limit, timed_out: bool) -> tuple:
    """A hashable, picklable oracle job for one run of ``query`` along ``order``."""
    from repro.api.plan import graph_payload

    payload = graph_payload(query)
    return (
        dataset,
        json.dumps(payload, sort_keys=True),
        tuple(int(u) for u in order),
        match_limit,
        time_limit,
        bool(timed_out),
    )


def agrees(item: tuple, matches: int, steps: int, truth: tuple) -> bool:
    """Whether a program run (described by ``item``) matches the oracle."""
    want_matches, want_steps, oracle_timed_out = truth[:3]
    if item[5]:
        return oracle_timed_out
    return not oracle_timed_out and (matches, steps) == (want_matches, want_steps)


def _key(item: tuple) -> str:
    return hashlib.blake2b(json.dumps(item).encode(), digest_size=16).hexdigest()


def program_digest(root: Path = ROOT) -> str:
    """Digest of everything an oracle answer depends on: the program's
    sources, the data graphs and this module."""
    digest = hashlib.blake2b(digest_size=12)
    files = sorted((root / "src" / "repro").rglob("*.py"))
    files += sorted((root / "data").glob("*.graph"))
    files.append(root / "perfbench" / "oracle.py")
    for path in files:
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@lru_cache(maxsize=1)
def _current_digest() -> str:
    return program_digest()


class _Worker:
    """Recursive-engine matchers, one per (dataset, limits), built lazily."""

    def __init__(self) -> None:
        self.matchers: dict = {}

    def run(self, item: tuple) -> tuple[int, int, bool, int, bool]:
        """``(num_matches, #enum, timed_out, RI's #enum, RI timed out)``
        for one job."""
        from repro.api.plan import graph_from_payload

        dataset, payload, order, match_limit, time_limit, timed_out = item
        deadline = time_limit if timed_out else None
        matcher = self._matcher(dataset, match_limit, deadline)
        ri_plan = matcher.plan(graph_from_payload(json.loads(payload)))
        is_ri = tuple(ri_plan.order) == order
        result = matcher.execute(ri_plan if is_ri else ri_plan.with_order(order))
        ri = result.enumeration
        if not is_ri:
            # Under the program's own deadline: RI's order may be the one
            # that cannot finish, and the caller then leaves the pair out.
            ri = self._matcher(dataset, match_limit, time_limit).execute(
                ri_plan
            ).enumeration
        return (int(result.num_matches), int(result.num_enumerations),
                bool(result.enumeration.timed_out), int(ri.num_enumerations),
                bool(ri.timed_out))

    def _matcher(self, dataset, match_limit, time_limit):
        from repro.api.matcher import Matcher
        from repro.datasets.registry import dataset_stats, load_dataset

        slot = (dataset, match_limit, time_limit)
        if slot not in self.matchers:
            self.matchers[slot] = Matcher(
                load_dataset(dataset),
                enumerator="recursive",
                match_limit=match_limit,
                time_limit=time_limit,
                stats=dataset_stats(dataset),
            )
        return self.matchers[slot]


def _run_in_workers(todo: list[tuple]) -> list[tuple]:
    """Outcomes of ``todo`` from up to two worker processes, each given a
    share of the jobs on stdin; every worker has ended when this returns
    or raises."""
    count = min(2, os.cpu_count() or 1)
    # Largest queries first, dealt out in turn, so the workers finish together.
    order = sorted(range(len(todo)), key=lambda i: -len(todo[i][1]))
    shares = [order[k::count] for k in range(count)]
    procs = []
    try:
        for share in shares:
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.oracle"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
            )
            procs.append(proc)
            proc.stdin.write(json.dumps([todo[i] for i in share]).encode())
            proc.stdin.close()
        outcomes: list = [None] * len(todo)
        for proc, share in zip(procs, shares):
            answers = json.loads(proc.stdout.read())
            if proc.wait() != 0:
                raise RuntimeError(f"oracle worker exited with {proc.returncode}")
            for i, answer in zip(share, answers):
                outcomes[i] = tuple(answer)
        return outcomes
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


def expected(jobs, cache_name: str) -> dict[tuple, tuple[int, int, bool, int, bool]]:
    """Oracle outcomes for the distinct ``jobs``, via the workload's cache
    for the program as it is now."""
    path = work_dir() / f"oracle-{cache_name}-{_current_digest()}.json"
    cache: dict[str, list] = {}
    if path.exists():
        try:
            cache = json.loads(path.read_text())
        except (OSError, ValueError):
            cache = {}
    distinct = list(dict.fromkeys(jobs))
    todo = [item for item in distinct if _key(item) not in cache]
    if todo:
        log(f"oracle: {len(todo)} recursive runs ({len(distinct) - len(todo)} cached)")
        if len(todo) <= _INLINE_JOBS:
            worker = _Worker()
            outcomes = [worker.run(item) for item in todo]
        else:
            outcomes = _run_in_workers(todo)
        for item, outcome in zip(todo, outcomes):
            cache[_key(item)] = list(outcome)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache))
        tmp.replace(path)
    return {item: tuple(cache[_key(item)]) for item in distinct}


if __name__ == "__main__":
    # Worker: a JSON list of jobs on stdin, their outcomes on stdout.
    _worker = _Worker()
    _jobs = json.load(sys.stdin)
    json.dump([_worker.run((ds, payload, tuple(order), *rest))
               for ds, payload, order, *rest in _jobs], sys.stdout)
