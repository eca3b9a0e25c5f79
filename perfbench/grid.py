"""``grid``: library use over the Table III grid, closed loop, one caller.

``Matcher(data)`` with the shipped defaults (``gql`` filter, ``ri``
orderer, ``iterative`` enumerator, ``match_limit=10**5``, no plan cache)
plans and executes the eval queries of sizes 4/8/16/32 on citeseer,
yeast, dblp and youtube.  Every query is new to the matcher, so Phase (1)
(filter and candidate space) and Phase (3) (enumeration) do all the work.
wordnet has no Q32, and single eu2005 Q32 queries take seconds each, so
both are left out.

The one departure from the defaults is the deadline: the shipped 500 s
(the paper's) becomes :data:`TIME_LIMIT`, a guard that keeps a run within
its time if a change makes some query search much longer.  The slowest
query of the set (a yeast Q32) takes about 1.2 s on 2 cores.  A query
that hits the deadline counts as a failure and is left out of
``enum_ratio_vs_ri``.

The queries are the Table III eval split of workload seed 0 (8 per
cell, 128 in all), like the paper's fixed query sets; the run seed draws
the order they are sent in: round-robin over the 16 cells, the cell order
and each cell's query order reshuffled from the seed.  The timed window
is a fixed number of whole passes over the set (:data:`PASS_SECONDS`),
so every run does the same work and its figures do not depend on which
queries a cut-off window happened to reach.  A reference-loop sample
before each query (outside its timing) lets the times be reported on the
nominal host.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from perfbench import oracle
from perfbench.measure import log, nearest_rank, peak_rss_mb, reference_s
from perfbench.tracing import DATASETS, SIZES

PER_CELL = 8
QUERY_SEED = 0
SETUP_REPS = 9
MATCH_LIMIT = 100_000
TIME_LIMIT = 5.0
#: About how long one pass over the set takes on 2 cores: a run makes
#: ``round(--seconds / PASS_SECONDS)`` passes (at least one), a fixed
#: amount of work whatever the program's speed.
PASS_SECONDS = 20


def _setup():
    """Load the four data graphs and build ``GraphStats`` and a ``Matcher``."""
    from repro.api.matcher import Matcher
    from repro.datasets.registry import clear_cache, load_dataset
    from repro.graphs.stats import GraphStats

    clear_cache()
    matchers = {}
    for ds in DATASETS:
        data = load_dataset(ds)
        matchers[ds] = Matcher(data, stats=GraphStats(data), time_limit=TIME_LIMIT)
    return matchers


def _queries(seed: int, matchers) -> list[tuple[str, int, object]]:
    from repro.datasets.workloads import query_workload

    cells = {
        (ds, size): query_workload(ds, size, count=2 * PER_CELL, seed=QUERY_SEED,
                                   data=matchers[ds].data).eval
        for ds in DATASETS
        for size in SIZES
    }
    rng = np.random.default_rng(seed)
    keys = list(cells)
    within = {key: rng.permutation(PER_CELL) for key in keys}
    ordered = []
    for k in range(PER_CELL):
        for i in rng.permutation(len(keys)):
            ds, size = keys[i]
            ordered.append((ds, size, cells[(ds, size)][within[keys[i]][k]]))
    return ordered


def _execute(matchers, queries, passes: int, refs: list, rec=None) -> tuple[list, float]:
    """Plan and execute ``passes`` whole passes over ``queries``, with a
    reference-loop sample appended to ``refs`` before each query.  Returns
    per-query records and the time spent in the queries."""
    records = []
    elapsed = 0.0
    for _ in range(passes):
        for ds, size, query in queries:
            refs.append(reference_s())
            matcher = matchers[ds]
            if rec is not None:
                rec.set_tag(f"{ds}/q{size}/{len(records)}")
            t0 = time.perf_counter()
            plan = matcher.plan(query)
            t1 = time.perf_counter()
            result = matcher.execute(plan)
            t2 = time.perf_counter()
            elapsed += t2 - t0
            outcome = result.enumeration
            records.append((ds, size, query, plan.order, t1 - t0, t2 - t1,
                            outcome.num_matches, outcome.num_enumerations,
                            outcome.timed_out))
    return records, elapsed


def _check(records) -> tuple[int, int, int, int]:
    """Oracle-check every executed query; returns (failed, wrong, enum,
    ri_enum), the ``#enum`` sums over the queries both the shipped order
    and RI's solve.

    A query that hit the deadline fails; it is also wrong when the
    (slower) oracle finishes it within the same deadline.
    """
    items = [oracle.job(ds, q, order, MATCH_LIMIT, TIME_LIMIT, timed_out)
             for ds, _, q, order, _, _, _, _, timed_out in records]
    truth = oracle.expected(items, "grid")
    failed = wrong = enum = ri_enum = 0
    for item, (ds, size, *_, matches, steps, timed_out) in zip(items, records):
        if not oracle.agrees(item, matches, steps, truth[item]):
            log(f"grid: WRONG OUTPUT on {ds} Q{size}: {matches}/{steps} "
                f"(timed out: {timed_out}) vs oracle {truth[item]}")
            wrong += 1
        elif timed_out:
            log(f"grid: {ds} Q{size} hit the {TIME_LIMIT} s deadline")
            failed += 1
        elif not truth[item][4]:
            enum += steps
            ri_enum += truth[item][3]
    return failed + wrong, wrong, enum, ri_enum


def run(seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        matchers = _setup()
        setups.append(time.perf_counter() - t0)
    queries = _queries(seed, matchers)
    passes = max(1, round(seconds / PASS_SECONDS))
    refs = []
    records, elapsed = _execute(matchers, queries, passes, refs)
    rss = peak_rss_mb()
    failed, wrong, enum, ri_enum = _check(records)
    latency = sorted(r[4] + r[5] for r in records)
    return {
        "attempted": len(records),
        "failed": failed,
        "wrong": wrong,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "throughput_per_s": len(records) / elapsed,
            "latency_p50_s": nearest_rank(latency, 0.5),
            "latency_p90_s": nearest_rank(latency, 0.9),
            "enum_ratio_vs_ri": enum / ri_enum,
        },
        "latency_n": len(latency),
        "refs": refs,
    }


def run_traced(seed: int, seconds: float) -> dict:
    """Traced run: a warm-up pass, one pass untraced, then the same pass
    traced; per-layer metrics and the tracing overhead."""
    from perfbench.tracing import Recorder, install, layer_metrics

    matchers = _setup()
    queries = _queries(seed, matchers)
    refs = []
    _execute(matchers, queries, 1, refs)  # warm the lazily built graph views
    _, plain_s = _execute(matchers, queries, 1, refs)
    rec = Recorder()
    patches = install(rec)
    try:
        records, traced_s = _execute(matchers, queries, 1, refs, rec)
    finally:
        patches.undo()
    failed, wrong, _, _ = _check(records)
    extra = {"trace.overhead_ratio": traced_s / plain_s, "host.ref_s": median(refs)}
    for ds, size, _, _, plan_s, enum_s, *_ in records:
        for part, value in (("plan_s", plan_s), ("enum_s", enum_s)):
            name = f"grid.{ds}.q{size}.{part}"
            extra[name] = extra.get(name, 0.0) + value
    return {
        "attempted": len(records),
        "failed": failed,
        "wrong": wrong,
        "metrics": layer_metrics(rec.spans, extra),
    }
