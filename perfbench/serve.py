"""``serve``: the HTTP server under an open-loop schedule of warm and cold requests.

Server: ``repro.server.cli --datasets citeseer,yeast --plan-store <file>``
in a subprocess, on its default execution path.  Client: this process,
two threads with one keep-alive connection each.  Nine requests in ten
are fresh random relabelings of a warmed pool (the eval queries
Q4/Q8/Q16 of both datasets), so each is canonicalized and hits the plan
cache; the other tenth are queries (Q4/Q8) the server has not seen, so
each plans cold and writes through to the cache and the sqlite store.

An untraced run measures the ``unloaded`` leg (closed loop, one
connection: latency without queueing) and short closed-loop
``saturation`` legs (two connections: capacity).  A traced run adds the
open-loop ``light`` and ``heavy`` legs at fixed Poisson rates below the
knee, timed from each request's due time; see :data:`LEGS`.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from math import ceil
from statistics import median

import numpy as np

from perfbench import oracle, openloop
from perfbench.measure import (
    REF_SAMPLES, child_env, host_ref_s, log, nearest_rank, process_peak_rss_mb,
    reference_s, work_dir,
)

DATASETS = ("citeseer", "yeast")
POOL_SIZES = (4, 8, 16)
POOL_PER_CELL = 8
#: The warmed pool is the fixed Table III eval split (workload seed 0)
#: and the unseen queries come from workload seed 1: a deployment's
#: steady working set plus newcomers.  The run seed draws the traffic --
#: arrival times, which pool query each request relabels and how, and
#: where the unseen queries arrive.
POOL_SEED = 0
MISS_SEED = 1
#: Unseen queries are small: a miss costs a cold plan and a short search.
MISS_SIZES = (4, 8)
MATCH_LIMIT = 10_000
TIME_LIMIT = 30.0
MISS_SHARE = 0.1
#: Legs: name -> (open-loop Poisson rate in req/s, or ``None`` for a
#: closed loop; client connections; share of ``--seconds``).  A closed
#: leg is sized at :data:`CLOSED_RATE` for its connection count.
#:
#: * ``unloaded`` -- one connection, closed loop: every request is sent
#:   when the previous one is answered, so none queues.  Its latencies
#:   are the end-to-end ``latency_p50_s`` and ``latency_p90_s``.
#: * ``saturation-<i>`` -- two connections, closed loop; the median of
#:   their completion rates is ``throughput_per_s`` (one leg of a few
#:   seconds moved by 20% between runs).  The server's core is busy
#:   throughout these legs, so their rate follows the host's speed:
#:   reference-loop samples between them put it on the nominal host.
#:   The unloaded latencies stay as measured -- they are mostly HTTP
#:   edge and thread wake-ups, which the loop does not track.
#: * ``light`` and ``heavy`` -- open-loop Poisson legs at about a fifth
#:   and two thirds of the saturation throughput, run traced.  On a
#:   shared VM an open leg at 10 req/s leaves the cores idle between
#:   requests, and waking them costs milliseconds that vary from run to
#:   run: the same requests read p50 12-17 ms and p90 45-74 ms there,
#:   against 6.4-7.6 ms and 26.5-27.8 ms unloaded.
SATURATION_REPS = 5
LEGS = {
    "unloaded": (None, 1, 0.4),
    **{f"saturation-{i}": (None, 2, 0.5 / SATURATION_REPS) for i in range(SATURATION_REPS)},
    "light": (10.0, 2, 0.8),
    "heavy": (30.0, 2, 0.4),
}
CLOSED_RATE = {1: 50.0, 2: 45.0}
SETUP_REPS = 3


class Server:
    """One server subprocess (plain CLI, or the traced launcher)."""

    def __init__(self, tag: str, traced: bool):
        work = work_dir()
        self.store = work / f"plans-{tag}.sqlite"
        self.spans_path = work / f"spans-{tag}.json"
        for path in (self.store, self.spans_path):
            path.unlink(missing_ok=True)
        args = ["--datasets", ",".join(DATASETS), "--port", "0",
                "--plan-store", str(self.store)]
        if traced:
            cmd = [sys.executable, "-m", "perfbench.launcher", str(self.spans_path), *args]
        else:
            cmd = [sys.executable, "-m", "repro.server.cli", *args]
        self.log = open(work / f"server-{tag}.log", "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, env=child_env(),
            cwd=str(work.parent),
        )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited before announcing its port (log: {self.log.name})"
                )
            self.port = int(json.loads(line)["listening"]["port"])
            self._await_healthy()
        except BaseException:
            self.stop()
            raise

    def _await_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        url = f"http://127.0.0.1:{self.port}/healthz"
        while time.perf_counter() < deadline:
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    if json.loads(response.read()).get("status") == "ok":
                        return
            except (OSError, urllib.error.URLError, ValueError):
                pass
            time.sleep(0.02)
        raise RuntimeError("server did not become healthy")

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(15)
            except subprocess.TimeoutExpired:
                log(f"serve: server {self.proc.pid} ignored SIGINT; killed")
                self.proc.kill()
                self.proc.wait(15)
        self.proc.stdout.close()
        self.log.close()
        for path in self.store.parent.glob(self.store.name + "*"):
            path.unlink()  # the store and its WAL side files

    def spans(self):
        from perfbench.tracing import Span

        payload = json.loads(self.spans_path.read_text())
        return [Span.from_row(row) for row in payload["spans"]], payload["evictions"]


class Inputs:
    """Every request of a run, generated from the seed before any timing."""

    def __init__(self, seed: int, seconds: float):
        from repro.datasets.registry import load_dataset
        from repro.datasets.workloads import query_workload
        from repro.graphs.canonical import canonical_fingerprint, relabel_graph

        rng = np.random.default_rng(seed)
        self.sent: dict[str, tuple[str, object]] = {}
        pool = []
        for ds in DATASETS:
            for size in POOL_SIZES:
                workload = query_workload(ds, size, count=2 * POOL_PER_CELL,
                                          seed=POOL_SEED, data=load_dataset(ds))
                pool.extend((ds, q) for q in workload.eval)
        schedules = {}
        for leg, (rate, connections, share) in LEGS.items():
            # Whole passes over the pool plus the unseen share, so every
            # seed sends the same requests; only order and timing differ.
            target = (rate or CLOSED_RATE[connections]) * share * seconds
            passes = max(1, round(target * (1 - MISS_SHARE) / len(pool)))
            n_hit = passes * len(pool)
            n_miss = round(n_hit * MISS_SHARE / (1 - MISS_SHARE))
            n = n_hit + n_miss
            if rate is None:
                offsets = [None] * n
            else:
                offsets = openloop.poisson_arrivals(rate, n, rng)
            miss = rng.permutation(np.arange(n) < n_miss)
            hits = np.concatenate([rng.permutation(len(pool)) for _ in range(passes)])
            schedules[leg] = (offsets, miss, hits)
        wanted = sum(int(miss.sum()) for _, miss, _ in schedules.values())
        misses = self._misses(
            8 * ceil(seconds) + 16, {canonical_fingerprint(q) for _, q in pool},
            load_dataset, query_workload, canonical_fingerprint,
        )
        if len(misses) < wanted:
            raise RuntimeError(f"only {len(misses)} unseen queries for {wanted} misses")
        # Handed out in their fixed order, so each leg gets the same
        # unseen queries whatever the seed; the seed places them.
        misses.reverse()
        self.legs: dict[str, list[tuple[str, float | None, bytes]]] = {}
        for leg, (offsets, miss, hits) in schedules.items():
            requests, next_hit = [], iter(hits)
            for i, offset in enumerate(offsets):
                tag = f"{leg}-{i}"
                if miss[i]:
                    ds, query = misses.pop()
                else:
                    ds, base = pool[next(next_hit)]
                    query = relabel_graph(base, rng.permutation(base.num_vertices))
                requests.append((tag, offset, self._body(tag, ds, query)))
            self.legs[leg] = requests
        self.warm = [
            (f"warm-{i}", 0.0, self._body(f"warm-{i}", ds, q))
            for i, (ds, q) in enumerate(pool)
        ]

    @staticmethod
    def _misses(count, seen, load_dataset, query_workload, fingerprint):
        """Queries of workload seed :data:`MISS_SEED` (``count`` per dataset
        and size, interleaved) of no class in ``seen`` nor repeated."""
        cells = [
            [(ds, q) for q in query_workload(ds, size, count=count, seed=MISS_SEED,
                                             data=load_dataset(ds)).all_queries]
            for ds in DATASETS
            for size in MISS_SIZES
        ]
        misses, classes = [], set(seen)
        for row in zip(*cells):
            for ds, q in row:
                fp = fingerprint(q)
                if fp not in classes:
                    classes.add(fp)
                    misses.append((ds, q))
        return misses

    def _body(self, tag: str, ds: str, query) -> bytes:
        from repro.service.requests import MatchRequest

        self.sent[tag] = (ds, query)
        request = MatchRequest(ds, query, match_limit=MATCH_LIMIT,
                               time_limit=TIME_LIMIT, tag=tag)
        return json.dumps(request.to_dict()).encode()


def _session(name: str, traced: bool, inputs: Inputs):
    """Start a server and run the warm pass; returns (server, samples, seconds)."""
    t0 = time.perf_counter()
    server = Server(name, traced)
    try:
        warm = openloop.run_leg(server.port, inputs.warm)
    except BaseException:
        server.stop()
        raise
    return server, warm, time.perf_counter() - t0


def _run_legs(server: Server, inputs: Inputs, legs) -> dict:
    """Run ``legs`` in turn."""
    results = {}
    for leg in legs:
        results[leg] = openloop.run_leg(server.port, inputs.legs[leg],
                                        connections=LEGS[leg][1])
        log(f"serve: {leg} leg sent {len(results[leg])}")
    return results


def _throughput(samples) -> float:
    """Completions per second over a closed-loop leg."""
    start = min(s.sent for s in samples)
    end = max(s.done for s in samples)
    return sum(s.status == 200 for s in samples) / (end - start)


def _check(inputs: Inputs, samples) -> tuple[int, int, int, int]:
    """Oracle-check every response; returns (failed, wrong, enum, ri_enum).

    A failure is an error, a non-200 status or a timed-out search; a
    wrong output is an answer that disagrees with the oracle (also a
    failure).
    """
    from repro.graphs.canonical import canonical_form

    answered, jobs = [], []
    failed = wrong = 0
    for sample in samples:
        payload = None
        if sample.status == 200:
            try:
                payload = json.loads(sample.body)
            except ValueError:
                payload = None
        if payload is None or payload.get("timed_out"):
            log(f"serve: {sample.tag} failed: status {sample.status} {sample.error}")
            failed += 1
            continue
        ds, query = inputs.sent[sample.tag]
        cform = canonical_form(query)
        order = [cform.mapping[u] for u in payload["order"]]
        item = oracle.job(ds, cform.graph, order, MATCH_LIMIT, TIME_LIMIT, False)
        answered.append((sample, payload, item))
        jobs.append(item)
    truth = oracle.expected(jobs, "serve")
    enum = ri_enum = 0
    for sample, payload, item in answered:
        matches, steps = payload["num_matches"], payload["num_enumerations"]
        if not oracle.agrees(item, matches, steps, truth[item]):
            log(f"serve: WRONG OUTPUT for {sample.tag}: {matches}/{steps} "
                f"vs oracle {truth[item]}")
            wrong += 1
        elif not truth[item][4]:
            enum += steps
            ri_enum += truth[item][3]
    return failed + wrong, wrong, enum, ri_enum


def run(seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    inputs = Inputs(seed, seconds)
    setups = []
    for rep in range(SETUP_REPS):
        server, warm, setup = _session(f"{seed}-{rep}", False, inputs)
        setups.append(setup)
        if rep < SETUP_REPS - 1:
            server.stop()
    saturation = [f"saturation-{i}" for i in range(SATURATION_REPS)]
    refs = []
    try:
        results = _run_legs(server, inputs, ("unloaded",))
        for leg in saturation:
            refs.extend(reference_s() for _ in range(REF_SAMPLES))
            results.update(_run_legs(server, inputs, (leg,)))
        refs.extend(reference_s() for _ in range(REF_SAMPLES))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    samples = warm + [s for leg in results.values() for s in leg]
    failed, wrong, enum, ri_enum = _check(inputs, samples)
    unloaded = sorted(s.latency for s in results["unloaded"])
    notes = [f"unloaded leg: {len(unloaded)} requests, closed loop, one connection",
             f"saturation: {SATURATION_REPS} closed-loop legs of "
             f"{len(results[saturation[0]])} requests, two connections"]
    return {
        "attempted": len(samples),
        "failed": failed,
        "wrong": wrong,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "throughput_per_s": median(_throughput(results[leg]) for leg in saturation),
            "latency_p50_s": nearest_rank(unloaded, 0.5),
            "latency_p90_s": nearest_rank(unloaded, 0.9),
            "enum_ratio_vs_ri": enum / ri_enum,
        },
        "latency_n": len(unloaded),
        "notes": notes,
        "refs": refs,
        "scaled": ("throughput_per_s",),
    }


def _percentile(samples, q: float, attr: str = "latency") -> float:
    return nearest_rank(sorted(getattr(s, attr) for s in samples), q)


def run_traced(seed: int, seconds: float) -> dict:
    """Traced run: the unloaded leg against a plain server, then the
    unloaded, light and heavy legs against the traced launcher; per-layer
    metrics.  The unloaded p50 traced over untraced is the tracing
    overhead."""
    from perfbench.tracing import http_split, layer_metrics

    inputs = Inputs(seed, seconds)
    server, _, _ = _session(f"{seed}-plain", False, inputs)
    try:
        plain = _run_legs(server, inputs, ("unloaded",))["unloaded"]
    finally:
        server.stop()
    server, warm, _ = _session(f"{seed}-traced", True, inputs)
    window = time.perf_counter()
    try:
        results = _run_legs(server, inputs, ("unloaded", "light", "heavy"))
    finally:
        server.stop()
    spans, evictions = server.spans()
    spans = [s for s in spans if s.t0 >= window]
    legs = [s for leg in results.values() for s in leg]
    failed, wrong, _, _ = _check(inputs, warm + legs)
    light, heavy = results["light"], results["heavy"]
    extra = {
        "service.cache.evictions": evictions,
        "client.light.lateness_s": _percentile(light, 0.9, "lateness"),
        "client.heavy.lateness_s": _percentile(heavy, 0.9, "lateness"),
        "client.light.latency_p50_s": _percentile(light, 0.5),
        "client.light.latency_p90_s": _percentile(light, 0.9),
        "client.heavy.latency_p50_s": _percentile(heavy, 0.5),
        "client.heavy.latency_p90_s": _percentile(heavy, 0.9),
        "client.light.backlog": int(openloop.backlogged(light)),
        "client.heavy.backlog": int(openloop.backlogged(heavy)),
        "client.sent": len(legs),
        "client.ok": sum(s.status == 200 for s in legs),
        "trace.overhead_ratio": (_percentile(results["unloaded"], 0.5)
                                 / _percentile(plain, 0.5)),
        "host.ref_s": host_ref_s(),
        **http_split(spans, {s.tag: (s.sent, s.done) for s in legs}),
    }
    return {
        "attempted": len(warm) + len(legs),
        "failed": failed,
        "wrong": wrong,
        "metrics": layer_metrics(spans, extra),
    }
