"""``train``: PPO training of the RL-QVO policy on citeseer Q8.

``RLQVOTrainer`` with the training CLI's defaults (GCN 2x64, PPO, 2
rollouts per query, ``train_match_limit=2000``, 1 s rollout deadline)
trains on the train split of the CLI's default 12-query workload
(workload seed 0, fixed like the paper's query sets) for a fixed number
of epochs, one ``train(..., epochs=1)`` call per epoch, then the greedy
learned order is compared with RI on the eval split under the paper's
match cap (10^5) and the grid's deadline; an eval run that hits the
deadline counts as a failure.

A run trains :data:`TRAINERS` independently seeded trainers (seeds drawn
from the run seed: initial weights, order sampling and dropout) one after
the other.  What a rollout costs depends on the orders the policy
samples, so one trainer's speed follows its own trajectory (its
rollouts/s moved by 20% between run seeds); the total over several
trajectories is steady.  A reference-loop sample before each epoch
(outside its timing) lets the times be reported on the nominal host.

This is the only workload that runs ``repro.nn``, ``repro.rl`` and
``repro.core``: a GNN forward per ordering step, then the PPO backward
pass and optimiser step, around many short capped enumerations.
"""

from __future__ import annotations

import time
from statistics import median

from perfbench import oracle
from perfbench.grid import TIME_LIMIT as EVAL_TIME_LIMIT
from perfbench.measure import log, nearest_rank, peak_rss_mb, reference_s

DATASET = "citeseer"
SIZE = 8
QUERIES = 12
QUERY_SEED = 0
#: Epochs per second of ``--seconds``, shared by the trainers: a fixed
#: amount of training per run (about ``--seconds`` of wall time on 2
#: cores), so the learned orders -- and ``enum_ratio_vs_ri`` -- do not
#: depend on speed.  At ``--seconds 20`` that is 100 epochs, enough for a
#: p90 of epoch time.
EPOCHS_PER_SECOND = 5
TRAINERS = 4
#: Set-up is about 20 ms, so it is repeated many times to steady its
#: median (the first :data:`TRAINERS` set-ups are the trainers).
SETUP_REPS = 24
#: Eval under the paper's match cap (and the grid's deadline).
EVAL_MATCH_LIMIT = 100_000


def _setup(seed: int):
    """Load the data graph and build ``GraphStats`` and the trainer."""
    from repro.core.config import RLQVOConfig
    from repro.core.trainer import RLQVOTrainer
    from repro.datasets.registry import clear_cache, load_dataset
    from repro.graphs.stats import GraphStats

    clear_cache()
    data = load_dataset(DATASET)
    config = RLQVOConfig(
        rollouts_per_query=2,
        train_match_limit=2000,
        train_time_limit=1.0,
        seed=seed,
    )
    return RLQVOTrainer(data, config, stats=GraphStats(data))


def _workload(trainer):
    from repro.datasets.workloads import query_workload

    return query_workload(DATASET, SIZE, count=QUERIES, seed=QUERY_SEED,
                          data=trainer.data)


def _train(trainer, queries, epochs: int, refs: list) -> tuple[list[float], int]:
    """Train epoch by epoch, with a reference-loop sample appended to
    ``refs`` before each; returns each epoch's wall time and the rollouts
    scored."""
    times, rollouts = [], 0
    for _ in range(epochs):
        refs.append(reference_s())
        t0 = time.perf_counter()
        history = trainer.train(queries, epochs=1)
        times.append(time.perf_counter() - t0)
        rollouts += history.epochs[0].queries_used
    return times, rollouts


def _evaluate(trainers, eval_queries) -> tuple[int, int, int, int, int]:
    """Each trainer's greedy learned order vs RI on the eval split,
    oracle-checked.

    Returns (runs, failed, wrong, learned #enum, RI #enum), the sums over
    the (trainer, query) pairs both orders solve within
    :data:`EVAL_TIME_LIMIT`.  A run that hit the deadline fails; it is
    also wrong when the (slower) oracle finishes it in the same time.
    """
    from repro.api.matcher import Matcher

    def outcome(matcher, query):
        plan = matcher.plan(query)
        result = matcher.execute(plan).enumeration
        item = oracle.job(DATASET, query, plan.order, EVAL_MATCH_LIMIT,
                          EVAL_TIME_LIMIT, result.timed_out)
        return item, result

    first = trainers[0]
    ri = Matcher(first.data, stats=first.stats, time_limit=EVAL_TIME_LIMIT)
    ri_runs = [outcome(ri, query) for query in eval_queries]
    learned_runs = []
    for trainer in trainers:
        learned = Matcher(trainer.data, orderer=trainer.make_orderer(),
                          stats=trainer.stats, time_limit=EVAL_TIME_LIMIT)
        learned_runs.extend(zip((outcome(learned, q) for q in eval_queries), ri_runs))
    runs = ri_runs + [run for run, _ in learned_runs]
    truth = oracle.expected([item for item, _ in runs], "train")
    failed = wrong = 0
    for item, result in runs:
        if not oracle.agrees(item, result.num_matches, result.num_enumerations,
                             truth[item]):
            log(f"train: WRONG OUTPUT: {result.num_matches}/"
                f"{result.num_enumerations} vs oracle {truth[item]}")
            wrong += 1
        elif result.timed_out:
            log(f"train: an eval run hit the {EVAL_TIME_LIMIT} s deadline")
            failed += 1
    learned_enum = ri_enum = 0
    for (_, result), (_, ri_result) in learned_runs:
        if not (result.timed_out or ri_result.timed_out):
            learned_enum += result.num_enumerations
            ri_enum += ri_result.num_enumerations
    return len(runs), failed + wrong, wrong, learned_enum, ri_enum


def run(seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    setups, trainers = [], []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        trainer = _setup(seed * TRAINERS + rep % TRAINERS)
        setups.append(time.perf_counter() - t0)
        if rep < TRAINERS:
            trainers.append(trainer)
    workload = _workload(trainers[0])
    epochs = max(1, round(seconds * EPOCHS_PER_SECOND / TRAINERS))
    times, rollouts, refs = [], 0, []
    for trainer in trainers:
        trainer_times, trainer_rollouts = _train(trainer, list(workload.train),
                                                 epochs, refs)
        times += trainer_times
        rollouts += trainer_rollouts
    rss = peak_rss_mb()
    attempted, failed, wrong, learned_enum, ri_enum = _evaluate(trainers, workload.eval)
    ordered = sorted(times)
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "throughput_per_s": rollouts / sum(times),
            "latency_p50_s": nearest_rank(ordered, 0.5),
            "latency_p90_s": nearest_rank(ordered, 0.9),
            "enum_ratio_vs_ri": learned_enum / ri_enum,
        },
        "latency_n": len(times),
        "refs": refs,
    }


def run_traced(seed: int, seconds: float) -> dict:
    """Traced run: half the epochs on one untraced trainer, then the same
    epochs on an identically seeded traced one."""
    from perfbench.tracing import Recorder, install, layer_metrics

    epochs = max(1, round(seconds * EPOCHS_PER_SECOND / 2))
    plain = _setup(seed * TRAINERS)
    workload = _workload(plain)
    refs = []
    plain_times, _ = _train(plain, list(workload.train), epochs, refs)
    trainer = _setup(seed * TRAINERS)
    rec = Recorder()
    patches = install(rec)
    try:
        times, _ = _train(trainer, list(workload.train), epochs, refs)
    finally:
        patches.undo()
    attempted, failed, wrong, _, _ = _evaluate([trainer], workload.eval)
    extra = {"trace.overhead_ratio": sum(times) / sum(plain_times),
             "host.ref_s": median(refs)}
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "metrics": layer_metrics(rec.spans, extra),
    }
