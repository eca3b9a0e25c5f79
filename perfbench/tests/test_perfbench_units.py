"""Unit tests of the benchmark's own code: statistics, self time, schedules."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import grid, openloop, oracle
from perfbench.measure import REF_NOMINAL_S, beyond, nearest_rank, supported
from perfbench.run import nominal
from perfbench.tracing import Recorder, Span, covered, self_times, traced


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank(values, 0.5) == 50.0
    assert nearest_rank(values, 0.9) == 90.0
    assert nearest_rank(values, 1.0) == 100.0
    assert nearest_rank([3.0], 0.9) == 3.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_ten_beyond_rule():
    # p90 needs 100 samples: rank 90 leaves exactly 10 above it.
    assert beyond(100, 0.9) == 10 and supported(100, 0.9)
    assert beyond(99, 0.9) == 9 and not supported(99, 0.9)
    assert supported(20, 0.5) and not supported(19, 0.5)
    assert not supported(0, 0.5)


def _span(i, parent, t0, t1):
    return Span(i, f"s{i}", parent, None, t0, t1)


def test_self_time_nested_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 1, 2.0, 3.0)]
    selfs = self_times(spans)
    # The grandchild is inside the child: it reduces the child's self
    # time only, never the parent's twice.
    assert selfs[0] == pytest.approx(7.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)


def test_self_time_overlapping_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),  # overlaps span 1 on [3, 4]
        _span(3, 0, 9.0, 12.0),  # runs past the parent's end: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert covered([(1.0, 4.0), (3.0, 6.0), (5.0, 5.5)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_recorder_links_parents_and_tags():
    rec = Recorder()

    def inner():
        return 1

    wrapped_inner = traced(rec, "inner", inner)

    def outer():
        return wrapped_inner() + 1

    rec.set_tag("req-1")
    assert traced(rec, "outer", outer)() == 2
    rec.set_tag(None)
    by_name = {span.name: span for span in rec.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].tag == by_name["outer"].tag == "req-1"
    assert by_name["outer"].t0 <= by_name["inner"].t0 <= by_name["inner"].t1 <= by_name["outer"].t1


def test_schedule_is_fixed_by_the_seed():
    def schedule(seed):
        return openloop.poisson_arrivals(20.0, 100, np.random.default_rng(seed))

    assert schedule(3) == schedule(3)
    assert schedule(3) != schedule(4)
    offsets = schedule(3)
    assert len(offsets) == 100
    assert offsets == sorted(offsets) and 0.0 < offsets[0]
    # About count / rate seconds long.
    assert 3.0 < offsets[-1] < 7.0


def test_backlog_detection():
    steady = [openloop.Sample(f"t{i}", due=i * 0.1, sent=i * 0.1 + 0.001) for i in range(50)]
    growing = [openloop.Sample(f"t{i}", due=i * 0.1, sent=i * 0.1 + 0.02 * i) for i in range(50)]
    assert not openloop.backlogged(steady, 0.1)
    assert openloop.backlogged(growing, 0.1)


def test_serve_inputs_are_fixed_by_the_seed():
    from perfbench.serve import Inputs

    first, again, other = Inputs(5, 1.0), Inputs(5, 1.0), Inputs(6, 1.0)
    assert first.legs == again.legs and first.warm == again.warm
    assert first.legs != other.legs
    # The warmed pool is the same for every seed; the traffic is not.
    assert first.warm == other.warm
    # Every leg is whole passes over the pool plus a tenth unseen.
    pool = len(first.warm)
    for requests in first.legs.values():
        assert any(len(requests) == p * pool + round(p * pool / 9) for p in range(1, 9))


def test_times_are_scaled_to_the_nominal_host():
    refs = [2 * REF_NOMINAL_S, 2 * REF_NOMINAL_S, 9.0]  # median: half speed
    scaled = nominal({"latency_p50_s": 0.4, "throughput_per_s": 10.0,
                      "peak_rss_mb": 50.0, "enum_ratio_vs_ri": 0.9}, refs)
    assert scaled["latency_p50_s"] == pytest.approx(0.2)
    assert scaled["throughput_per_s"] == pytest.approx(20.0)
    assert scaled["peak_rss_mb"] == 50.0 and scaled["enum_ratio_vs_ri"] == 0.9
    only = nominal({"latency_p50_s": 0.4, "throughput_per_s": 10.0}, refs,
                   ("throughput_per_s",))
    assert only == {"latency_p50_s": 0.4, "throughput_per_s": pytest.approx(20.0)}


def _program(root, source):
    (root / "src" / "repro").mkdir(parents=True, exist_ok=True)
    (root / "data").mkdir(exist_ok=True)
    (root / "perfbench").mkdir(exist_ok=True)
    (root / "src" / "repro" / "engine.py").write_text(source)
    (root / "data" / "g.graph").write_text("t 1 0\nv 0 0 0\n")
    (root / "perfbench" / "oracle.py").write_text("")


def test_program_digest_follows_the_sources(tmp_path):
    _program(tmp_path, "STEPS = 1\n")
    first = oracle.program_digest(tmp_path)
    assert oracle.program_digest(tmp_path) == first
    (tmp_path / "src" / "repro" / "engine.py").write_text("STEPS = 2\n")
    assert oracle.program_digest(tmp_path) != first
    _program(tmp_path, "STEPS = 1\n")
    (tmp_path / "data" / "g.graph").write_text("t 1 0\nv 0 1 0\n")
    assert oracle.program_digest(tmp_path) != first


def test_oracle_cache_misses_for_changed_sources(tmp_path, monkeypatch):
    calls = []

    def fake_run(self, item):
        calls.append(item)
        return (1, len(calls), False, len(calls), False)

    monkeypatch.setattr(oracle._Worker, "run", fake_run)
    monkeypatch.setattr(oracle, "work_dir", lambda: tmp_path)
    item = ("citeseer", "{}", (0, 1), 10, 1.0, False)
    digest = "a"
    monkeypatch.setattr(oracle, "_current_digest", lambda: digest)
    assert oracle.expected([item], "t")[item] == (1, 1, False, 1, False)
    assert oracle.expected([item], "t")[item] == (1, 1, False, 1, False)
    assert len(calls) == 1  # the same program: answered from the cache
    digest = "b"
    assert oracle.expected([item], "t")[item] == (1, 2, False, 2, False)
    assert len(calls) == 2  # another program: computed afresh


def test_grid_counts_timeouts_as_failures(monkeypatch):
    monkeypatch.setattr(oracle, "job", lambda *args: args)
    truths = {
        ("yeast", "solved", (), 100_000, grid.TIME_LIMIT, False): (5, 50, False, 50, False),
        ("yeast", "slow", (), 100_000, grid.TIME_LIMIT, True): (0, 0, True, 0, True),
        ("yeast", "wrong", (), 100_000, grid.TIME_LIMIT, False): (5, 60, False, 60, False),
    }
    monkeypatch.setattr(oracle, "expected", lambda items, name: truths)
    records = [
        ("yeast", 32, "solved", (), 0.1, 0.1, 5, 50, False),
        ("yeast", 32, "slow", (), 0.1, 5.0, 3, 900, True),
        ("yeast", 32, "wrong", (), 0.1, 0.1, 5, 61, False),
    ]
    failed, wrong, enum, ri_enum = grid._check(records)
    # The timeout fails but is not wrong; neither enters the #enum sums.
    assert (failed, wrong, enum, ri_enum) == (2, 1, 50, 50)
