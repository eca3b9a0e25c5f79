"""Tests for the persistent plan store and the cache's store tier."""

import sqlite3

import numpy as np
import pytest

from repro.api import Matcher
from repro.graphs import erdos_renyi, extract_query
from repro.server.store import _TABLE, STORE_SCHEMA_VERSION, PlanStore
from repro.service.cache import PlanCache

KEY = ("scope", "gql", "ri", "fp:abc")


@pytest.fixture()
def store(tmp_path):
    return PlanStore(tmp_path / "plans.sqlite")


class TestPlanStore:
    def test_roundtrip(self, store):
        payload = {"version": 2, "order": [2, 0, 1], "nested": {"a": [1]}}
        store.put(KEY, payload)
        assert store.get(KEY) == payload
        assert KEY in store and len(store) == 1

    def test_missing_key_is_a_miss(self, store):
        assert store.get(KEY) is None
        assert store.stats().misses == 1

    def test_replace_keeps_one_row(self, store):
        store.put(KEY, {"version": 1})
        store.put(KEY, {"version": 2})
        assert len(store) == 1
        assert store.get(KEY)["version"] == 2

    def test_key_must_be_a_four_tuple(self, store):
        with pytest.raises(ValueError):
            store.put(("scope", "extra", "gql", "ri", "fp"), {})
        with pytest.raises(ValueError):
            store.get(("a",))

    def test_survives_reopening(self, tmp_path):
        path = tmp_path / "plans.sqlite"
        PlanStore(path).put(KEY, {"version": 3})
        reopened = PlanStore(path)
        assert reopened.get(KEY) == {"version": 3}

    def test_wrong_store_version_row_is_dropped_as_miss(self, store):
        store.put(KEY, {"version": 1})
        with store._lock:
            store._conn.execute(
                f"UPDATE {_TABLE} SET store_version=?",
                (STORE_SCHEMA_VERSION + 1,),
            )
            store._conn.commit()
        assert store.get(KEY) is None
        assert len(store) == 0  # quietly deleted
        assert store.stats().corrupt_dropped == 1

    def test_corrupt_payload_row_is_dropped_as_miss(self, store):
        store.put(KEY, {"version": 1})
        with store._lock:
            store._conn.execute(f"UPDATE {_TABLE} SET payload='{{truncated'")
            store._conn.commit()
        assert store.get(KEY) is None
        assert len(store) == 0
        assert store.stats().corrupt_dropped == 1

    def test_non_object_payload_row_is_dropped_as_miss(self, store):
        store.put(KEY, {"version": 1})
        with store._lock:
            store._conn.execute(f"UPDATE {_TABLE} SET payload='[1, 2]'")
            store._conn.commit()
        assert store.get(KEY) is None

    def test_drop_and_scope_invalidation(self, store):
        other = ("other",) + KEY[1:]
        store.put(KEY, {"version": 1})
        store.put(other, {"version": 1})
        assert store.drop(KEY) and not store.drop(KEY)
        assert store.invalidate_scope("other") == 1
        assert len(store) == 0

    def test_clear(self, store):
        store.put(KEY, {"version": 1})
        assert store.clear() == 1 and len(store) == 0

    def test_counters(self, store):
        store.put(KEY, {"version": 1})
        store.get(KEY)
        store.get(("nope",) + KEY[1:])
        stats = store.stats()
        assert (stats.writes, stats.hits, stats.misses, stats.rows) == (1, 1, 1, 1)


@pytest.fixture(scope="module")
def data():
    return erdos_renyi(150, 450, 3, seed=13)


@pytest.fixture(scope="module")
def query(data):
    return extract_query(data, 4, np.random.default_rng(5))


class TestCacheStoreTier:
    def test_put_writes_through(self, data, query, store):
        cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        matcher.plan(query)
        assert len(store) == 1
        assert store.stats().writes == 1

    def test_memory_miss_falls_back_to_store(self, data, query, store):
        warmer = Matcher(
            data, plan_cache=PlanCache(max_bytes=1 << 24, store=store),
            cache_scope="d",
        )
        plan = warmer.plan(query)
        # A fresh memory tier over the same store: the lookup must hit
        # the durable tier and count it.
        cold_cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(data, plan_cache=cold_cache, cache_scope="d")
        warm, hit = matcher.plan_fingerprinted(query, plan.fingerprint)
        assert hit
        stats = cold_cache.stats()
        assert stats.hits == 1 and stats.store_hits == 1
        assert warm.order == plan.order
        assert warm.context is not None  # re-attached, executable

    def test_store_fallback_results_are_bit_identical(self, data, query, store):
        warmer = Matcher(
            data, plan_cache=PlanCache(max_bytes=1 << 24, store=store),
            cache_scope="d", record_matches=True,
        )
        cold_plan = warmer.plan(query)
        cold = warmer.execute(cold_plan)
        matcher = Matcher(
            data, plan_cache=PlanCache(max_bytes=1 << 24, store=store),
            cache_scope="d", record_matches=True,
        )
        warm_plan, hit = matcher.plan_fingerprinted(query, cold_plan.fingerprint)
        assert hit
        warm = matcher.execute(warm_plan)
        assert warm.enumeration.matches == cold.enumeration.matches
        assert warm.num_enumerations == cold.num_enumerations

    def test_corrupted_store_row_degrades_to_cold_planning(
        self, data, query, store
    ):
        warmer = Matcher(
            data, plan_cache=PlanCache(max_bytes=1 << 24, store=store),
            cache_scope="d",
        )
        plan = warmer.plan(query)
        with store._lock:
            store._conn.execute(f"UPDATE {_TABLE} SET payload='{{\"bad\": 1}}'")
            store._conn.commit()
        cold_cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(data, plan_cache=cold_cache, cache_scope="d")
        replanned, hit = matcher.plan_fingerprinted(query, plan.fingerprint)
        assert not hit  # unreadable row served as a miss...
        assert replanned.order == plan.order  # ...and planning still works

    def test_invalidation_voids_both_tiers(self, data, query, store):
        cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        matcher.plan(query)
        assert cache.invalidate_scope("d") == 1
        assert len(store) == 0 and len(cache) == 0

    def test_clear_voids_both_tiers(self, data, query, store):
        cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        matcher.plan(query)
        assert cache.clear() == 1
        assert len(store) == 0

    def test_store_errors_never_break_serving(self, data, query, store):
        cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        store.close()  # every store call now raises sqlite3.ProgrammingError
        with pytest.raises(sqlite3.Error):
            store.get(KEY)
        plan = matcher.plan(query)  # durability is best-effort
        assert plan.matchable is not None

    def test_attach_store_after_construction(self, data, query, store):
        cache = PlanCache(max_bytes=1 << 24)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        cache.attach_store(store)
        matcher.plan(query)
        assert len(store) == 1


#: The table a version-1 store wrote: five key columns, one of them a
#: partition-layout token this build no longer keys on.
_PARENT_DDL = """
CREATE TABLE plans (
    scope        TEXT NOT NULL,
    shard_layout TEXT NOT NULL,
    filter       TEXT NOT NULL,
    orderer      TEXT NOT NULL,
    fingerprint  TEXT NOT NULL,
    store_version INTEGER NOT NULL,
    plan_version  INTEGER NOT NULL,
    payload      TEXT NOT NULL,
    created_s    REAL NOT NULL,
    PRIMARY KEY (scope, shard_layout, filter, orderer, fingerprint)
)
"""


class TestStoreUpgrade:
    def test_version_one_file_opens_and_serves_its_rows_as_misses(
        self, data, query, tmp_path
    ):
        cold = Matcher(data, record_matches=True)
        plan = cold.plan(query)
        want = cold.execute(plan)
        path = tmp_path / "plans.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(_PARENT_DDL)
        conn.execute(
            "INSERT INTO plans VALUES (?,?,?,?,?,?,?,?,?)",
            ("d", "unsharded", "gql", "ri", plan.fingerprint, 1, 2,
             plan.to_json(), 0.0),
        )
        conn.commit()
        conn.close()

        store = PlanStore(path)
        cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(
            data, plan_cache=cache, cache_scope="d", record_matches=True
        )
        replanned, hit = matcher.plan_fingerprinted(query, plan.fingerprint)
        assert not hit
        assert cache.stats().store_hits == 0
        got = matcher.execute(replanned)
        assert replanned.order == plan.order
        assert got.enumeration.matches == want.enumeration.matches
        assert got.num_enumerations == want.num_enumerations
        # The cold plan was filed under the new key layout and now
        # serves a fresh process from the store.
        assert len(store) == 1 and store.stats().writes == 1
        warm, hit = Matcher(
            data, plan_cache=PlanCache(max_bytes=1 << 24, store=store),
            cache_scope="d",
        ).plan_fingerprinted(query, plan.fingerprint)
        assert hit and warm.order == plan.order
