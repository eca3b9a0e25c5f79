"""Cross-process warm starts: the acceptance test for the plan store.

Each scenario runs ``_persistence_child.py`` in a real subprocess — a
genuinely fresh interpreter, no shared memory — against a shared sqlite
plan store, pinning the contract:

* process 1 plans cold and persists;
* process 2, asking with a relabeled *isomorph* of the query, is served
  a cache hit: Phases (1)–(2) billed at zero, and the match sequence,
  order and ``#enum`` bit-identical to what cold planning produces for
  that same isomorph in an independent process;
* a corrupted (or schema-bumped) store row degrades to cold planning —
  same results, just no warm start.
"""

import json
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.server.store import _TABLE

CHILD = Path(__file__).with_name("_persistence_child.py")
SRC = Path(__file__).resolve().parents[2] / "src"
ISOMORPH_SEED = 42


def run_child(store_path, relabel_seed=None, timeout=120):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable, str(CHILD),
            "none" if store_path is None else str(store_path),
            "none" if relabel_seed is None else str(relabel_seed),
        ],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def warm_run(tmp_path_factory):
    """One populated store plus the cold and warm child outcomes."""
    store = tmp_path_factory.mktemp("persist") / "plans.sqlite"
    cold = run_child(store)
    warm = run_child(store, relabel_seed=ISOMORPH_SEED)
    return store, cold, warm


class TestCrossProcessWarmStart:
    def test_first_process_plans_cold(self, warm_run):
        _, cold, _ = warm_run
        assert not cold["cache_hit"]
        assert cold["service_filter_time_s"] > 0.0
        assert cold["store_hits"] == 0

    def test_fresh_process_serves_isomorph_as_cache_hit(self, warm_run):
        _, _, warm = warm_run
        assert warm["cache_hit"]
        assert warm["store_hits"] == 1

    def test_warm_hit_bills_no_planning_time(self, warm_run):
        # "Phase (1)/(2) time ≈ 0": re-attaching a stored plan re-runs
        # neither phase on the service's books.
        _, _, warm = warm_run
        assert warm["service_filter_time_s"] == 0.0
        assert warm["service_order_time_s"] == 0.0

    def test_isomorphs_share_one_fingerprint(self, warm_run):
        _, cold, warm = warm_run
        assert warm["fingerprint"] == cold["fingerprint"]

    def test_warm_results_are_bit_identical_to_cold(self, warm_run):
        # The oracle: an independent process planning the *same
        # isomorph* cold (no store).  The store-served hit must agree
        # on the match sequence, the order and #enum exactly.
        _, _, warm = warm_run
        oracle = run_child(None, relabel_seed=ISOMORPH_SEED)
        assert not oracle["cache_hit"]
        assert warm["matches"] == oracle["matches"]
        assert warm["order"] == oracle["order"]
        assert warm["num_matches"] == oracle["num_matches"]
        assert warm["num_enumerations"] == oracle["num_enumerations"]


class TestStoreDegradation:
    def corrupt(self, store_path, sql):
        conn = sqlite3.connect(store_path)
        try:
            conn.execute(sql)
            conn.commit()
        finally:
            conn.close()

    def test_corrupted_payload_falls_back_to_cold_planning(
        self, tmp_path
    ):
        store = tmp_path / "plans.sqlite"
        run_child(store)
        self.corrupt(store, f"UPDATE {_TABLE} SET payload='{{\"bad\": 1}}'")
        fallback = run_child(store, relabel_seed=ISOMORPH_SEED)
        oracle = run_child(None, relabel_seed=ISOMORPH_SEED)
        assert not fallback["cache_hit"]  # unreadable row = miss...
        assert fallback["matches"] == oracle["matches"]  # ...not an error
        assert fallback["num_enumerations"] == oracle["num_enumerations"]

    def test_old_schema_row_falls_back_to_cold_planning(self, tmp_path):
        store = tmp_path / "plans.sqlite"
        run_child(store)
        self.corrupt(store, f"UPDATE {_TABLE} SET store_version=999")
        fallback = run_child(store, relabel_seed=ISOMORPH_SEED)
        assert not fallback["cache_hit"]
        assert fallback["num_matches"] > 0

    def test_fallback_repopulates_the_store(self, tmp_path):
        store = tmp_path / "plans.sqlite"
        run_child(store)
        self.corrupt(store, f"UPDATE {_TABLE} SET store_version=999")
        run_child(store, relabel_seed=ISOMORPH_SEED)
        # The stale row was dropped and the cold re-plan wrote through:
        # the *next* process warm-starts again.
        rewarmed = run_child(store, relabel_seed=ISOMORPH_SEED)
        assert rewarmed["cache_hit"] and rewarmed["store_hits"] == 1
