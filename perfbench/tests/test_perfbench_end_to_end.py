"""One tiny pass of each workload through the command, untraced and traced."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import grid, run
from perfbench.tracing import UNITS

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", ["grid", "serve", "train"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_end_to_end(workload, trace, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_DATA_DIR", str(ROOT / "data"))
    monkeypatch.setattr(grid, "PER_CELL", 1)  # 16 queries, one per cell
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out[-2000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"{name} = " in out and unit in out
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert result["metrics"]["matching.enumeration.steps"]["value"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
