"""Schema test of the benchmark's short mode.

Checks that every metric named in BENCHMARK.json is reported with its unit
and that the correctness checks ran and passed.  Timings are never asserted.
Run from the repository root (about two minutes):

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import self_times  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_reports_every_metric(workload, trace):
    out = run_bench(ROOT, workload, trace, "--smoke")
    assert out.returncode == 0, out.stderr
    *_, details_line, result_line = out.stdout.strip().splitlines()
    result, details = json.loads(result_line), json.loads(details_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    named = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)

    names = [c["name"] for c in details["checks"]]
    assert all(c["passed"] for c in details["checks"])
    assert any(n.endswith("exit_code") for n in names)
    assert any(n.endswith("_identical_for_seed") for n in names)
    assert details["provenance"]["nproc"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_time_subtracts_union_of_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        # two overlapping children (two thread groups) cover [1, 6]
        {"id": 1, "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "parent": 0, "start": 2.0, "end": 6.0},
        {"id": 3, "parent": 1, "start": 1.0, "end": 2.0},
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 5.0, 1: 3.0, 2: 4.0, 3: 1.0})
