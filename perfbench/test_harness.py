"""Smoke test of the benchmark harness itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_harness.py

Every workload runs once untraced and once traced with 2000 samples and the
search at one start.  The test checks that each metric named in
BENCHMARK.json appears with its unit, and that a failed check or missing
sources make the command exit non-zero.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# QMC errors at 2000 samples are ~1e-3 (nn, nv) and ~1e-2 (em): 50x the full-size bounds
TINY = run.Sizes(samples=2000, search_starts=1, search_iters=60, tol_scale=50.0)
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, sizes: run.Sizes = TINY) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                         "--trace", str(trace)], sizes)
    return code, out.getvalue()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    code, out = bench(workload, trace)
    result = json.loads(out.splitlines()[-1])
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "digest         sha256:" in out


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


def test_failed_check_exits_nonzero():
    code, out = bench("splitting", 0, dataclasses.replace(TINY, tol_scale=0.0))
    result = json.loads(out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 3  # the three QMC cells


def test_missing_sources_exit_nonzero_without_result(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code, out = bench("certify", 0)
    assert code == 2 and out == ""
