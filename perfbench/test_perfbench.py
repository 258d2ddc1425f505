"""Tests of the benchmark itself, apart from the qgroth test suite.

    python3 -m pytest perfbench/test_perfbench.py

The smoke tests run one short pass of every workload, untraced and traced,
and check that every metric of BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END_METRICS
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == layers.PER_LAYER_METRICS
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS + workloads.EXTRA_WORKLOADS)
def test_ops_come_from_the_seed(workload):
    ops = workloads.make_ops(workload, 7)
    assert ops == workloads.make_ops(workload, 7)
    keys = {tuple(op["key"] for op in workloads.make_ops(workload, s)) for s in range(20)}
    # the seed moves the level, the order or both; verify-all has one fixed op
    assert len(keys) > 1 or workload == "verify-all"
    for op in ops:
        assert op["deadline"] > 0
        assert op["check"] == "d5_oracle" or op["golden"]


def test_self_time_and_division_counters_from_spans():
    t = layers.Tracer()
    # cli.main [0,100] > divide [10,90] > two star products [20,30], [40,60]
    t.spans = [
        ["cli.main", -1, 0, 100],
        ["qtorus.divide", 0, 10, 90],
        ["qtorus.star", 1, 20, 30],
        ["qtorus.star", 1, 40, 60],
        ["qtorus.star", 0, 92, 95],
    ]
    t.attrs = {1: {"num_terms": 12, "den_terms": 3, "quot_terms": 4, "coeff_bits": 2}}
    m = layers.layer_metrics(t)
    assert m["qtorus.divide.s"] == pytest.approx(50e-9)
    assert m["qtorus.star.s"] == pytest.approx(33e-9)
    assert m["qtorus.star.calls"] == 3
    assert m["qtorus.divide.steps"] == 2
    assert m["cli.self.s"] == pytest.approx(17e-9)
    assert m["qtorus.divide.num_terms_max"] == 12
    assert m["qtorus.divide.quot_terms_max"] == 4


def test_nested_spans_of_one_layer_count_once():
    t = layers.Tracer()
    t.spans = [["repchar.oracle", -1, 0, 100], ["repchar.oracle", 0, 10, 50]]
    assert layers.layer_metrics(t)["repchar.oracle.s"] == pytest.approx(100e-9)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace), "--smoke"))
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_missed_deadline_is_a_failure_timed_at_the_deadline():
    res = _result(_run("--workload", "frontier-D5-full", "--seed", "1", "--seconds", "0",
                       "--trace", "0", "--smoke"))
    assert (res["attempted"], res["failed"], res["correct"]) == (1, 1, True)
    assert res["metrics"]["wall_s"]["value"] == workloads.FRONTIER_SMOKE_DEADLINE_S


def test_traced_run_keeps_the_layers_reached_before_the_deadline():
    res = _result(_run("--workload", "frontier-D5-full", "--seed", "1", "--seconds", "0",
                       "--trace", "1", "--smoke"))
    assert res["failed"] == res["attempted"] == 2
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["qcluster.mutate.calls"] > 0 and m["qtorus.star.s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "verify-all", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
