"""
Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, self_times  # noqa: E402


@pytest.fixture(autouse=True)
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def smoke(name, tmp_path):
    w = workloads.build_workload(name, 7, str(tmp_path), smoke=True)
    w.write_inputs(str(tmp_path))
    return w


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_prints_every_end_to_end_metric(name):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    code, lines = bench("--workload", name, "--seed", "3", "--seconds", "0.2", "--smoke")
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric, unit in declared.items():
        assert any(line.strip().startswith(metric) and line.endswith(unit) for line in lines[:-1])


def test_traced_run_reports_every_layer_metric():
    code, lines = bench("--workload", "construct", "--seed", "3", "--seconds", "0.2", "--trace", "1",
                        "--smoke")
    assert code == 0
    metrics = json.loads(lines[-1])["metrics"]
    assert list(metrics) == sorted(LAYER_METRICS)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: (m["unit"], m["better"]) for m in json.load(fh)["per_layer"]}
    assert declared == {k: (unit, better) for k, (unit, better, _) in LAYER_METRICS.items()}
    assert metrics["representation.splits"]["value"] > 0
    assert metrics["coroots.reflections"]["value"] > 0
    assert metrics["classify.components"]["value"] == 0


def test_planted_wrong_expectation_is_exactly_one_failure(tmp_path):
    w = smoke("classify", tmp_path)
    results, _ = run.run_pass(w.ops, w.cap_s)
    assert run.failures(results) == {"capped": 0, "wrong": 0, "exit2": 0, "exception": 0}
    planted = next(op for op in w.ops if op.kind == "classify" and op.expect["families"])
    planted.expect = dict(planted.expect, families=["E7"])
    results, _ = run.run_pass(w.ops, w.cap_s)
    assert run.failures(results) == {"capped": 0, "wrong": 1, "exit2": 0, "exception": 0}
    assert [r.op for r in results if r.outcome != "ok"] == [planted]


def test_capped_operation_fails_and_is_charged(tmp_path):
    w = smoke("construct", tmp_path)
    result = run.run_op(w.ops[0], 0.0005)
    assert result.outcome == "capped"
    assert result.seconds >= 0.0005


def test_self_time_subtracts_what_children_cover():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: together they cover 1..6
        ["a.child", 2.0, 3.5, 1, 0],
        ["c", 8.0, 12.0, 0, 0],  # runs past its parent: only 8..10 counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 2.0, 3.0 - 1.5, 3.0, 1.5, 4.0])


def test_tail_is_the_eleventh_largest_sample():
    value, percentile, beyond = run.tail([float(i) for i in range(1, 201)])
    assert (value, beyond) == (190.0, 10)
    assert percentile == pytest.approx(95.0)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_stdout_identical_with_tracing_on_and_off(name, tmp_path):
    w = smoke(name, tmp_path)
    plain, _ = run.run_pass(w.ops, w.cap_s, keep_stdout=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run.run_pass(w.ops, w.cap_s, keep_stdout=True)
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert [r.stdout for r in plain] == [r.stdout for r in traced]
    assert all(r.outcome == "ok" for r in plain + traced)


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bare / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run([sys.executable, str(bare / "run.py"), "--workload", "construct", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
