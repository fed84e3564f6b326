"""
Benchmark for the ``minuscule`` toolkit.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 40 --trace 0

One process, one closed-loop client: each operation is one command line run
in-process through ``minuscule.cli.run`` with stdout captured, and the next
starts when it returns.  Every operation has a time cap; a capped operation
counts as failed and its time is charged.  Operations run in whole passes
over the workload's fixed list: at least three, and more while the next
would end within ``--seconds``.  Each operation's time is its best over the
passes; the latency metrics are percentiles of those times, and
``ops_per_s`` is the length of the list over their sum.  A capped operation
is not run again.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation once untraced and once traced and reports the per-layer metrics.
``--workload all`` runs every workload, each in its own process.  The last
line of stdout is one JSON object; the lines before it repeat the metrics
for people.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

PROCESS_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")
MIN_PASSES = 3

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402


class OpCapped(BaseException):
    """Raised by the alarm when an operation reaches its cap.  It derives from
    BaseException so no handler inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpCapped()


@dataclass
class Result:
    op: Op
    seconds: float
    outcome: str  # "ok", "wrong", "exit2", "exception" or "capped"
    detail: str
    stdout: str  # kept only when asked for


def run_op(op: Op, cap_s: float, keep_stdout: bool = False) -> Result:
    """Run one operation; garbage left by earlier ones is collected first, so
    each pays only for its own."""
    from minuscule import cli

    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(op.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpCapped:
        return Result(op, time.perf_counter() - start, "capped", f"over {cap_s} s", "")
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        return Result(op, time.perf_counter() - start, "exception", repr(exc), "")
    seconds = time.perf_counter() - start
    stdout = out.getvalue()
    kept = stdout if keep_stdout else ""
    if code == 2:
        return Result(op, seconds, "exit2", err.getvalue().strip(), kept)
    problem = workloads.check(op, code, stdout)
    return Result(op, seconds, "wrong" if problem else "ok", problem or "", kept)


def run_pass(ops: list[Op], cap_s: float, keep_stdout: bool = False) -> tuple[list[Result], float]:
    start = time.perf_counter()
    results = [run_op(op, cap_s, keep_stdout) for op in ops]
    return results, time.perf_counter() - start


def set_up(name: str, seed: int, workdir: str, smoke: bool) -> tuple[Workload, float]:
    """Import the program afresh, generate the inputs and write them.  What
    set-up leaves is frozen out of the collector, so the collection before
    each operation only scans what operations leave behind."""
    gc.unfreeze()
    gc.collect()
    start = time.perf_counter()
    for module in [m for m in sys.modules if m == "minuscule" or m.startswith("minuscule.")]:
        del sys.modules[module]
    import minuscule.cli  # noqa: F401

    workload = workloads.build_workload(name, seed, workdir, smoke=smoke)
    workload.write_inputs(workdir)
    seconds = time.perf_counter() - start
    gc.freeze()
    return workload, seconds


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest sample.  Returns (value, percentile, samples beyond)."""
    ordered = sorted(latencies, reverse=True)
    beyond = min(10, len(ordered) - 1)
    return ordered[beyond], 100.0 * (1 - beyond / len(ordered)), beyond


def failures(results: list[Result]) -> dict[str, int]:
    out = {k: 0 for k in ("capped", "wrong", "exit2", "exception")}
    for r in results:
        if r.outcome != "ok":
            out[r.outcome] += 1
    return out


def report_failures(results: list[Result]) -> None:
    for r in results:
        if r.outcome != "ok":
            print(f"  {r.outcome}: {r.op.label}: {r.detail[:200]}")


def run_workload(args) -> dict:
    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    try:
        setup = [set_up(args.workload, args.seed, workdir, args.smoke) for _ in range(2)]
        workload, setup_times = setup[-1][0], [t for _, t in setup]
        first_op_at = time.perf_counter() - PROCESS_START
        signal.signal(signal.SIGALRM, _on_alarm)
        if args.trace:
            return traced(args, workload)
        return untraced(args, workload, setup_times, first_op_at, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced(args, workload: Workload, setup_times: list[float], first_op_at: float,
             workdir: str) -> dict:
    # Each operation's time is its best over the passes, as timeit takes the
    # best of its repeats: on a shared machine a slow moment inflates single
    # samples by tens of percent, and the best sample is what repeats.  An
    # operation that reached its cap is not run again; its capped sample
    # stands.  A set-up round after every pass samples set-up time across
    # the run.
    start = time.perf_counter()
    samples: dict[int, list[Result]] = {op.op_id: [] for op in workload.ops}
    passes = 0
    while True:
        todo = [op for op in workload.ops if all(r.outcome != "capped" for r in samples[op.op_id])]
        batch, seconds = run_pass(todo, workload.cap_s)
        for r in batch:
            samples[r.op.op_id].append(r)
        passes += 1
        workload, setup_s = set_up(args.workload, args.seed, workdir, args.smoke)
        setup_times.append(setup_s)
        if passes >= MIN_PASSES and time.perf_counter() - start + seconds > args.seconds:
            break
    per_op = [min(r.seconds for r in rs) for rs in samples.values()]
    failed_ops = [rs for rs in samples.values() if any(r.outcome != "ok" for r in rs)]
    results = [r for rs in samples.values() for r in rs]
    fails = failures(results)
    tail_s, pct, beyond = tail(per_op)
    metrics = {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "ok_ratio": (1 - len(failed_ops) / len(per_op), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {workload.name}: seed {args.seed}, {len(workload.ops)} operations, "
          f"{passes} passes, cap {workload.cap_s} s per operation, "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  latency_tail_ms is p{pct:.2f} of the {len(per_op)} per-operation times "
          f"({beyond} lie beyond it)")
    print(f"  failed_ratio = {len(failed_ops) / len(per_op):.6g} ({len(failed_ops)} of {len(per_op)} "
          f"operations; of {len(results)} runs: " + ", ".join(f"{v} {k}" for k, v in fails.items()) + ")")
    print(f"  set-up rounds {[round(t, 4) for t in setup_times]} s; "
          f"process start to first timed operation {first_op_at:.3f} s")
    report_failures([rs[0] for rs in samples.values()])
    return {
        "correct": fails["wrong"] + fails["exit2"] + fails["exception"] == 0,
        "attempted": len(results),
        "failed": sum(fails.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(args, workload: Workload) -> dict:
    from tracer import LAYER_METRICS, Tracer, layer_metrics

    # each operation runs untraced and traced back to back, in alternating
    # order, so drift over the pass does not land in the overhead
    tracer = Tracer()
    plain: list[Result] = []
    results: list[Result] = []
    for op in workload.ops:
        tracer.op_id = op.op_id
        for on in (False, True) if op.op_id % 2 else (True, False):
            if on:
                tracer.install()
            try:
                (results if on else plain).append(run_op(op, workload.cap_s, keep_stdout=True))
            finally:
                if on:
                    tracer.uninstall()
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in results)
    os.makedirs(WORKDIR, exist_ok=True)
    tracer.write_spans(os.path.join(WORKDIR, f"spans-{workload.name}-seed{args.seed}.jsonl"))
    values = layer_metrics(tracer, sum(len(r.stdout.encode()) for r in results), traced_s - plain_s)
    print(f"workload {workload.name} traced: seed {args.seed}, {len(tracer.spans)} spans, "
          f"operations take {plain_s:.3f} s untraced and {traced_s:.3f} s traced")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {LAYER_METRICS[name][0]}  (moves {LAYER_METRICS[name][2]})")
    differs = [r.op.label for r, q in zip(plain, results) if r.stdout != q.stdout]
    if differs:
        print(f"  stdout differs with tracing on: {differs[:5]}")
    both = plain + results
    fails = failures(both)
    report_failures(results)
    return {
        "correct": not differs and fails["wrong"] + fails["exit2"] + fails["exception"] == 0,
        "attempted": len(both),
        "failed": sum(fails.values()),
        "metrics": {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in values.items()},
    }


def run_all(args) -> dict:
    """Every workload, each in its own process so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} failed:\n{proc.stderr}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1].strip())
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "minuscule", "cli.py")):
        print(f"error: no minuscule sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
