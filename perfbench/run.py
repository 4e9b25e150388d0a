"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Operations run closed loop for ``--seconds``: one CLI command at a time,
each in a fresh worker process, as a user runs ``z11sim``. With
``--trace 0`` the run reports the end-to-end metrics, after timing set-up in
several fresh interpreters. With ``--trace 1`` untraced and traced operations
alternate, and the run reports the per-layer metrics. ``--smoke`` runs the
workload at n = 64. The line before the last holds the full record:
provenance, every operation's deterministic outputs, artifact hashes and
layer metrics; it is also saved under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SMOKE_N, WORKLOADS, config_text  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER = {
    "fft.calls": "count", "fft.self_s": "s",
    "fft.bytes_computed": "bytes", "fft.flops_computed": "flop",
    "spectral.apply_z11.calls": "count", "spectral.apply_z11.self_s": "s",
    "spectral.qform.calls": "count", "spectral.qform.self_s": "s",
    "spectral.self_s": "s",
    "profile.cg_iterations": "count", "profile.cg_applies": "count",
    "profile.cg_s": "s", "profile.coercivity_applies": "count",
    "profile.coercivity_s": "s", "profile.apply.median_ms": "ms",
    "profile.verify_s": "s", "profile.self_s": "s",
    "evolution.steps": "count", "evolution.step_underflows": "count",
    "evolution.step_s": "s", "evolution.step.median_ms": "ms",
    "evolution.records": "count", "evolution.record_s": "s",
    "evolution.kept_field_bytes": "bytes", "evolution.deviation_s": "s",
    "evolution.self_s": "s",
    "shapes.rasterize_s": "s", "shapes.cells": "count", "shapes.self_s": "s",
    "fieldio.write_s": "s", "fieldio.bytes_written": "bytes", "fieldio.self_s": "s",
    "config.load_s": "s", "config.self_s": "s",
    "cli.self_s": "s",
    "cpu_s": "s", "cpu_per_wall": "ratio", "minor_faults": "count",
    "tracing_overhead_s": "s",
    "traced_wall_s": "s", "self_time_coverage": "ratio", "span_errors": "count",
    "failed_frac": "ratio",
}
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0

# Fresh-interpreter set-up: import z11sim and load the run's config.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import z11sim
from z11sim.config import load_run_config
load_run_config(sys.argv[2])
print(repr(time.perf_counter() - start))
"""

# Deterministic outputs that the traced run also counts from its spans.
TRACED_COUNTS = {"cg_iterations": "profile.cg_iterations", "cells": "shapes.cells",
                 "accepted_steps": "evolution.steps", "records": "evolution.records"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not measure; no result is printed."""


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchmarkError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    return left


def setup_times(root: Path, config: str, repeats: int, deadline: float) -> list[float]:
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(root / "src"), config],
            cwd=root, capture_output=True, text=True, timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_worker(root: Path, workdir: str, args, n: int, trace: int, op: int,
               deadline: float) -> dict:
    """One operation in a fresh worker process."""
    opdir = tempfile.mkdtemp(prefix=f"op{op}-trace{trace}-", dir=workdir)
    result = os.path.join(opdir, "result.json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(root / "src"),
           "--workload", args.workload, "--seed", str(args.seed), "--n", str(n),
           "--trace", str(trace), "--op", str(op), "--opdir", opdir, "--result", result]
    if trace:
        spans = root / ".perfbench" / "results" / f"{args.workload}-seed{args.seed}-op{op}.spans.jsonl"
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result, encoding="ascii") as handle:
        record = json.load(handle)
    shutil.rmtree(opdir)
    return record


def run_ops(root: Path, workdir: str, args, n: int, traces: tuple[int, ...],
            deadline: float) -> list[dict]:
    """Closed loop: one operation at a time, each in a fresh worker, until
    ``--seconds`` have passed; with several trace modes they alternate."""
    workers: list[dict] = []
    stop = time.monotonic() + args.seconds
    while not workers or time.monotonic() < stop:
        op = len(workers) // len(traces)
        workers += [run_worker(root, workdir, args, n, t, op, deadline) for t in traces]
    return workers


def git_state(root: Path) -> dict:
    state = {"commit": None, "dirty": None}
    if not (root / ".git").exists():
        return state
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return state
    if head.returncode == 0:
        state["commit"] = head.stdout.strip()
    if status.returncode == 0:
        state["dirty"] = bool(status.stdout.strip())
    return state


def _middle(values: list, unit: str):
    """Median; for a count, the lower median, so it stays a whole number."""
    if unit in ("count", "bytes", "flop"):
        return statistics.median_low(values)
    return statistics.median(values)


def _median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def known_defects(ops: list[dict]) -> list[str]:
    """Recorded, ungated outputs that show a known defect of the program."""
    found = set()
    for op in ops:
        out = op["outputs"]
        if out.get("snapshot_min", 0.0) < 0.0:
            found.add("snapshot_min < 0: the evolved bump changed sign")
        if out.get("blowup_after_final") is False:
            found.add("blowup_time_estimate <= final recorded time")
    return sorted(found)


def measure(root: Path, workdir: str, args, n: int, deadline: float) -> dict:
    workload = WORKLOADS[args.workload]
    record: dict = {"workload": args.workload, "seed": args.seed, "n": n,
                    "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
                    "git": git_state(root)}
    if args.trace == 0:
        config = os.path.join(workdir, "setup.ini")
        with open(config, "w", encoding="ascii") as handle:
            handle.write(config_text(workload, args.seed, n))
        samples = setup_times(root, config, 1 if args.smoke else SETUP_REPEATS, deadline)
        workers = run_ops(root, workdir, args, n, (0,), deadline)
        ops = [w["op"] for w in workers]
        record["setup_samples_s"] = samples
        metrics = {
            "wall_s": _median_of(ops, "wall_s"),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": _median_of(ops, "peak_rss_mb"),
        }
    else:
        workers = run_ops(root, workdir, args, n, (0, 1), deadline)
        ops = [w["op"] for w in workers]
        plain, traced = ops[0::2], ops[1::2]
        for op in traced:
            for output, counted in TRACED_COUNTS.items():
                if output in op["outputs"] and op["outputs"][output] != op["layers"][counted]:
                    op["problems"].append(f"trace counted {counted} = {op['layers'][counted]}, "
                                          f"outputs say {output} = {op['outputs'][output]}")
        metrics = {name: _middle([op["layers"][name] for op in traced], unit)
                   for name, unit in PER_LAYER.items() if name in traced[0]["layers"]}
        metrics["cpu_s"] = _median_of(plain, "cpu_s")
        metrics["cpu_per_wall"] = statistics.median(op["cpu_s"] / op["wall_s"] for op in plain)
        metrics["minor_faults"] = statistics.median_low(op["minor_faults"] for op in plain)
        metrics["tracing_overhead_s"] = _median_of(traced, "wall_s") - _median_of(plain, "wall_s")
        record["rebound_aliases"] = workers[1]["rebound_aliases"]

    # every operation of a run has the same input, so the same outputs
    for op in ops[1:]:
        if not op["problems"] and op["outputs"] != ops[0]["outputs"]:
            op["problems"].append("outputs differ from the first operation of this run")
    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    if args.trace == 0:
        metrics["ok_frac"] = (attempted - failed) / attempted
        units = END_TO_END
    else:
        metrics["failed_frac"] = failed / attempted
        units = PER_LAYER
    record.update(provenance=workers[0]["provenance"], config=workers[0]["config"],
                  ops=ops, known_defects=known_defects(ops))
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help=f"run the workload at n = {SMOKE_N}")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + RUN_LIMIT_S
    root = HERE.parent
    if not (root / "src" / "z11sim" / "__init__.py").is_file():
        print(f"perfbench: no z11sim sources under {root / 'src'}", file=sys.stderr)
        return 2
    n = SMOKE_N if args.smoke else WORKLOADS[args.workload].n
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench")
    try:
        record = measure(root, workdir, args, n, deadline)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
