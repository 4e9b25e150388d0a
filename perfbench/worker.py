"""Run one operation of a workload in a fresh process: one z11sim CLI command.

    python3 perfbench/worker.py --src SRC --workload NAME --seed N --n N
        --trace 0|1 --op I --opdir DIR --result FILE [--spans FILE]

The operation calls ``z11sim.cli.main([config])`` in this process, as the
``z11sim`` entry point does, with its config and artifacts in ``--opdir``.
Its artifacts are checked after its timing ends. With ``--trace 1`` the
tracer wraps the layers before z11sim is imported, and the spans are written
to ``--spans`` once the operation is done.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
from time import perf_counter

from provenance import collect, thread_violations
from tracer import Tracer, op_metrics
from workloads import WORKLOADS, check_outputs, config_text


def _usage() -> tuple[float, int]:
    """CPU seconds of all threads and minor page faults so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, usage.ru_minflt


def run_op(main, workload, text: str, n: int, op_dir: str) -> dict:
    config = os.path.join(op_dir, "run.ini")
    with open(config, "w", encoding="ascii") as handle:
        handle.write(text)
    cpu0, faults0 = _usage()
    start = perf_counter()
    try:
        code = main([config])
    except Exception as exc:  # counted as a failed operation
        code = f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - start
    cpu, faults = _usage()
    if code == 0:
        try:
            outputs, problems = check_outputs(workload, os.path.join(op_dir, "out"), n)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outputs, problems = {}, [f"unreadable artifacts: {exc!r}"]
    else:
        outputs, problems = {}, [f"command failed: {code}"]
    return {"wall_s": wall, "cpu_s": cpu - cpu0, "minor_faults": faults - faults0,
            "outputs": outputs, "problems": problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--op", type=int, required=True)
    parser.add_argument("--opdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.op = args.op
        tracer.install(src)
    else:
        sys.path.insert(0, src)
    cli = importlib.import_module("z11sim.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != src:
        print(f"worker: imported z11sim from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    provenance = collect()
    violations = thread_violations(provenance["threads"], provenance["nproc"])
    if violations:
        print(f"worker: thread counts exceed nproc = {provenance['nproc']}: "
              f"{', '.join(violations)}", file=sys.stderr)
        return 4

    workload = WORKLOADS[args.workload]
    text = config_text(workload, args.seed, args.n)
    op = run_op(cli.main, workload, text, args.n, args.opdir)
    op["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"provenance": provenance, "config": text, "op": op}
    if tracer is not None:
        op["layers"] = op_metrics(tracer.spans, args.op, op["wall_s"])
        result["rebound_aliases"] = tracer.rebound
        if args.spans:
            with open(args.spans, "w", encoding="ascii") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    with open(args.result, "w", encoding="ascii") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
