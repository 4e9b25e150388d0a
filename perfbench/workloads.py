"""The benchmark workloads: INI config text made from a seed, and the checks
and deterministic outputs read back from each operation's artifacts.

Every workload runs one ``z11sim`` CLI command. The seed only moves the disk
or bump centre uniformly within the grid cell around the origin, so the
checks below depend on seed-independent properties alone.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import struct
from dataclasses import dataclass

BOX_LENGTH = 16.0
SMOKE_N = 64
SOLVER_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n: int
    artifacts: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-disk-n512", "solve-profile", 512,
                 ("profile.vpf", "mask.vpf", "solve.json")),
        Workload("evolve-bump-n256", "evolve", 256,
                 ("trace.csv", "evolve.json", "snapshot_000.vpf")),
        Workload("verify-disk-n256", "verify-self-similar", 256,
                 ("trace.csv", "deviation.csv", "verify.json")),
    )
}


def centre(seed: int, n: int) -> tuple[float, float]:
    """Disk or bump centre, uniform in the grid cell around the origin."""
    rng = random.Random(seed)
    h = BOX_LENGTH / n
    return rng.uniform(-h / 2, h / 2), rng.uniform(-h / 2, h / 2)


def config_text(workload: Workload, seed: int, n: int) -> str:
    """INI config of one operation; artifacts go to ``out`` beside it."""
    cx, cy = centre(seed, n)
    run = f"[run]\ncommand = {workload.command}\noutput_dir = out\n"
    grid = f"\n[grid]\nn = {n}\nbox_length = {BOX_LENGTH!r}\n"
    shape = f"\n[shape]\nspec = disk({cx!r}, {cy!r}, 1)\n"
    if workload.command == "solve-profile":
        return (run + grid + shape
                + f"\n[solver]\ntol = {SOLVER_TOL!r}\nmax_iter = 10000\n")
    if workload.command == "evolve":
        return (run + "snapshot_times = 1.0\n" + grid
                + f"\n[initial]\nkind = bump\ncenter = {cx!r}, {cy!r}\n"
                "width = 0.5\namplitude = 1.0\ncutoff = 2.0\n"
                "\n[evolve]\nt_max = 20\nrecord_every = 1\n")
    return (run + grid + shape
            + f"\n[solver]\ntol = {SOLVER_TOL!r}\n"
            "\n[evolve]\nrtol = 1e-10\natol = 1e-12\n"
            "\n[verify]\nt_blowup = 1.0\nt_final = 0.9\n")


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _field_min(path: str) -> float:
    """Smallest value of a VPF1 field file (17-byte header, then n*n <f8)."""
    with open(path, "rb") as handle:
        raw = handle.read()
    magic, n, _box, _kind = struct.unpack_from("<4sIdB", raw)
    if magic != b"VPF1" or len(raw) != 17 + 8 * n * n:
        raise ValueError(f"{path} is not a VPF1 field file")
    return min(v for (v,) in struct.iter_unpack("<d", raw[17:]))


def _trace_column(path: str, name: str) -> list[float]:
    with open(path, newline="", encoding="ascii") as handle:
        return [float(row[name]) for row in csv.DictReader(handle)]


def _profile_outputs(summary: dict, n: int, problems: list[str]) -> dict:
    h = BOX_LENGTH / n
    delta = summary["delta_estimate"]
    if not summary["residual_l2"] <= SOLVER_TOL:
        problems.append(f"residual_l2 {summary['residual_l2']} > tol {SOLVER_TOL}")
    if not 0.0 < delta <= 1.0:
        problems.append(f"delta {delta} outside (0, 1]")
    return {
        "cg_iterations": summary["iterations"],
        "residual_l2": summary["residual_l2"],
        "delta": delta,
        "delta_over_h2": delta / h**2,
        "cells": summary["cell_count"],
    }


def check_outputs(workload: Workload, out_dir: str, n: int) -> tuple[dict, list[str]]:
    """Deterministic outputs of one operation and the checks it failed.

    ``snapshot_min`` and ``blowup_after_final`` are recorded, not gated: the
    default dealiased product lets the bump change sign and pulls the fitted
    blow-up time below the last recorded time. Both belong to the spectral
    core, so they stay visible here until that path is fixed.
    """
    problems: list[str] = []
    missing = [a for a in workload.artifacts
               if not os.path.isfile(os.path.join(out_dir, a))]
    if missing:
        return {}, [f"missing artifacts: {' '.join(missing)}"]
    outputs: dict = {"sha256": {a: _sha256(os.path.join(out_dir, a))
                                for a in workload.artifacts}}
    summary_name = next(a for a in workload.artifacts if a.endswith(".json"))
    with open(os.path.join(out_dir, summary_name), encoding="ascii") as handle:
        summary = json.load(handle)

    if workload.command == "solve-profile":
        outputs.update(_profile_outputs(summary, n, problems))
        if summary["verification"]["off_mask_exact_zero"] is not True:
            problems.append("profile is not exactly zero off the mask")
        return outputs, problems

    trace_path = os.path.join(out_dir, "trace.csv")
    records = len(_trace_column(trace_path, "t"))
    # record_every = 1 records every accepted step plus the initial state
    outputs.update(accepted_steps=records - 1, records=records)

    if workload.command == "evolve":
        t_fit = summary["blowup_time_estimate"]
        final_time = summary["final_time"]
        integral = _trace_column(trace_path, "integral")
        outputs.update(
            terminated=summary["terminated"],
            t_fit=t_fit,
            fit_quality=summary["fit_quality"],
            final_time=final_time,
            snapshot_min=_field_min(os.path.join(out_dir, "snapshot_000.vpf")),
            blowup_after_final=t_fit is not None and t_fit > final_time,
        )
        if summary["terminated"] not in ("threshold", "step_underflow"):
            problems.append(f"terminated by {summary['terminated']}, not blow-up")
        if summary["fit_quality"] is None or not summary["fit_quality"] >= 0.99:
            problems.append(f"fit_quality {summary['fit_quality']} < 0.99")
        if t_fit is None or not math.isfinite(t_fit):
            problems.append(f"blowup_time_estimate {t_fit} is not finite")
        drops = sum(b < a for a, b in zip(integral, integral[1:]))
        if drops:
            problems.append(f"trace integral decreases at {drops} records")
        return outputs, problems

    outputs.update(_profile_outputs(summary, n, problems))
    outputs.update(
        t_fit=summary["fitted_t_blowup"],
        fit_quality=summary["fit_quality"],
        max_deviation=summary["max_deviation"],
    )
    if not abs(summary["fitted_t_blowup"] - 1.0) <= 1e-4:
        problems.append(f"|fitted_t_blowup - 1| > 1e-4: {summary['fitted_t_blowup']}")
    if not summary["max_deviation"] <= 1e-4:
        problems.append(f"max_deviation {summary['max_deviation']} > 1e-4")
    return outputs, problems
