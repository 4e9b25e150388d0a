"""Command-line front end.

One invocation runs one command described by an INI config file:
solve-profile, evolve, verify-self-similar, or diagnostics. Artifacts land
in the configured output directory; every error exits nonzero after
emitting a machine-readable record (a one-line JSON object on stderr,
mirrored to error.json when the output directory exists).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import ConfigError, RunConfig, load_run_config
from .diagnostics import run_diagnostics
from .evolution import estimate_blowup_time, evolve, gaussian_bump, self_similar_deviation
from .fieldio import _write_csv, atomic_write_bytes, read_field, write_field, write_trace_csv
from .profile import RestrictedOperator, solve_profile, verify_profile
from .shapes import Mask, mask_area, rasterize
from .spectral import Grid, RealField, make_grid

__all__ = ["main"]


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("ascii")

def _write_json(path: str, obj) -> None:
    atomic_write_bytes(path, _json_bytes(obj))


def _solve(cfg: RunConfig, grid: Grid):
    mask = rasterize(cfg.shape, grid)
    operator = RestrictedOperator(grid, mask)
    solution = solve_profile(operator, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    return mask, solution


def _cmd_solve_profile(cfg: RunConfig) -> list[str]:
    grid = make_grid(cfg.grid_n, cfg.box_length)
    mask, solution = _solve(cfg, grid)
    report = verify_profile(solution)
    write_field(os.path.join(cfg.output_dir, "profile.vpf"), solution.q, kind="profile")
    write_field(os.path.join(cfg.output_dir, "mask.vpf"), mask)
    _write_json(os.path.join(cfg.output_dir, "solve.json"), {
        "command": cfg.command,
        "grid_n": cfg.grid_n,
        "box_length": cfg.box_length,
        "shape": cfg.shape_text,
        "tol": cfg.solver_tol,
        "max_iter": cfg.solver_max_iter,
        "residual_l2": solution.residual_l2,
        "iterations": solution.iterations,
        "delta_estimate": solution.delta_estimate,
        "delta_over_h2": solution.delta_estimate / grid.h**2,
        "cell_count": mask.cell_count,
        "mask_area": mask_area(mask),
        "verification": dataclasses.asdict(report),
    })
    return ["profile.vpf", "mask.vpf", "solve.json"]


def _initial_field(cfg: RunConfig, grid: Grid) -> RealField:
    spec = cfg.initial
    if spec.kind == "file":
        loaded = read_field(spec.path)
        if isinstance(loaded, Mask):
            raise ValueError(f"initial field file {spec.path} holds a mask, not a field")
        if loaded.grid != grid:
            raise ValueError(
                f"initial field grid ({loaded.grid.n}, {loaded.grid.box_length}) does "
                f"not match configured grid ({grid.n}, {grid.box_length})"
            )
        return RealField(grid, spec.scale * loaded.values)
    bump = gaussian_bump(grid, center=spec.center, width=spec.width,
                         amplitude=spec.amplitude, cutoff=spec.cutoff)
    if spec.scale != 1.0:
        bump = RealField(grid, spec.scale * bump.values)
    return bump


def _cmd_evolve(cfg: RunConfig) -> list[str]:
    grid = make_grid(cfg.grid_n, cfg.box_length)
    omega0 = _initial_field(cfg, grid)
    # one (time, state) candidate per requested time, replaced while its
    # time is below the request: the first record at or after the request,
    # or the last record when the run ends earlier
    chosen: list[tuple[float, RealField] | None] = [None] * len(cfg.snapshot_times)

    def keep_snapshots(t: float, state: RealField) -> None:
        for index, requested in enumerate(cfg.snapshot_times):
            if chosen[index] is None or chosen[index][0] < requested:
                chosen[index] = (t, state)

    trace = evolve(omega0, cfg.evolve, on_record=keep_snapshots)
    artifacts = ["trace.csv", "evolve.json"]
    write_trace_csv(os.path.join(cfg.output_dir, "trace.csv"), trace)
    snapshots = []
    for index, (requested, (t, state)) in enumerate(zip(cfg.snapshot_times, chosen)):
        name = f"snapshot_{index:03d}.vpf"
        write_field(os.path.join(cfg.output_dir, name), state)
        snapshots.append({"requested": float(requested), "time": t, "file": name})
        artifacts.append(name)
    _write_json(os.path.join(cfg.output_dir, "evolve.json"), {
        "command": cfg.command,
        "grid_n": cfg.grid_n,
        "box_length": cfg.box_length,
        "terminated": trace.terminated,
        "records": len(trace),
        "final_time": float(trace.times[-1]),
        "final_sup_norm": float(trace.sup_norm[-1]),
        "final_integral": float(trace.integral[-1]),
        "final_support_cells": int(trace.support_cells[-1]),
        "blowup_time_estimate": trace.blowup_time_estimate,
        "fit_quality": trace.fit_quality,
        "snapshots": snapshots,
    })
    return artifacts


def _cmd_verify_self_similar(cfg: RunConfig) -> list[str]:
    grid = make_grid(cfg.grid_n, cfg.box_length)
    mask, solution = _solve(cfg, grid)
    t_blowup = cfg.verify_t_blowup
    omega0 = RealField(grid, solution.q.values / t_blowup)
    evolve_cfg = dataclasses.replace(cfg.evolve, t_max=cfg.verify_t_final)
    deviations: list[float] = []

    def track_deviation(t: float, state: RealField) -> None:
        deviations.append(self_similar_deviation(state, solution.q, t_blowup, t))

    trace = evolve(omega0, evolve_cfg, on_record=track_deviation)
    write_trace_csv(os.path.join(cfg.output_dir, "trace.csv"), trace)
    _write_csv(os.path.join(cfg.output_dir, "deviation.csv"), ("t", "deviation"),
               zip(trace.times, deviations))
    fitted_t, fit_quality = estimate_blowup_time(trace)
    _write_json(os.path.join(cfg.output_dir, "verify.json"), {
        "command": cfg.command,
        "grid_n": cfg.grid_n,
        "box_length": cfg.box_length,
        "shape": cfg.shape_text,
        "t_blowup": t_blowup,
        "t_final": cfg.verify_t_final,
        "residual_l2": solution.residual_l2,
        "iterations": solution.iterations,
        "delta_estimate": solution.delta_estimate,
        "delta_over_h2": solution.delta_estimate / grid.h**2,
        "cell_count": mask.cell_count,
        "terminated": trace.terminated,
        "max_deviation": max(deviations),
        "final_deviation": deviations[-1],
        "fitted_t_blowup": fitted_t,
        "fit_quality": fit_quality,
    })
    return ["trace.csv", "deviation.csv", "verify.json"]


def _cmd_diagnostics(cfg: RunConfig) -> list[str]:
    grid = make_grid(cfg.grid_n, cfg.box_length)
    result = run_diagnostics(grid, cfg.seed)
    _write_json(os.path.join(cfg.output_dir, "diagnostics.json"), result["summary"])
    trials = result["cone_trials"]
    _write_csv(
        os.path.join(cfg.output_dir, "cone_mass.csv"),
        ("trial", "center_x", "center_y", "width", "ratio"),
        ([t["trial"], t["center_x"], t["center_y"], t["width"], t["ratio"]]
         for t in trials),
    )
    return ["diagnostics.json", "cone_mass.csv"]


_DISPATCH = {
    "solve-profile": _cmd_solve_profile,
    "evolve": _cmd_evolve,
    "verify-self-similar": _cmd_verify_self_similar,
    "diagnostics": _cmd_diagnostics,
}


def _emit_error(exc: BaseException, output_dir: str | None) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    if output_dir is not None and os.path.isdir(output_dir):
        try:
            _write_json(os.path.join(output_dir, "error.json"), record)
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="z11sim",
        description="Spectral profile solver and blow-up simulator for the "
                    "multiplier-transport model.",
    )
    parser.add_argument("config", help="path to an INI run configuration file")
    args = parser.parse_args(argv)

    try:
        cfg = load_run_config(args.config)
    except ConfigError as exc:
        _emit_error(exc, None)
        return 1

    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        artifacts = _DISPATCH[cfg.command](cfg)
    except Exception as exc:  # boundary: every failure becomes a record
        _emit_error(exc, cfg.output_dir)
        return 1
    print(f"{cfg.command}: wrote {' '.join(artifacts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
