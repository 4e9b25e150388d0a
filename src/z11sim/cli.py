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

import numpy as np

from .config import RunConfig, load_run_config
from .diagnostics import run_diagnostics
from .evolution import (
    EvolutionTrace,
    estimate_blowup_time,
    evolve,
    gaussian_bump,
)
from .fieldio import _write_csv, atomic_write_bytes, read_field, write_field, write_trace_csv
from .profile import ProfileSolution, RestrictedOperator, estimate_coercivity, solve_profile
from .shapes import Mask, mask_area, rasterize
from .spectral import RealField

__all__ = ["main"]


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("ascii")

def _write_json(path: str, obj) -> None:
    atomic_write_bytes(path, _json_bytes(obj))


def _summary(cfg: RunConfig, solution: ProfileSolution | None = None,
             delta: float | None = None, trace: EvolutionTrace | None = None,
             **keys) -> dict:
    """A command's JSON summary: the keys every command shares, the
    solve's (the solution and its delta) and the evolution's when the
    command ran them, then ``keys``."""
    summary = {"command": cfg.command, "grid_n": cfg.grid.n, "box_length": cfg.grid.box_length}
    if solution is not None:
        summary.update(
            shape=cfg.shape_text,
            residual_l2=solution.residual_l2,
            iterations=solution.iterations,
            delta_estimate=delta,
            delta_over_h2=delta / cfg.grid.h**2,
            cell_count=solution.mask.cell_count,
        )
    if trace is not None:
        summary.update(terminated=trace.terminated, accepted_steps=trace.accepted_steps,
                       rejected_steps=trace.rejected_steps)
    return summary | keys


def _solve(cfg: RunConfig) -> tuple[ProfileSolution, float]:
    """The certified profile and delta, the smallest eigenvalue of its
    operator, both before the command writes anything."""
    operator = RestrictedOperator(rasterize(cfg.shape, cfg.grid))
    solution = solve_profile(operator, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    return solution, estimate_coercivity(operator)


def _cmd_solve_profile(cfg: RunConfig) -> list[str]:
    solution, delta = _solve(cfg)
    mask = solution.mask
    write_field(os.path.join(cfg.output_dir, "profile.vpf"), solution.q, kind="profile")
    write_field(os.path.join(cfg.output_dir, "mask.vpf"), mask)
    _write_json(os.path.join(cfg.output_dir, "solve.json"), _summary(
        cfg, solution, delta,
        tol=cfg.solver_tol,
        max_iter=cfg.solver_max_iter,
        mask_area=mask_area(mask),
        verification=dataclasses.asdict(solution.report),
    ))
    return ["profile.vpf", "mask.vpf", "solve.json"]


def _initial_field(cfg: RunConfig) -> RealField:
    spec, grid = cfg.initial, cfg.grid
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
    # one (time, cells) candidate per requested time, replaced while its
    # time is below the request: the first record at or after the request,
    # or the last record when the run ends earlier
    chosen: list[tuple[float, np.ndarray] | None] = [None] * len(cfg.snapshot_times)

    def keep_snapshots(t: float, cells: np.ndarray) -> None:
        for index, requested in enumerate(cfg.snapshot_times):
            if chosen[index] is None or chosen[index][0] < requested:
                chosen[index] = (t, cells)

    # the data are not held past the run: the snapshots are placed on the
    # grid after it, one at a time
    trace = evolve(_initial_field(cfg), cfg.evolve,
                   on_record=keep_snapshots if cfg.snapshot_times else None)
    # a run that stopped short of the horizon reports its fitted blow-up
    # time, or null when the trace shows no fit
    t_fit = fit_quality = None
    if trace.terminated != "horizon":
        try:
            t_fit, fit_quality = estimate_blowup_time(trace)
        except ValueError:
            pass
    artifacts = ["trace.csv", "evolve.json"]
    write_trace_csv(os.path.join(cfg.output_dir, "trace.csv"), trace)
    snapshots = []
    for index, (requested, (t, cells)) in enumerate(zip(cfg.snapshot_times, chosen)):
        name = f"snapshot_{index:03d}.vpf"
        write_field(os.path.join(cfg.output_dir, name),
                    RealField(cfg.grid, trace.support.unpack(cells)))
        snapshots.append({"requested": float(requested), "time": t, "file": name})
        artifacts.append(name)
    _write_json(os.path.join(cfg.output_dir, "evolve.json"), _summary(
        cfg, trace=trace,
        records=len(trace),
        final_time=float(trace.times[-1]),
        final_sup_norm=float(trace.sup_norm[-1]),
        final_integral=float(trace.integral[-1]),
        final_support_cells=int(trace.support_cells[-1]),
        blowup_time_estimate=t_fit,
        fit_quality=fit_quality,
        snapshots=snapshots,
    ))
    return artifacts


def _cmd_verify_self_similar(cfg: RunConfig) -> list[str]:
    solution, delta = _solve(cfg)
    t_blowup = cfg.verify_t_blowup
    mask = solution.mask
    q_cells, solved = mask.pack(solution.q.values), _summary(cfg, solution, delta)
    # Q is read no further than its cells and the solve's keys: freed, it
    # leaves the run's working set
    del solution
    omega_cells = q_cells / t_blowup
    deviations: list[float] = []
    # Q and every state are exactly 0 off the support of Q / T, which the
    # flow keeps, so the sums of evolution.self_similar_deviation need
    # only the cells the records hold: those of the mask where Q / T is
    # not 0, in the mask's order, as evolution._support decides
    q_cells = q_cells[omega_cells != 0.0]
    h2 = cfg.grid.h**2

    def track_deviation(t: float, cells: np.ndarray) -> None:
        target = q_cells / (t_blowup - t)
        diff = cells - target
        deviations.append(float(np.sqrt(h2 * np.sum(diff**2)))
                          / float(np.sqrt(h2 * np.sum(target**2))))

    # Q is exactly 0 off the mask, so the data are Q / T bitwise; they are
    # built in the call, so that the run does not hold them (evolve)
    trace = evolve(RealField(cfg.grid, mask.unpack(omega_cells)), cfg.evolve,
                   on_record=track_deviation)
    # fit before writing, so a failed fit leaves no fresh CSVs behind
    fitted_t, fit_quality = estimate_blowup_time(trace)
    write_trace_csv(os.path.join(cfg.output_dir, "trace.csv"), trace)
    _write_csv(os.path.join(cfg.output_dir, "deviation.csv"), ("t", "deviation"),
               zip(trace.times, deviations))
    _write_json(os.path.join(cfg.output_dir, "verify.json"), solved | _summary(
        cfg, trace=trace,
        t_blowup=t_blowup,
        t_final=cfg.verify_t_final,
        max_deviation=max(deviations),
        final_deviation=deviations[-1],
        fitted_t_blowup=fitted_t,
        fit_quality=fit_quality,
    ))
    return ["trace.csv", "deviation.csv", "verify.json"]


def _cmd_diagnostics(cfg: RunConfig) -> list[str]:
    result = run_diagnostics(cfg.grid, cfg.seed)
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
    except Exception as exc:  # boundary, before any output directory exists
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
