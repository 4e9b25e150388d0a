"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines; under plain
pytest the assertions still enforce every criterion. Each line carries the
measured quantities so a log excerpt documents the run.
"""

import json
import time

import numpy as np
import pytest

from z11sim import (
    Disk,
    EvolveConfig,
    Grid,
    RealField,
    RestrictedOperator,
    apply_z11,
    apply_z22,
    dense_L_matrix,
    estimate_blowup_time,
    estimate_coercivity,
    evolve,
    gaussian_bump,
    rasterize,
    read_field,
    rk_step,
    self_similar_deviation,
    solve_profile,
    write_field,
)
from z11sim.cli import main as cli_main
from z11sim.diagnostics import cone_mass_study

from test_spectral import dft_multiplier_oracle


def _report(number, name, ok, detail):
    line = f"criterion {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def profile128():
    """Shared disk profile at production scale: r = 1, box 16, n = 128."""
    grid = Grid(128, 16.0)
    mask = rasterize(Disk((0.0, 0.0), 1.0), grid)
    operator = RestrictedOperator(mask)
    t0 = time.perf_counter()
    solution = solve_profile(operator, tol=1e-8)
    return grid, mask, solution, time.perf_counter() - t0


def test_criterion_1_multiplier_identities():
    t0 = time.perf_counter()
    grid = Grid(64, 2.0 * np.pi)
    x1, x2 = grid.coords()
    errors = []
    for j in (1, 2, 5, 21):
        along_x1 = RealField(grid, np.cos(j * x1) + 0.5 * np.sin(j * x1))
        errors.append(np.max(np.abs(apply_z11(along_x1).values - along_x1.values)))
        along_x2 = RealField(grid, np.sin(j * x2) - 2.0 * np.cos(j * x2))
        errors.append(np.max(np.abs(apply_z11(along_x2).values)))
    rng = np.random.default_rng(91)
    for _ in range(5):
        values = rng.standard_normal((64, 64))
        values -= values.mean()
        field = RealField(grid, values)
        both = apply_z11(field).values + apply_z22(field).values
        errors.append(np.max(np.abs(both - field.values)))
    worst = float(max(errors))
    elapsed = time.perf_counter() - t0
    _report(1, "multiplier identities", worst <= 1e-12 and elapsed < 1.0,
            f"max error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_operator_oracle():
    t0 = time.perf_counter()
    grid = Grid(32, 8.0)
    mask = rasterize(Disk((0.0, 0.0), 1.0), grid)
    operator = RestrictedOperator(mask)
    dense = dense_L_matrix(operator)

    symmetry = float(np.max(np.abs(dense - dense.T)))
    rng = np.random.default_rng(92)
    action = 0.0
    for _ in range(20):
        x = rng.standard_normal(mask.cell_count)
        action = max(action, float(np.max(np.abs(dense @ x - operator.apply_packed(x)))))
    evals = np.linalg.eigvalsh(dense)
    spectrum_ok = evals.min() > 0.0 and evals.max() <= 1.0 + 1e-12
    elapsed = time.perf_counter() - t0
    ok = symmetry <= 1e-10 and action <= 1e-10 and spectrum_ok and elapsed < 30.0
    _report(2, "operator oracle equivalence", ok,
            f"symmetry {symmetry:.2e}, action mismatch {action:.2e}, "
            f"eigenvalues in [{evals.min():.4f}, {evals.max():.4f}], {elapsed:.1f}s")


def test_criterion_3_coercivity():
    t0 = time.perf_counter()
    grid = Grid(32, 8.0)
    operator = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), grid))
    dense_min = float(np.linalg.eigvalsh(dense_L_matrix(operator))[0])
    lanczos = estimate_coercivity(operator)
    rel = abs(lanczos - dense_min) / dense_min

    # unit disk held fixed while the box grows at matched h = 0.25
    deltas = []
    for box, n in ((8.0, 32), (16.0, 64), (32.0, 128)):
        g = Grid(n, box)
        op = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), g))
        deltas.append(estimate_coercivity(op))
    drift = (max(deltas) - min(deltas)) / min(deltas)
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-6 and drift < 0.10 and elapsed < 300.0
    _report(3, "coercivity estimate", ok,
            f"dense agreement {rel:.2e}, box drift {drift:.2%} over deltas "
            f"{[f'{d:.6f}' for d in deltas]}, {elapsed:.1f}s")


def test_criterion_4_profile_construction(profile128):
    grid, mask, solution, solve_seconds = profile128
    t0 = time.perf_counter()
    # independent recomputation from the definitional transform matrices
    response = dft_multiplier_oracle(solution.q.values)
    dev = response[mask.indicator] - 1.0
    residual = float(np.linalg.norm(dev) / np.sqrt(mask.cell_count))
    off_exact = bool(np.all(solution.q.values[~mask.indicator] == 0.0))
    defect = response * solution.q.values - solution.q.values
    defect_rel = float(np.linalg.norm(defect) / np.linalg.norm(solution.q.values))
    elapsed = solve_seconds + time.perf_counter() - t0
    ok = residual <= 1e-8 and off_exact and defect_rel <= 1e-7 and elapsed < 120.0
    _report(4, "profile construction", ok,
            f"recomputed residual {residual:.2e}, off-support exactly zero: "
            f"{off_exact}, defect {defect_rel:.2e} of the profile norm, "
            f"{solution.iterations} iterations, {elapsed:.1f}s")


def test_criterion_5_self_similar_evolution(profile128):
    grid, mask, solution, _ = profile128
    t0 = time.perf_counter()
    lifespan = 1.0
    omega0 = RealField(grid, solution.q.values / lifespan)
    config = EvolveConfig(dt_initial=1e-3, t_max=0.9, rtol=1e-10, atol=1e-12,
                          record_every=1)
    deviations = []
    trace = evolve(omega0, config, on_record=lambda t, state: deviations.append(
        self_similar_deviation(state, solution.q, lifespan, t)))
    worst = float(max(deviations))
    fitted, quality = estimate_blowup_time(trace)
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-3 and abs(fitted - lifespan) <= 0.02 * lifespan
          and quality >= 0.999 and elapsed < 300.0)
    _report(5, "self-similar evolution", ok,
            f"max deviation {worst:.2e} over {len(trace)} records, fitted "
            f"blow-up time {fitted:.6f}, fit quality {quality:.6f}, {elapsed:.1f}s")


def test_criterion_6_blowup_from_positive_bump():
    t0 = time.perf_counter()
    grid = Grid(64, 16.0)
    omega0 = gaussian_bump(grid, width=0.5, amplitude=1.0, cutoff=2.0)
    config = EvolveConfig(dt_initial=1e-3, t_max=20.0, blowup_threshold=1e5,
                          record_every=1)
    trace = evolve(omega0, config)
    finite_estimate = (trace.blowup_time_estimate is not None
                       and np.isfinite(trace.blowup_time_estimate))
    qform_ok = bool(np.all(trace.qform >= 0.0))
    mass_ok = bool(np.all(np.diff(trace.integral) >= 0.0))

    contrast = evolve(RealField(grid, -omega0.values),
                      EvolveConfig(dt_initial=1e-3, t_max=20.0,
                                   blowup_threshold=1e5, record_every=10))
    elapsed = time.perf_counter() - t0
    ok = (trace.terminated in ("threshold", "step_underflow") and finite_estimate
          and qform_ok and mass_ok and contrast.terminated == "horizon"
          and elapsed < 600.0)
    _report(6, "blow-up from a positive bump", ok,
            f"terminated {trace.terminated} at t {trace.times[-1]:.4f}, estimate "
            f"{trace.blowup_time_estimate:.4f}, quadratic form min "
            f"{trace.qform.min():.3f}, mass monotone: {mass_ok}, negated data "
            f"reached the horizon with sup {contrast.sup_norm[-1]:.4f}, {elapsed:.1f}s")


def test_criterion_7_cone_mass_probe():
    t0 = time.perf_counter()
    grid = Grid(128, 16.0)
    rng = np.random.default_rng(20260823)
    records = cone_mass_study(grid, rng)
    ratios = np.array([r["ratio"] for r in records])
    quartiles = np.percentile(ratios, [25, 50, 75])
    elapsed = time.perf_counter() - t0
    _report(7, "cone-mass probe", bool(np.all(ratios > 0.0)),
            f"100 bump trials, min ratio {ratios.min():.4f}, quartiles "
            f"[{quartiles[0]:.4f}, {quartiles[1]:.4f}, {quartiles[2]:.4f}], "
            f"max {ratios.max():.4f}, {elapsed:.1f}s")


def test_criterion_8_integrator_order():
    t0 = time.perf_counter()
    grid = Grid(64, 16.0)
    operator = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), grid))
    solution = solve_profile(operator, tol=1e-10)

    def run_fixed(field, dt, steps):
        for _ in range(steps):
            field, _ = rk_step(field, dt)
        return field

    # exact separable solution from the profile over [0, 0.5] with lifespan 1
    exact = solution.q.values / 0.5
    exact_norm = float(np.linalg.norm(exact))
    errors = []
    for m in (8, 16, 32, 64):
        final = run_fixed(solution.q, 0.5 / m, m)
        errors.append(float(np.linalg.norm(final.values - exact)) / exact_norm)
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    elapsed = time.perf_counter() - t0
    _report(8, "integrator order", bool(np.all(orders >= 3.8)),
            f"orders {[f'{o:.2f}' for o in orders]} from errors "
            f"{[f'{e:.1e}' for e in errors]}, {elapsed:.1f}s")


def test_criterion_9_determinism_and_io(tmp_path, capsys):
    t0 = time.perf_counter()
    grid = Grid(64, 16.0)
    rng = np.random.default_rng(93)
    field = RealField(grid, rng.standard_normal((64, 64)))
    path = tmp_path / "field.vpf"
    write_field(path, field)
    roundtrip_ok = read_field(path).values.tobytes() == field.values.tobytes()

    ini_text = (
        "[run]\ncommand = solve-profile\noutput_dir = {out}\n\n"
        "[grid]\nn = 32\nbox_length = 8.0\n\n"
        "[shape]\nspec = disk(0, 0, 1)\n\n"
        "[solver]\ntol = 1e-9\n"
    )
    for name, out in (("r1.ini", "out1"), ("r2.ini", "out2")):
        (tmp_path / name).write_text(ini_text.format(out=out))
        assert cli_main([str(tmp_path / name)]) == 0
    capsys.readouterr()
    rerun_ok = all(
        (tmp_path / "out1" / artifact).read_bytes()
        == (tmp_path / "out2" / artifact).read_bytes()
        for artifact in ("profile.vpf", "mask.vpf", "solve.json")
    )

    omega0 = gaussian_bump(grid, width=0.8, cutoff=2.0)
    config = EvolveConfig(t_max=0.2, record_every=1)
    first = evolve(omega0, config)
    second = evolve(omega0, config)
    trace_ok = (np.array_equal(first.times, second.times)
                and np.array_equal(first.sup_norm, second.sup_norm)
                and np.array_equal(first.qform, second.qform))
    elapsed = time.perf_counter() - t0
    ok = roundtrip_ok and rerun_ok and trace_ok
    _report(9, "determinism and serialization", ok,
            f"field file round trip bit-exact: {roundtrip_ok}, command rerun "
            f"byte-identical: {rerun_ok}, repeated runs identical: {trace_ok}, "
            f"{elapsed:.1f}s")
