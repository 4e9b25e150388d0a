"""Time-integration tests.

The right-hand side is pinned against exact algebraic identities (quadratic
scaling, annihilation of fields constant in x1, mass production equal to the
quadratic form) and the solved profile's defect. Stepper order is measured
by step halving against a fine reference.
"""

import tracemalloc

import numpy as np
import pytest

from z11sim import (
    Disk,
    EvolutionTrace,
    EvolveConfig,
    Grid,
    RealField,
    RestrictedOperator,
    StepUnderflowError,
    estimate_blowup_time,
    evolve,
    field_integral,
    gaussian_bump,
    l2_norm,
    quadratic_form,
    rasterize,
    rhs,
    rk_step,
    self_similar_deviation,
    solve_profile,
    step,
    sup_norm,
    verify_profile,
)
import z11sim.evolution as evolution
from z11sim.evolution import _RK_A, _RK_B4, _RK_B5, _RK_C, _RK_E, StepResult
from z11sim.spectral import _real_fft

from test_profile import _transform_shapes


@pytest.fixture(scope="module")
def grid32():
    return Grid(32, 8.0)


def _cyclic_distance(n):
    k = np.arange(n)
    return np.minimum(k, n - k)


# Supports on a 64-grid, by name: a disk about the corner cell, so its box
# wraps both periodic edges; two blobs half the grid apart along x1, so the
# box spans the grid on that axis; one cell; every cell.
SUPPORTS = {
    "wrapping": lambda: _cyclic_distance(64)[:, None] ** 2
    + _cyclic_distance(64)[None, :] ** 2 <= 25,
    "far_blobs": lambda: np.isin(np.arange(64), [4, 5, 6, 39, 40, 41])[:, None]
    & np.isin(np.arange(64), [10, 11, 12])[None, :],
    "single_cell": lambda: np.arange(64 * 64).reshape(64, 64) == 7 * 64 + 50,
    "full": lambda: np.ones((64, 64), dtype=bool),
}


@pytest.fixture(scope="module")
def profile32(grid32):
    op = RestrictedOperator(rasterize(Disk((0.0, 0.0), 0.5), grid32))
    return solve_profile(op, tol=1e-10)


class TestEvolveConfig:
    def test_defaults_valid(self):
        cfg = EvolveConfig()
        assert cfg.sign == 1 and cfg.blowup_threshold is None

    @pytest.mark.parametrize("kwargs", [
        {"dt_initial": 0.0},
        {"dt_min": 0.0},
        {"dt_min": 1e-2, "dt_initial": 1e-3},
        {"t_max": 0.0},
        {"t_max": -1.0},
        {"safety": 0.0},
        {"safety": 1.0},
        {"blowup_threshold": 1.0},
        {"blowup_threshold": 0.5},
        {"record_every": 0},
        {"rtol": 0.0},
        {"atol": -1e-12},
        {"t_max": float("inf")},
        {"t_max": float("nan")},
        {"dt_initial": float("inf")},
        {"rtol": float("inf")},
        {"rtol": float("nan")},
        {"atol": float("inf")},
        {"atol": float("nan")},
        {"sign": 0},
        {"sign": 2},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EvolveConfig(**kwargs)

    def test_infinite_threshold_means_none(self):
        assert EvolveConfig(blowup_threshold=float("inf")).blowup_threshold == float("inf")


class TestTrace:
    def _arrays(self, n):
        return dict(times=np.arange(n, dtype=float), sup_norm=np.ones(n),
                    integral=np.ones(n), l2_norm=np.ones(n), qform=np.ones(n),
                    support_cells=np.ones(n, dtype=int))

    def test_length(self):
        trace = EvolutionTrace(terminated="horizon", **self._arrays(4))
        assert len(trace) == 4

    def test_rejects_unknown_termination(self):
        with pytest.raises(ValueError, match="terminated"):
            EvolutionTrace(terminated="finished", **self._arrays(3))

    def test_rejects_ragged_columns(self):
        bad = self._arrays(3)
        bad["qform"] = np.ones(2)
        with pytest.raises(ValueError, match="length differs"):
            EvolutionTrace(terminated="horizon", **bad)


class TestTableau:
    def test_row_sums_match_nodes(self):
        for i in range(1, 6):
            np.testing.assert_allclose(sum(_RK_A[i]), _RK_C[i], atol=1e-15)

    def test_weights_sum_to_one(self):
        np.testing.assert_allclose(_RK_B5.sum(), 1.0, atol=1e-15)
        np.testing.assert_allclose(_RK_B4.sum(), 1.0, atol=1e-15)

    def test_error_weights_are_difference(self):
        np.testing.assert_array_equal(_RK_E, _RK_B5 - _RK_B4)


class TestRhs:
    def test_zero_field_exact(self, grid32):
        out = rhs(RealField(grid32, np.zeros((32, 32))))
        assert np.all(out.values == 0.0)

    def test_annihilates_x1_constant(self, grid32):
        """A field depending only on x2 sits on the zero set of the
        multiplier, so the response vanishes exactly."""
        _, x2 = grid32.coords()
        f = RealField(grid32, np.cos(2.0 * np.pi * x2 / grid32.box_length))
        assert np.all(rhs(f).values == 0.0)

    def test_quadratic_scaling_exact(self, grid32):
        rng = np.random.default_rng(71)
        f = RealField(grid32, rng.standard_normal((32, 32)))
        doubled = RealField(grid32, 2.0 * f.values)
        # powers of two scale without rounding through the transforms
        np.testing.assert_array_equal(rhs(doubled).values, 4.0 * rhs(f).values)

    def test_sign_flag_negates_exactly(self, grid32):
        rng = np.random.default_rng(72)
        f = RealField(grid32, rng.standard_normal((32, 32)))
        np.testing.assert_array_equal(rhs(f, sign=-1).values, -rhs(f, sign=1).values)

    def test_sign_validation(self, grid32):
        with pytest.raises(ValueError, match="sign"):
            rhs(RealField(grid32, np.zeros((32, 32))), sign=3)

    def test_mass_production_equals_quadratic_form(self, grid32):
        """Integrating the right-hand side gives the (nonnegative) quadratic
        form of the field, the mechanism behind monotone mass."""
        rng = np.random.default_rng(73)
        f = RealField(grid32, rng.standard_normal((32, 32)))
        got = field_integral(rhs(f))
        np.testing.assert_allclose(got, quadratic_form(f), rtol=1e-12)
        assert got >= 0.0

    def test_profile_defect_identity(self, profile32):
        """The profile is a fixed point of the dynamics up to its defect:
        on its support the multiplier response is 1, so rhs(Q) = Q there
        and rhs(Q) - Q is exactly the verification defect."""
        sol = profile32
        report = verify_profile(sol)
        out = rhs(sol.q)
        residual = np.abs(out.values - sol.q.values)
        assert residual.max() <= report.defect_max * (1.0 + 1e-12) + 1e-15

    def test_vanishes_off_support(self, grid32):
        """The product is pointwise: wherever the field is zero the
        right-hand side is exactly zero, though Z11 w is not."""
        f = gaussian_bump(grid32, width=0.5, cutoff=1.0)
        out = rhs(f).values
        assert np.all(out[f.values == 0.0] == 0.0)
        assert np.any(out[f.values != 0.0] != 0.0)

    @pytest.mark.parametrize("support", sorted(SUPPORTS))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_box_matches_full_grid(self, support, sign):
        """Z11 runs on the periodic bounding box of the support, so on the
        support it agrees with the full-grid multiplier to roundoff; a full
        support is the grid itself, transformed exactly as before."""
        grid = Grid(64, 16.0)
        values = np.random.default_rng(74).standard_normal((64, 64)) * SUPPORTS[support]()
        expected = sign * _real_fft(values, grid.m11) * values
        got = rhs(RealField(grid, values), sign=sign).values
        if support == "full":
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)
            assert np.all(got[values == 0.0] == 0.0)


class TestRkStep:
    def test_rejects_nonpositive_dt(self, grid32):
        f = gaussian_bump(grid32, width=0.8)
        with pytest.raises(ValueError, match="dt must be positive"):
            rk_step(f, 0.0)

    def test_zero_field_fixed_point(self, grid32):
        f = RealField(grid32, np.zeros((32, 32)))
        out, err = rk_step(f, 0.1)
        assert np.all(out.values == 0.0)
        assert np.all(err == 0.0)

    def test_error_halving_ratio(self, grid32):
        """The embedded error field scales like dt^5, so halving dt shrinks
        it by about 32."""
        f = gaussian_bump(grid32, width=0.8)
        _, e1 = rk_step(f, 0.02)
        _, e2 = rk_step(f, 0.01)
        ratio = np.max(np.abs(e1)) / np.max(np.abs(e2))
        assert 25.0 < ratio < 45.0

    def test_fifth_order_propagation(self, grid32):
        """Step halving against a fine fixed-step reference; amplitudes are
        chosen so errors sit well above roundoff."""
        def run_fixed(field, dt, steps):
            for _ in range(steps):
                field, _ = rk_step(field, dt)
            return field

        w0 = gaussian_bump(grid32, width=0.8, amplitude=2.0)
        horizon = 0.5
        ref = run_fixed(w0, horizon / 256, 256).values
        errors = [np.max(np.abs(run_fixed(w0, horizon / m, m).values - ref))
                  for m in (4, 8, 16)]
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 4.5)
        assert np.all(orders <= 6.0)


def _box_step(omega, dt, config):
    """One step of omega on its support box, from its right-hand side, as
    evolve takes it."""
    index, symbol = evolution._box(omega)
    rate = rhs(omega, config.sign).values[index]
    return step(omega.values[index], rate, dt, config, symbol, omega.grid.n)


class TestStep:
    def test_rejects_nonpositive_dt(self, grid32):
        cfg = EvolveConfig()
        with pytest.raises(ValueError, match="dt must be positive"):
            _box_step(gaussian_bump(grid32, width=0.8), -0.1, cfg)

    def test_zero_field_grows_step_maximally(self, grid32):
        cfg = EvolveConfig()
        result = _box_step(RealField(grid32, np.zeros((32, 32))), 1e-3, cfg)
        assert result.error_estimate == 0.0
        assert result.dt_accepted == 1e-3
        assert result.dt_next == pytest.approx(5e-3)
        assert result.rejected_attempts == 0

    def test_accepted_step_meets_tolerance(self, grid32):
        cfg = EvolveConfig(rtol=1e-8, atol=1e-10)
        result = _box_step(gaussian_bump(grid32, width=0.8), 1e-2, cfg)
        assert result.error_estimate <= 1.0
        assert np.all(np.isfinite(result.values))

    def test_rejection_shrinks_before_accepting(self, grid32):
        cfg = EvolveConfig(rtol=1e-12, atol=1e-14, dt_min=1e-12)
        result = _box_step(gaussian_bump(grid32, width=0.8, amplitude=3.0), 0.5, cfg)
        assert result.dt_accepted < 0.5
        assert result.error_estimate <= 1.0
        assert result.rejected_attempts >= 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_error_shrinks_by_a_fifth(self, monkeypatch, grid32, bad):
        """An attempt whose error estimate is not finite is rejected and
        retried at a fifth of its step, below the 0.9 cap on rejections."""
        errors = iter([bad, 1e-12])

        def attempt(symbol, y, k0, dt, sign):
            return y.copy(), np.full_like(y, next(errors))

        monkeypatch.setattr(evolution, "_rk_attempt", attempt)
        dt = 1e-3
        result = _box_step(gaussian_bump(grid32, width=0.8), dt, EvolveConfig())
        assert result.rejected_attempts == 1
        assert result.dt_accepted == 0.2 * dt

    def test_underflow_when_floor_too_high(self, grid32):
        """Violent data rejects the first attempt; with dt_min close to the
        attempted step there is no room to shrink."""
        cfg = EvolveConfig(dt_initial=1e-3, dt_min=9e-4, rtol=1e-10, atol=1e-12)
        wild = gaussian_bump(grid32, width=0.5, amplitude=1e8)
        with pytest.raises(StepUnderflowError, match="below dt_min") as excinfo:
            _box_step(wild, 1e-3, cfg)
        assert excinfo.value.dt_required < excinfo.value.dt_min == 9e-4
        assert excinfo.value.rejected_attempts >= 1

    @pytest.mark.parametrize("center, box", [
        ((0.0, 0.0), ((17, 17), (36, 36))),
        ((0.1, 0.1), ((16, 16), (32, 32))),
    ])
    def test_attempts_transform_the_support_box(self, monkeypatch, center, box):
        """A step of the n = 64 bump transforms only its support's box,
        padded inside the transform to the box's embedding: 17 cells wide
        when the bump sits on a lattice point, so 36 (5-smooth, >= 33), and
        16 cells off it, so 32. Five transforms make the stages after the
        first, and one the new state's right-hand side, the first stage of
        the next step."""
        grid = Grid(64, 16.0)
        w0 = gaussian_bump(grid, center=center, width=0.5, cutoff=2.0)
        cfg = EvolveConfig()
        index, symbol = evolution._box(w0)
        y = w0.values[index]
        rate = rhs(w0).values[index]
        shapes = _transform_shapes(
            monkeypatch, lambda: step(y, rate, 1e-3, cfg, symbol, grid.n))
        assert shapes == [box] * 6


class TestEvolve:
    def test_zero_field_reaches_horizon(self, grid32):
        trace = evolve(RealField(grid32, np.zeros((32, 32))),
                       EvolveConfig(t_max=0.5))
        assert trace.terminated == "horizon"
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(0.5, abs=1e-12)
        assert np.all(trace.sup_norm == 0.0)
        assert trace.blowup_time_estimate is None

    def test_record_stride_and_endpoints(self, grid32):
        """on_record fires once per trace row, in order, with the row's
        time and the state whose sup-norm the row holds."""
        cfg = EvolveConfig(t_max=0.1, record_every=3, rtol=1e-6, atol=1e-8)
        seen = []
        trace = evolve(gaussian_bump(grid32, width=0.8), cfg,
                       on_record=lambda t, f: seen.append((t, sup_norm(f))))
        assert trace.terminated == "horizon"
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(0.1, abs=1e-12)
        assert np.all(np.diff(trace.times) > 0.0)
        assert len(seen) == len(trace)
        for i, (t, s) in enumerate(seen):
            assert t == trace.times[i]
            assert s == trace.sup_norm[i]
        assert trace.fields == ()

    def test_threshold_termination_with_fit(self, grid32):
        w0 = gaussian_bump(grid32, width=0.5, amplitude=1.0, cutoff=1.0)
        cfg = EvolveConfig(dt_initial=1e-3, t_max=30.0, blowup_threshold=50.0,
                           record_every=1)
        trace = evolve(w0, cfg)
        assert trace.terminated == "threshold"
        assert trace.sup_norm[-1] >= 50.0
        assert trace.blowup_time_estimate is not None
        assert trace.blowup_time_estimate > trace.times[-1]
        assert trace.fit_quality >= 0.99

    def test_invariants_along_blowup_run(self, grid32):
        """Monotone mass and nonnegative quadratic form, the two structural
        invariants of the dynamics, hold along a run approaching blow-up."""
        w0 = gaussian_bump(grid32, width=0.5, amplitude=1.0, cutoff=1.0)
        cfg = EvolveConfig(dt_initial=1e-3, t_max=30.0, blowup_threshold=50.0,
                           record_every=1)
        trace = evolve(w0, cfg)
        assert np.all(np.diff(trace.integral) >= -1e-10 * np.abs(trace.integral[:-1]))
        assert np.all(trace.qform >= -1e-10 * trace.l2_norm**2)
        assert np.all(np.diff(trace.sup_norm) > 0.0)

    def test_default_threshold_from_initial_sup(self, grid32):
        """With no explicit threshold the run trips at 1e6 times the
        starting sup-norm; scaled-down data must behave identically up to
        the quadratic time rescaling, so a tiny bump still terminates."""
        w0 = gaussian_bump(grid32, width=0.5, amplitude=1e-3, cutoff=1.0)
        cfg = EvolveConfig(dt_initial=1e-3, t_max=4000.0, record_every=50)
        trace = evolve(w0, cfg)
        assert trace.terminated in ("threshold", "step_underflow")
        if trace.terminated == "threshold":
            assert trace.sup_norm[-1] >= 1e6 * 1e-3

    def test_underflow_termination(self, grid32):
        wild = gaussian_bump(grid32, width=0.5, amplitude=1e8)
        cfg = EvolveConfig(dt_initial=1e-3, dt_min=9e-4, t_max=1.0)
        trace = evolve(wild, cfg)
        assert trace.terminated == "step_underflow"
        assert len(trace) == 1
        assert trace.blowup_time_estimate is None
        assert trace.accepted_steps == 0
        assert trace.rejected_steps >= 1

    def test_zero_atol_on_compact_data(self):
        """With atol = 0, cells off the support have zero error and zero
        scale; they count 0, so the run blows up as it does with a small
        atol instead of underflowing at t = 0."""
        grid = Grid(64, 16.0)
        w0 = gaussian_bump(grid, width=0.5, cutoff=2.0)
        exact, loose = (evolve(w0, EvolveConfig(t_max=20.0, record_every=1, atol=atol))
                        for atol in (0.0, 1e-10))
        assert exact.terminated == loose.terminated == "threshold"
        assert exact.blowup_time_estimate == pytest.approx(loose.blowup_time_estimate,
                                                           rel=1e-6)

    def test_negation_mirror_is_bitwise(self, grid32):
        """Flipping the sign of the data and the sign of the dynamics
        produces the exact mirror run, down to the last bit."""
        w0 = gaussian_bump(grid32, width=0.6, amplitude=1.5, cutoff=1.2)
        neg = RealField(grid32, -w0.values)
        cfg = dict(t_max=0.05, rtol=1e-6, atol=1e-8, record_every=1)
        fwd_states, rev_states = [], []
        fwd = evolve(neg, EvolveConfig(sign=1, **cfg),
                     on_record=lambda t, f: fwd_states.append(f))
        rev = evolve(w0, EvolveConfig(sign=-1, **cfg),
                     on_record=lambda t, f: rev_states.append(f))
        np.testing.assert_array_equal(fwd.times, rev.times)
        assert len(fwd_states) == len(rev_states) == len(fwd)
        for a, b in zip(fwd_states, rev_states):
            np.testing.assert_array_equal(a.values, -b.values)

    def test_self_similar_run_tracks_profile(self, grid32, profile32):
        """Starting from Q / T the state stays within a tight tube around
        Q / (T - t) for the first half of the lifespan."""
        sol = profile32
        T = 1.0
        w0 = RealField(grid32, sol.q.values / T)
        cfg = EvolveConfig(dt_initial=1e-3, t_max=0.5, rtol=1e-10, atol=1e-12,
                           record_every=1)
        devs = []
        trace = evolve(w0, cfg, on_record=lambda t, f: devs.append(
            self_similar_deviation(f, sol.q, T, t)))
        assert trace.terminated == "horizon"
        assert len(devs) == len(trace)
        assert max(devs) <= 1e-5


def _config_bump(n=64):
    """The bump of configs/evolve_bump.ini at grid size n."""
    return gaussian_bump(Grid(n, 16.0), width=0.5, amplitude=1.0, cutoff=2.0)


def _spy_on_step(monkeypatch):
    """Wrap the step evolve calls; return the list of (dt asked, result)."""
    calls = []
    real_step = evolution.step

    def spy(y, rate, dt, config, symbol, n):
        result = real_step(y, rate, dt, config, symbol, n)
        calls.append((dt, result))
        return result

    monkeypatch.setattr(evolution, "step", spy)
    return calls


class TestStepControl:
    """evolve shortens step's proposal by Gustafsson's prediction, so the
    steepening approach to blow-up no longer rejects about every step."""

    def test_config_bump_runs_without_rejections(self):
        trace = evolve(_config_bump(), EvolveConfig(t_max=20.0, record_every=1))
        assert trace.terminated == "threshold"
        assert trace.accepted_steps == len(trace) - 1
        assert trace.rejected_steps == 0

    def test_proposal_never_exceeds_step_dt_next(self, monkeypatch):
        """Each step evolve asks for is at most the previous step's own
        proposal; it equals it after the first step, and the prediction
        shortens it on most later steps of a blow-up run."""
        calls = _spy_on_step(monkeypatch)
        trace = evolve(_config_bump(), EvolveConfig(t_max=20.0, record_every=1))
        assert len(calls) == trace.accepted_steps
        asked = [dt for dt, _ in calls[1:]]
        proposed = [result.dt_next for _, result in calls[:-1]]
        assert all(a <= p for a, p in zip(asked, proposed))
        assert asked[0] == proposed[0]
        assert sum(a < p for a, p in zip(asked, proposed)) >= len(asked) // 2

    def test_fitted_time_matches_tight_tolerance(self):
        """The default tolerances fit T within 1e-4 of a run at
        rtol = 1e-11, far below the n = 64 grid error of about 3e-2."""
        w0 = _config_bump()
        default, tight = (evolve(w0, EvolveConfig(t_max=20.0, record_every=1, **tol))
                          for tol in ({}, {"rtol": 1e-11, "atol": 1e-13}))
        assert default.terminated == tight.terminated == "threshold"
        assert abs(default.blowup_time_estimate - tight.blowup_time_estimate) <= 1e-4

    def test_horizon_clip_is_the_last_step(self, monkeypatch):
        """With t_max in the middle of the run only the last step is
        clipped to the horizon, so no clipped step length reaches a later
        proposal."""
        calls = _spy_on_step(monkeypatch)
        t_max = 1.0
        trace = evolve(_config_bump(), EvolveConfig(t_max=t_max, record_every=1))
        assert trace.terminated == "horizon"
        t = 0.0
        clipped = []
        for dt, result in calls:
            clipped.append(dt == t_max - t)
            t += result.dt_accepted
        assert clipped == [False] * (len(calls) - 1) + [True]

    def test_clipped_step_feeds_no_prediction(self, monkeypatch, grid32):
        """A clipped step that ends short of the horizon, as rejections
        would leave it, hands on step's own proposal unshortened. A stub
        step keeps the error at 0.5 and proposes the step it took, and
        takes a tenth of the fourth, the first clipped step: a prediction
        from that step would shrink the next one thirtyfold."""
        cfg = EvolveConfig(dt_initial=0.3, t_max=1.0)
        asked, taken = [], []

        def stub(y, rate, dt, config, symbol, n):
            dt_taken = dt / 10 if len(taken) == 3 else dt
            asked.append(dt)
            taken.append(dt_taken)
            return StepResult(values=y, rate=rate, dt_accepted=dt_taken, dt_next=dt_taken,
                              error_estimate=0.5, rejected_attempts=0)

        monkeypatch.setattr(evolution, "step", stub)
        trace = evolve(RealField(grid32, np.zeros((32, 32))), cfg)
        assert trace.terminated == "horizon"
        assert asked[:3] == [0.3] * 3
        assert asked[3] == cfg.t_max - sum(taken[:3])
        assert asked[4] == taken[3]


class TestSteppingContract:
    """evolve advances through the module-level step, once per accepted
    step, and keeps its state on the support box between steps."""

    @pytest.mark.parametrize("t_max, record_every, terminated", [
        (20.0, 1, "threshold"),
        (1.0, 3, "horizon"),
    ])
    def test_calls_step_once_per_accepted_step(self, monkeypatch, t_max, record_every,
                                               terminated):
        calls = _spy_on_step(monkeypatch)
        trace = evolve(_config_bump(), EvolveConfig(t_max=t_max, record_every=record_every))
        assert trace.terminated == terminated
        assert len(calls) == trace.accepted_steps > 0

    def test_no_grid_sized_allocation_per_step(self, monkeypatch):
        """Nothing from one step of a compact bump at n = 256 to the next,
        the step included, allocates n^2 doubles: the state lives on the
        33 x 33 support box (the symbol of its circulant is built before
        the first step), and without on_record no record builds a field.
        A step peaks at about 170 kB here, against 512 kB for n^2
        doubles."""
        n = 256
        w0 = gaussian_bump(Grid(n, 32.0), width=0.5, cutoff=2.0)
        peaks, start = [], [0]
        real_step = evolution.step

        def close_interval():
            current, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - start[0])
            tracemalloc.reset_peak()
            start[0] = current

        def measured_step(*args):
            close_interval()
            return real_step(*args)

        monkeypatch.setattr(evolution, "step", measured_step)
        tracemalloc.start()
        try:
            trace = evolve(w0, EvolveConfig(t_max=20.0, record_every=1))
            close_interval()
        finally:
            tracemalloc.stop()
        assert trace.terminated == "threshold"
        # peaks[0] is the set-up before the first step; each later entry
        # covers one step and what evolve does after it
        assert len(peaks) == trace.accepted_steps + 1 > 10
        assert max(peaks[1:]) < n * n * 8


class TestBoxRecords:
    """evolve takes its records on the box of the initial support; the
    full-grid diagnostics of spectral are the oracle."""

    @pytest.mark.parametrize("n, shift, amplitude", [
        (64, (0, 0), 1.0),
        (64, (32, 32), 1.0),
        (64, (0, 0), -1.0),
        (128, (64, 10), 1.0),
    ])
    def test_records_match_the_full_grid(self, n, shift, amplitude):
        """Every record matches the full-grid diagnostics of its state: the
        sup-norm bitwise, the rest to roundoff. (32, 32) and (64, 10) make
        the box wrap periodic edges; negative data runs with sign -1."""
        w0 = _config_bump(n)
        w0 = RealField(w0.grid, amplitude * np.roll(w0.values, shift, axis=(0, 1)))
        cfg = EvolveConfig(t_max=20.0, record_every=1, sign=int(amplitude))
        oracle = []
        trace = evolve(w0, cfg, on_record=lambda t, f: oracle.append(
            (sup_norm(f), field_integral(f), l2_norm(f), quadratic_form(f))))
        assert trace.terminated == "threshold"
        sups, integrals, l2s, qforms = np.array(oracle).T
        np.testing.assert_array_equal(trace.sup_norm, sups)
        np.testing.assert_allclose(trace.integral, integrals, rtol=1e-12, atol=0)
        np.testing.assert_allclose(trace.l2_norm, l2s, rtol=1e-12, atol=0)
        np.testing.assert_allclose(trace.qform, qforms, rtol=1e-12, atol=0)

    def test_run_never_transforms_the_grid(self, monkeypatch):
        """A whole run of the compact n = 64 bump transforms only its
        17 x 17 box, padded to 36 x 36: no stage and no record takes an
        n x n transform."""
        w0 = _config_bump()
        cfg = EvolveConfig(t_max=20.0)
        # the first run of a box size also builds its cached symbol
        evolve(w0, cfg)
        grid_transforms = []
        rfft2 = np.fft.rfft2

        def run():
            def recording_rfft2(a, *args, **kwargs):
                grid_transforms.append(a.shape)
                return rfft2(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, "rfft2", recording_rfft2)
            evolve(w0, cfg)

        shapes = _transform_shapes(monkeypatch, run)
        assert grid_transforms == []
        assert shapes and set(shapes) == {((17, 17), (36, 36))}


class TestFlowLaws:
    """Laws of the continuous flow that the discrete run keeps."""

    def test_doubling_the_data_halves_time_bitwise(self):
        """w0 -> 2 w0 is w(x, t) -> 2 w(x, 2t). With the time scales halved
        and atol doubled every operation scales by a power of two, so the
        run is the same run, to the last bit."""
        w0 = _config_bump()
        cfg = EvolveConfig(t_max=20.0, record_every=1)
        base = evolve(w0, cfg)
        doubled = evolve(RealField(w0.grid, 2.0 * w0.values), EvolveConfig(
            t_max=cfg.t_max / 2, dt_initial=cfg.dt_initial / 2, dt_min=cfg.dt_min / 2,
            atol=2 * cfg.atol, record_every=1))
        assert doubled.terminated == base.terminated == "threshold"
        np.testing.assert_array_equal(doubled.times, base.times / 2)
        for column in ("sup_norm", "integral", "l2_norm"):
            np.testing.assert_array_equal(getattr(doubled, column), 2 * getattr(base, column))
        np.testing.assert_array_equal(doubled.qform, 4 * base.qform)
        assert (doubled.accepted_steps, doubled.rejected_steps) == (
            base.accepted_steps, base.rejected_steps)
        assert doubled.blowup_time_estimate == base.blowup_time_estimate / 2

    def test_mass_grows_at_the_quadratic_form(self):
        """d/dt int w = qform: each recorded step's gain in mass matches
        the trapezoid rule on qform, to the quadrature error of the step.
        The largest relative residual reads 1.78e-2 at the default
        tolerances and 1.36e-3 at rtol 1e-11, 13x smaller."""
        residuals = []
        for tol in ({}, {"rtol": 1e-11, "atol": 1e-13}):
            trace = evolve(_config_bump(), EvolveConfig(t_max=20.0, record_every=1, **tol))
            gain = np.diff(trace.integral)
            trapezoid = np.diff(trace.times) * (trace.qform[1:] + trace.qform[:-1]) / 2
            residuals.append(np.max(np.abs(gain - trapezoid) / np.abs(gain)))
        assert residuals[0] <= 2e-2
        assert residuals[1] <= 1.5e-3
        assert residuals[0] >= 8 * residuals[1]


class TestBlowupFit:
    def _trace(self, times, sups):
        n = len(times)
        return EvolutionTrace(
            times=np.asarray(times, dtype=float),
            sup_norm=np.asarray(sups, dtype=float),
            integral=np.zeros(n), l2_norm=np.zeros(n), qform=np.zeros(n),
            support_cells=np.zeros(n, dtype=int), terminated="threshold")

    def test_exact_hyperbolic_growth(self):
        times = np.linspace(0.0, 0.9, 101)
        trace = self._trace(times, 1.0 / (1.0 - times))
        t_est, quality = estimate_blowup_time(trace)
        assert t_est == pytest.approx(1.0, abs=1e-9)
        assert quality >= 1.0 - 1e-12

    def test_window_restricts_samples(self):
        """A line fitted only through the tail ignores early curvature."""
        times = np.linspace(0.0, 0.9, 201)
        sups = 1.0 / (1.0 - times) + 5.0 * np.exp(-10.0 * times)
        t_est, _ = estimate_blowup_time(self._trace(times, sups))
        assert t_est == pytest.approx(1.0, abs=1e-3)

    def test_flat_trace_has_no_trend(self):
        trace = self._trace(np.linspace(0.0, 1.0, 100), np.ones(100))
        with pytest.raises(ValueError, match="no blow-up trend"):
            estimate_blowup_time(trace)

    def test_decaying_trace_has_no_trend(self):
        times = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ValueError, match="no blow-up trend"):
            estimate_blowup_time(self._trace(times, np.exp(-times)))

    def test_needs_ten_samples(self):
        times = np.linspace(0.0, 0.9, 5)
        with pytest.raises(ValueError, match="at least 10 samples"):
            estimate_blowup_time(self._trace(times, 1.0 / (1.0 - times)))

    def test_short_trace(self):
        with pytest.raises(ValueError, match="too short"):
            estimate_blowup_time(self._trace([0.0], [1.0]))


class TestSelfSimilarDeviation:
    def test_exact_match_is_zero(self, grid32, profile32):
        q = profile32.q
        state = RealField(grid32, q.values / (1.0 - 0.3))
        assert self_similar_deviation(state, q, T=1.0, t=0.3) == 0.0

    def test_relative_scale_error(self, grid32, profile32):
        q = profile32.q
        state = RealField(grid32, 1.1 * q.values / (1.0 - 0.3))
        dev = self_similar_deviation(state, q, T=1.0, t=0.3)
        assert dev == pytest.approx(0.1, abs=1e-12)

    def test_requires_time_before_blowup(self, grid32, profile32):
        q = profile32.q
        with pytest.raises(ValueError, match="strictly less than T"):
            self_similar_deviation(q, q, T=1.0, t=1.0)

    def test_grid_mismatch(self, profile32):
        other = Grid(32, 16.0)
        state = RealField(other, np.zeros((32, 32)))
        with pytest.raises(ValueError, match="grids differ"):
            self_similar_deviation(state, profile32.q, T=1.0, t=0.0)

    def test_zero_profile_rejected(self, grid32):
        zero = RealField(grid32, np.zeros((32, 32)))
        with pytest.raises(ValueError, match="identically zero"):
            self_similar_deviation(zero, zero, T=1.0, t=0.0)


class TestGaussianBump:
    def test_peak_amplitude_on_grid_point(self, grid32):
        f = gaussian_bump(grid32, center=(0.0, 0.0), width=0.7, amplitude=2.5)
        i0 = np.argmin(np.abs(grid32.x))
        assert f.values[i0, i0] == 2.5

    def test_cutoff_gives_compact_support(self, grid32):
        f = gaussian_bump(grid32, width=0.5, cutoff=1.0)
        x1, x2 = grid32.coords()
        outside = x1**2 + x2**2 > 1.0
        assert np.all(f.values[outside] == 0.0)
        assert np.all(f.values[~outside] > 0.0)

    def test_validation(self, grid32):
        with pytest.raises(ValueError, match="width"):
            gaussian_bump(grid32, width=0.0)
        with pytest.raises(ValueError, match="cutoff"):
            gaussian_bump(grid32, width=1.0, cutoff=-1.0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"center": (np.inf, 0.0)}, "center"),
        ({"center": (0.0, np.nan)}, "center"),
        ({"width": np.inf}, "width"),
        ({"width": np.nan}, "width"),
        ({"cutoff": np.nan}, "cutoff"),
        ({"cutoff": np.inf}, "cutoff"),
    ])
    def test_non_finite_rejected(self, grid32, kwargs, name):
        """A NaN cutoff used to give an all-zero field, an infinite center
        likewise, and an infinite width a constant one."""
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gaussian_bump(grid32, **{"width": 1.0, **kwargs})


class TestExactInvariants:
    """The equation is a pointwise ODE, w(x, t) = w0(x) exp(int Z11 w dt),
    so the support and the sign of the data are kept exactly; the
    discrete flow must keep them to the last bit, up to blow-up."""

    @pytest.mark.parametrize("amplitude", [1.0, -1.0])
    def test_support_and_sign_kept_to_blowup(self, amplitude):
        grid = Grid(64, 16.0)
        w0 = gaussian_bump(grid, width=0.5, amplitude=amplitude, cutoff=2.0)
        outside = w0.values == 0.0
        # negative data blows up under the sign-flipped equation
        cfg = EvolveConfig(dt_initial=1e-3, t_max=20.0, blowup_threshold=1e5,
                           record_every=1, sign=int(amplitude))
        checked = []

        def check(t, field):
            assert np.all(field.values[outside] == 0.0)
            if amplitude > 0:
                assert field.values.min() >= 0.0
            else:
                assert field.values.max() <= 0.0
            checked.append(t)

        trace = evolve(w0, cfg, on_record=check)
        assert trace.terminated in ("threshold", "step_underflow")
        assert trace.sup_norm[-1] >= 1e3
        assert checked == list(trace.times)
        assert np.all(trace.support_cells == np.count_nonzero(~outside))

    # (37, 45) moves the box across the x1 edge; (37, 29) across both
    @pytest.mark.parametrize("shift", [(37, 45), (37, 29)])
    def test_translation_by_whole_cells_is_bitwise(self, shift):
        """Rolling the data by whole cells rolls the whole run: the box
        moves with the support, so every attempt sees the same box values
        and takes the same step, down to the last bit."""
        grid = Grid(64, 16.0)
        w0 = gaussian_bump(grid, width=0.5, cutoff=2.0)
        cfg = EvolveConfig(t_max=20.0, record_every=1)
        states, rolled_states = [], []
        trace = evolve(w0, cfg, on_record=lambda t, f: states.append(f.values))
        rolled = evolve(RealField(grid, np.roll(w0.values, shift, axis=(0, 1))), cfg,
                        on_record=lambda t, f: rolled_states.append(f.values))
        assert rolled.terminated == trace.terminated == "threshold"
        np.testing.assert_array_equal(rolled.times, trace.times)
        np.testing.assert_array_equal(rolled_states[-1], np.roll(states[-1], shift, axis=(0, 1)))
