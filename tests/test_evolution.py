"""Time-integration tests.

The right-hand side is pinned against exact algebraic identities (quadratic
scaling, annihilation of fields constant in x1, mass production equal to the
quadratic form) and the solved profile's defect. Stepper order is measured
by step halving against a fine reference.
"""

import numpy as np
import pytest

from z11sim import (
    Disk,
    EvolutionTrace,
    EvolveConfig,
    RealField,
    RestrictedOperator,
    StepUnderflowError,
    estimate_blowup_time,
    evolve,
    field_integral,
    gaussian_bump,
    l2_norm,
    make_grid,
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
from z11sim.evolution import _RK_A, _RK_B4, _RK_B5, _RK_C, _RK_E


@pytest.fixture(scope="module")
def grid32():
    return make_grid(32, 8.0)


@pytest.fixture(scope="module")
def profile32(grid32):
    op = RestrictedOperator(grid32, rasterize(Disk((0.0, 0.0), 0.5), grid32))
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
        {"sign": 0},
        {"sign": 2},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EvolveConfig(**kwargs)


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


class TestStep:
    def test_rejects_nonpositive_dt(self, grid32):
        cfg = EvolveConfig()
        with pytest.raises(ValueError, match="dt must be positive"):
            step(gaussian_bump(grid32, width=0.8), -0.1, cfg)

    def test_zero_field_grows_step_maximally(self, grid32):
        cfg = EvolveConfig()
        result = step(RealField(grid32, np.zeros((32, 32))), 1e-3, cfg)
        assert result.error_estimate == 0.0
        assert result.dt_accepted == 1e-3
        assert result.dt_next == pytest.approx(5e-3)

    def test_accepted_step_meets_tolerance(self, grid32):
        cfg = EvolveConfig(rtol=1e-8, atol=1e-10)
        result = step(gaussian_bump(grid32, width=0.8), 1e-2, cfg)
        assert result.error_estimate <= 1.0
        assert np.all(np.isfinite(result.field.values))

    def test_rejection_shrinks_before_accepting(self, grid32):
        cfg = EvolveConfig(rtol=1e-12, atol=1e-14, dt_min=1e-12)
        result = step(gaussian_bump(grid32, width=0.8, amplitude=3.0), 0.5, cfg)
        assert result.dt_accepted < 0.5
        assert result.error_estimate <= 1.0

    def test_underflow_when_floor_too_high(self, grid32):
        """Violent data rejects the first attempt; with dt_min close to the
        attempted step there is no room to shrink."""
        cfg = EvolveConfig(dt_initial=1e-3, dt_min=9e-4, rtol=1e-10, atol=1e-12)
        wild = gaussian_bump(grid32, width=0.5, amplitude=1e8)
        with pytest.raises(StepUnderflowError, match="below dt_min") as excinfo:
            step(wild, 1e-3, cfg)
        assert excinfo.value.dt_required < excinfo.value.dt_min == 9e-4


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
        t_est, quality = estimate_blowup_time(trace, fit_window=0.2)
        assert t_est == pytest.approx(1.0, abs=1e-9)
        assert quality >= 1.0 - 1e-12

    def test_window_restricts_samples(self):
        """A line fitted only through the tail ignores early curvature."""
        times = np.linspace(0.0, 0.9, 201)
        sups = 1.0 / (1.0 - times) + 5.0 * np.exp(-10.0 * times)
        t_est, _ = estimate_blowup_time(self._trace(times, sups), fit_window=0.1)
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

    def test_window_domain(self):
        trace = self._trace(np.linspace(0.0, 0.9, 31), np.ones(31))
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="fit_window"):
                estimate_blowup_time(trace, fit_window=bad)


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
        other = make_grid(32, 16.0)
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


class TestExactInvariants:
    """The equation is a pointwise ODE, w(x, t) = w0(x) exp(int Z11 w dt),
    so the support and the sign of the data are kept exactly; the
    discrete flow must keep them to the last bit, up to blow-up."""

    @pytest.mark.parametrize("amplitude", [1.0, -1.0])
    def test_support_and_sign_kept_to_blowup(self, amplitude):
        grid = make_grid(64, 16.0)
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
