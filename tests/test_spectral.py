"""Grid, transform, and multiplier tests.

The multiplier operator is anchored against a direct DFT-matrix oracle:
the transform is re-derived from its defining sum via explicit matrix
products, independent of the FFT library code path.
"""

import numpy as np
import pytest

from z11sim import (
    Grid,
    RealField,
    apply_z11,
    apply_z22,
    cone_mass_ratio,
    field_integral,
    inner,
    l2_norm,
    make_grid,
    quadratic_form,
    sup_norm,
)
from z11sim.spectral import _real_fft


def dft_multiplier_oracle(values: np.ndarray) -> np.ndarray:
    """Apply the multiplier by definition: explicit DFT matrices, the
    symbol built from scratch, explicit inverse. O(n^3) matmuls, no FFT."""
    n = values.shape[0]
    j = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(j, j) / n)
    coeff = w @ values @ w.T / n**2

    k = np.where(j < n // 2, j, j - n).astype(float)
    k1 = k[:, None]
    k2 = k[None, :]
    denom = k1**2 + k2**2
    symbol = np.divide(k1**2, denom, out=np.zeros((n, n)), where=denom > 0)

    w_inv = np.conj(w)
    return (w_inv @ (symbol * coeff) @ w_inv.T).real


class TestGrid:
    def test_valid_construction(self):
        g = make_grid(32, 8.0)
        assert g.n == 32
        assert g.h == 0.25
        assert g.x[0] == -4.0
        assert g.x[-1] == 4.0 - 0.25

    @pytest.mark.parametrize("n", [12, 15, 24, 33, 8, 0, -16])
    def test_invalid_n(self, n):
        with pytest.raises(ValueError, match="power of two"):
            make_grid(n, 8.0)

    def test_non_integer_n(self):
        with pytest.raises(TypeError, match="integer"):
            make_grid(32.0, 8.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, np.inf, np.nan])
    def test_invalid_box_length(self, length):
        with pytest.raises(ValueError, match="box_length"):
            make_grid(32, length)

    def test_wavenumber_layout(self):
        g = make_grid(16, 2 * np.pi)
        assert g.k1[0, 0] == 0
        assert g.k1[1, 0] == 1
        assert g.k1[-1, 0] == -1
        assert g.k1[8, 0] == -8
        np.testing.assert_array_equal(g.k2, g.k1.T)
        np.testing.assert_allclose(g.lam1, g.k1.astype(float), atol=1e-15)

    def test_multiplier_is_box_independent(self):
        small = make_grid(32, 4.0)
        large = make_grid(32, 64.0)
        np.testing.assert_array_equal(small.m11, large.m11)
        np.testing.assert_array_equal(small.m22, large.m22)

    def test_multiplier_range_and_zero_mode(self):
        g = make_grid(32, 8.0)
        assert g.m11[0, 0] == 0.0
        assert g.m11.min() >= 0.0
        assert g.m11.max() <= 1.0
        np.testing.assert_array_equal(g.m11[0, 1:], np.zeros(31))
        np.testing.assert_array_equal(g.m11[1:, 0], np.ones(31))

    def test_grid_equality(self):
        assert make_grid(32, 8.0) == make_grid(32, 8.0)
        assert make_grid(32, 8.0) != make_grid(32, 16.0)
        assert make_grid(32, 8.0) != make_grid(64, 8.0)


class TestRealField:
    def test_shape_validation(self):
        g = make_grid(16, 1.0)
        with pytest.raises(ValueError, match="shape"):
            RealField(g, np.zeros((16, 8)))

    def test_finiteness_validation(self):
        g = make_grid(16, 1.0)
        values = np.zeros((16, 16))
        values[3, 4] = np.nan
        with pytest.raises(ValueError, match="NaN/Inf"):
            RealField(g, values)

    def test_dtype_coercion(self):
        g = make_grid(16, 1.0)
        f = RealField(g, np.ones((16, 16), dtype=np.float32))
        assert f.values.dtype == np.float64


class TestTransforms:
    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        for shape in ((64, 64), (16, 64), (64, 8)):
            values = rng.standard_normal(shape)
            back = _real_fft(values, np.ones(shape))
            assert np.max(np.abs(back - values)) <= 1e-12

    def test_zero_coefficient_is_mean(self):
        g = make_grid(32, 8.0)
        rng = np.random.default_rng(12)
        values = rng.standard_normal((32, 32))
        zero_mode = np.where((g.k1 == 0) & (g.k2 == 0), 1.0, 0.0)
        np.testing.assert_allclose(_real_fft(values, zero_mode), values.mean(), rtol=1e-13)
        np.testing.assert_allclose(_real_fft(values)[0, 0], values.mean() ** 2, rtol=1e-13)

    def test_parseval(self):
        g = make_grid(64, 5.0)
        rng = np.random.default_rng(13)
        f = RealField(g, rng.standard_normal((64, 64)))
        spectral = g.box_length**2 * np.sum(_real_fft(f.values))
        physical = l2_norm(f) ** 2
        assert abs(spectral - physical) / physical <= 1e-12

    def test_power_matches_full_plane_transform(self):
        """The half-plane power mirrored onto full-plane labels equals the
        power of the complex transform at every lattice frequency."""
        rng = np.random.default_rng(14)
        for shape in ((32, 32), (8, 32), (32, 16)):
            values = rng.standard_normal(shape)
            coeff = np.fft.fft2(values) / values.size
            np.testing.assert_allclose(_real_fft(values), np.abs(coeff) ** 2,
                                       rtol=1e-12, atol=1e-18)


class TestMultiplierOperators:
    def test_matches_direct_dft_oracle(self):
        """apply_z11 against the definitional transform, no shared code."""
        g = make_grid(16, 8.0)
        rng = np.random.default_rng(21)
        values = rng.standard_normal((16, 16))
        expected = dft_multiplier_oracle(values)
        got = apply_z11(RealField(g, values)).values
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_x1_wave_identity(self):
        g = make_grid(64, 2 * np.pi)
        x1, _ = g.coords()
        f = RealField(g, np.cos(3 * x1) + 2.0 * np.sin(7 * x1))
        assert np.max(np.abs(apply_z11(f).values - f.values)) <= 1e-12

    def test_x2_wave_annihilation(self):
        g = make_grid(64, 2 * np.pi)
        _, x2 = g.coords()
        f = RealField(g, np.sin(2 * x2) - 0.5 * np.cos(5 * x2))
        assert np.max(np.abs(apply_z11(f).values)) == 0.0

    def test_completeness_on_mean_zero(self):
        g = make_grid(64, 2 * np.pi)
        rng = np.random.default_rng(22)
        values = rng.standard_normal((64, 64))
        values -= values.mean()
        f = RealField(g, values)
        total = apply_z11(f).values + apply_z22(f).values
        assert np.max(np.abs(total - values)) <= 1e-12

    def test_kills_constants(self):
        g = make_grid(32, 8.0)
        f = RealField(g, np.full((32, 32), 3.7))
        assert np.max(np.abs(apply_z11(f).values)) <= 1e-14

    def test_symmetry(self):
        g = make_grid(32, 8.0)
        rng = np.random.default_rng(23)
        f = RealField(g, rng.standard_normal((32, 32)))
        h = RealField(g, rng.standard_normal((32, 32)))
        assert abs(inner(apply_z11(f), h) - inner(f, apply_z11(h))) <= 1e-12

    def test_preserves_realness_and_linearity(self):
        g = make_grid(32, 8.0)
        rng = np.random.default_rng(24)
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        combined = apply_z11(RealField(g, 2.0 * a - 3.0 * b)).values
        separate = 2.0 * apply_z11(RealField(g, a)).values - 3.0 * apply_z11(RealField(g, b)).values
        np.testing.assert_allclose(combined, separate, atol=1e-12)


class TestQuadraticForm:
    def test_matches_inner_product(self):
        g = make_grid(64, 7.0)
        rng = np.random.default_rng(31)
        f = RealField(g, rng.standard_normal((64, 64)))
        qf = quadratic_form(f)
        direct = inner(apply_z11(f), f)
        assert abs(qf - direct) / abs(direct) <= 1e-10

    def test_nonnegative_on_sign_changing_fields(self):
        g = make_grid(32, 8.0)
        rng = np.random.default_rng(32)
        for _ in range(20):
            f = RealField(g, rng.standard_normal((32, 32)))
            assert quadratic_form(f) >= 0.0

    def test_zero_for_pure_x2_fields(self):
        g = make_grid(32, 2 * np.pi)
        _, x2 = g.coords()
        f = RealField(g, np.sin(3 * x2))
        assert quadratic_form(f) == 0.0

    def test_scaling(self):
        g = make_grid(32, 8.0)
        rng = np.random.default_rng(33)
        values = rng.standard_normal((32, 32))
        one = quadratic_form(RealField(g, values))
        four = quadratic_form(RealField(g, 2.0 * values))
        np.testing.assert_allclose(four, 4.0 * one, rtol=1e-13)


class TestNormsAndIntegral:
    def test_against_direct_sums(self):
        g = make_grid(32, 8.0)
        rng = np.random.default_rng(41)
        values = rng.standard_normal((32, 32))
        f = RealField(g, values)
        h2 = 0.25**2
        assert sup_norm(f) == np.abs(values).max()
        np.testing.assert_allclose(l2_norm(f), np.sqrt(h2 * np.sum(values**2)), rtol=1e-14)
        np.testing.assert_allclose(field_integral(f), h2 * values.sum(), rtol=1e-14)

    def test_constant_integral(self):
        g = make_grid(32, 8.0)
        f = RealField(g, np.full((32, 32), 2.0))
        np.testing.assert_allclose(field_integral(f), 2.0 * 8.0**2, rtol=1e-14)


class TestConeMassRatio:
    def test_parameter_validation(self):
        g = make_grid(32, 8.0)
        f = RealField(g, np.ones((32, 32)))
        with pytest.raises(ValueError, match="exceed 1"):
            cone_mass_ratio(f, 1.0)
        with pytest.raises(ValueError, match="exceed 1"):
            cone_mass_ratio(f, 0.5)

    def test_zero_field_rejected(self):
        g = make_grid(32, 8.0)
        with pytest.raises(ValueError, match="zero field"):
            cone_mass_ratio(RealField(g, np.zeros((32, 32))), 2.0)

    def test_pure_x1_wave_outside_cone(self):
        """The lam2 = 0 axis is excluded, so a pure x1-wave has ratio 0."""
        g = make_grid(32, 2 * np.pi)
        x1, _ = g.coords()
        assert cone_mass_ratio(RealField(g, np.cos(3 * x1)), 2.0) == 0.0

    def test_diagonal_wave_inside_cone(self):
        g = make_grid(32, 2 * np.pi)
        x1, x2 = g.coords()
        f = RealField(g, np.cos(2 * (x1 + x2)))
        assert cone_mass_ratio(f, 2.0) >= 1.0 - 1e-12

    def test_widening_cone_captures_more(self):
        g = make_grid(64, 8.0)
        rng = np.random.default_rng(42)
        f = RealField(g, rng.standard_normal((64, 64)))
        narrow = cone_mass_ratio(f, 1.5)
        wide = cone_mass_ratio(f, 4.0)
        assert 0.0 < narrow < wide < 1.0

    def test_matches_full_plane_definition(self):
        """Against a full-plane definition built here from the DFT matrix.

        A random field has power on the Nyquist row k1 = -n/2, whose labels
        (-n/2, j) and (-n/2, -j) have k1/k2 of opposite sign, so at most one
        lies in the cone; a half-plane sum that doubles columns instead of
        mirroring them to their own labels is caught here."""
        n = 32
        g = make_grid(n, 8.0)
        rng = np.random.default_rng(43)
        values = rng.standard_normal((n, n))
        j = np.arange(n)
        w = np.exp(-2j * np.pi * np.outer(j, j) / n)
        power = np.abs(w @ values @ w.T) ** 2
        k = np.where(j < n // 2, j, j - n).astype(float)
        k1 = k[:, None] * np.ones(n)
        k2 = np.ones(n)[:, None] * k[None, :]
        assert power[n // 2, 1:].sum() > 0.0
        for cone in (1.5, 2.0, 4.0):
            in_cone = np.zeros((n, n), dtype=bool)
            for a in range(n):
                for b in range(n):
                    if k2[a, b] != 0:
                        in_cone[a, b] = 1.0 / cone < k1[a, b] / k2[a, b] < cone
            expected = power[in_cone].sum() / power.sum()
            got = cone_mass_ratio(RealField(g, values), cone)
            assert abs(got - expected) <= 1e-14
