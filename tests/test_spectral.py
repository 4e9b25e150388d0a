"""Grid, transform, and multiplier tests.

The multiplier operator is anchored against a direct DFT-matrix oracle:
the transform is re-derived from its defining sum via explicit matrix
products, independent of the FFT library code path.
"""

import tracemalloc

import numpy as np
import pytest

from z11sim import (
    Grid,
    Mask,
    RealField,
    RestrictedOperator,
    apply_z11,
    apply_z22,
    cone_mass_ratio,
    inner,
    l2_norm,
    quadratic_form,
    sup_norm,
)
from z11sim.spectral import _real_fft, _z11_symbol, field_integral


def m11_from_scratch(n: int) -> np.ndarray:
    """Z11's symbol k1^2/|k|^2 on the full n x n FFT lattice, axis 0 along
    k1, zero at k = 0, written out from its definition."""
    j = np.arange(n)
    k = np.where(j < n // 2, j, j - n).astype(float)
    k1 = k[:, None]
    k2 = k[None, :]
    denom = k1**2 + k2**2
    return np.divide(k1**2, denom, out=np.zeros((n, n)), where=denom > 0)


def dft_multiplier_oracle(values: np.ndarray) -> np.ndarray:
    """Apply the multiplier by definition: explicit DFT matrices, the
    symbol built from scratch, explicit inverse. O(n^3) matmuls, no FFT."""
    n = values.shape[0]
    j = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(j, j) / n)
    coeff = w @ values @ w.T / n**2
    symbol = m11_from_scratch(n)
    w_inv = np.conj(w)
    return (w_inv @ (symbol * coeff) @ w_inv.T).real


class TestGrid:
    def test_valid_construction(self):
        g = Grid(32, 8.0)
        assert g.n == 32
        assert g.h == 0.25
        assert g.x[0] == -4.0
        assert g.x[-1] == 4.0 - 0.25

    @pytest.mark.parametrize("n", [12, 15, 24, 33, 8, 0, -16])
    def test_invalid_n(self, n):
        with pytest.raises(ValueError, match="power of two"):
            Grid(n, 8.0)

    def test_non_integer_n(self):
        with pytest.raises(TypeError, match="integer"):
            Grid(32.0, 8.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, np.inf, np.nan])
    def test_invalid_box_length(self, length):
        with pytest.raises(ValueError, match="box_length"):
            Grid(32, length)

    def test_multiplier_is_box_independent(self):
        """The symbol is built from integer wavenumbers, so Z11 of the same
        samples is bitwise the same on boxes of any length."""
        values = np.random.default_rng(16).standard_normal((64, 64))
        small = apply_z11(RealField(Grid(64, 8.0), values)).values
        large = apply_z11(RealField(Grid(64, 32.0), values)).values
        assert small.tobytes() == large.tobytes()

    def test_multiplier_range_and_zero_mode(self):
        m11 = _z11_symbol(32, 32, full=True)
        assert m11[0, 0] == 0.0
        assert m11.min() >= 0.0
        assert m11.max() <= 1.0
        np.testing.assert_array_equal(m11[0, 1:], np.zeros(31))
        np.testing.assert_array_equal(m11[1:, 0], np.ones(31))

    def test_holds_no_mesh(self):
        """A grid keeps no n x n array: at n = 1024 it holds under 64 KiB
        (a full-plane mesh would be 8 MiB)."""
        tracemalloc.start()
        try:
            grid = Grid(1024, 16.0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert grid.x.shape == (1024,)
        assert held < 64 * 2**10

    def test_grid_equality(self):
        assert Grid(32, 8.0) == Grid(32, 8.0)
        assert Grid(32, 8.0) != Grid(32, 16.0)
        assert Grid(32, 8.0) != Grid(64, 8.0)


class TestRealField:
    def test_shape_validation(self):
        g = Grid(16, 1.0)
        with pytest.raises(ValueError, match="shape"):
            RealField(g, np.zeros((16, 8)))

    def test_finiteness_validation(self):
        g = Grid(16, 1.0)
        values = np.zeros((16, 16))
        values[3, 4] = np.nan
        with pytest.raises(ValueError, match="NaN/Inf"):
            RealField(g, values)

    def test_dtype_coercion(self):
        g = Grid(16, 1.0)
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
        rng = np.random.default_rng(12)
        values = rng.standard_normal((32, 32))
        zero_mode = np.zeros((32, 32))
        zero_mode[0, 0] = 1.0
        np.testing.assert_allclose(_real_fft(values, zero_mode), values.mean(), rtol=1e-13)
        np.testing.assert_allclose(_real_fft(values)[0, 0], values.mean() ** 2, rtol=1e-13)

    def test_parseval(self):
        g = Grid(64, 5.0)
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


    @pytest.mark.parametrize("rows, cols, box, embedding", [
        ([7], [50], (1, 1), (1, 1)),
        (range(10, 13), range(20, 40), (3, 20), (5, 40)),
        ([62, 63, 0, 1, 2], [60, 61, 62, 63, 0, 1, 2, 3, 4, 5], (5, 10), (9, 20)),
        (range(5, 45), range(3, 50), (40, 47), (64, 64)),
        (range(64), range(64), (64, 64), (64, 64)),
    ], ids=["one-cell", "rectangle", "wrapping", "p-equals-n", "full-grid"])
    def test_padding_inside_the_transform_is_bitwise(self, rows, cols, box, embedding):
        """A support's box transformed with its embedding's symbol is the
        block of the zero-padded box's transform, bit for bit, and so of
        numpy's two-dimensional real transforms of the padded box. The box
        and the symbol are those of the support's restricted operator."""
        n = 64
        occupied = np.zeros((n, n), dtype=bool)
        occupied[np.ix_(rows, cols)] = True
        op = RestrictedOperator(Mask(Grid(n, 8.0), occupied))
        symbol = op._symbol
        (b1, b2), (p1, p2) = op._box_shape, symbol.shape
        assert ((b1, b2), (p1, p2)) == (box, embedding)
        assert occupied[op._box].sum() == occupied.sum()
        values = np.random.default_rng(15).standard_normal((n, n))[op._box]
        padded = np.zeros((p1, p2))
        padded[:b1, :b2] = values
        got = _real_fft(values, symbol)
        assert got.shape == (b1, b2)
        np.testing.assert_array_equal(got, _real_fft(padded, symbol)[:b1, :b2])
        full = np.fft.irfft2(symbol[:, : p2 // 2 + 1] * np.fft.rfft2(padded), s=(p1, p2))
        np.testing.assert_array_equal(got, full[:b1, :b2])


    def test_in_place_box_transform_matches_the_per_axis_formula(self):
        """The box path runs its column passes and the symbol product in
        one half-plane buffer, in place; its result is bitwise that of
        the out-of-place per-axis transforms, with numpy padding each
        axis, for drawn boxes b <= p with odd and even embedding sizes,
        for boxes that fill their embedding, and for the unit impulse,
        whose result is the inverse transform of the symbol alone. Z11's
        half plane built inside the transform gives the same as its full
        plane handed in."""
        def per_axis(values, symbol):
            (b1, b2), (p1, p2) = values.shape, symbol.shape
            coeff = np.fft.fft(np.fft.rfft(values, n=p2, axis=1), n=p1, axis=0)
            coeff *= symbol[:, : p2 // 2 + 1]
            return np.fft.irfft(np.fft.ifft(coeff, axis=0)[:b1], n=p2, axis=1)[:, :b2]

        rng = np.random.default_rng(35)
        sizes = [tuple(rng.integers(1, 49, size=2)) for _ in range(40)]
        sizes += [(1, 1), (2, 2), (15, 36), (36, 15), (45, 45), (64, 64)]
        parities = set()
        for p1, p2 in sizes:
            symbol = rng.random((p1, p2))
            for b1, b2 in ((rng.integers(1, p1 + 1), rng.integers(1, p2 + 1)), (p1, p2)):
                values = rng.standard_normal((b1, b2))
                got = _real_fft(values, symbol)
                assert got.tobytes() == per_axis(values, symbol).tobytes()
            impulse = np.zeros((p1, p2))
            impulse[0, 0] = 1.0
            assert _real_fft((p1, p2), symbol).tobytes() == per_axis(impulse, symbol).tobytes()
            parities |= {p1 % 2, p2 % 2}
        assert parities == {0, 1}
        values = rng.standard_normal((32, 32))
        assert (_real_fft(values, _z11_symbol).tobytes()
                == per_axis(values, m11_from_scratch(32)).tobytes())


class TestZ11Symbol:
    """Z11's symbol is built where it is multiplied; each form is bitwise
    the symbol written out from its definition."""

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_full_and_half_plane_match_the_definition(self, n):
        expected = m11_from_scratch(n)
        full = _z11_symbol(n, n, full=True)
        half = _z11_symbol(n, n)
        assert full.shape == (n, n) and half.shape == (n, n // 2 + 1)
        assert full.tobytes() == expected.tobytes()
        assert half.tobytes() == np.ascontiguousarray(expected[:, : n // 2 + 1]).tobytes()
        # column blocks of the half plane, with and without the zero column
        for block in (slice(0, 3), slice(3, n // 2 + 1)):
            got = _z11_symbol(n, n, columns=block)
            assert got.tobytes() == np.ascontiguousarray(expected[:, block]).tobytes()

    @pytest.mark.parametrize("n", [32, 256])
    def test_apply_matches_the_transform_of_the_full_plane(self, n):
        """The half plane built between the transform's passes gives
        bitwise the result of the full-plane symbol handed in whole."""
        values = np.random.default_rng(n + 1).standard_normal((n, n))
        got = apply_z11(RealField(Grid(n, 8.0), values)).values
        assert got.tobytes() == _real_fft(values, m11_from_scratch(n)).tobytes()

    @pytest.mark.parametrize("n", [16, 32, 256])
    def test_row_restricted_transform_gives_the_full_rows(self, n):
        """With ``rows``, the transform of a field with rows of zeros, and
        that of the unit impulse, are those rows of the full transform,
        bitwise and in the order asked for."""
        values = np.random.default_rng(n + 2).standard_normal((n, n))
        values[n // 4: n // 2] = 0.0
        impulse = np.zeros((n, n))
        impulse[0, 0] = 1.0
        rows = np.array([n - 1, 0, n // 3, n // 4, 5])
        for data, full_input in ((values, values), ((n, n), impulse)):
            full = _real_fft(full_input, m11_from_scratch(n))
            got = _real_fft(data, _z11_symbol, rows=rows)
            assert got.tobytes() == np.ascontiguousarray(full[rows]).tobytes()


class TestMultiplierOperators:
    def test_matches_direct_dft_oracle(self):
        """apply_z11 against the definitional transform, no shared code."""
        g = Grid(16, 8.0)
        rng = np.random.default_rng(21)
        values = rng.standard_normal((16, 16))
        expected = dft_multiplier_oracle(values)
        got = apply_z11(RealField(g, values)).values
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_x1_wave_identity(self):
        g = Grid(64, 2 * np.pi)
        x1, _ = g.coords()
        f = RealField(g, np.cos(3 * x1) + 2.0 * np.sin(7 * x1))
        assert np.max(np.abs(apply_z11(f).values - f.values)) <= 1e-12

    def test_x2_wave_annihilation(self):
        g = Grid(64, 2 * np.pi)
        _, x2 = g.coords()
        f = RealField(g, np.sin(2 * x2) - 0.5 * np.cos(5 * x2))
        assert np.max(np.abs(apply_z11(f).values)) == 0.0

    def test_completeness_on_mean_zero(self):
        g = Grid(64, 2 * np.pi)
        rng = np.random.default_rng(22)
        values = rng.standard_normal((64, 64))
        values -= values.mean()
        f = RealField(g, values)
        total = apply_z11(f).values + apply_z22(f).values
        assert np.max(np.abs(total - values)) <= 1e-12

    @pytest.mark.parametrize("n", [32, 64])
    def test_transposition_swaps_z11_and_z22(self, n):
        """Transposing the data conjugates Z11 into Z22. The Z22 symbol is
        the transposed Z11 full plane bit for bit, so the law holds up to the
        FFT's roundoff: the real transform runs along the last axis, so
        transposed data takes another rounding path. The data has a
        nonzero mean, so a companion built as 1 - Z11 (which is 1 on the
        zero mode) fails here."""
        g = Grid(n, 8.0)
        j = np.arange(n)
        k = np.where(j < n // 2, j, j - n).astype(float)
        denom = k[:, None] ** 2 + k[None, :] ** 2
        m22 = np.divide(k[None, :] ** 2, denom, out=np.zeros((n, n)), where=denom > 0)
        assert np.array_equal(_z11_symbol(n, n, full=True).T, m22)

        values = 0.5 + np.random.default_rng(n).standard_normal((n, n))
        swapped = apply_z11(RealField(g, values.T)).values.T
        np.testing.assert_allclose(apply_z22(RealField(g, values)).values, swapped,
                                   rtol=0, atol=1e-13)

    def test_kills_constants(self):
        g = Grid(32, 8.0)
        f = RealField(g, np.full((32, 32), 3.7))
        assert np.max(np.abs(apply_z11(f).values)) <= 1e-14

    def test_symmetry(self):
        g = Grid(32, 8.0)
        rng = np.random.default_rng(23)
        f = RealField(g, rng.standard_normal((32, 32)))
        h = RealField(g, rng.standard_normal((32, 32)))
        assert abs(inner(apply_z11(f), h) - inner(f, apply_z11(h))) <= 1e-12

    def test_preserves_realness_and_linearity(self):
        g = Grid(32, 8.0)
        rng = np.random.default_rng(24)
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        combined = apply_z11(RealField(g, 2.0 * a - 3.0 * b)).values
        separate = 2.0 * apply_z11(RealField(g, a)).values - 3.0 * apply_z11(RealField(g, b)).values
        np.testing.assert_allclose(combined, separate, atol=1e-12)


class TestQuadraticForm:
    def test_matches_inner_product(self):
        g = Grid(64, 7.0)
        rng = np.random.default_rng(31)
        f = RealField(g, rng.standard_normal((64, 64)))
        qf = quadratic_form(f)
        direct = inner(apply_z11(f), f)
        assert abs(qf - direct) / abs(direct) <= 1e-10

    def test_nonnegative_on_sign_changing_fields(self):
        g = Grid(32, 8.0)
        rng = np.random.default_rng(32)
        for _ in range(20):
            f = RealField(g, rng.standard_normal((32, 32)))
            assert quadratic_form(f) >= 0.0

    def test_zero_for_pure_x2_fields(self):
        g = Grid(32, 2 * np.pi)
        _, x2 = g.coords()
        f = RealField(g, np.sin(3 * x2))
        assert quadratic_form(f) == 0.0

    @pytest.mark.parametrize("n", [16, 32])
    def test_matches_full_plane_oracle(self, n):
        """The multiplier summed against the mirrored full-plane power,
        against the full complex transform, on a field with energy on the
        Nyquist row and column, whose coefficients are their own mirrors."""
        g = Grid(n, 5.0)
        i = np.arange(n)
        nyquist = (-1.0) ** i
        values = (np.random.default_rng(34).standard_normal((n, n))
                  + 3.0 * np.outer(nyquist, np.cos(6 * np.pi * i / n))
                  + 2.0 * np.outer(np.sin(2 * np.pi * i / n), nyquist)
                  + np.outer(nyquist, nyquist))
        k = np.fft.fftfreq(n, 1.0 / n)
        ksq = k[:, None] ** 2 + k[None, :] ** 2
        symbol = np.divide(k[:, None] ** 2, ksq, out=np.zeros((n, n)), where=ksq > 0)
        coeff = np.fft.fft2(values) / n**2
        expected = g.box_length**2 * np.sum(symbol * np.abs(coeff) ** 2)
        qf = quadratic_form(RealField(g, values))
        np.testing.assert_allclose(qf, expected, rtol=1e-13)
        assert qf >= 0.0

    def test_scaling(self):
        g = Grid(32, 8.0)
        rng = np.random.default_rng(33)
        values = rng.standard_normal((32, 32))
        one = quadratic_form(RealField(g, values))
        four = quadratic_form(RealField(g, 2.0 * values))
        np.testing.assert_allclose(four, 4.0 * one, rtol=1e-13)


class TestNormsAndIntegral:
    def test_against_direct_sums(self):
        g = Grid(32, 8.0)
        rng = np.random.default_rng(41)
        values = rng.standard_normal((32, 32))
        f = RealField(g, values)
        h2 = 0.25**2
        assert sup_norm(f) == np.abs(values).max()
        np.testing.assert_allclose(l2_norm(f), np.sqrt(h2 * np.sum(values**2)), rtol=1e-14)
        np.testing.assert_allclose(field_integral(f), h2 * values.sum(), rtol=1e-14)

    def test_constant_integral(self):
        g = Grid(32, 8.0)
        f = RealField(g, np.full((32, 32), 2.0))
        np.testing.assert_allclose(field_integral(f), 2.0 * 8.0**2, rtol=1e-14)


class TestConeMassRatio:
    def test_parameter_validation(self):
        g = Grid(32, 8.0)
        f = RealField(g, np.ones((32, 32)))
        with pytest.raises(ValueError, match="exceed 1"):
            cone_mass_ratio(f, 1.0)
        with pytest.raises(ValueError, match="exceed 1"):
            cone_mass_ratio(f, 0.5)

    def test_zero_field_rejected(self):
        g = Grid(32, 8.0)
        with pytest.raises(ValueError, match="zero field"):
            cone_mass_ratio(RealField(g, np.zeros((32, 32))), 2.0)

    def test_pure_x1_wave_outside_cone(self):
        """The lam2 = 0 axis is excluded, so a pure x1-wave has ratio 0."""
        g = Grid(32, 2 * np.pi)
        x1, _ = g.coords()
        assert cone_mass_ratio(RealField(g, np.cos(3 * x1)), 2.0) == 0.0

    def test_diagonal_wave_inside_cone(self):
        g = Grid(32, 2 * np.pi)
        x1, x2 = g.coords()
        f = RealField(g, np.cos(2 * (x1 + x2)))
        assert cone_mass_ratio(f, 2.0) >= 1.0 - 1e-12

    def test_widening_cone_captures_more(self):
        g = Grid(64, 8.0)
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
        g = Grid(n, 8.0)
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
