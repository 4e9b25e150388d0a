"""Restricted-operator and profile-solve tests.

Independence anchors: the operator application is checked against the
definitional DFT-matrix computation (no FFT code shared), the single-cell
operator value against the closed-form lattice mean of the symbol, and
the conjugate-gradient solution against a dense linear solve.
"""

import numpy as np
import pytest

from z11sim import (
    Annulus,
    ConvergenceError,
    CurvatureBreakdownError,
    Disk,
    Ellipse,
    Grid,
    Mask,
    ProfileSolution,
    RealField,
    RestrictedOperator,
    ShapeUnion,
    SingularOperatorError,
    apply_z11,
    dense_L_matrix,
    estimate_coercivity,
    l2_norm,
    mask_area,
    rasterize,
    solve_profile,
    sup_norm,
    verify_profile,
)
from z11sim import profile
from z11sim.profile import (_CHECK_EVERY, _DIRECT_CELLS, _cg, _lanczos_smallest,
                            _lowest_ritz_pair)

from test_spectral import dft_multiplier_oracle


@pytest.fixture(scope="module")
def disk_setup():
    grid = Grid(32, 8.0)
    mask = rasterize(Disk((0.0, 0.0), 1.0), grid)
    return grid, mask, RestrictedOperator(mask)


class TestApplyL:
    """The matrix-free action of the restricted operator L,
    ``RestrictedOperator.apply_packed`` on member-cell vectors."""

    def test_matches_direct_dft_oracle(self):
        grid = Grid(16, 4.0)
        mask = rasterize(Disk((0.0, 0.0), 0.5), grid)
        op = RestrictedOperator(mask)
        x = np.random.default_rng(61).standard_normal(mask.cell_count)
        expected = mask.pack(dft_multiplier_oracle(mask.unpack(x)))
        np.testing.assert_allclose(op.apply_packed(x), expected, atol=1e-13)

    def test_translation_equivariance(self, disk_setup):
        """Rolling the mask and the input rolls the output: the multiplier
        commutes with lattice translations."""
        grid, mask, op = disk_setup
        x = np.random.default_rng(63).standard_normal(mask.cell_count)
        out = mask.unpack(op.apply_packed(x))

        shift = (5, -3)
        rolled_mask = Mask(grid, np.roll(mask.indicator, shift, axis=(0, 1)))
        rolled_op = RestrictedOperator(rolled_mask)
        rolled_x = rolled_mask.pack(np.roll(mask.unpack(x), shift, axis=(0, 1)))
        rolled_out = rolled_mask.unpack(rolled_op.apply_packed(rolled_x))
        np.testing.assert_allclose(rolled_out, np.roll(out, shift, axis=(0, 1)), atol=1e-13)


def _corner_disk(grid):
    """A disk centred on the box corner, so it wraps both periodic edges."""
    centred = rasterize(Disk((0.0, 0.0), 1.0), grid).indicator
    return np.roll(centred, (grid.n // 2, grid.n // 2), axis=(0, 1))


def _strip(grid):
    ind = np.zeros((grid.n, grid.n), dtype=bool)
    ind[40:43, 10:30] = True
    return ind


def _single_cell(grid):
    ind = np.zeros((grid.n, grid.n), dtype=bool)
    ind[7, 90] = True
    return ind


def _two_disks(grid):
    shape = ShapeUnion((Disk((-0.4, 0.15), 0.3), Disk((0.45, -0.25), 0.35)))
    return rasterize(shape, grid).indicator


def _wide_scatter(grid):
    """Random cells spread over 80 of 128 rows and columns."""
    ind = np.zeros((grid.n, grid.n), dtype=bool)
    ind[20:100, 30:110] = np.random.default_rng(65).random((80, 80)) < 0.1
    return ind


def _transform_shapes(monkeypatch, call):
    """(data shape, padded size) of each forward transform that call()
    runs: the rows are transformed first, padded to the rfft length, and
    the columns after, padded to the fft length."""
    shapes = []
    rfft, fft = np.fft.rfft, np.fft.fft

    def recording_rfft(a, n=None, axis=-1, *args, **kwargs):
        assert axis == 1
        shapes.append([a.shape, n])
        return rfft(a, n, axis, *args, **kwargs)

    def recording_fft(a, n=None, axis=-1, *args, **kwargs):
        assert axis == 0
        shapes[-1][1] = (n, shapes[-1][1])
        return fft(a, n, axis, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    monkeypatch.setattr(np.fft, "fft", recording_fft)
    call()
    monkeypatch.undo()
    return [tuple(pair) for pair in shapes]


class TestEmbeddedApply:
    """The box-embedded application against the full-grid multiplier."""

    @pytest.mark.parametrize("build, box", [
        (_corner_disk, ((17, 17), (36, 36))),
        (_strip, ((3, 20), (5, 40))),
        (_single_cell, ((1, 1), (1, 1))),
        (_two_disks, ((12, 8), (24, 15))),
        (_wide_scatter, ((80, 80), (128, 128))),
    ])
    def test_matches_full_grid(self, monkeypatch, build, box):
        """One transform of the mask's bounding box (the data), padded
        inside the transform to the circulant embedding."""
        grid = Grid(128, 16.0)
        mask = Mask(grid, build(grid))
        op = RestrictedOperator(mask)
        x = np.random.default_rng(66).standard_normal(mask.cell_count)
        full = mask.pack(apply_z11(RealField(grid, mask.unpack(x))).values)
        np.testing.assert_allclose(op.apply_packed(x), full, rtol=0, atol=1e-13)
        assert _transform_shapes(monkeypatch, lambda: op.apply_packed(x)) == [box]

    def test_transform_size_independent_of_grid(self, monkeypatch):
        """At fixed h the unit disk has the same 32 x 32 bounding box, padded
        to the same 64 x 64 embedding, whatever the box length, so an
        application costs the same at any n. The centre sits off the
        lattice so the disk spans 32 cells per axis."""
        shapes = []
        for box_length, n in ((8.0, 128), (16.0, 256)):
            grid = Grid(n, box_length)
            mask = rasterize(Disk((0.01, 0.02), 1.0), grid)
            op = RestrictedOperator(mask)
            shapes += _transform_shapes(monkeypatch,
                                        lambda: op.apply_packed(np.ones(mask.cell_count)))
        assert shapes == [((32, 32), (64, 64))] * 2


class TestDenseMatrix:
    def test_single_cell_closed_form(self):
        """One-cell operator value is the lattice mean of the symbol,
        (n^2 - 1) / (2 n^2): the symbol and its axis-swapped companion sum
        to 1 at every nonzero frequency and swapping is a lattice bijection."""
        grid = Grid(32, 8.0)
        ind = np.zeros((32, 32), dtype=bool)
        ind[4, 20] = True
        op = RestrictedOperator(Mask(grid, ind))
        dense = dense_L_matrix(op)
        assert dense.shape == (1, 1)
        np.testing.assert_allclose(dense[0, 0], (32**2 - 1) / (2 * 32**2), atol=1e-13)

    def test_matches_independent_assembly(self):
        """Dense matrix against entrywise DFT-oracle assembly."""
        grid = Grid(16, 4.0)
        mask = rasterize(Disk((0.0, 0.0), 0.5), grid)
        op = RestrictedOperator(mask)
        dense = dense_L_matrix(op)

        m = mask.cell_count
        expected = np.empty((m, m))
        for j in range(m):
            unit = mask.unpack(np.eye(m)[j])
            expected[:, j] = mask.pack(dft_multiplier_oracle(unit))
        np.testing.assert_allclose(dense, expected, atol=1e-12)

    def test_symmetric(self, disk_setup):
        dense = dense_L_matrix(disk_setup[2])
        assert np.max(np.abs(dense - dense.T)) <= 1e-12

    def test_eigenvalues_in_unit_interval(self, disk_setup):
        evals = np.linalg.eigvalsh(dense_L_matrix(disk_setup[2]))
        assert evals.min() > 0.0
        assert evals.max() <= 1.0 + 1e-12

    def test_matches_matrix_free_action(self, disk_setup):
        grid, mask, op = disk_setup
        dense = dense_L_matrix(op)
        rng = np.random.default_rng(64)
        for _ in range(20):
            x = rng.standard_normal(mask.cell_count)
            direct = op.apply_packed(x)
            np.testing.assert_allclose(dense @ x, direct, atol=1e-10)

    def test_cell_limit(self):
        grid = Grid(128, 16.0)
        ind = np.zeros((128, 128), dtype=bool)
        ind[:65, :65] = True  # 4225 cells
        op = RestrictedOperator(Mask(grid, ind))
        with pytest.raises(ValueError, match="dense assembly refused"):
            dense_L_matrix(op)


def _tiny_operator(cells: int) -> RestrictedOperator:
    """Operator on the first ``cells`` cells, row by row, of an 8-wide
    block of a 32-cell grid."""
    grid = Grid(32, 8.0)
    ind = np.zeros((32, 32), dtype=bool)
    rows, cols = np.divmod(np.arange(cells), 8)
    ind[4 + rows, 20 + cols] = True
    return RestrictedOperator(Mask(grid, ind))


def _cell_block(grid, w1, w2):
    """The w1/h x w2/h block of cells at the origin. Its cells tile a
    w1 x w2 rectangle, so every x1-chord is exactly w1 long."""
    k1, k2 = round(w1 / (2 * grid.h)), round(w2 / (2 * grid.h))
    ind = np.zeros((grid.n, grid.n), dtype=bool)
    ind[grid.n // 2 - k1:grid.n // 2 + k1, grid.n // 2 - k2:grid.n // 2 + k2] = True
    return Mask(grid, ind)


def _one_column(grid):
    """16 cells of one column: the x2-parity pattern is constant on it."""
    ind = np.zeros((grid.n, grid.n), dtype=bool)
    ind[grid.n // 2 - 8:grid.n // 2 + 8, grid.n // 2] = True
    return Mask(grid, ind)


def _count_coercivity_applies(monkeypatch, op):
    """(estimate, number of operator applies it took)."""
    applies = 0
    apply_packed = RestrictedOperator.apply_packed

    def counting(self, x):
        nonlocal applies
        applies += 1
        return apply_packed(self, x)

    monkeypatch.setattr(RestrictedOperator, "apply_packed", counting)
    return estimate_coercivity(op), applies


def _two_disks(axis):
    """Two disks of radius 0.6, centres 1.8 apart along x1 (axis 0) or x2."""
    centre = np.array([0.9, 0.0]) if axis == 0 else np.array([0.0, 0.9])
    return lambda g: rasterize(ShapeUnion((Disk(tuple(-centre), 0.6), Disk(tuple(centre), 0.6))), g)


_TOL_MASKS = {
    "ellipse-0.5x1": lambda g: rasterize(Ellipse((0.0, 0.0), (0.5, 1.0)), g),
    "ellipse-1.5x1": lambda g: rasterize(Ellipse((0.0, 0.0), (1.5, 1.0)), g),
    "rectangle-1x2": lambda g: _cell_block(g, 1.0, 2.0),
    "rectangle-2x1": lambda g: _cell_block(g, 2.0, 1.0),
    "annulus": lambda g: rasterize(Annulus((0.0, 0.0), 0.5, 1.0), g),
    "one-column": _one_column,
}


def _relative_error_to_dense(op):
    dense_min = np.linalg.eigvalsh(dense_L_matrix(op))[0]
    return abs(estimate_coercivity(op) - dense_min) / dense_min


class TestCoercivity:
    def test_matches_dense_smallest_eigenvalue(self, disk_setup):
        _, _, op = disk_setup
        dense_min = np.linalg.eigvalsh(dense_L_matrix(op))[0]
        estimate = estimate_coercivity(op)
        assert abs(estimate - dense_min) / dense_min <= 1e-6

    def test_on_asymmetric_mask(self):
        grid = Grid(32, 8.0)
        shape = ShapeUnion((Disk((-0.4, 0.15), 0.3), Disk((0.45, -0.25), 0.35)))
        mask = rasterize(shape, grid)
        op = RestrictedOperator(mask)
        dense_min = np.linalg.eigvalsh(dense_L_matrix(op))[0]
        estimate = estimate_coercivity(op)
        assert abs(estimate - dense_min) / dense_min <= 1e-6

    def test_recurrence_past_first_check(self, monkeypatch):
        """A mask too large for the direct route, on which the recurrence
        runs past its first check, still matches the dense spectrum."""
        grid = Grid(64, 8.0)
        op = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), grid))
        estimate, applies = _count_coercivity_applies(monkeypatch, op)
        dense_min = np.linalg.eigvalsh(dense_L_matrix(op))[0]
        assert op.mask.cell_count > _DIRECT_CELLS
        assert applies > _CHECK_EVERY
        assert abs(estimate - dense_min) / dense_min <= 1e-6

    @pytest.mark.parametrize("n, build", [
        pytest.param(n, build, id=f"{n}-{name}")
        for name, build in _TOL_MASKS.items() for n in (64, 128)
    ] + [
        pytest.param(256, build, id=f"256-{name}")
        for name, build in (("annulus", _TOL_MASKS["annulus"]),
                            ("two-disks-x1", _two_disks(0)), ("two-disks-x2", _two_disks(1)))
    ])
    def test_tol_bounds_relative_error(self, n, build):
        grid = Grid(n, 16.0)
        assert _relative_error_to_dense(RestrictedOperator(build(grid))) <= 1e-6

    @pytest.mark.parametrize("grid, build, axis, parity", [
        (Grid(128, 16.0), _TOL_MASKS["annulus"], 1, -1),
        (Grid(128, 12.0), _two_disks(0), 0, -1),
        (Grid(256, 16.0), _TOL_MASKS["annulus"], 1, 1),
        (Grid(256, 12.0), _two_disks(0), 0, -1),
        (Grid(128, 12.0), _two_disks(1), 1, 1),
        (Grid(256, 12.0), _two_disks(1), 1, 1),
    ], ids=["annulus-odd-in-x2", "two-disks-odd-in-x1", "annulus-even-in-x2-n256",
            "two-disks-odd-in-x1-n256", "two-disks-even-in-x2", "two-disks-even-in-x2-n256"])
    def test_lowest_mode_odd_across_the_mask(self, grid, build, axis, parity):
        """On these symmetric two-lobe masks the lowest eigenvector is the
        parity pattern times an envelope that is odd (parity -1) or even
        (+1) under reflection across the mask's centre line, with the mode
        of the other parity less than 1 % above it. Where the lowest is
        odd, a start vector without an odd envelope part would settle on
        the even mode. The annulus' lowest envelope is odd at n = 128 and
        even at n = 256; the lobes side by side along x2 have an even one."""
        op = RestrictedOperator(build(grid))
        eigenvalues, vectors = np.linalg.eigh(dense_L_matrix(op))
        assert (eigenvalues[1] - eigenvalues[0]) / eigenvalues[0] < 1e-2
        envelope = op.mask.unpack(vectors[:, 0] * np.where(op.mask.indices[1] % 2 == 0, 1, -1))
        mirrored = np.roll(np.flip(envelope, axis=axis), 1, axis=axis)
        np.testing.assert_allclose(mirrored, parity * envelope, atol=1e-10)
        assert _relative_error_to_dense(op) <= 1e-6

    def test_failed_warm_guess_restarts_from_zero(self, monkeypatch):
        """On two lobes side by side along x1 a lower Ritz value emerges
        between checks and falls past the warm guess. Laguerre then
        restarts below 0, which lies below the spectrum of the positive
        semidefinite operator, not at the Gershgorin bound far below it:
        77 sweeps of the tridiagonal in the whole estimate (98 from the
        Gershgorin bound), and delta still matches dense eigvalsh."""
        sweeps = []
        ritz_sweep = profile._ritz_sweep

        def counting_sweep(*args):
            sweeps.append(args)
            return ritz_sweep(*args)

        monkeypatch.setattr(profile, "_ritz_sweep", counting_sweep)
        op = RestrictedOperator(_two_disks(0)(Grid(256, 12.0)))
        assert _relative_error_to_dense(op) <= 1e-6
        assert len(sweeps) <= 80

    def test_translation_invariant(self):
        """The start vector lives in the mask's box coordinates, so a
        whole-cell shift of the mask leaves the estimate bitwise equal."""
        grid = Grid(64, 8.0)
        mask = rasterize(ShapeUnion((Disk((-0.4, 0.15), 0.3), Disk((0.45, -0.25), 0.35))), grid)
        shifted = Mask(grid, np.roll(mask.indicator, (3, 5), axis=(0, 1)))
        assert (estimate_coercivity(RestrictedOperator(shifted))
                == estimate_coercivity(RestrictedOperator(mask)))

    def test_apply_count_on_benchmark_disk(self, monkeypatch):
        """The centred unit disk at n = 512 takes 1100 applies. A Gaussian
        start takes 1200 and a residual bound of 0.1 * tol 1200, so either
        regression fails this bound."""
        grid = Grid(512, 16.0)
        op = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), grid))
        _, applies = _count_coercivity_applies(monkeypatch, op)
        assert applies <= 1150

    def test_one_cell_is_lattice_mean(self):
        """On a one-cell mask the direct route returns the operator's single
        entry exactly: the singular value of a positive 1 x 1 matrix is its
        entry. That entry has the closed form of
        TestDenseMatrix.test_single_cell_closed_form."""
        op = _tiny_operator(1)
        assert op.mask.cell_count == 1
        assert estimate_coercivity(op) == dense_L_matrix(op)[0, 0]
        np.testing.assert_allclose(estimate_coercivity(op), (32**2 - 1) / (2 * 32**2),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("cells", [2, _DIRECT_CELLS])
    def test_krylov_space_spans_tiny_mask(self, cells):
        """With no more cells than the direct route takes, the estimate is
        the dense operator's smallest singular value, exact to roundoff."""
        op = _tiny_operator(cells)
        assert op.mask.cell_count == cells
        dense_min = np.linalg.eigvalsh(dense_L_matrix(op))[0]
        assert abs(estimate_coercivity(op) - dense_min) / dense_min <= 1e-12

    @pytest.mark.parametrize("cells", [1, 2, _DIRECT_CELLS])
    def test_tiny_mask_deterministic(self, cells):
        op = _tiny_operator(cells)
        assert estimate_coercivity(op) == estimate_coercivity(op)

    def test_complete_line_is_singular(self):
        """A mask containing a full line of constant x2 supports a field
        that is constant in x1, which the operator annihilates."""
        grid = Grid(32, 8.0)
        ind = np.zeros((32, 32), dtype=bool)
        ind[:, 5] = True
        op = RestrictedOperator(Mask(grid, ind))
        with pytest.raises(SingularOperatorError, match="numerically singular"):
            estimate_coercivity(op)

    def test_deterministic(self, disk_setup):
        _, _, op = disk_setup
        assert estimate_coercivity(op) == estimate_coercivity(op)

    def test_step_cap_raises_with_ritz_vector(self, monkeypatch):
        """Past the step cap the estimate raises ConvergenceError with the
        lowest Ritz vector on the grid and one relative Ritz residual per
        check; the disk needs more than one check."""
        grid = Grid(64, 8.0)
        mask = rasterize(Disk((0.0, 0.0), 1.0), grid)
        lanczos = profile._lanczos_smallest
        monkeypatch.setattr(profile, "_lanczos_smallest",
                            lambda *args, max_steps: lanczos(*args, max_steps=_CHECK_EVERY))
        with pytest.raises(ConvergenceError, match=f"in {_CHECK_EVERY} steps") as excinfo:
            estimate_coercivity(RestrictedOperator(mask))
        best = excinfo.value.best
        assert isinstance(best, RealField)
        assert np.all(best.values[~mask.indicator] == 0.0)
        np.testing.assert_allclose(np.linalg.norm(best.values), 1.0, rtol=1e-12)
        (residual,) = excinfo.value.residual_history
        assert residual > 1e-6


class TestLanczos:
    """The private Lanczos routine on an explicit diagonal operator, whose
    eigenvectors are the unit vectors."""

    DIAGONAL = np.linspace(0.5, 1.0, 200)

    def _smallest(self, v0, tol=1e-10, max_steps=2000):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        theta = _lanczos_smallest(lambda x: self.DIAGONAL * x, v0, tol, rng, max_steps)
        return theta, rng.bit_generator.state != state

    def test_smallest_eigenvalue(self):
        theta, _ = self._smallest(np.ones(self.DIAGONAL.size))
        assert abs(theta - 0.5) <= 1e-10 * 0.5

    def test_breakdown_at_first_step_continues(self):
        """An eigenvector start spans an invariant subspace at once; the
        recurrence continues from a random vector and still finds the
        minimum."""
        v0 = np.zeros(self.DIAGONAL.size)
        v0[100] = 1.0
        theta, drew_random = self._smallest(v0)
        assert drew_random
        assert abs(theta - 0.5) <= 1e-10 * 0.5

    def test_cap_of_one_check_raises(self):
        with pytest.raises(ConvergenceError, match=f"in {_CHECK_EVERY} steps") as excinfo:
            self._smallest(np.ones(self.DIAGONAL.size), max_steps=_CHECK_EVERY)
        best = excinfo.value.best
        assert best.shape == self.DIAGONAL.shape
        assert len(excinfo.value.residual_history) == 1



def _tridiagonal(alphas, betas):
    return np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)


def _tridiagonal_with_spectrum(spectrum, seed, steps=None):
    """Diagonal and off-diagonal of a tridiagonal with the given spectrum:
    Lanczos with full reorthogonalization on diag(spectrum) from a seeded
    start, run to the full dimension (or for ``steps`` steps, which leaves
    Ritz values that have not converged)."""
    j = steps or spectrum.size
    v = np.random.default_rng(seed).standard_normal(spectrum.size)
    basis = np.zeros((j, spectrum.size))
    alphas, betas = [], []
    for i in range(j):
        basis[i] = v / np.linalg.norm(v)
        w = spectrum * basis[i]
        alphas.append(basis[i] @ w)
        for _ in range(2):
            w -= basis[:i + 1].T @ (basis[:i + 1] @ w)
        betas.append(np.linalg.norm(w))
        v = w
    return np.array(alphas), np.array(betas[:-1])


def _random_tridiagonal(j, split=False):
    rng = np.random.default_rng(j)
    alphas, betas = rng.standard_normal(j), rng.standard_normal(j - 1)
    if split:  # a block diagonal T, as a Lanczos breakdown leaves it
        betas[::7] = 0.0
    return alphas, betas


def _graded_tridiagonal(j):
    """Diagonal from 1 down to 1e-8, off-diagonal 0.4 of the neighbours'
    geometric mean: positive definite, lowest eigenvalue near 1e-8."""
    alphas = 10.0 ** (-8.0 * np.arange(j) / j)
    return alphas, 0.4 * np.sqrt(alphas[:-1] * alphas[1:])


class TestLowestRitzPair:
    """The O(j) tridiagonal routine of the Lanczos checks against dense
    ``eigh``: theta to a few rounding units of T, and a unit eigenvector
    whose residual is at the margin's level."""

    @pytest.mark.parametrize("alphas, betas", [
        pytest.param(*_random_tridiagonal(j), id=f"random-{j}") for j in (1, 2, 5, 60, 700, 2000)
    ] + [
        pytest.param(*_random_tridiagonal(j, split=True), id=f"split-{j}") for j in (60, 2000)
    ] + [
        pytest.param(*_graded_tridiagonal(j), id=f"graded-{j}") for j in (50, 2000)
    ] + [
        pytest.param(*_tridiagonal_with_spectrum(
            np.concatenate([[0.1, 0.1 + 1e-10], np.linspace(0.2, 1.0, 198)]), 1),
            id="pair-1e-10-apart"),
        pytest.param(*_tridiagonal_with_spectrum(
            np.concatenate([0.3 + 1e-10 * np.arange(4), np.linspace(0.5, 1.0, 96)]), 2),
            id="four-1e-10-apart"),
        pytest.param(*_tridiagonal_with_spectrum(np.logspace(-8, 0, 300), 3), id="log-spectrum"),
    ])
    @pytest.mark.parametrize("below", [True, False], ids=["lower-below", "lower-above"])
    def test_matches_dense_eigh(self, alphas, betas, below):
        """``lower`` below the spectrum is a warm start; above it, the
        routine falls back to the Gershgorin bound."""
        t = _tridiagonal(alphas, betas)
        eigenvalues = np.linalg.eigvalsh(t)
        scale = np.abs(eigenvalues).max()
        lower = eigenvalues[0] - 0.5 if below else eigenvalues[0] + 0.5
        theta, vector = _lowest_ritz_pair(list(alphas), list(betas), float(lower), [])
        assert abs(theta - eigenvalues[0]) <= 1e-14 * scale
        x = np.array(vector)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
        assert np.linalg.norm(t @ x - theta * x) <= 1e-10 * scale

    def test_last_entry_matches_eigh(self):
        """s, the last entry of the eigenvector, is what the Lanczos test
        reads: it matches eigh's on a T whose lowest Ritz value has not
        converged, so that s is not small."""
        alphas, betas = _tridiagonal_with_spectrum(np.linspace(0.1, 1.0, 2000), 4, steps=60)
        _, vectors = np.linalg.eigh(_tridiagonal(alphas, betas))
        _, vector = _lowest_ritz_pair(list(alphas), list(betas), 0.0, [])
        assert abs(vectors[-1, 0]) > 1e-3
        np.testing.assert_allclose(abs(vector[-1]), abs(vectors[-1, 0]), rtol=1e-10)

    def test_start_vector_gives_the_same_pair(self):
        """A warm start (the previous check's eigenvector, shorter than T)
        changes neither theta nor, up to sign, the eigenvector."""
        alphas, betas = _random_tridiagonal(300)
        cold = _lowest_ritz_pair(list(alphas), list(betas), -10.0, [])
        start = _lowest_ritz_pair(list(alphas[:250]), list(betas[:249]), -10.0, [])[1]
        warm = _lowest_ritz_pair(list(alphas), list(betas), -10.0, start)
        assert abs(warm[0] - cold[0]) <= 1e-14 * np.abs(alphas).max()
        np.testing.assert_allclose(np.abs(warm[1]), np.abs(cold[1]), atol=1e-10)

class TestGridScaleLaw:
    """The conjecture delta/h^2 -> 1/l^2, l the longest x1-chord of the set.

    Multiplying by the x2-parity pattern shifts k2 to Nyquist, where the
    symbol k1^2/|k|^2 is about (h/pi)^2 times that of -d11; the bottom of
    L then tends to (h/pi)^2 times the lowest Dirichlet eigenvalue of -d11
    on the longest chord, (pi/l)^2. The dense spectrum is the oracle.
    Measured errors of delta/h^2 at n = 64/128/256 on box 16: 0.258 /
    0.142 / 0.075 (1 x 2 block), 0.054 / 0.023 / 0.0097 (2 x 1 block) and
    0.056 / 0.041 / 0.025 (unit disk).
    """

    @staticmethod
    def _errors(build, chord):
        errors = []
        for n in (64, 128, 256):
            grid = Grid(n, 16.0)
            delta = np.linalg.eigvalsh(dense_L_matrix(RestrictedOperator(build(grid))))[0]
            errors.append(abs(delta / grid.h**2 - 1.0 / chord**2))
        return np.array(errors)

    @pytest.mark.parametrize("widths", [(1.0, 2.0), (2.0, 1.0)], ids=["1x2", "2x1"])
    def test_rectangles_converge_at_first_order(self, widths):
        errors = self._errors(lambda g: _cell_block(g, *widths), chord=widths[0])
        assert np.all(errors[:-1] / errors[1:] >= 1.5)

    def test_disk_error_shrinks(self):
        errors = self._errors(lambda g: rasterize(Disk((0.0, 0.0), 1.0), g), chord=2.0)
        assert np.all(np.diff(errors) < 0)


class TestSolveProfile:
    def test_residual_certificate(self, disk_setup):
        _, mask, op = disk_setup
        sol = solve_profile(op, tol=1e-10)
        # recompute the residual from scratch, h-weighted
        dev = mask.pack(apply_z11(sol.q).values) - 1.0
        recomputed = np.linalg.norm(dev) / np.sqrt(mask.cell_count)
        assert recomputed <= 1e-10
        np.testing.assert_allclose(sol.residual_l2, recomputed, rtol=1e-6, atol=1e-16)

    def test_exactly_zero_off_mask(self, disk_setup):
        _, mask, op = disk_setup
        sol = solve_profile(op, tol=1e-8)
        assert np.all(sol.q.values[~mask.indicator] == 0.0)

    def test_matches_dense_solve(self, disk_setup):
        _, mask, op = disk_setup
        sol = solve_profile(op, tol=1e-10)
        dense = dense_L_matrix(op)
        direct = np.linalg.solve(dense, np.ones(mask.cell_count))
        np.testing.assert_allclose(mask.pack(sol.q.values), direct, atol=1e-7)

    def test_delta_estimate_populated(self, disk_setup):
        sol = solve_profile(disk_setup[2], tol=1e-8)
        dense_min = np.linalg.eigvalsh(dense_L_matrix(disk_setup[2]))[0]
        assert 0.0 < sol.delta_estimate <= 1.0
        np.testing.assert_allclose(sol.delta_estimate, dense_min, rtol=1e-6)

    def test_asymmetric_mask_certificate(self):
        grid = Grid(32, 8.0)
        shape = ShapeUnion((Disk((-0.4, 0.15), 0.3), Disk((0.45, -0.25), 0.35)))
        op = RestrictedOperator(rasterize(shape, grid))
        sol = solve_profile(op, tol=1e-9)
        assert sol.residual_l2 <= 1e-9
        assert sol.iterations >= 1

    def test_tol_domain(self, disk_setup):
        for tol in (0.0, -1e-4, 1e-2, 0.5):
            with pytest.raises(ValueError, match="tol must lie"):
                solve_profile(disk_setup[2], tol=tol)

    def test_rejects_full_grid(self):
        grid = Grid(32, 8.0)
        op = RestrictedOperator(Mask(grid, np.ones((32, 32), dtype=bool)))
        with pytest.raises(ValueError, match="full-grid mask"):
            solve_profile(op)

    def test_rejects_wide_mask(self):
        grid = Grid(32, 8.0)
        ind = np.zeros((32, 32), dtype=bool)
        ind[4, 4] = ind[4, 28] = True  # spread wider than box_length/4
        op = RestrictedOperator(Mask(grid, ind))
        with pytest.raises(ValueError, match="exceeds box_length/4"):
            solve_profile(op)

    def test_convergence_error_carries_state(self, disk_setup):
        _, mask, op = disk_setup
        with pytest.raises(ConvergenceError) as excinfo:
            solve_profile(op, tol=1e-10, max_iter=3)
        err = excinfo.value
        assert len(err.residual_history) == 3
        assert np.all(err.best.values[~mask.indicator] == 0.0)
        assert err.residual_history[-1] > 1e-10

    def test_certificate_independent_of_embedded_apply(self, disk_setup, monkeypatch):
        """A 0.1 % error in the box-embedded application, which CG uses,
        is caught by the full-grid residual certificate and shows in
        verify_profile."""
        grid, mask, op = disk_setup
        apply_packed = RestrictedOperator.apply_packed
        monkeypatch.setattr(RestrictedOperator, "apply_packed",
                            lambda self, x: 1.001 * apply_packed(self, x))
        with pytest.raises(ConvergenceError) as excinfo:
            solve_profile(op, tol=1e-8)
        err = excinfo.value
        np.testing.assert_allclose(err.residual_history[-1], 1 - 1 / 1.001, rtol=1e-4)
        sol = ProfileSolution(q=err.best, residual_l2=err.residual_history[-1],
                              iterations=1, delta_estimate=0.5, mask=mask)
        np.testing.assert_allclose(verify_profile(sol).on_mask_max_dev, 1 - 1 / 1.001,
                                   rtol=1e-4)

    def test_curvature_breakdown(self):
        class NegatingStub:
            def apply_packed(self, x):
                return -x

        with pytest.raises(CurvatureBreakdownError, match="iteration 1"):
            _cg(NegatingStub(), np.ones(5), 1e-8, 10)

    def test_solution_validation(self, disk_setup):
        grid, mask, op = disk_setup
        sol = solve_profile(op, tol=1e-8)
        with pytest.raises(ValueError, match="delta_estimate"):
            ProfileSolution(q=sol.q, residual_l2=sol.residual_l2, iterations=1,
                            delta_estimate=0.0, mask=mask)


class TestVerifyProfile:
    def test_report_consistent_with_solve(self, disk_setup):
        _, mask, op = disk_setup
        sol = solve_profile(op, tol=1e-9)
        report = verify_profile(sol)
        assert report.off_mask_exact_zero
        assert report.off_mask_max == 0.0
        np.testing.assert_allclose(report.on_mask_l2_dev_rel, sol.residual_l2, rtol=1e-10)
        assert report.on_mask_max_dev >= report.on_mask_l2_dev_rel / 10

    def test_defect_bounded_by_deviation(self, disk_setup):
        """(Lq - 1) q bounds: pointwise |defect| <= |dev| sup|q| on the
        mask and defect = 0 off it, so the norms obey the product bound."""
        _, mask, op = disk_setup
        sol = solve_profile(op, tol=1e-8)
        report = verify_profile(sol)
        sup_q = sup_norm(sol.q)
        assert report.defect_max <= report.on_mask_max_dev * sup_q * (1 + 1e-12)
        assert report.defect_l2 <= report.on_mask_l2_dev * sup_q * (1 + 1e-12)

    def test_defect_small_relative_to_profile(self, disk_setup):
        sol = solve_profile(disk_setup[2], tol=1e-8)
        report = verify_profile(sol)
        assert report.defect_l2 <= 1e-7 * l2_norm(sol.q)

    def test_profile_positive_on_disk(self, disk_setup):
        """Observed structure: the disk profile is positive on the mask
        with its peak at the boundary oscillation."""
        _, mask, op = disk_setup
        sol = solve_profile(op, tol=1e-8)
        on_mask = sol.q.values[mask.indicator]
        assert on_mask.min() > 0.0
        assert mask_area(mask) > 0.0
