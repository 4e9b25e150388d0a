"""Restricted-operator and profile-solve tests.

Independence anchors: the operator application is checked against the
definitional DFT-matrix computation (no FFT code shared), the single-cell
operator value against the closed-form lattice mean of the symbol, and
the conjugate-gradient solution against a dense linear solve.
"""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from z11sim import (
    Annulus,
    ConvergenceError,
    CurvatureBreakdownError,
    Disk,
    Ellipse,
    EvolveConfig,
    Grid,
    Mask,
    RealField,
    RestrictedOperator,
    ShapeDifference,
    ShapeUnion,
    SingularOperatorError,
    apply_z11,
    estimate_coercivity,
    evolve,
    l2_norm,
    mask_area,
    rasterize,
    solve_profile,
    sup_norm,
    verify_profile,
)
from z11sim import profile
from z11sim.profile import (
    _BASIS,
    _COERCIVITY_TOL,
    _SINGULAR_BOUND,
    ProfileReport,
    _box_kernel,
    _cg,
    _davidson_lowest,
    dense_L_matrix,
)
from z11sim.spectral import _real_fft

from test_spectral import dft_multiplier_oracle, m11_from_scratch

# The largest of the tiny masks below: above _BASIS, and below the 49 cells
# of the smallest shipped mask, the n = 64 smoke disk.
_TINY_CELLS = 40


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


def _two_small_disks(grid):
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
    the columns after, padded to the fft length (the length of the
    column, when the transform runs in place on rows padded already)."""
    shapes = []
    rfft, fft = np.fft.rfft, np.fft.fft

    def recording_rfft(a, n=None, axis=-1, *args, **kwargs):
        assert axis == 1
        shapes.append([a.shape, n])
        return rfft(a, n, axis, *args, **kwargs)

    def recording_fft(a, n=None, axis=-1, *args, **kwargs):
        assert axis == 0
        shapes[-1][1] = (a.shape[axis] if n is None else n, shapes[-1][1])
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
        (_two_small_disks, ((12, 8), (24, 15))),
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


    def test_box_values_pack_as_the_grid(self, monkeypatch):
        """Cells read from box values by the operator are bitwise Mask.pack
        of the grid, in its row-major order: on drawn masks of scattered
        cells rolled across the periodic edges (so the box wraps one edge,
        both or none), on a mask spanning an axis, and on the full grid.
        On each, every boolean selection by the indicator is bitwise the
        route through the cells' index arrays, np.nonzero of the indicator:
        Mask.pack and unpack, the apply and the preconditioner scattered
        and gathered at the cells' box positions, the longest x1-run read
        from those positions, and delta's start vector built on them."""
        starts = []

        def keep_start(apply, precondition, x, *args, **kwargs):
            starts.append(x)
            return 1.0, x

        monkeypatch.setattr(profile, "_davidson_lowest", keep_start)
        grid = Grid(32, 8.0)
        rng = np.random.default_rng(35)
        masks = []
        for _ in range(60):
            ind = np.zeros((32, 32), dtype=bool)
            h, w = rng.integers(1, 20, size=2)
            ind[:h, :w] = rng.random((h, w)) < rng.uniform(0.05, 1.0)
            ind[rng.integers(h), rng.integers(w)] = True
            masks.append(np.roll(ind, tuple(rng.integers(32, size=2)), axis=(0, 1)))
        masks += [np.isin(np.arange(32), [3, 20])[:, None] & np.ones(32, dtype=bool),
                  np.ones((32, 32), dtype=bool)]
        wraps = set()
        for ind in masks:
            op = RestrictedOperator(Mask(grid, ind))
            values = rng.standard_normal((32, 32))
            got = op._pack_box(values[op._box])
            assert got.tobytes() == op.mask.pack(values).tobytes()
            wraps.add(tuple(bool(np.any(np.diff(index.ravel()) < 0)) for index in op._box))

            r, c = np.nonzero(ind)
            x = rng.standard_normal(r.size)
            full = np.zeros((32, 32))
            full[r, c] = x
            assert op.mask.pack(values).tobytes() == values[r, c].tobytes()
            assert op.mask.unpack(x).tobytes() == full.tobytes()
            rows, cols = op._box
            br, bc = (r - rows[0, 0]) % 32, (c - cols[0, 0]) % 32
            for method, symbol in ((op.apply_packed, op._symbol), (op.precondition, op._inverse_symbol)):
                box = np.zeros(op._box_shape)
                box[br, bc] = x
                assert method(x).tobytes() == _real_fft(box, symbol)[br, bc].tobytes()
            columns = np.zeros((op._box_shape[1], op._box_shape[0] + 2), dtype=bool)
            columns[bc, br + 1] = True
            edges = np.flatnonzero(columns[:, 1:] != columns[:, :-1])
            assert profile._longest_x1_run(op) == np.max(edges[1::2] - edges[::2])
            envelope = (br + 1.0) * (bc + 1.0)
            x0 = np.where(bc % 2 == 0, envelope, -envelope)
            x0 += (0.1 * envelope.mean() * math.sqrt(12.0)
                   * (np.arange(r.size) * profile._WEYL_STEP % 1.0 - 0.5))
            estimate_coercivity(op)
            assert starts.pop().tobytes() == x0.tobytes()
        assert wraps >= {(False, False), (True, False), (False, True), (True, True)}


class TestPreconditioner:
    """``RestrictedOperator.precondition``: the circulant's inverse symbol,
    floored at the mask's lowest x1-mode, between the scatter and gather of
    an apply."""

    @pytest.mark.parametrize("build", [
        lambda g: rasterize(ShapeUnion((Disk((-0.4, 0.15), 0.3), Disk((0.45, -0.25), 0.35))), g),
        lambda g: Mask(g, _corner_disk(g)),
    ], ids=["two-disks", "corner-disk"])
    def test_symmetric_positive_definite_and_bounded(self, build):
        """Also on a mask that wraps both periodic edges. The floor is at
        least 1/(1 + l^2), l the mask's longest x1-run."""
        op = RestrictedOperator(build(Grid(64, 8.0)))
        m = np.column_stack([op.precondition(e) for e in np.eye(op.mask.cell_count)])
        np.testing.assert_allclose(m, m.T, rtol=0, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(m)
        assert eigenvalues[0] > 0.0
        assert eigenvalues[-1] <= (1 + 1e-12) * (1 + profile._longest_x1_run(op) ** 2)

    def test_longest_run_across_the_periodic_edges(self):
        """A disk wrapping both periodic edges has the longest x1-run, and
        so the floor, of the same disk in the interior. On a convex mask
        that run is the largest count of member cells in one column."""
        grid = Grid(64, 8.0)
        wrapped = _corner_disk(grid)
        corner = RestrictedOperator(Mask(grid, wrapped))
        interior = RestrictedOperator(Mask(grid, np.roll(wrapped, (-20, 9), axis=(0, 1))))
        run = profile._longest_x1_run(interior)
        assert run == interior.mask.indicator.sum(axis=0).max() == 17
        assert profile._longest_x1_run(corner) == run
        np.testing.assert_array_equal(corner._inverse_symbol, interior._inverse_symbol)

    def test_longest_run_matches_a_loop(self):
        """On scattered cells, many short runs per column, against a plain
        loop over the grid's columns (the mask wraps no edge)."""
        grid = Grid(128, 16.0)
        ind = _wide_scatter(grid) | _strip(grid)
        longest = 0
        for column in ind.T:
            run = 0
            for member in column:
                run = run + 1 if member else 0
                longest = max(longest, run)
        assert longest > 3
        assert profile._longest_x1_run(RestrictedOperator(Mask(grid, ind))) == longest

    def test_longest_run_of_two_lobes_is_one_lobe(self):
        """Two lobes along x1 share their columns, and the gap between them
        ends each run: the longest run is one lobe's, not their sum."""
        grid = Grid(256, 12.0)
        lobes = [rasterize(Disk((c, 0.0), 0.6), grid) for c in (-0.9, 0.9)]
        runs = [profile._longest_x1_run(RestrictedOperator(lobe)) for lobe in lobes]
        assert runs == [lobe.indicator.sum(axis=0).max() for lobe in lobes]
        assert profile._longest_x1_run(RestrictedOperator(_two_disks(0)(grid))) == max(runs)

    def test_inverts_the_full_grid_operator(self):
        """On the full-grid mask the circulant is the operator itself, so
        the preconditioner inverts it on every wave whose symbol lies above
        the floor."""
        grid = Grid(32, 8.0)
        op = RestrictedOperator(Mask(grid, np.ones((32, 32), dtype=bool)))
        i1, i2 = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
        wave = np.cos(2 * np.pi * (3 * i1 + 5 * i2) / 32).ravel()
        np.testing.assert_allclose(op.precondition(op.apply_packed(wave)), wave, atol=1e-12)

    def test_inverse_symbol_built_once_and_only_when_used(self, monkeypatch):
        """The inverse symbol is built on the first preconditioner call and
        kept; an evolution, which never preconditions, never builds it."""
        grid = Grid(64, 8.0)
        op = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), grid))
        assert "_inverse_symbol" not in vars(op)
        op.precondition(np.ones(op.mask.cell_count))
        inverse = vars(op)["_inverse_symbol"]
        op.precondition(np.ones(op.mask.cell_count))
        assert vars(op)["_inverse_symbol"] is inverse

        def refuse(self):
            raise AssertionError("inverse symbol built")

        monkeypatch.setattr(RestrictedOperator, "_inverse_symbol", property(refuse))
        evolve(RealField(grid, 0.5 * op.mask.unpack(np.ones(op.mask.cell_count))),
               EvolveConfig(t_max=0.1))


class TestBoxKernel:
    """``_box_kernel`` takes the circulant's symbol as an impulse response
    without building an impulse, and ``dense_L_matrix`` gathers Z11's
    kernel without building one either; both are bitwise those of the
    multiplier applied to a unit impulse."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_z11_of_a_unit_impulse(self, n):
        grid = Grid(n, 16.0)
        impulse = np.zeros((n, n))
        impulse[0, 0] = 1.0
        kernel = _real_fft(impulse, m11_from_scratch(n))
        for p1, p2 in ((1, 1), (5, 12), (n // 2, 9), (15, n), (n, n)):
            if p1 == p2 == n:
                symbol = m11_from_scratch(n)
            else:
                rows, cols = (np.where(o <= p // 2, o, o - p) % n
                              for p in (p1, p2) for o in [np.arange(p)])
                box_impulse = np.zeros((p1, p2))
                box_impulse[0, 0] = 1.0
                symbol = p1 * p2 * _real_fft(box_impulse, kernel[np.ix_(rows, cols)])
            got_symbol = _box_kernel.__wrapped__(n, p1, p2)
            assert got_symbol.shape == symbol.shape == (p1, p2)
            assert got_symbol.tobytes() == symbol.tobytes()

        # the dense matrix holds the kernel at the periodic offsets of the
        # cells: on a box across the periodic edges with a 12 x 12
        # embedding, on one wider than n/2 along x1, whose embedding is
        # capped at n, and on the whole grid where it is small enough
        compact = np.zeros((n, n), dtype=bool)
        compact[np.ix_([n - 2, n - 1, 0, 3], [n - 1, 0, 2, 4])] = True
        wide = np.zeros((n, n), dtype=bool)
        wide[: n // 2 + 2: 3, [0, 5]] = True
        masks = [(compact, (12, 12)), (wide, (n, 12))]
        if n == 16:
            masks.append((np.ones((n, n), dtype=bool), (n, n)))
        for indicator, embedding in masks:
            op = RestrictedOperator(Mask(grid, indicator))
            assert op._symbol.shape == embedding
            r, c = np.nonzero(op.mask.indicator)
            expected = kernel[(r[:, None] - r) % n, (c[:, None] - c) % n]
            assert dense_L_matrix(op).tobytes() == expected.tobytes()

    def test_full_support_operator_holds_one_plane(self):
        """A full-support operator keeps Z11's full-plane symbol and no
        other n x n array: at n = 512, its mask included, it holds at most
        1.25 n x n float arrays after construction. A kernel window kept
        beside the symbol would make that 2.13."""
        n = 512
        _box_kernel.cache_clear()
        tracemalloc.start()
        try:
            op = RestrictedOperator(Mask(Grid(n, 16.0), np.ones((n, n), dtype=bool)))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            _box_kernel.cache_clear()
        assert op._symbol.shape == (n, n)
        assert held <= 1.25 * 8 * n**2

    def test_cold_build_transforms_only_the_window_rows(self):
        """Building the operator of the benchmark disk at n = 512, its
        symbol not cached, transforms Z11's kernel on the rows its window
        gathers alone: the build peaks at 0.75 n x n float arrays traced at
        most. The whole n x n kernel made that 2.51."""
        n = 512
        mask = rasterize(Disk((0.0, 0.0), 1.0), Grid(n, 16.0))
        _box_kernel.cache_clear()
        tracemalloc.start()
        try:
            RestrictedOperator(mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _box_kernel.cache_clear()
        assert peak <= 0.75 * 8 * n**2


class TestDenseMatrix:
    def test_transforms_only_the_offset_rows(self):
        """dense_L_matrix transforms Z11's kernel on the distinct row
        offsets of the mask's cells alone: on a 5 x 5 square at n = 512 it
        peaks at 0.75 n x n float arrays traced at most. The whole n x n
        kernel made that 2.51."""
        n = 512
        indicator = np.zeros((n, n), dtype=bool)
        indicator[250:255, 100:105] = True
        op = RestrictedOperator(Mask(Grid(n, 16.0), indicator))
        tracemalloc.start()
        try:
            dense_L_matrix(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * 8 * n**2

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


def _corner_operator() -> RestrictedOperator:
    """Operator on the four corner cells of a 32-cell grid, whose box
    wraps both periodic edges."""
    ind = np.zeros((32, 32), dtype=bool)
    ind[::31, ::31] = True
    return RestrictedOperator(Mask(Grid(32, 8.0), ind))


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


def _count_calls(monkeypatch, call, *methods):
    """call()'s result and how often it called each of the operator's
    ``methods``, in their order."""
    counts = dict.fromkeys(methods, 0)
    for name in methods:
        def counting(self, x, name=name, method=getattr(RestrictedOperator, name)):
            counts[name] += 1
            return method(self, x)

        monkeypatch.setattr(RestrictedOperator, name, counting)
    return (call(), *counts.values())


def _count_coercivity_applies(monkeypatch, op):
    """(estimate, number of operator applies it took)."""
    return _count_calls(monkeypatch, lambda: estimate_coercivity(op), "apply_packed")


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
    "three-lobes": lambda g: rasterize(
        ShapeUnion(tuple(Disk((c, 0.0), 0.4) for c in (-1.0, 0.0, 1.0))), g),
    "cut-disk": lambda g: rasterize(ShapeDifference(Disk((0.0, 0.0), 1.0),
                                                    Disk((0.2, 0.0), 0.4)), g),
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
        """A mask of more than _TINY_CELLS cells, on which Davidson runs
        past its first residual check, still matches the dense spectrum."""
        grid = Grid(64, 8.0)
        op = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), grid))
        estimate, applies = _count_coercivity_applies(monkeypatch, op)
        dense_min = np.linalg.eigvalsh(dense_L_matrix(op))[0]
        assert op.mask.cell_count > _TINY_CELLS
        assert applies > 1
        assert abs(estimate - dense_min) / dense_min <= 1e-6

    @pytest.mark.parametrize("n, build", [
        pytest.param(n, build, id=f"{n}-{name}")
        for name, build in _TOL_MASKS.items() for n in (64, 128)
    ] + [
        pytest.param(256, build, id=f"256-{name}")
        for name, build in (("annulus", _TOL_MASKS["annulus"]),
                            ("two-disks-x1", _two_disks(0)), ("two-disks-x2", _two_disks(1)),
                            ("three-lobes", _TOL_MASKS["three-lobes"]),
                            ("cut-disk", _TOL_MASKS["cut-disk"]))
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
        envelope = op.mask.unpack(vectors[:, 0] * np.where(np.nonzero(op.mask.indicator)[1] % 2 == 0, 1, -1))
        mirrored = np.roll(np.flip(envelope, axis=axis), 1, axis=axis)
        np.testing.assert_allclose(mirrored, parity * envelope, atol=1e-10)
        assert _relative_error_to_dense(op) <= 1e-6

    def test_apply_count_on_two_lobes(self, monkeypatch):
        """Two lobes side by side along x1, whose two lowest modes lie
        1.7e-5 apart relative: the estimate finds the lower one, within
        91 applies (79 measured; 122 without the chord correction, LOBPCG
        took 268, and 556 with a constant floor of 1e-3)."""
        op = RestrictedOperator(_two_disks(0)(Grid(256, 12.0)))
        estimate, applies = _count_coercivity_applies(monkeypatch, op)
        dense_min = np.linalg.eigvalsh(dense_L_matrix(op))[0]
        assert abs(estimate - dense_min) / dense_min <= 1e-6
        assert applies <= 91

    def test_apply_count_on_three_lobes(self, monkeypatch):
        """Three disks of radius 0.4 in a row along x1: the floor follows
        one disk's chord, not the box's length, and the estimate takes at
        most 78 applies (68 measured; 105 without the chord correction,
        LOBPCG took 247, and 864 with a constant floor of 1e-3)."""
        op = RestrictedOperator(_TOL_MASKS["three-lobes"](Grid(256, 16.0)))
        estimate, applies = _count_coercivity_applies(monkeypatch, op)
        dense_min = np.linalg.eigvalsh(dense_L_matrix(op))[0]
        assert abs(estimate - dense_min) / dense_min <= 1e-6
        assert applies <= 78

    @pytest.mark.parametrize("name, bound", [("annulus", 66), ("cut-disk", 69)],
                             ids=["annulus", "cut-disk"])
    def test_apply_count_on_clustered_masks(self, monkeypatch, name, bound):
        """The annulus (57 applies measured) and the disk with an off-centre
        hole (60) at n = 256; 75 and 79 without the chord correction, and
        LOBPCG took 160 and 150."""
        op = RestrictedOperator(_TOL_MASKS[name](Grid(256, 16.0)))
        estimate, applies = _count_coercivity_applies(monkeypatch, op)
        dense_min = np.linalg.eigvalsh(dense_L_matrix(op))[0]
        assert abs(estimate - dense_min) / dense_min <= 1e-6
        assert applies <= bound

    def test_translation_invariant(self):
        """The start vector lives in the mask's box coordinates, so a
        whole-cell shift of the mask leaves the estimate bitwise equal."""
        grid = Grid(64, 8.0)
        mask = rasterize(ShapeUnion((Disk((-0.4, 0.15), 0.3), Disk((0.45, -0.25), 0.35))), grid)
        shifted = Mask(grid, np.roll(mask.indicator, (3, 5), axis=(0, 1)))
        assert (estimate_coercivity(RestrictedOperator(shifted))
                == estimate_coercivity(RestrictedOperator(mask)))

    def test_apply_count_on_benchmark_disk(self, monkeypatch):
        """The centred unit disk at n = 512 takes 100 applies and 99
        preconditioner applies, one each per iteration and one apply for
        the start, and no apply builds the chord correction. Without that
        correction it took 155 and 154, LOBPCG 180 and 179, with a constant
        floor of 1e-3 292 and 291, and Lanczos 1100 applies."""
        grid = Grid(512, 16.0)
        op = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), grid))
        _, applies, preconditions = _count_calls(
            monkeypatch, lambda: estimate_coercivity(op), "apply_packed", "precondition")
        assert applies == preconditions + 1
        assert applies + preconditions <= 220

    def test_memory_bounded_by_the_basis(self, monkeypatch):
        """On the n = 512 disk, 100 applies, the estimate's tracemalloc
        peak is within 10 % of that of a run capped at 2 _BASIS iterations,
        read as the cap raises: the basis bounds the memory, whatever the
        iteration count. The preconditioner's symbol is built beforehand,
        outside both readings; the chord correction, built before the
        iteration, is inside both."""
        op = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), Grid(512, 16.0)))
        op.precondition(np.ones(op.mask.cell_count))
        davidson, capped_peaks = profile._davidson_lowest, []

        def capped(*args, max_iter):
            try:
                return davidson(*args, max_iter=2 * _BASIS)
            except ConvergenceError:
                capped_peaks.append(tracemalloc.get_traced_memory()[1])
                raise

        tracemalloc.start()
        try:
            estimate_coercivity(op)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            monkeypatch.setattr(profile, "_davidson_lowest", capped)
            with pytest.raises(ConvergenceError):
                estimate_coercivity(op)
        finally:
            tracemalloc.stop()
        assert abs(peak - capped_peaks[0]) <= 0.1 * capped_peaks[0]

    def test_one_cell_is_lattice_mean(self):
        """On a one-cell mask the estimate is the operator's single entry
        exactly: Davidson's first iterate is the unit vector, whose Ritz
        value is that entry, and its basis then spans the subspace. That
        entry has the closed form of
        TestDenseMatrix.test_single_cell_closed_form."""
        op = _tiny_operator(1)
        assert op.mask.cell_count == 1
        assert estimate_coercivity(op) == dense_L_matrix(op)[0, 0]
        np.testing.assert_allclose(estimate_coercivity(op), (32**2 - 1) / (2 * 32**2),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("cells, rtol", [
        pytest.param(cells, 1e-12 if cells in (2, _TINY_CELLS) else _COERCIVITY_TOL, id=str(cells))
        for cells in (1, 2, 3, 8, 9, 16, _TINY_CELLS)
    ] + [pytest.param(4, _COERCIVITY_TOL, id="corners")])
    def test_krylov_space_spans_tiny_mask(self, cells, rtol):
        """On tiny masks Davidson's estimate is the dense operator's
        smallest eigenvalue within its contract, 1e-6 relative: on masks of
        at most _BASIS cells, where the basis can span the subspace, and on
        the 9- and 16-cell masks, which restart after their basis fills.
        The 4-cell mask sits on the grid's four corner cells, so its box
        wraps both periodic edges. The 2- and 40-cell masks are held to
        roundoff."""
        op = _corner_operator() if cells == 4 else _tiny_operator(cells)
        assert op.mask.cell_count == cells
        dense_min = np.linalg.eigvalsh(dense_L_matrix(op))[0]
        assert abs(estimate_coercivity(op) - dense_min) / dense_min <= rtol

    @pytest.mark.parametrize("cells", [1, 2, _TINY_CELLS])
    def test_tiny_mask_deterministic(self, cells):
        op = _tiny_operator(cells)
        assert estimate_coercivity(op) == estimate_coercivity(op)

    def test_complete_line_is_singular(self):
        """A mask containing a full line of constant x2 supports a field
        that is constant in x1, which the operator annihilates: 32 cells at
        n = 32, and 16 at n = 16, which Davidson's basis of _BASIS vectors
        cannot span without a restart."""
        for n, box_length in ((32, 8.0), (16, 4.0)):
            ind = np.zeros((n, n), dtype=bool)
            ind[:, 5] = True
            op = RestrictedOperator(Mask(Grid(n, box_length), ind))
            assert op.mask.cell_count == n <= _TINY_CELLS
            with pytest.raises(SingularOperatorError, match="numerically singular"):
                estimate_coercivity(op)

    def test_complete_line_above_direct_route_is_singular(self):
        """On a line of more than _TINY_CELLS cells Davidson stops once
        its Ritz value, an upper bound of the smallest eigenvalue, reaches
        roundoff: a residual relative to a zero eigenvalue is out of
        reach."""
        grid = Grid(64, 8.0)
        ind = np.zeros((64, 64), dtype=bool)
        ind[:, 5] = True
        op = RestrictedOperator(Mask(grid, ind))
        assert op.mask.cell_count > _TINY_CELLS
        with pytest.raises(SingularOperatorError, match="numerically singular"):
            estimate_coercivity(op)

    def test_deterministic(self, disk_setup):
        _, _, op = disk_setup
        assert estimate_coercivity(op) == estimate_coercivity(op)

    def test_step_cap_raises_with_ritz_vector(self, monkeypatch):
        """Past the iteration cap the estimate raises ConvergenceError with
        the last iterate, a unit Ritz vector, on the grid and one relative
        residual per iteration; the disk needs more than 25 iterations."""
        grid = Grid(64, 8.0)
        mask = rasterize(Disk((0.0, 0.0), 1.0), grid)
        davidson = profile._davidson_lowest
        monkeypatch.setattr(profile, "_davidson_lowest",
                            lambda *args, max_iter: davidson(*args, max_iter=25))
        with pytest.raises(ConvergenceError, match="in 25 iterations") as excinfo:
            estimate_coercivity(RestrictedOperator(mask))
        best = excinfo.value.best
        assert isinstance(best, RealField)
        assert np.all(best.values[~mask.indicator] == 0.0)
        np.testing.assert_allclose(np.linalg.norm(best.values), 1.0, rtol=1e-12)
        history = excinfo.value.residual_history
        assert len(history) == 25
        assert history[-1] > 1e-6

    def test_lapack_sees_only_the_ritz_matrix(self, monkeypatch):
        """On every mask the estimate's only LAPACK call is one ``eigh``
        per Rayleigh-Ritz step, on a matrix of at most _BASIS x _BASIS; no
        other routine of ``np.linalg`` runs, on the 2- and 40-cell masks
        as on the disk. The chord correction's matrix, chords x chords, is
        inverted exactly once per estimate, by ``_inverse``, which calls
        none. Each step follows one preconditioner apply, which counts the
        steps: the first iterate is the start vector, which needs no step.
        The disk needs more than _BASIS steps, so the count takes in
        restarts."""
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")

        shapes, inverted = [], []

        def recording_eigh(a, eigh=np.linalg.eigh):
            shapes.append(np.shape(a))
            return eigh(a)

        def recording_inverse(a, inverse=profile._inverse):
            inverted.append(np.shape(a))
            return inverse(a)

        for name in ("eigvalsh", "svd", "inv", "solve", "cholesky", "lstsq", "pinv", "qr", "det"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(profile, "_inverse", recording_inverse)
        disk = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), Grid(64, 8.0)))
        for op in _tiny_operator(2), _tiny_operator(_TINY_CELLS), disk:
            shapes.clear()
            inverted.clear()
            delta, steps = _count_calls(monkeypatch, lambda: estimate_coercivity(op), "precondition")
            chords = profile._x1_runs(op)[2].size
            assert 0.0 < delta < 1.0
            assert inverted == [(chords, chords)]
            assert len(shapes) == steps
            assert all(len(s) == 2 and s[0] == s[1] <= _BASIS for s in shapes)
        assert op.mask.cell_count > _TINY_CELLS
        assert steps > _BASIS

    @pytest.mark.parametrize("build, roll", [
        (lambda g: rasterize(Disk((0.0, 0.0), 1.0), g), (0, 0)),
        (_two_disks(0), (0, 0)),
        (_two_disks(1), (64, 0)),
        (_two_disks(1), (64, 64)),
    ], ids=["disk", "two-disks-x1", "two-disks-wrap-x1", "two-disks-wrap-both"])
    def test_chord_matrix_is_the_applied_galerkin_matrix(self, build, roll):
        """The chord matrix H, built from two transforms, is C^T (L C) with
        L C built column by column with ``apply_packed``, to 1e-14 relative,
        also on a box across one or both periodic edges. C's columns are
        orthonormal half sines that cover the mask, one per x1-run, and
        ``_inverse`` inverts H."""
        grid = Grid(128, 12.0)
        op = RestrictedOperator(Mask(grid, np.roll(build(grid).indicator, roll, axis=(0, 1))))
        assert [s != 0 for s in op._shift] == [r != 0 for r in roll]
        chord, sine, gram = profile._chords(op)
        chords = gram.shape[0]
        assert chords == profile._x1_runs(op)[2].size > 1
        c = np.zeros((op.mask.cell_count, chords))
        c[np.arange(op.mask.cell_count), chord] = sine
        np.testing.assert_allclose(c.T @ c, np.eye(chords), rtol=0, atol=1e-14)
        applied = c.T @ np.column_stack([op.apply_packed(column) for column in c.T])
        assert np.max(np.abs(gram - applied)) <= 1e-14 * np.max(np.abs(applied))
        np.testing.assert_allclose(profile._inverse(gram) @ gram, np.eye(chords),
                                   rtol=0, atol=1e-12)


class TestDavidson:
    """The private Davidson routine on an explicit diagonal operator, whose
    eigenvectors are the unit vectors."""

    DIAGONAL = np.linspace(0.5, 1.0, 200)

    def _smallest(self, x0, max_iter=2000):
        theta, _ = _davidson_lowest(lambda x: self.DIAGONAL * x, lambda r: r / self.DIAGONAL,
                                    x0, 1e-10, max_iter)
        return theta

    def test_smallest_eigenvalue(self):
        assert abs(self._smallest(np.ones(self.DIAGONAL.size)) - 0.5) <= 1e-10 * 0.5

    def test_eigenvector_start_stops_at_once(self):
        """An eigenvector start has a zero residual: the first check stops
        on its eigenvalue, which need not be the smallest."""
        x0 = np.zeros(self.DIAGONAL.size)
        x0[100] = 1.0
        assert self._smallest(x0, max_iter=1) == self.DIAGONAL[100]

    def test_preconditioner_is_used(self):
        """On an ill-conditioned diagonal, the exact inverse as the
        preconditioner takes a fraction of the applies that none takes
        (38 against 1167; LOBPCG took 53 and 1874)."""
        diagonal = np.geomspace(1e-3, 1.0, 200)
        counts = []
        for precondition in (lambda r: r, lambda r: r / diagonal):
            applies = []
            theta, _ = _davidson_lowest(lambda x: applies.append(1) or diagonal * x, precondition,
                                        np.ones(diagonal.size), 1e-8, 10_000)
            assert abs(theta - 1e-3) <= 1e-8 * 1e-3
            counts.append(len(applies))
        assert 3 * counts[1] < counts[0]

    def test_cap_raises_with_one_residual_per_iteration(self):
        with pytest.raises(ConvergenceError, match="in 3 iterations") as excinfo:
            self._smallest(np.ones(self.DIAGONAL.size), max_iter=3)
        best = excinfo.value.best
        assert best.shape == self.DIAGONAL.shape
        np.testing.assert_allclose(np.linalg.norm(best), 1.0, rtol=1e-12)
        assert len(excinfo.value.residual_history) == 3


class TestOrthonormalize:
    """The Gram-Schmidt step that adds a direction to the Davidson basis.
    The preconditioner stands in for the directions: each call returns the
    next one, and each vector the routine applies the operator to is a
    basis vector."""

    DIAGONAL = np.linspace(0.5, 1.0, 50)

    def _run(self, x, directions, max_iter):
        """The vectors applied and the ConvergenceError of a run capped
        at ``max_iter`` iterations."""
        applied = []

        def apply(v):
            applied.append(v.copy())
            return self.DIAGONAL * v

        with pytest.raises(ConvergenceError) as excinfo:
            _davidson_lowest(apply, lambda r: next(directions), x, 1e-14, max_iter)
        return np.array(applied), excinfo.value

    def test_orthonormal_with_images(self):
        """A direction within 1e-3 of the basis' span loses almost all its
        length and is projected twice; the basis is still orthonormal to
        roundoff, and the last residual, formed from the images, is the
        operator's on the Ritz vector."""
        rng = np.random.default_rng(7)
        x, w = rng.standard_normal((2, self.DIAGONAL.size))
        near = x + w + 1e-3 * rng.standard_normal(self.DIAGONAL.size)
        vectors, error = self._run(x, iter([w, near]), max_iter=3)
        assert len(vectors) == 3
        np.testing.assert_allclose(vectors @ vectors.T, np.eye(3), atol=1e-14)
        ritz = error.best
        theta = ritz @ (self.DIAGONAL * ritz)
        residual = np.linalg.norm(self.DIAGONAL * ritz - theta * ritz) / theta
        np.testing.assert_allclose(error.residual_history[-1], residual, rtol=1e-9)

    def test_drops_a_vector_in_the_span(self):
        """A direction in the span of the basis, up to roundoff, is left
        out, with no apply spent on it: scaling its remainder would magnify
        its rounding errors. The iterate then stays where it is."""
        rng = np.random.default_rng(8)
        x, w = rng.standard_normal((2, self.DIAGONAL.size))
        vectors, error = self._run(x, iter([w] + [2.0 * x - w] * 3), max_iter=5)
        assert len(vectors) == 2
        history = error.residual_history
        assert len(history) == 5 and len(set(history[1:])) == 1


def _rotated(eigenvalues, seed):
    """A symmetric matrix, as nested lists, with the given eigenvalues and
    seeded random eigenvectors."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigenvalues),) * 2))
    return (q @ np.diag(eigenvalues) @ q.T).tolist()


def _tridiagonal(alphas, betas):
    return np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)


def _tridiagonal_with_spectrum(spectrum, seed):
    """Diagonal and off-diagonal of a tridiagonal with the given spectrum:
    Lanczos with full reorthogonalization on diag(spectrum) from a seeded
    start, run to the full dimension."""
    v = np.random.default_rng(seed).standard_normal(spectrum.size)
    basis = np.zeros((spectrum.size, spectrum.size))
    alphas, betas = [], []
    for i in range(spectrum.size):
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
    if split:  # a block diagonal T, whose blocks the iteration must all reach
        betas[::7] = 0.0
    return alphas, betas


def _graded_tridiagonal(j):
    """Diagonal from 1 down to 1e-8, off-diagonal 0.4 of the neighbours'
    geometric mean: positive definite, lowest eigenvalue near 1e-8."""
    alphas = 10.0 ** (-8.0 * np.arange(j) / j)
    return alphas, 0.4 * np.sqrt(alphas[:-1] * alphas[1:])


def _shifted_tridiagonal(alphas, betas, shift):
    """The action x -> (T - shift) x of the tridiagonal T, matrix-free."""
    def apply(x):
        y = (alphas - shift) * x
        y[:-1] += betas * x[1:]
        y[1:] += betas * x[:-1]
        return y
    return apply


class TestLowestRitzPair:
    """The lowest Ritz pair of the Davidson routine against dense
    ``eigvalsh``: of a symmetric tridiagonal, and of a matrix small enough
    that the basis spans its whole space."""

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
        """Davidson on T - lower, unpreconditioned, from a constant start.
        With ``lower`` 0.5 below the spectrum the operator is positive
        definite, and theta matches its lowest eigenvalue to the tolerance
        of the coercivity estimate. With ``lower`` 0.5 above the lowest
        eigenvalue the operator is indefinite: theta, a Rayleigh quotient
        and so never below that eigenvalue, falls to the singular bound,
        where the iteration stops and estimate_coercivity would raise
        SingularOperatorError."""
        lowest = np.linalg.eigvalsh(_tridiagonal(alphas, betas))[0]
        lower = lowest - 0.5 if below else lowest + 0.5
        theta, _ = _davidson_lowest(_shifted_tridiagonal(alphas, betas, lower), lambda r: r,
                                    np.ones(alphas.size), _COERCIVITY_TOL, 100 * alphas.size)
        if below:
            assert abs(theta - (lowest - lower)) <= _COERCIVITY_TOL * theta
        else:
            assert lowest - lower - 1e-12 <= theta <= _SINGULAR_BOUND

    @pytest.mark.parametrize("gram", [
        pytest.param([[0.3]], id="one"),
        pytest.param([[2.0, 0.0], [0.0, 1.0]], id="diagonal"),
        pytest.param(_rotated([1e-3, 0.5], 1), id="pair"),
        pytest.param(_rotated([2.6e-4, 0.4, 1.0], 2), id="lobpcg-like"),
        pytest.param(_rotated([1e-8, 1e-4, 1.0], 3), id="graded"),
        pytest.param(_rotated([0.1, 0.1 + 1e-10, 1.0], 4), id="close-pair"),
        pytest.param(_rotated([0.3, 0.3, 0.3], 5), id="triple"),
        pytest.param([[2.6e-4, 1e-9, -1e-9], [1e-9, 0.4, 0.1], [-1e-9, 0.1, 0.9]],
                     id="near-converged"),
        pytest.param([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.1]], id="lowest-last"),
        pytest.param(_rotated([0.0, 0.5, 1.0], 7), id="singular"),
    ])
    def test_small_gram_matches_dense_eigh(self, gram):
        """Davidson on the matrix, unpreconditioned, from a constant start,
        with a tolerance of 0: it stops once its basis spans the space, in
        as many steps as the matrix has rows, where its Rayleigh-Ritz step
        is the whole eigenproblem. The lowest eigenvalue and the residual
        of its unit Ritz vector are within a few rounding units of the
        matrix norm, the accuracy LAPACK itself guarantees."""
        matrix = np.array(gram)
        eigenvalues = np.linalg.eigvalsh(matrix)
        theta, vector = _davidson_lowest(lambda x: np.einsum("ij,j->i", matrix, x), lambda r: r,
                                         np.ones(len(gram)), 0.0, len(gram))
        bound = 8 * np.finfo(float).eps * eigenvalues[-1]
        assert abs(theta - eigenvalues[0]) <= bound
        x = np.array(vector)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
        assert np.linalg.norm(np.array(gram) @ x - theta * x) <= bound

    def test_leaves_its_argument(self):
        """The start vector is left as it was."""
        start = np.linspace(1.0, 2.0, 200)
        copy = start.copy()
        _davidson_lowest(lambda x: TestDavidson.DIAGONAL * x, lambda r: r, start, 1e-8, 2000)
        np.testing.assert_array_equal(start, copy)


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
        delta = estimate_coercivity(disk_setup[2])
        dense_min = np.linalg.eigvalsh(dense_L_matrix(disk_setup[2]))[0]
        assert 0.0 < delta <= 1.0
        np.testing.assert_allclose(delta, dense_min, rtol=1e-6)

    def test_solve_estimates_no_eigenvalue(self, disk_setup, monkeypatch):
        """delta is the commands' business: a solve returns without
        calling the coercivity estimate."""
        def refuse(op):
            raise AssertionError("solve_profile estimated the coercivity")

        monkeypatch.setattr(profile, "estimate_coercivity", refuse)
        sol = solve_profile(disk_setup[2], tol=1e-8)
        assert sol.residual_l2 <= 1e-8
        assert not hasattr(sol, "delta_estimate")

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
        np.testing.assert_allclose(verify_profile(err.best, mask).on_mask_max_dev,
                                   1 - 1 / 1.001, rtol=1e-4)

    @pytest.mark.parametrize("n", [64, 128])
    def test_preconditioned_cg_matches_dense_solve(self, n):
        op = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), Grid(n, 8.0)))
        sol = solve_profile(op, tol=1e-8)
        direct = np.linalg.solve(dense_L_matrix(op), np.ones(op.mask.cell_count))
        np.testing.assert_allclose(op.mask.pack(sol.q.values), direct, rtol=1e-6)
        assert sol.residual_l2 <= 1e-8

    def test_iterations_on_benchmark_disk(self):
        """The circulant preconditioner takes CG on the centred unit disk
        at n = 512 to tol 1e-8 in 51 iterations (52 with a constant floor
        of 1e-3); unpreconditioned it took 383."""
        op = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), Grid(512, 16.0)))
        _, iterations, _ = _cg(op, np.ones(op.mask.cell_count), 1e-8, 10_000)
        assert iterations <= 90

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_solve_starts_no_threads(self):
        """In a fresh interpreter, an n = 256 solve, coercivity included,
        neither starts a thread nor wakes one: the process's threads and
        the CPU clock ticks of all but the main one are the same after the
        solve as before it. OpenBLAS starts its threads at import and runs
        them only for large enough products."""
        code = (
            "import os\n"
            "import time\n"
            "from z11sim import (Disk, Grid, RestrictedOperator, estimate_coercivity,\n"
            "                    rasterize, solve_profile)\n"
            "def ticks():\n"
            "    out = {}\n"
            "    for tid in os.listdir('/proc/self/task'):\n"
            "        with open(f'/proc/self/task/{tid}/stat') as f:\n"
            "            fields = f.read().rsplit(')', 1)[1].split()\n"
            "        out[tid] = 0 if tid == str(os.getpid()) else int(fields[11]) + int(fields[12])\n"
            "    return out\n"
            "op = RestrictedOperator(rasterize(Disk((0.0, 0.0), 1.0), Grid(256, 16.0)))\n"
            "before = ticks()\n"
            "for _ in range(50):  # let the threads settle from their start\n"
            "    time.sleep(0.1)\n"
            "    before, settled = ticks(), before\n"
            "    if before == settled:\n"
            "        break\n"
            "print(before)\n"
            "solve_profile(op)\n"
            "estimate_coercivity(op)\n"
            "print(ticks())\n"
        )
        src = os.path.dirname(os.path.dirname(profile.__file__))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        before, after = result.stdout.splitlines()
        assert before == after

    def test_curvature_breakdown(self):
        class NegatingStub:
            def apply_packed(self, x):
                return -x

            def precondition(self, r):
                return r

        with pytest.raises(CurvatureBreakdownError, match="iteration 1"):
            _cg(NegatingStub(), np.ones(5), 1e-8, 10)


def _full_array_report(q, mask):
    """The report by the full-array formulas, with the defect, its squares
    and the off-mask cells each in an array of their own."""
    h2 = mask.grid.h**2
    z = apply_z11(q)
    dev = z.values[mask.indicator] - 1.0
    on_max = float(np.max(np.abs(dev)))
    on_l2 = float(np.sqrt(h2 * np.sum(dev**2)))
    ones_norm = float(np.sqrt(h2 * mask.cell_count))
    off_vals = q.values[~mask.indicator]
    off_max = float(np.max(np.abs(off_vals))) if off_vals.size else 0.0
    defect = (z.values - 1.0) * q.values
    defect_l2 = float(np.sqrt(h2 * np.sum(defect**2)))
    defect_max = float(np.max(np.abs(defect)))
    q_l2 = float(np.sqrt(h2 * np.sum(q.values**2)))
    return ProfileReport(
        on_mask_max_dev=on_max,
        on_mask_l2_dev=on_l2,
        on_mask_l2_dev_rel=on_l2 / ones_norm,
        off_mask_max=off_max,
        off_mask_exact_zero=(off_max == 0.0),
        defect_l2=defect_l2,
        defect_max=defect_max,
        defect_l2_rel=defect_l2 / q_l2 if q_l2 > 0 else float("inf"),
    )


def _hand_made_profile(solved, off_mask):
    """The solved disk's profile with its first off-mask cells set to the
    list ``off_mask``, or every off-mask cell to the number ``off_mask``."""
    values = solved.q.values.copy()
    off = np.flatnonzero(~solved.mask.indicator)
    values.flat[off if np.isscalar(off_mask) else off[: len(off_mask)]] = off_mask
    return RealField(solved.q.grid, values)


def _solved_disk_256(centre, shift):
    """Q and mask of the unit disk at ``centre`` on the n = 256 grid of side
    16, both rolled by ``shift`` cells along each axis."""
    grid = Grid(256, 16.0)
    solved = solve_profile(RestrictedOperator(rasterize(Disk(centre, 1.0), grid)), tol=1e-8)
    q, indicator = (np.roll(a, shift, axis=(0, 1)) for a in (solved.q.values, solved.mask.indicator))
    return RealField(grid, q), Mask(grid, indicator)


class TestVerifyProfile:
    @pytest.mark.parametrize("off_mask", [
        None,
        [2e-3, -0.0, -5e-3, -0.0, 1e-3],
        [3e-3, -0.0, 1e-3],
        -0.0,
        "full-grid-mask",
        ((0.1, 0.05), 128),
        ((3.1, -2.7), 0),
    ], ids=["solved", "min-beyond-max", "max-beyond-min", "negative-zeros", "no-off-mask-cells",
            "disk-across-both-edges", "off-centre-disk"])
    def test_matches_the_full_array_formulas(self, disk_setup, off_mask):
        """Every field of the report is bitwise that of the full-array
        formulas, the sign of each zero included, and Q is left as it
        was. The negative-zeros case sets every off-mask cell to -0.0,
        whose maximum magnitude the report gives as 0.0. The two disks at
        n = 256 are solved profiles whose rows lie away from the grid's
        first rows: one centred at (0.1, 0.05) and rolled by half the grid,
        so that it lies across both periodic edges, centred at
        (-7.9, -7.95), and one centred at (3.1, -2.7). On both, summing the
        squares row by row, then the rows, moves defect_l2_rel by 1 ulp."""
        solved = solve_profile(disk_setup[2], tol=1e-8)
        q, mask = solved.q, solved.mask
        if isinstance(off_mask, tuple):
            q, mask = _solved_disk_256(*off_mask)
        elif off_mask == "full-grid-mask":
            grid = disk_setup[0]
            mask = Mask(grid, np.ones((grid.n, grid.n), dtype=bool))
        elif off_mask is not None:
            q = _hand_made_profile(solved, off_mask)
        before = q.values.tobytes()
        got = dataclasses.astuple(verify_profile(q, mask))
        expected = dataclasses.astuple(_full_array_report(q, mask))
        assert [float(v).hex() for v in got] == [float(v).hex() for v in expected]
        assert q.values.tobytes() == before

    def test_report_consistent_with_solve(self, disk_setup):
        _, mask, op = disk_setup
        sol = solve_profile(op, tol=1e-9)
        report = verify_profile(sol.q, mask)
        assert report.off_mask_exact_zero
        assert report.off_mask_max == 0.0
        assert report.on_mask_l2_dev_rel == sol.residual_l2
        assert report == sol.report
        assert report.on_mask_max_dev >= report.on_mask_l2_dev_rel / 10

    def test_defect_bounded_by_deviation(self, disk_setup):
        """(Lq - 1) q bounds: pointwise |defect| <= |dev| sup|q| on the
        mask and defect = 0 off it, so the norms obey the product bound."""
        _, mask, op = disk_setup
        sol = solve_profile(op, tol=1e-8)
        report = verify_profile(sol.q, mask)
        sup_q = sup_norm(sol.q)
        assert report.defect_max <= report.on_mask_max_dev * sup_q * (1 + 1e-12)
        assert report.defect_l2 <= report.on_mask_l2_dev * sup_q * (1 + 1e-12)

    def test_defect_small_relative_to_profile(self, disk_setup):
        sol = solve_profile(disk_setup[2], tol=1e-8)
        report = verify_profile(sol.q, sol.mask)
        assert report.defect_l2 <= 1e-7 * l2_norm(sol.q)

    def test_profile_positive_on_disk(self, disk_setup):
        """Observed structure: the disk profile is positive on the mask
        with its peak at the boundary oscillation."""
        _, mask, op = disk_setup
        sol = solve_profile(op, tol=1e-8)
        on_mask = sol.q.values[mask.indicator]
        assert on_mask.min() > 0.0
        assert mask_area(mask) > 0.0
