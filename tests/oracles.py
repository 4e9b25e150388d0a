"""Oracles and whole-grid helpers that only the tests call.

The package holds what its commands run; these reference routines are
built from its private pieces (the real transform, the Runge-Kutta attempt,
the header parser) or from scratch, and each test module imports them, and
the helpers more than one module shares, from here rather than from another
test module.
"""

from __future__ import annotations

import os

import numpy as np

from z11sim.evolution import _check_dt, _rhs_values, _rk_attempt, _support
from z11sim.fieldio import _HEADER, FieldHeader, _parse_header
from z11sim.profile import RestrictedOperator
from z11sim.spectral import RealField, _real_fft, _z11_symbol, l2_norm

# Cash-Karp nodes: row i of the tableau sums to _RK_C[i]. The flow is
# autonomous, so the integrator never reads them.
_RK_C = np.array([0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8])

DENSE_CELL_LIMIT = 4096


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


def dense_L_matrix(op: RestrictedOperator) -> np.ndarray:
    """Assemble the operator as a dense cell_count x cell_count matrix.

    Entry (i, j) is Z11's kernel (Z11 of a unit impulse) at the periodic
    offset (x_i - x_j) mod n of cells i and j, gathered from the kernel's
    rows at the distinct row offsets, taken for the call by the
    row-restricted transform, so every entry is bitwise the one the
    operator's circulant embeds and no n x n kernel is built. Used as an
    oracle for the matrix-free application and for exact spectra at small
    sizes; guarded against quadratic blow-up.
    """
    m = op.mask.cell_count
    if m > DENSE_CELL_LIMIT:
        raise ValueError(f"dense assembly refused for cell_count {m} > {DENSE_CELL_LIMIT}")
    n = op.grid.n
    r, c = np.nonzero(op.mask.indicator)
    row_offsets = (r[:, None] - r) % n
    offsets, slot = np.unique(row_offsets, return_inverse=True)
    kernel_rows = _real_fft((n, n), _z11_symbol, rows=offsets)
    return kernel_rows[slot.reshape(row_offsets.shape), (c[:, None] - c) % n]


def rhs(omega: RealField) -> RealField:
    """Right-hand side (Z11 w) w, pointwise in space.

    The product is taken on the grid without spectral truncation: Z11 has
    order zero, so no derivative loss feeds aliasing. The product vanishes
    exactly wherever w does, so the flow keeps the support of the data, as
    the equation w = w0 exp(int Z11 w dt) does; on the support, (Z11 w) w
    is (L w) w with L the restricted operator of the support. So the
    product is taken on that operator's box, the periodic bounding box of
    the support, with Z11 applied through the box's circulant embedding,
    as the evolution takes it; full support makes the box the grid. The
    box's values are scattered back whole: off the support they are zeros.
    """
    op = RestrictedOperator(_support(omega))
    product = _rhs_values(op._symbol, omega.values[op._box])
    return RealField(omega.grid, _on_grid(op, product))


def _on_grid(op: RestrictedOperator, values: np.ndarray) -> np.ndarray:
    """Box values of ``op`` scattered through its box into a grid-sized
    array, zero off the box."""
    full = np.zeros((op.grid.n, op.grid.n))
    full[op._box] = values
    return full


def rk_step(omega: RealField, dt: float) -> tuple[RealField, np.ndarray]:
    """Single fixed step of the embedded pair, no acceptance control.

    Returns the fifth-order update and the pointwise difference between the
    embedded orders (the raw local error field). Used for convergence-order
    measurements. Stages and sums run on the support box of :func:`rhs`;
    the error field is zero off the support. dt must be positive and
    finite.
    """
    _check_dt(dt)
    op = RestrictedOperator(_support(omega))
    y = omega.values[op._box]
    y_new, err = _rk_attempt(op._symbol, y, _rhs_values(op._symbol, y), dt)
    return RealField(omega.grid, _on_grid(op, y_new)), _on_grid(op, err)


def field_integral(f: RealField) -> float:
    """Integral of the field over the box, h^2 * sum (spectrally accurate
    for periodic fields)."""
    return float(f.grid.h**2 * np.sum(f.values))


def full_grid_deviation(omega_t: RealField, q: RealField, T: float, t: float) -> float:
    """Relative L2 distance of a state on the grid from the separable
    solution Q/(T - t), summed over all n^2 cells."""
    if t >= T:
        raise ValueError(f"t must be strictly less than T, got t={t}, T={T}")
    if omega_t.grid != q.grid:
        raise ValueError("state and profile grids differ")
    target = RealField(q.grid, q.values / (T - t))
    denom = l2_norm(target)
    if denom == 0.0:
        raise ValueError("profile is identically zero")
    diff = RealField(q.grid, omega_t.values - target.values)
    return l2_norm(diff) / denom


def read_header(path: str | os.PathLike) -> FieldHeader:
    """The header of a field file, read and checked without its payload."""
    path = os.fspath(path)
    with open(path, "rb") as handle:
        raw = handle.read(_HEADER.size)
    return _parse_header(raw, path)


def _reflect(values, axis):
    """values at the cell index (-i) mod n along axis: x -> -x on the grid,
    whose coordinates run from -L/2 in steps of h."""
    n = values.shape[axis]
    return np.take(values, -np.arange(n) % n, axis=axis)


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
