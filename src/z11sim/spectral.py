"""Periodic grid, Fourier transforms, and the multiplier operators.

The computational domain is a periodic square box of side ``box_length``
centered at the origin, sampled on an ``n`` x ``n`` lattice. All fields are
real in physical space; spectral coefficients are intermediate storage.

The central operator multiplies Fourier coefficients by

    m(lam) = lam1^2 / (lam1^2 + lam2^2),    m(0) = 0,

i.e. the symbol of d_11 applied to the inverse Laplacian. The zero-mode
convention m(0) = 0 makes the operator kill constants and keeps it symmetric
positive-semidefinite; it is the one place where the periodic operator and
its whole-plane counterpart differ.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  (numpy 2 loads it lazily: load it here, not inside a run)

__all__ = [
    "Grid",
    "RealField",
    "apply_z11",
    "apply_z22",
    "quadratic_form",
    "cone_mass_ratio",
    "inner",
    "l2_norm",
    "sup_norm",
]


# A pass over an n x n array that needs a temporary per entry runs in this
# many blocks (the column passes of a row-restricted transform, _real_fft
# with rows, rasterization and the field writes), so that each block's
# temporary holds about 1/8 of an n x n float array.
_BLOCKS = 8


def _blocks(size: int) -> list[slice]:
    """Consecutive slices of equal width, the last one shorter, that cover
    range(size) in at most _BLOCKS pieces; size must be positive."""
    width = -(-size // _BLOCKS)
    return [slice(start, min(start + width, size)) for start in range(0, size, width)]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _wavenumbers(n: int) -> np.ndarray:
    """Integer wavenumbers in FFT ordering: 0..n/2-1, -n/2..-1."""
    k = np.arange(n)
    return np.where(k < n // 2, k, k - n)


def _z11_symbol(n1: int, n2: int, full: bool = False,
                columns: slice = slice(None)) -> np.ndarray:
    """Z11's multiplier k1^2/|k|^2 on the n1 x n2 integer frequency lattice
    in FFT layout, axis 0 along k1: its half plane k2 >= 0, the first
    n2/2 + 1 columns, or with ``full`` the whole plane; ``columns`` selects
    a block of that plane's columns. Each entry comes from the same
    elementwise formula either way, so a block is bitwise those columns of
    the plane, the half plane is bitwise the first columns of the full one,
    and the transpose of the full plane is bitwise the companion multiplier
    k2^2/|k|^2. Called as ``symbol(p1, p2)`` by :func:`_real_fft`, it builds
    the half plane between the transform's passes, and in its row-restricted
    mode one column block at a time."""
    ksq1 = _wavenumbers(n1).astype(float) ** 2
    ksq2 = _wavenumbers(n2).astype(float) ** 2
    ksq = ksq1[:, None] + (ksq2 if full else ksq2[: n2 // 2 + 1])[None, columns]
    # |k|^2 vanishes at k = 0 alone, where k1^2 = 0 makes the ratio 0 / 1 = 0
    if ksq[0, 0] == 0.0:
        ksq[0, 0] = 1.0
    # divided in place: building the symbol holds one array of its size
    return np.divide(ksq1[:, None], ksq, out=ksq)


@dataclass(frozen=True)
class Grid:
    """Sample lattice and frequency lattice of the periodic box.

    Parameters
    ----------
    n : int
        Points per axis. Must be a power of two, at least 16.
    box_length : float
        Physical side length of the periodic box.

    Derived attributes (set at construction): ``h`` sample spacing and
    ``x`` 1-d sample coordinates in ``[-L/2, L/2)``. A grid holds no
    n x n array: Z11's multiplier is built where it is multiplied
    (:func:`_z11_symbol`), from the integer wavenumbers alone, so it is
    bitwise independent of ``box_length`` (the symbol is 0-homogeneous).
    """

    n: int
    box_length: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise TypeError(f"n must be an integer, got {type(self.n).__name__}")
        if not _is_power_of_two(self.n) or self.n < 16:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")
        if not (np.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(f"box_length must be positive and finite, got {self.box_length}")

        n = self.n
        length = float(self.box_length)
        object.__setattr__(self, "box_length", length)
        h = length / n
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "x", -0.5 * length + h * np.arange(n))

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of sample coordinates, axis 0 along x1, axis 1 along x2."""
        return np.meshgrid(self.x, self.x, indexing="ij")


@dataclass(frozen=True, eq=False)
class RealField:
    """Real samples of a scalar field on a :class:`Grid`; ``values`` must
    be finite everywhere."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"values shape {v.shape} does not match grid ({self.grid.n}, {self.grid.n})")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains NaN/Inf")
        object.__setattr__(self, "values", v)


def _real_fft(values: np.ndarray | tuple[int, int],
              symbol: np.ndarray | Callable[..., np.ndarray] | None = None,
              rows: np.ndarray | None = None) -> np.ndarray:
    """The one transform site: real-input FFTs over the half plane k2 >= 0.

    With ``symbol``, a multiplier of the periodic p1 x p2 array even under
    k -> -k, returns the multiplier applied to ``values`` in physical
    space. ``symbol`` is either the full-plane p1 x p2 array, whose half
    plane is read as a view, or a function of ``(p1, p2)`` that builds the
    half plane, with p the shape of ``values``: it is called after the
    forward column pass, and its array is dropped before the inverse row
    pass, so it is alive only while it is multiplied. With a full-plane
    array, ``values``, a b1 x b2 block with b <= p, is zero-padded to the
    periodic p1 x p2 array inside the per-axis transforms, and the b1 x b2
    block of the result is returned. These are the per-axis transforms
    numpy's rfft2 and irfft2 run, so the block is bitwise that of the
    padded transform, without the padding rows (FFT pruning, Markel 1971).
    ``values`` given as a shape ``(p1, p2)`` stands for a p1 x p2 unit
    impulse at the origin, whose coefficients are exactly 1: the result,
    the multiplier's kernel, is the inverse transform of the symbol alone,
    bitwise that of the impulse without building it or its transform.
    Data ``values`` are transformed in one p1 x (p2/2 + 1) complex
    buffer, zero past row b1: the forward row pass fills its first b1
    rows, and the column pass, the product with the symbol and the
    inverse column pass run in place (numpy's ``out=``, numpy 2.0 or
    newer). These are the same per-axis transforms, bitwise, and one
    half-plane array is alive beside the symbol's.

    With ``rows``, an index array, the transform is row-restricted: the
    result is those rows of the full p1 x p2 result, in that order, and
    ``symbol`` is a function called as ``symbol(p1, p2, columns=block)``
    for one block of the half plane's columns, as :func:`_z11_symbol`
    builds it. The forward row pass runs only on the rows of ``values``
    that hold a nonzero, the column passes run over the _BLOCKS blocks
    of the half plane's columns, and the inverse row pass only on
    ``rows``. Every transform is one of the full transform's per-axis
    transforms, on the same line, so the rows are bitwise those of the
    full result, and no array of the p1 x p2 size is built.

    Without ``symbol``, ``values`` is an n1 x n2 periodic array, and the
    result is the power |c(k)|^2 of the coefficients normalized so that
    c(0) is the field mean, on the full-plane FFT labels.
    """
    impulse = isinstance(values, tuple)
    if rows is not None:
        p1, p2 = values if impulse else values.shape
        half = p2 // 2 + 1
        if not impulse:
            nonzero = np.flatnonzero(values.any(axis=1))
            forward = np.fft.rfft(values[nonzero], axis=1)
        coeff_rows = np.empty((len(rows), half), dtype=complex)
        for block in _blocks(half):
            if impulse:
                coeff = symbol(p1, p2, columns=block)
            else:
                coeff = np.zeros((p1, block.stop - block.start), dtype=complex)
                coeff[nonzero] = forward[:, block]
                coeff = np.fft.fft(coeff, axis=0)
                coeff *= symbol(p1, p2, columns=block)
            coeff_rows[:, block] = np.fft.ifft(coeff, axis=0)[rows]
        return np.fft.irfft(coeff_rows, n=p2, axis=1)
    if symbol is not None:
        b1, b2 = values if impulse else values.shape
        p1, p2 = (b1, b2) if callable(symbol) else symbol.shape
        half = symbol if callable(symbol) else lambda p1, p2: symbol[:, : p2 // 2 + 1]
        if impulse:
            coeff = np.fft.ifft(half(p1, p2), axis=0)
        else:
            coeff = np.zeros((p1, p2 // 2 + 1), dtype=complex)
            np.fft.rfft(values, n=p2, axis=1, out=coeff[:b1])
            np.fft.fft(coeff, axis=0, out=coeff)
            coeff *= half(p1, p2)
            np.fft.ifft(coeff, axis=0, out=coeff)
        return np.fft.irfft(coeff[:b1], n=p2, axis=1)[:, :b2]
    n1, n2 = values.shape
    coeff = np.fft.rfft2(values, norm="forward")
    half = coeff.real**2 + coeff.imag**2
    # c(-k) is the conjugate of c(k), so the columns k2 < 0 are the half
    # plane mirrored through the origin. Mirroring, rather than weighting
    # columns by two, keeps each power on its own (k1, k2) label: the row
    # k1 = -n1/2 is its own mirror, so (-n1/2, j) pairs with (-n1/2, -j).
    full = np.empty((n1, n2))
    full[:, : n2 // 2 + 1] = half
    full[:, n2 // 2 + 1:] = half[-np.arange(n1) % n1, (n2 - 1) // 2: 0: -1]
    return full


def apply_z11(f: RealField) -> RealField:
    """Apply the multiplier lam1^2/|lam|^2 (zero on the zero mode).

    The operator is the identity on pure x1-waves, annihilates pure
    x2-waves, and is idempotent only on fields spectrally supported where
    the multiplier is 0 or 1.

    The symbol's half plane is built inside the transform, between its
    passes, so at its peak the apply holds ``f``, the half-plane
    coefficients and the result, and no n x n symbol.
    """
    return RealField(f.grid, _real_fft(f.values, _z11_symbol))


def apply_z22(f: RealField) -> RealField:
    """Companion multiplier lam2^2/|lam|^2; together with
    :func:`apply_z11` it sums to the identity on mean-zero fields. Its
    symbol is the transpose of Z11's full plane, built for the call, so it
    is Z11 conjugated by transposing the data."""
    n = f.grid.n
    return RealField(f.grid, _real_fft(f.values, _z11_symbol(n, n, full=True).T))


def inner(f: RealField, g: RealField) -> float:
    """L2 inner product h^2 * sum(f * g) on the box."""
    return float(f.grid.h**2 * np.sum(f.values * g.values))


def l2_norm(f: RealField) -> float:
    return float(np.sqrt(f.grid.h**2 * np.sum(f.values**2)))


def sup_norm(f: RealField) -> float:
    return float(np.max(np.abs(f.values)))


def field_integral(f: RealField) -> float:
    """Integral of the field over the box, h^2 * sum (spectrally accurate
    for periodic fields)."""
    return float(f.grid.h**2 * np.sum(f.values))


def quadratic_form(f: RealField) -> float:
    """Spectral-side quadratic form sum m(lam) |f_hat(lam)|^2.

    Scaled so it equals the physical inner product of ``apply_z11(f)`` with
    ``f``. Nonnegative termwise; it vanishes exactly when the spectrum is
    supported on the lam1 = 0 axis (zero mode included). Z11's full-plane
    symbol is built for the call and summed against the full-plane power.
    """
    n = f.grid.n
    return float(f.grid.box_length**2 * np.sum(_z11_symbol(n, n, full=True) * _real_fft(f.values)))


def cone_mass_ratio(f: RealField, k: float) -> float:
    """Fraction of spectral mass on the frequency cone 1/k < lam1/lam2 < k.

    Lattice points with lam2 = 0 lie outside the cone. The ratio is taken
    against the total spectral mass and lies in [0, 1].
    """
    if not k > 1:
        raise ValueError(f"cone parameter k must exceed 1, got {k}")
    power = _real_fft(f.values)
    total = power.sum()
    if total == 0.0:
        raise ValueError("cone_mass_ratio is undefined for the zero field")
    kint = _wavenumbers(f.grid.n)
    k1 = kint[:, None]
    k2 = kint[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(k2 != 0, k1 / np.where(k2 != 0, k2, 1), 0.0)
    in_cone = (k2 != 0) & (ratio > 1.0 / k) & (ratio < k)
    return float(power[in_cone].sum() / total)
