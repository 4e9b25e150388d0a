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

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "RealField",
    "make_grid",
    "apply_z11",
    "apply_z22",
    "quadratic_form",
    "cone_mass_ratio",
    "inner",
    "l2_norm",
    "sup_norm",
    "field_integral",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Sample lattice and frequency lattice of the periodic box.

    Parameters
    ----------
    n : int
        Points per axis. Must be a power of two, at least 16.
    box_length : float
        Physical side length of the periodic box.

    Derived attributes (set at construction): ``h`` sample spacing, ``x``
    1-d sample coordinates in ``[-L/2, L/2)``, ``k1``/``k2`` integer
    wavenumber meshes in FFT layout, ``lam1``/``lam2`` physical frequencies
    ``2*pi*k/L``, and ``m11``/``m22`` the multiplier meshes. All meshes
    cover the full frequency plane; the transforms read the half plane
    ``k2 >= 0`` of a multiplier as a view.

    The multipliers are computed from the integer wavenumbers, so they are
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

        # Integer wavenumbers in FFT ordering: 0..n/2-1, -n/2..-1.
        kint = np.arange(n)
        kint = np.where(kint < n // 2, kint, kint - n)
        k1 = kint[:, None] * np.ones(n, dtype=int)[None, :]
        k2 = np.ones(n, dtype=int)[:, None] * kint[None, :]
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "lam1", (2.0 * np.pi / length) * k1)
        object.__setattr__(self, "lam2", (2.0 * np.pi / length) * k2)

        ksq = k1.astype(float) ** 2 + k2.astype(float) ** 2
        with np.errstate(invalid="ignore", divide="ignore"):
            m11 = np.where(ksq > 0, k1.astype(float) ** 2 / ksq, 0.0)
            m22 = np.where(ksq > 0, k2.astype(float) ** 2 / ksq, 0.0)
        object.__setattr__(self, "m11", m11)
        object.__setattr__(self, "m22", m22)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of sample coordinates, axis 0 along x1, axis 1 along x2."""
        return np.meshgrid(self.x, self.x, indexing="ij")

    def zeros(self) -> np.ndarray:
        return np.zeros((self.n, self.n))


def make_grid(n: int, box_length: float) -> Grid:
    """Construct a :class:`Grid`, validating ``n`` and ``box_length``."""
    return Grid(n, box_length)


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


def _real_fft(values: np.ndarray, symbol: np.ndarray | None = None) -> np.ndarray:
    """The one transform site: real-input FFTs over the half plane k2 >= 0.

    ``values`` is an n1 x n2 array, periodic on both axes. With ``symbol``,
    a full-plane n1 x n2 multiplier even under k -> -k, returns the
    multiplier applied to ``values`` in physical space. Without it, returns
    the power |c(k)|^2 of the coefficients normalized so that c(0) is the
    field mean, on the full-plane FFT labels.
    """
    n1, n2 = values.shape
    if symbol is not None:
        return np.fft.irfft2(symbol[:, : n2 // 2 + 1] * np.fft.rfft2(values), s=values.shape)
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
    """
    return RealField(f.grid, _real_fft(f.values, f.grid.m11))


def apply_z22(f: RealField) -> RealField:
    """Companion multiplier lam2^2/|lam|^2; together with
    :func:`apply_z11` it sums to the identity on mean-zero fields."""
    return RealField(f.grid, _real_fft(f.values, f.grid.m22))


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
    supported on the lam1 = 0 axis (zero mode included).
    """
    return float(f.grid.box_length**2 * np.sum(f.grid.m11 * _real_fft(f.values)))


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
    k1 = f.grid.k1
    k2 = f.grid.k2
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(k2 != 0, k1 / np.where(k2 != 0, k2, 1), 0.0)
    in_cone = (k2 != 0) & (ratio > 1.0 / k) & (ratio < k)
    return float(power[in_cone].sum() / total)
