"""Restricted multiplier operator on a masked set and the profile solve.

For a mask A the operator acts on fields supported on A as

    L phi = (Z11 phi_tilde) restricted to A,

where phi_tilde extends phi by zero off A. L is symmetric and, for masks
that fit well inside the box, positive definite with spectrum in (0, 1].
The singular profile is the solution of L Q = 1 on A, extended by zero;
it satisfies the pointwise identity (Z11 Q) Q = Q on the whole grid up to
the solve residual.

The operator is a gather from one translation-invariant kernel,
L[i, j] = K[x_i - x_j], with K = Z11 applied to a unit impulse. Its
action only reads kernel offsets within the mask's bounding box, so it is
applied matrix-free on that box as a circulant of the smallest 5-smooth
size that holds every offset without wrap-around (the Toeplitz embedding,
Chan & Jin 2007). One application scatters into the box and costs a
forward and an inverse FFT of the embedding, not of the grid; the padding
from the box to the embedding happens inside the transform, which skips
the rows it knows to be zero. The inverse of that circulant's symbol,
floored at the lowest x1-mode of the mask's longest x1-run, is the
operator's preconditioner (Strang 1986; T. Chan 1988), and costs the
same: conjugate gradient and the Davidson estimate of the smallest
eigenvalue both use it. The estimate adds a coarse correction on the
mask's x1-chords, whose Galerkin matrix two transforms of the embedding
give without an apply. The solve's one certificate,
:func:`verify_profile`, applies Z11 with the n-point transforms of the
periodic grid, independently of the embedding and of the preconditioner.
A dense matrix assembly is provided as an oracle for small masks.

The flow w_t = (Z11 w) w keeps the support of w, where (Z11 w) w is
(L w) w for the restricted operator L of that support, so the evolution
steps on the box of that operator: this module alone decides a support's
box and its circulant.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .shapes import Mask
from .spectral import Grid, RealField, _real_fft, _z11_symbol

__all__ = [
    "RestrictedOperator",
    "ProfileSolution",
    "ConvergenceError",
    "CurvatureBreakdownError",
    "SingularOperatorError",
    "solve_profile",
    "estimate_coercivity",
    "verify_profile",
]

DENSE_CELL_LIMIT = 4096

# Step of the Weyl sequence that perturbs the coercivity start vector: the
# golden ratio's fractional part, whose multiples fill [0, 1) most evenly.
_WEYL_STEP = (5**0.5 - 1) / 2
# Davidson iterations allowed per mask cell.
_STEPS_PER_CELL = 10
# Davidson restarts once its basis holds this many vectors.
_BASIS = 8
# Bound on the relative error of the coercivity estimate.
_COERCIVITY_TOL = 1e-6
_EPS = float(np.finfo(float).eps)
# An eigenvalue estimate at or below this is reported as singular.
_SINGULAR_BOUND = 10 * _EPS
# Davidson leaves a new direction out of its basis when orthogonalization
# shrinks it below this fraction of its length.
_DROP_BELOW = 1e-4
# CG replaces its recurrence residual by the true b - A x this often.
_CG_REFRESH_EVERY = 25
# Elements per leaf of numpy's pairwise summation (its PW_BLOCKSIZE).
_PAIRWISE_LEAF = 128


class ConvergenceError(RuntimeError):
    """An iterative method failed to reach its tolerance within its cap.

    Carries the best iterate (``best``, a RealField extended by zero off
    the mask) and the relative residual history: CG's last iterate and its
    residual per iteration, or the coercivity estimate's last unit iterate
    and its residual, relative to its Rayleigh quotient, per iteration.
    """

    def __init__(self, message: str, best: RealField, residual_history: list[float]):
        super().__init__(message)
        self.best = best
        self.residual_history = residual_history


class CurvatureBreakdownError(RuntimeError):
    """CG met a direction of nonpositive curvature, i.e. the discretized
    operator lost positive definiteness. Carries the offending iteration."""

    def __init__(self, iteration: int):
        super().__init__(f"nonpositive curvature direction at CG iteration {iteration}")
        self.iteration = iteration


class SingularOperatorError(RuntimeError):
    """The smallest-eigenvalue estimate is at roundoff level."""


def _embedding_axis(occupied: np.ndarray) -> tuple[int, int, int]:
    """Box start, box width b and embedding size p along one periodic axis:
    the box is the shortest cyclic interval holding every occupied index,
    after the widest gap (a full axis starts at 0). Offsets up to b - 1 fit
    without wrap-around in a circulant of size p >= 2b - 1; p is the
    smallest such 5-smooth integer (one dividing a power of 30), capped at n."""
    n = occupied.size
    index = np.flatnonzero(occupied)
    gaps = np.diff(index, prepend=index[-1] - n)
    widest = int(np.argmax(gaps))
    b = n - int(gaps[widest]) + 1
    return int(index[widest]), b, next((k for k in range(2 * b - 1, n) if pow(30, k, k) == 0), n)


@functools.lru_cache(maxsize=8)
def _box_kernel(n: int, p1: int, p2: int) -> np.ndarray:
    """Symbol of the p1 x p2 circulant that embeds Z11's kernel (Z11 of a
    unit impulse) on an n x n grid (the Toeplitz embedding, Chan & Jin
    2007): the kernel's window at the circulant offsets 0..p/2,
    -(p/2-1)..-1 is real and even, so the symbol is p1 p2 times the
    window's inverse transform. Kernel and symbol are impulse responses,
    taken as ``_real_fft(shape, symbol)``: no impulse and no forward
    transform of it is built. The kernel is taken row-restricted, on the
    p1 rows the window gathers alone, from Z11's half plane built one
    column block at a time, so no n x n array is built, and each row is
    bitwise that of Z11 of the impulse. Only the symbol is kept. A box
    spanning the grid is the grid, whose symbol is Z11's full plane, built
    without the kernel; that box alone keeps the full plane. Z11's symbol
    is 0-homogeneous, so the result depends on n and not on the box length.
    """
    if p1 == p2 == n:
        return _z11_symbol(n, n, full=True)
    # allocated before the transforms' temporaries, the kept symbol does not
    # sit above the space they free: allocated after them, it left the heap
    # fragmented, and the evolve command's peak RSS 0.2 MB higher
    symbol = np.empty((p1, p2))
    rows, cols = (np.where(o <= p // 2, o, o - p) % n for p in (p1, p2) for o in [np.arange(p)])
    window = _real_fft((n, n), _z11_symbol, rows=rows).take(cols, axis=1)
    return np.multiply(p1 * p2, _real_fft(window.shape, window), out=symbol)


@dataclass(frozen=True, eq=False)
class RestrictedOperator:
    """The masked multiplier operator; acts on fields supported on the mask.

    The mask fixes the operator, its grid included. Construction decides
    the mask's periodic bounding box once: ``_box`` indexes it on the grid,
    ``_selector`` is the mask's indicator on the box in grid order, by
    whose boolean selection the member cells of box values read in the
    mask's row-major order (:meth:`_pack_box`), and ``_symbol`` is the
    symbol of the box's circulant embedding, the one array the operator
    keeps from the kernel. No index array of the member cells is built.
    The embedding size depends on the mask alone, and operators of one
    grid size and embedding size share the symbol. A full-grid mask's box
    is the grid, with Z11's full-plane symbol, the one place that plane is
    held. The evolution steps a state supported on the mask on this same
    box.
    """

    mask: Mask

    def __post_init__(self) -> None:
        n, indicator = self.grid.n, self.mask.indicator
        (start1, b1, p1), (start2, b2, p2) = (
            _embedding_axis(indicator.any(axis=a)) for a in (1, 0))
        box = np.ix_((start1 + np.arange(b1)) % n, (start2 + np.arange(b2)) % n)
        # the roll that takes a box across a periodic edge into grid order
        shift = tuple(-int(np.argmin(index.ravel())) for index in box)
        object.__setattr__(self, "_symbol", _box_kernel(n, p1, p2))
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "_box_shape", (b1, b2))
        object.__setattr__(self, "_shift", shift)
        object.__setattr__(self, "_selector", np.roll(indicator[box], shift, axis=(0, 1))
                           if any(shift) else indicator[start1:start1 + b1, start2:start2 + b2])

    @property
    def grid(self) -> Grid:
        return self.mask.grid

    def apply_packed(self, x: np.ndarray) -> np.ndarray:
        """Operator action on a member-cell vector of length cell_count."""
        return self._circulant(x, self._symbol)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """The circulant preconditioner (Strang 1986; T. Chan 1988) on a
        member-cell vector: the inverse of the embedding's symbol, floored
        column by column at the mask's lowest x1-mode, between the scatter
        and gather of an apply. It is symmetric positive definite and costs
        one apply."""
        return self._circulant(r, self._inverse_symbol)

    @functools.cached_property
    def _inverse_symbol(self) -> np.ndarray:
        """The symbol with each k2 column floored at Z11's symbol
        k1^2/|k|^2 at k1 = pi/(l h), l the mask's longest x1-run in cells:
        the lowest x1-wavenumber such a run holds, a Dirichlet half wave.
        On the p2-point embedding that floor is 1/(1 + (2 l k2/p2)^2). At
        the x2-Nyquist column it is about 1/l^2, the scale of delta itself
        (delta/h^2 tends to 1/(l h)^2), and it is never below 1/(1 + l^2).

        Built on the first preconditioner call, so the evolution, which
        never preconditions, never builds it. Inverted in place: a freed
        temporary beside the kept array left the solve command's heap
        holding 2 MB more at its peak in most runs."""
        k2_over_p2 = np.fft.fftfreq(self._symbol.shape[1])
        floor = np.reciprocal(1.0 + (2 * _longest_x1_run(self) * k2_over_p2) ** 2)
        inverse = np.maximum(self._symbol, floor)
        return np.reciprocal(inverse, out=inverse)

    def _pack_box(self, values: np.ndarray) -> np.ndarray:
        """The member cells of the box values ``values``, in the mask's
        row-major order, bitwise as :meth:`Mask.pack` reads them from the
        grid: a boolean selection by ``_selector``. A box across a periodic
        edge is first rolled into grid order, where its selector is a
        rolled copy of the indicator; any other box is read as it is,
        through a view of the indicator, so a full-grid mask holds no
        second n^2 booleans."""
        rolled = np.roll(values, self._shift, axis=(0, 1)) if any(self._shift) else values
        return rolled[self._selector]

    def _circulant(self, x: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """Scatter the member-cell vector ``x`` into the box, as
        :meth:`_pack_box` reads it, apply the circulant of ``symbol``, and
        gather the cells back."""
        box = np.zeros(self._box_shape)
        box[self._selector] = x
        if any(self._shift):
            box = np.roll(box, [-s for s in self._shift], axis=(0, 1))
        return self._pack_box(_real_fft(box, symbol))


def _x1_runs(op: RestrictedOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of consecutive member cells along x1, read in the box
    coordinates of ``op``, so a run across the periodic edge counts once:
    each run's box column i2, first box row i1 and length, column by
    column. Each box column is padded with a non-member cell at both ends,
    so its edges, where neighbours differ, pair up as the start and end of
    a run. Boolean and int64 operations only: an int8 difference paged in
    128 kB more of numpy's code, which the solve command's peak RSS showed."""
    columns = np.pad(op.mask.indicator[op._box].T, ((0, 0), (1, 1)))
    edges = np.flatnonzero(columns[:, 1:] != columns[:, :-1])
    column, start = np.divmod(edges[::2], columns.shape[1] - 1)
    return column, start, edges[1::2] - edges[::2]


def _longest_x1_run(op: RestrictedOperator) -> int:
    """The longest x1-run of the mask in cells (:func:`_x1_runs`)."""
    return int(np.max(_x1_runs(op)[2]))


def _chords(op: RestrictedOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coarse space of the mask's x1-chords, C, and its Galerkin matrix
    H = C^T L C of the operator L.

    C has one column per x1-run (:func:`_x1_runs`): the unit Dirichlet half
    sine sin(pi (i1 - a + 1)/(l + 1)) on the run's l cells from box row a,
    zero elsewhere. The columns have disjoint supports, so C is returned as
    each member cell's chord and its value on it, in the mask's row-major
    order: the runs are laid out in box coordinates and their cells read by
    :meth:`_pack_box`.

    H is built from two transforms and no apply. The apply is a circulant
    on the p1 x p2 embedding, so with S_c the p1-point transform of chord c
    along x1 and K(k1, m2) the symbol's inverse transform along x2 alone,
    H[c, d] = (1/p1) sum_k1 conj(S_c(k1)) S_d(k1) K(k1, j2_c - j2_d), j2
    the chords' box columns: C^T L C to rounding, wrapped boxes included.
    The chords and K are real and K is even in k1, so the sum runs over
    the half spectrum k1 <= p1/2, with each pair k1, p1 - k1 counted once
    at twice its real part. H is symmetric, and one einsum per chord fills
    its column on and below the diagonal. The cost is (chords)^2 p1, and
    the chords are a few times the box's columns on the shapes of
    :mod:`z11sim.shapes`.
    """
    column, start, length = _x1_runs(op)
    p1, p2 = op._symbol.shape
    chords = length.size
    # each run's cells in order, with their chord and their place on it
    chord = np.repeat(np.arange(chords), length)
    place = np.arange(chord.size) - np.repeat(np.cumsum(length) - length, length)
    span = length[chord] + 1.0
    sine = np.sqrt(2.0 / span) * np.sin(np.pi * (place + 1) / span)
    i1 = start[chord] + place
    # each member cell's index in that order, read in the mask's order
    order = np.zeros(op._box_shape, dtype=np.int64)
    order[i1, column[chord]] = np.arange(chord.size)
    cells = op._pack_box(order)

    profiles = np.zeros((chords, p1))
    profiles[chord, i1] = sine
    spectra = np.fft.rfft(profiles, axis=1)
    k1 = np.arange(spectra.shape[1])
    pairs = np.where((k1 == 0) | (2 * k1 == p1), 1.0, 2.0) / p1
    lag = (np.fft.ifft(op._symbol[k1], axis=1).real * pairs[:, None]).T
    # Re(conj(a) b) = Re a Re b + Im a Im b: one real product over both parts
    parts, lag = np.hstack([spectra.real, spectra.imag]), np.hstack([lag, lag])
    gram = np.empty((chords, chords))
    for d in range(chords):
        gram[d:, d] = gram[d, d:] = np.einsum(
            "cq,cq,q->c", parts[d:], lag[(column[d:] - column[d]) % p2], parts[d])
    return chord[cells], sine[cells], gram


def _inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of the symmetric positive definite matrix ``a``, by
    Gauss-Jordan elimination, one ``np.einsum`` outer product per row. It
    needs no pivoting: the pivots of such a matrix are the diagonals of its
    successive Schur complements, all positive. It calls no LAPACK routine:
    numpy's ``inv``, ``solve`` and ``cholesky`` wake OpenBLAS's second
    thread from 100 to 128 rows, the chord count of the disk at n = 1024,
    and page in code that the solve command's peak RSS shows."""
    inverse = a.copy()
    for k in range(a.shape[0]):
        pivot = inverse[k, k]
        row, col = inverse[k] / pivot, inverse[:, k].copy()
        col[k] = 0.0
        inverse -= np.einsum("i,j->ij", col, row)
        inverse[k], inverse[:, k] = row, -col / pivot
        inverse[k, k] = 1.0 / pivot
    return inverse


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


def _cg(op: RestrictedOperator, b: np.ndarray, tol: float,
        max_iter: int) -> tuple[np.ndarray, int, list[float]]:
    """CG on the packed subspace, preconditioned by ``op.precondition``,
    with periodic true-residual refreshes.

    Convergence is only declared once the freshly recomputed residual
    b - A x (not the CG recurrence) meets the tolerance.
    """
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    p = op.precondition(r)
    rs = float(r @ p)
    history: list[float] = []
    for it in range(1, max_iter + 1):
        ap = op.apply_packed(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise CurvatureBreakdownError(it)
        alpha = rs / pap
        x += alpha * p
        r -= alpha * ap
        refreshed = False
        if it % _CG_REFRESH_EVERY == 0 or np.linalg.norm(r) <= tol * bnorm:
            r = b - op.apply_packed(x)
            refreshed = True
        rel = float(np.linalg.norm(r) / bnorm)
        history.append(rel)
        if refreshed and rel <= tol:
            return x, it, history
        z = op.precondition(r)
        rs_new = float(r @ z)
        p = z + (rs_new / rs) * p
        rs = rs_new
    raise _make_convergence_error(op, x, history, tol, max_iter)


def _make_convergence_error(op: RestrictedOperator, x: np.ndarray,
                            history: list[float], tol: float, max_iter: int) -> ConvergenceError:
    best = RealField(op.grid, op.mask.unpack(x))
    last = history[-1] if history else float("nan")
    return ConvergenceError(
        f"CG did not reach tolerance {tol:g} in {max_iter} iterations (last residual {last:g})",
        best, history,
    )


def _check_solver_settings(tol: float, max_iter: int) -> None:
    """The rule for solve_profile's settings, which the run config applies
    before a run starts."""
    if not (0.0 < tol < 1e-2):
        raise ValueError(f"tol must lie in (0, 1e-2), got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def solve_profile(op: RestrictedOperator, tol: float = 1e-8,
                  max_iter: int = 10_000) -> ProfileSolution:
    """Solve L Q = 1 on the mask by conjugate gradient, preconditioned by
    the operator's circulant, and certify Q.

    The right-hand side is the exact indicator value 1 on mask cells, with
    no boundary smoothing; oscillation of Q near the mask boundary is
    expected and reported, not suppressed. The certificate is
    :func:`verify_profile` of Q, one application of Z11 by the transforms
    of the periodic grid, which neither the embedding nor the
    preconditioner enters. If its relative on-mask L2 deviation exceeds
    ``tol``, ConvergenceError is raised with CG's iterate and that
    deviation as the last entry of the residual history. The solve
    estimates no eigenvalue.
    """
    _check_solver_settings(tol, max_iter)
    mask = op.mask
    n = op.grid.n
    if mask.cell_count == n * n:
        raise ValueError(
            "full-grid mask rejected: the constant right-hand side lies along "
            "the operator's zero mode (the multiplier vanishes at frequency zero)"
        )
    limit = op.grid.box_length / 4.0
    if mask.diameter > limit:
        raise ValueError(
            f"mask diameter {mask.diameter:.6g} exceeds box_length/4 = {limit:.6g}; "
            "the periodic box must dominate the set"
        )

    x, iterations, history = _cg(op, np.ones(mask.cell_count), tol, max_iter)
    q = RealField(op.grid, mask.unpack(x))
    solution = ProfileSolution(q=q, iterations=iterations, mask=mask,
                               report=verify_profile(q, mask))
    if solution.residual_l2 > tol:
        raise _make_convergence_error(op, x, history + [solution.residual_l2], tol, max_iter)
    return solution


def estimate_coercivity(op: RestrictedOperator) -> float:
    """Estimate the smallest eigenvalue of the restricted operator to
    relative accuracy _COERCIVITY_TOL (1e-6).

    Every mask runs generalized Davidson with +1 restarting
    (:func:`_davidson_lowest`) on the masked subspace. Its preconditioner
    is the operator's circulant (:meth:`RestrictedOperator.precondition`)
    plus the coarse correction C H^-1 C^T on the mask's x1-chords
    (:func:`_chords`): one unit half sine per x1-run, with H = C^T L C
    formed from two transforms and inverted once, before the iteration,
    by :func:`_inverse`. The low eigenvectors are the x2-Nyquist pattern
    times envelopes that vanish at the ends of each chord; the circulant
    sees the box and not the mask's edges, and the correction supplies
    what it misses (a two-level preconditioner; Knyazev & Neymeyr, Linear
    Algebra Appl. 358, 2003). It depends only on the span of C, which a
    column's sign leaves as it is, so the chords carry no (-1)^j2 factor.
    On the centred unit disk it cuts the iterations by about a third at
    every n from 256 to 2048, at no apply; per iteration it adds a
    ``np.bincount`` over the cells and a product with H^-1. The basis of
    _BASIS vectors holds the close low modes that a three-term method
    meets one at a time. It stops when the residual ||L x - theta x|| of the unit
    Ritz vector x is at most _COERCIVITY_TOL times its Ritz value theta,
    which puts theta within that relative distance of an eigenvalue. The
    residual's square over the spectral gap would allow a looser residual
    only for an isolated lowest eigenvalue; here the two lowest are often
    within a percent of each other. If it does not converge within
    _STEPS_PER_CELL iterations per mask cell it raises ConvergenceError
    with the last iterate. On a one-cell mask the first iterate is the
    unit vector, so the estimate is the operator's single entry, bitwise.

    The low eigenvectors are the x2-Nyquist oscillation ``(-1)^j2`` times
    a smooth envelope. The start vector is that pattern times
    ``(i1 + 1) (i2 + 1)`` in the mask's box coordinates, whose even and
    odd parts under each reflection of the box have comparable weight: on
    a mask of two weakly coupled lobes the lowest envelope can be odd
    across the centre line, and a start without an odd part would let the
    iteration stop on the even mode above it. The golden-ratio Weyl
    sequence over the packed cells, centred and scaled to unit variance,
    is added at a tenth the envelope's mean, so that no mode is missing
    from the start (a bilinear envelope is nearly orthogonal to, for
    instance, the combination (1, -2, 1) of three equal lobes in a row);
    the sequence is fixed, so repeated runs are bit-identical. Box
    coordinates make the start, and so the estimate, invariant under
    whole-cell translations of the mask that keep its cells' row-major
    order; one across a periodic edge permutes the packed cells, and with
    them the sequence.
    """
    m = op.mask.cell_count
    i1, i2 = np.ogrid[:op._box_shape[0], :op._box_shape[1]]
    envelope = (i1 + 1.0) * (i2 + 1.0)
    x0 = op._pack_box(np.where(i2 % 2 == 0, envelope, -envelope))
    mean = op._pack_box(envelope).mean()
    x0 += 0.1 * mean * math.sqrt(12.0) * (np.arange(m) * _WEYL_STEP % 1.0 - 0.5)
    chord, sine, gram = _chords(op)
    inverse = _inverse(gram)

    def precondition(r: np.ndarray) -> np.ndarray:
        coarse = np.einsum("ij,j->i", inverse, np.bincount(chord, sine * r, gram.shape[0]))
        v = op.precondition(r)
        v += sine * coarse[chord]
        return v

    try:
        theta, _ = _davidson_lowest(op.apply_packed, precondition, x0, _COERCIVITY_TOL,
                                    max_iter=_STEPS_PER_CELL * m)
    except ConvergenceError as exc:
        exc.best = RealField(op.grid, op.mask.unpack(exc.best))
        raise
    if theta <= _SINGULAR_BOUND:
        raise SingularOperatorError(
            f"operator numerically singular (smallest-eigenvalue estimate {theta})"
        )
    return theta


def _davidson_lowest(apply: Callable[[np.ndarray], np.ndarray],
                     precondition: Callable[[np.ndarray], np.ndarray],
                     x: np.ndarray, tol: float, max_iter: int) -> tuple[float, np.ndarray]:
    """Lowest Ritz pair (theta, unit x) of the positive semidefinite
    operator ``apply`` on R^m, by generalized Davidson with +1 restarting
    (GD+1; Stathopoulos & Saad, ETNA 7, 1998; Stathopoulos, SIAM J. Sci.
    Comput. 29, 2007) from the start ``x``, which it leaves unchanged.

    The basis V holds at most _BASIS orthonormal rows, AV = A V beside it,
    and H = V AV^T gains a row and a column per iteration. Each iteration
    takes the lowest eigenpair (theta, c) of H, so theta is an upper bound
    of the smallest eigenvalue, x = c^T V and r = c^T AV - theta x. It
    stops when theta is at roundoff level, when ||r|| is at most tol times
    theta (ARPACK's test, with its eps^(2/3) floor), or when V spans R^m,
    where the pair is exact. Otherwise it appends the preconditioned
    residual, less its components along V (a second time if the first
    pass halved it; Giraud et al., Numer. Math. 101, 2005), at unit
    length, with its image under ``apply``: one apply and one
    preconditioner apply per iteration. A direction that shrank below
    _DROP_BELOW of its length is left out, since its scaling would magnify
    its rounding errors. A full basis restarts on the two lowest Ritz
    vectors and the previous iterate's part outside them, found by
    Gram-Schmidt on their coefficient vectors. Unit coefficient vectors
    combine orthonormal rows without cancellation, so that part is left
    out only when it vanishes.

    Every product with V and AV, and every 1-D dot, is an ``np.einsum``,
    which calls no BLAS: OpenBLAS runs such products on its threads once m
    is large, where they cost more than they save. Its only LAPACK call is
    ``np.linalg.eigh`` on H, at most _BASIS x _BASIS, once per
    preconditioner apply; the first iterate is x itself. (The chord
    correction that :func:`estimate_coercivity` passes as ``precondition``
    calls none.) After max_iter
    iterations it raises ConvergenceError with the unit x and the relative
    residual ||r|| / theta of each iteration.
    """
    floor = _EPS ** (2 / 3)
    basis, images = np.empty((2, _BASIS, x.size))
    gram = np.empty((_BASIS, _BASIS))
    basis[0] = x / math.sqrt(np.einsum("i,i", x, x))
    images[0] = apply(basis[0])
    theta = gram[0, 0] = float(np.einsum("i,i", basis[0], images[0]))
    k, ritz = 1, np.ones((1, 1))
    history: list[float] = []
    for it in range(1, max_iter + 1):
        c = ritz[:, 0]
        x = np.einsum("k,km->m", c, basis[:k])
        if theta <= _SINGULAR_BOUND:
            return theta, x
        r = np.einsum("k,km->m", c, images[:k])
        r -= theta * x
        residual = math.sqrt(np.einsum("i,i", r, r))
        history.append(residual / theta)
        if residual <= tol * max(floor, theta) or k == x.size:
            return theta, x
        if it == max_iter:
            break
        if k == _BASIS:
            keep = ritz[:, :2]
            outside = np.zeros(k)
            outside[:prior.size] = prior
            for _ in range(2):
                outside -= np.einsum("kj,j->k", keep, np.einsum("kj,k->j", keep, outside))
            scale = math.sqrt(np.einsum("i,i", outside, outside))
            if scale > 0.0:
                keep = np.column_stack([keep, outside / scale])
            k = keep.shape[1]
            gram[:k, :k] = np.einsum("ki,kl,lj->ij", keep, gram[:_BASIS, :_BASIS], keep)
            for rows in basis, images:
                rows[:k] = np.einsum("kj,km->jm", keep, rows)
            c = np.eye(k)[0]
        v = precondition(r)
        length = scale = math.sqrt(np.einsum("i,i", v, v))
        for _ in range(2):
            before = scale
            v = v - np.einsum("k,km->m", np.einsum("km,m->k", basis[:k], v), basis[:k])
            scale = math.sqrt(np.einsum("i,i", v, v))
            if scale > 0.5 * before:
                break
        if scale > _DROP_BELOW * length:
            basis[k] = v / scale
            images[k] = apply(basis[k])
            gram[k, :k + 1] = gram[:k + 1, k] = np.einsum("km,m->k", basis[:k + 1], images[k])
            k += 1
        prior = c
        eigenvalues, ritz = np.linalg.eigh(gram[:k, :k])
        theta = float(eigenvalues[0])
    raise ConvergenceError(
        f"Davidson did not reach tolerance {tol:g} in {max_iter} iterations "
        f"(last relative residual {history[-1]:g})",
        x, history,
    )


@dataclass(frozen=True)
class ProfileReport:
    """Verification report for a solved profile.

    ``on_mask_max_dev`` / ``on_mask_l2_dev``: max and (absolute) L2
    deviation of the applied operator from 1 over the mask. ``defect_*``:
    norms of the pointwise identity defect (Z11 Q) Q - Q over the whole
    grid, which vanishes off the mask by construction.
    """

    on_mask_max_dev: float
    on_mask_l2_dev: float
    on_mask_l2_dev_rel: float
    off_mask_max: float
    off_mask_exact_zero: bool
    defect_l2: float
    defect_max: float
    defect_l2_rel: float


@dataclass(frozen=True, eq=False)
class ProfileSolution:
    """Solved profile, its CG iteration count and its certificate.

    ``q`` is exactly zero off the mask. ``report`` is
    :func:`verify_profile` of ``q`` on ``mask``, the one full-grid
    transform a solve makes, and ``residual_l2``, the relative
    residual ||L q - 1|| / ||1|| over the mask, is read from it. The
    smallest eigenvalue of the operator is not part of a solve: it is
    :func:`estimate_coercivity` of the operator.
    """

    q: RealField
    iterations: int
    mask: Mask
    report: ProfileReport

    @property
    def residual_l2(self) -> float:
        return self.report.on_mask_l2_dev_rel


def verify_profile(q: RealField, mask: Mask) -> ProfileReport:
    """Check the profile equation directly on the field ``q``, which is
    meant to vanish off ``mask``.

    Z11 Q is applied with the n-point transforms of the periodic grid, so
    the report depends neither on the box embedding nor on the
    preconditioner that a solve uses; it is the certificate that
    :func:`solve_profile` returns. The transform is row-restricted
    (:func:`_real_fft` with ``rows``): it reads the rows where Q is
    nonzero and returns Z11 Q on the rows that hold a mask cell or a
    nonzero of Q. Off those rows Q = 0, so the defect (Z11 Q - 1) Q is
    zero there. The defect is built in place in the rows of Z11 Q, the
    off-mask maximum of |Q| is read by masked reductions rather than from
    a copy of the off-mask cells, and the grid sums of the squares run in
    numpy's pairwise order over the rows (:func:`_grid_sum`). So every
    value is bitwise that of the full-array formulas, and the only n x n
    float array the report reads is Q.
    """
    h2 = mask.grid.h**2
    values = q.values
    rows = np.flatnonzero(mask.indicator.any(axis=1) | values.any(axis=1))
    defect = _real_fft(values, _z11_symbol, rows=rows)
    dev = defect[mask.indicator[rows]] - 1.0
    on_max = float(np.max(np.abs(dev)))
    on_l2 = float(np.sqrt(h2 * np.sum(dev**2)))
    ones_norm = float(np.sqrt(h2 * mask.cell_count))

    # max |Q| off the mask is the larger of |max Q| and |min Q| there; abs
    # turns a -0.0 extreme into 0.0, as abs of each cell would
    off = ~mask.indicator
    off_max = max(abs(float(np.max(values, where=off, initial=0.0))),
                  abs(float(np.min(values, where=off, initial=0.0))))

    # (Z11 Q - 1) Q rather than (Z11 Q) Q - Q: where Z11 Q is near 1 the
    # difference is exact, so a defect at roundoff level is not swamped by
    # the eps * |Q| cancellation error of the second form.
    defect -= 1.0
    defect *= values[rows]
    square = np.abs(defect, out=defect)
    defect_max = float(np.max(square))
    np.square(square, out=square)
    defect_l2 = float(np.sqrt(h2 * _grid_sum(rows, square)))
    q_l2 = float(np.sqrt(h2 * _grid_sum(rows, np.square(values[rows], out=square))))

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


def _grid_sum(rows: np.ndarray, part: np.ndarray) -> float:
    """``np.sum`` of the n x n array that holds ``part`` on the distinct
    ``rows`` and zero elsewhere, bitwise, without building that array.

    numpy sums a contiguous float array pairwise (``pairwise_sum`` in its
    loops): it splits the array in halves down to leaves of at most
    _PAIRWISE_LEAF elements, sums each leaf in a fixed order, and adds the
    total to 0.0. With n a power of two and at least 16, the n^2 elements
    fall into groups of ``span`` rows, max(n, _PAIRWISE_LEAF) elements
    each, and each group is a whole subtree, which ``np.sum`` of that group
    alone sums in the same order. A group that meets no row of ``part``
    sums to 0.0, and adding 0.0 leaves any other sum as it is, so the
    groups that meet ``rows`` are summed by numpy, and the top of the tree
    combines the n / span group sums in halves.
    """
    n = part.shape[1]
    span = max(1, _PAIRWISE_LEAF // n)
    groups, slot = np.unique(rows // span, return_inverse=True)
    slab = np.zeros((groups.size, span, n))
    slab[slot, rows % span] = part
    tree = np.zeros(n // span)
    tree[groups] = np.sum(slab.reshape(groups.size, -1), axis=1)
    while tree.size > 1:
        tree = tree[0::2] + tree[1::2]
    return 0.0 + float(tree[0])
