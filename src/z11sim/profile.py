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
the rows it knows to be zero. The residual certificate and
:func:`verify_profile` apply Z11 on the full grid, independently of that
embedding. A dense matrix assembly is provided as an oracle for small
masks.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 loads it lazily: load it here, not inside a run)

from .shapes import Mask
from .spectral import Grid, RealField, _box_kernel, _embedding_axis, _real_fft, apply_z11

__all__ = [
    "RestrictedOperator",
    "ProfileSolution",
    "ConvergenceError",
    "CurvatureBreakdownError",
    "SingularOperatorError",
    "dense_L_matrix",
    "solve_profile",
    "estimate_coercivity",
    "verify_profile",
]

DENSE_CELL_LIMIT = 4096

# Seed of the small Gaussian perturbation of the Lanczos start vector and
# of the vectors that continue it after a breakdown: fixed so repeated runs
# are bit-identical.
_LANCZOS_SEED = 0x5EED
# Masks of at most this many cells take the direct route to the coercivity:
# the smallest singular value of the dense operator.
_DIRECT_CELLS = 40
# Lanczos steps between two computations of the lowest Ritz pair, each a
# few O(j) sweeps over the j x j tridiagonal.
_CHECK_EVERY = 25
# Lanczos steps allowed per mask cell.
_STEPS_PER_CELL = 10
# Bound on the relative error of the coercivity estimate.
_COERCIVITY_TOL = 1e-6
# CG replaces its recurrence residual by the true b - A x this often.
_CG_REFRESH_EVERY = 25


class ConvergenceError(RuntimeError):
    """An iterative method failed to reach its tolerance within its cap.

    Carries the best iterate (``best``, a RealField extended by zero off
    the mask) and the relative residual history: CG's last iterate and its
    residual per iteration, or the lowest Ritz vector of the coercivity
    estimate and its Ritz residual, relative to the Ritz value, per check.
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


@dataclass(frozen=True, eq=False)
class RestrictedOperator:
    """The masked multiplier operator; acts on fields supported on the mask.

    The mask fixes the operator, its grid included. Construction keeps the
    kernel window over the mask's bounding box together with the window's
    symbol; the box size depends on the mask alone, and boxes of one size
    share the window.
    """

    mask: Mask

    def __post_init__(self) -> None:
        n = self.grid.n
        (start1, b1, p1), (start2, b2, p2) = (
            _embedding_axis(self.mask.indicator.any(axis=a)) for a in (1, 0))
        window, symbol = _box_kernel(self.grid, p1, p2)
        r, c = self.mask.indices
        object.__setattr__(self, "_window", window)
        object.__setattr__(self, "_symbol", symbol)
        object.__setattr__(self, "_box_shape", (b1, b2))
        object.__setattr__(self, "_box_index", ((r - start1) % n, (c - start2) % n))

    @property
    def grid(self) -> Grid:
        return self.mask.grid

    def apply_packed(self, x: np.ndarray) -> np.ndarray:
        """Operator action on a member-cell vector of length cell_count."""
        box = np.zeros(self._box_shape)
        box[self._box_index] = x
        return _real_fft(box, self._symbol)[self._box_index]


def dense_L_matrix(op: RestrictedOperator) -> np.ndarray:
    """Assemble the operator as a dense cell_count x cell_count matrix.

    Entry (i, j) is the kernel at the offset x_i - x_j of cells i and j,
    gathered from the operator's window. Used as an oracle for the
    matrix-free application and for exact spectra at small sizes; guarded
    against quadratic blow-up.
    """
    m = op.mask.cell_count
    if m > DENSE_CELL_LIMIT:
        raise ValueError(f"dense assembly refused for cell_count {m} > {DENSE_CELL_LIMIT}")
    r, c = op._box_index
    p1, p2 = op._window.shape
    return op._window[(r[:, None] - r) % p1, (c[:, None] - c) % p2]


@dataclass(frozen=True, eq=False)
class ProfileSolution:
    """Solved profile plus solve diagnostics.

    ``q`` is exactly zero off the mask. ``residual_l2`` is the true relative
    residual ||L q - 1|| / ||1|| over the mask, recomputed by an independent
    operator application after the CG loop. ``delta_estimate`` is the
    estimated smallest eigenvalue of the operator.
    """

    q: RealField
    residual_l2: float
    iterations: int
    delta_estimate: float
    mask: Mask

    def __post_init__(self) -> None:
        if not (0.0 < self.delta_estimate <= 1.0):
            raise ValueError(f"delta_estimate must lie in (0, 1], got {self.delta_estimate}")


def _cg(op: RestrictedOperator, b: np.ndarray, tol: float,
        max_iter: int) -> tuple[np.ndarray, int, list[float]]:
    """CG on the packed subspace with periodic true-residual refreshes.

    Convergence is only declared once the freshly recomputed residual
    b - A x (not the CG recurrence) meets the tolerance.
    """
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
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
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
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
    """Solve L Q = 1 on the mask by conjugate gradient.

    The right-hand side is the exact indicator value 1 on mask cells, with
    no boundary smoothing; oscillation of Q near the mask boundary is
    expected and reported, not suppressed. The returned residual is
    recomputed with an independent operator application.
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

    b = np.ones(mask.cell_count)
    x, iterations, history = _cg(op, b, tol, max_iter)

    # Certificate: re-apply the multiplier operator to the extended solution.
    q = RealField(op.grid, mask.unpack(x))
    z = apply_z11(q)
    res = mask.pack(z.values) - b
    residual = float(np.linalg.norm(res) / np.linalg.norm(b))
    if residual > tol:
        raise _make_convergence_error(op, x, history + [residual], tol, max_iter)

    delta = estimate_coercivity(op)
    return ProfileSolution(q=q, residual_l2=residual, iterations=iterations,
                           delta_estimate=delta, mask=mask)


def estimate_coercivity(op: RestrictedOperator) -> float:
    """Estimate the smallest eigenvalue of the restricted operator to
    relative accuracy _COERCIVITY_TOL (1e-6).

    A mask of at most _DIRECT_CELLS cells takes the direct route: the
    operator is positive semidefinite, so the smallest singular value of
    :func:`dense_L_matrix` is the eigenvalue, exact to roundoff (on a
    one-cell mask the operator's single entry, bitwise). Larger masks run
    the plain Lanczos recurrence (:func:`_lanczos_smallest`) on the masked
    subspace. It stops when the Ritz residual is at most _COERCIVITY_TOL
    times the Ritz value, which puts the Ritz value within that relative
    distance of an eigenvalue. The residual's square over the spectral
    gap would allow a looser residual only for an isolated lowest
    eigenvalue; here the two lowest are often within a percent of each
    other. If it does not
    converge within _STEPS_PER_CELL steps per mask cell it raises
    ConvergenceError with the lowest Ritz vector.

    The low eigenvectors are the x2-Nyquist oscillation ``(-1)^j2`` times
    a smooth envelope. The start vector is that pattern times
    ``(i1 + 1) (i2 + 1)`` in the mask's box coordinates, whose even and
    odd parts under each reflection of the box have comparable weight: on
    a mask of two weakly coupled lobes the lowest envelope can be odd
    across the centre line, and a start without an odd part would let
    Lanczos stop on the even mode above it. A seeded Gaussian of a tenth
    the envelope's mean is added, so that no mode is missing from the
    start (a bilinear envelope is nearly orthogonal to, for instance, the
    combination (1, -2, 1) of three equal lobes in a row); the same seeded
    generator continues the recurrence after a breakdown, so repeated runs
    are bit-identical. Box coordinates make the start, and so the
    estimate, invariant under whole-cell translations of the mask.
    """
    m = op.mask.cell_count
    if m <= _DIRECT_CELLS:
        theta = float(np.linalg.svd(dense_L_matrix(op), compute_uv=False)[-1])
    else:
        r, c = op._box_index
        envelope = (r + 1.0) * (c + 1.0)
        v0 = np.where(c % 2 == 0, envelope, -envelope)
        rng = np.random.default_rng(_LANCZOS_SEED)
        v0 += 0.1 * envelope.mean() * rng.standard_normal(m)
        try:
            theta = _lanczos_smallest(op.apply_packed, v0, _COERCIVITY_TOL, rng,
                                      max_steps=_STEPS_PER_CELL * m)
        except ConvergenceError as exc:
            exc.best = RealField(op.grid, op.mask.unpack(exc.best))
            raise
    if theta <= 10 * np.finfo(float).eps:
        raise SingularOperatorError(
            f"operator numerically singular (smallest-eigenvalue estimate {theta})"
        )
    return theta


def _lanczos_smallest(apply: Callable[[np.ndarray], np.ndarray], v0: np.ndarray, tol: float,
                      rng: np.random.Generator, max_steps: int) -> float:
    """Smallest eigenvalue of the positive semidefinite operator ``apply``
    on R^m.

    The plain three-term Lanczos recurrence (Paige, Linear Algebra Appl.
    34, 1980; Cullum & Willoughby, *Lanczos Algorithms for Large Symmetric
    Eigenvalue Computations*, 1985): it keeps no basis and never restarts,
    so a step costs one apply, two dot products and two axpys. Every
    _CHECK_EVERY steps, and at the cap, it takes the lowest eigenvalue
    theta of the tridiagonal T_j built so far and the last entry s of its
    unit eigenvector (:func:`_lowest_ritz_pair`), and stops when the Ritz
    residual |beta_j s| is at most tol times theta (ARPACK's test, with its
    eps^(2/3) floor). In floating point the Lanczos vectors lose
    orthogonality as a Ritz value converges; that only repeats converged
    Ritz values in T_j and never puts one below the spectrum (Paige), so
    the test stays valid. After max_steps steps it raises ConvergenceError
    with the packed unit Ritz vector, rebuilt by running the same
    recurrence again from a copy of ``rng``.
    """
    replay = copy.deepcopy(rng)
    alphas: list[float] = []
    betas: list[float] = []
    ritz: list[float] = []
    history: list[float] = []
    lower, previous = 0.0, None
    floor = np.finfo(float).eps ** (2 / 3)
    steps = _lanczos_recurrence(apply, v0, rng)
    for j in range(1, max_steps + 1):
        _, alpha, beta = next(steps)
        alphas.append(alpha)
        if j % _CHECK_EVERY == 0 or j == max_steps:
            theta, ritz = _lowest_ritz_pair(alphas, betas, lower, ritz)
            residual = abs(beta * ritz[-1])
            history.append(residual / abs(theta))
            if residual <= tol * max(floor, abs(theta)):
                return theta
            # Ritz values fall at a steady rate between checks: the next
            # one lies above this, less twice the last fall.
            if previous is not None:
                lower = theta - 2.0 * (previous - theta)
            previous = theta
        betas.append(beta)
    best = np.zeros(v0.size)
    for x, (v, _, _) in zip(ritz, _lanczos_recurrence(apply, v0, replay)):
        best += x * v
    raise ConvergenceError(
        f"Lanczos did not reach tolerance {tol:g} in {max_steps} steps "
        f"(last relative Ritz residual {history[-1]:g})",
        best / np.linalg.norm(best), history,
    )


def _lanczos_recurrence(apply: Callable[[np.ndarray], np.ndarray], v0: np.ndarray,
                        rng: np.random.Generator) -> Iterator[tuple[np.ndarray, float, float]]:
    """Each Lanczos vector v_j in turn, with the diagonal entry alpha_j and
    the off-diagonal entry beta_j it adds to T. If A v leaves nothing new
    (a breakdown), beta_j is 0 and the recurrence continues from a vector
    of ``rng``, orthogonal to v_j, as ARPACK's ``dgetv0`` does."""
    eps = np.finfo(float).eps
    v = v0 / np.linalg.norm(v0)
    v_prev, beta = v, 0.0
    while True:
        w = apply(v)
        w -= beta * v_prev
        alpha = float(v @ w)
        w -= alpha * v
        beta = math.sqrt(w @ w)
        if beta <= eps * alpha:
            beta = 0.0
            w = rng.standard_normal(v.size)
            w -= (v @ w) * v
            w /= np.linalg.norm(w)
        else:
            w /= beta
        yield v, alpha, beta
        v_prev, v = v, w


def _lowest_ritz_pair(alphas: list[float], betas: list[float], lower: float,
                      start: list[float]) -> tuple[float, list[float]]:
    """Lowest eigenvalue theta of the symmetric tridiagonal T with diagonal
    ``alphas`` and off-diagonal ``betas``, and its unit eigenvector, in a
    few O(j) sweeps of plain Python, which start no threads.

    det(T - sigma I) has only real roots, so Laguerre's iteration on it
    rises monotonically and cubically to theta from any sigma below the
    spectrum. It starts a margin below ``lower`` when the Sturm test of
    :func:`_ritz_sweep` puts that below the spectrum, else a margin below
    0 (T comes from a positive semidefinite operator), and at the
    Gershgorin bound when both fail. Each step stops the margin, 8
    rounding units of T, short of the point it aims at: rounding then
    cannot carry a sweep past theta, and the last factorization lies so
    close below theta that one inverse iteration on it, from ``start``
    (the last check's eigenvector, padded with zeros) or from all ones,
    gives the eigenvector. Should a sweep still fail, the step is
    bisected.
    """
    j = len(alphas)
    diagonal = np.asarray(alphas)
    radius = np.zeros(j)
    radius[1:] = np.abs(betas)
    radius[:-1] += radius[1:]
    margin = 8.0 * float(np.finfo(float).eps) * float(np.max(np.abs(diagonal) + radius))
    rhs = start + [0.0] * (j - len(start)) if start else [1.0] * j
    # Past a failed warm guess, 0: T of a positive semidefinite operator
    # has no eigenvalue below 0 beyond roundoff. Last the Gershgorin bound,
    # below which the margin makes T - sigma I strictly diagonally
    # dominant, so every pivot is positive there.
    guesses = (lower, 0.0) if lower > 0.0 else (lower,)
    for guess in guesses + (float(np.min(diagonal - radius)),):
        lower = guess - margin
        out = _ritz_sweep(alphas, betas, lower, rhs)
        if out is not None:
            break
    upper = math.inf
    while True:
        g, h, ratios, ys = out
        step = j / (g + math.sqrt(max((j - 1) * (j * h - g * g), 0.0)))
        if not (step > 2.0 * margin and upper - lower > 2.0 * margin):
            break
        sigma = min(lower + step - margin, 0.5 * (lower + upper))
        trial = _ritz_sweep(alphas, betas, sigma, rhs)
        if trial is None:
            upper = sigma
        else:
            lower, out = sigma, trial
    # The backward half of the solve: L^T x = ys.
    x = ys[-1]
    vector = [x]
    for r, y in zip(reversed(ratios), reversed(ys[:-1])):
        x = y - r * x
        vector.append(x)
    unit = np.array(vector[::-1])
    return min(lower + step, upper), (unit / np.linalg.norm(unit)).tolist()


def _ritz_sweep(alphas: list[float], betas: list[float], sigma: float,
                rhs: list[float]) -> tuple[float, float, list[float], list[float]] | None:
    """One pass of the factorization T - sigma I = L D L^T.

    None unless every pivot d_i is positive, which holds exactly when sigma
    lies below T's spectrum (Sturm). Otherwise (g, h, ratios, ys): g and h
    are the sums of 1/(lambda - sigma) and 1/(lambda - sigma)^2 over T's
    eigenvalues, from the pivots and their first two derivatives in sigma;
    ratios[i] = betas[i] / d_i, the subdiagonal of L; and ys = D^-1 L^-1
    rhs, the forward half of the solve of (T - sigma I) x = rhs.
    """
    d = alphas[0] - sigma
    if not d > 0.0:
        return None
    p, q = 1.0, 0.0  # -d' and -d'', the pivot's derivatives, negated
    g = 1.0 / d
    h = g * g
    z = rhs[0]
    ratios: list[float] = []
    ys = [z / d]
    for a, b, c in zip(alphas[1:], betas, rhs[1:]):
        r = b / d
        rr = r * r
        q = rr * (q + 2.0 * p * p / d)
        p = rr * p + 1.0
        z = c - r * z
        d = a - sigma - b * r
        if not d > 0.0:
            return None
        t = p / d
        g += t
        h += t * t + q / d
        ratios.append(r)
        ys.append(z / d)
    return g, h, ratios, ys


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


def verify_profile(sol: ProfileSolution) -> ProfileReport:
    """Check the profile equation directly on the solved field."""
    mask = sol.mask
    h2 = mask.grid.h**2
    z = apply_z11(sol.q)
    dev = z.values[mask.indicator] - 1.0
    on_max = float(np.max(np.abs(dev)))
    on_l2 = float(np.sqrt(h2 * np.sum(dev**2)))
    ones_norm = float(np.sqrt(h2 * mask.cell_count))

    off_vals = sol.q.values[~mask.indicator]
    off_max = float(np.max(np.abs(off_vals))) if off_vals.size else 0.0

    # (Z11 Q - 1) Q rather than (Z11 Q) Q - Q: where Z11 Q is near 1 the
    # difference is exact, so a defect at roundoff level is not swamped by
    # the eps * |Q| cancellation error of the second form.
    defect = (z.values - 1.0) * sol.q.values
    defect_l2 = float(np.sqrt(h2 * np.sum(defect**2)))
    defect_max = float(np.max(np.abs(defect)))
    q_l2 = float(np.sqrt(h2 * np.sum(sol.q.values**2)))

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
