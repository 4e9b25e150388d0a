"""Restricted multiplier operator on a masked set and the profile solve.

For a mask A the operator acts on fields supported on A as

    L phi = (Z11 phi_tilde) restricted to A,

where phi_tilde extends phi by zero off A. L is symmetric and, for masks
that fit well inside the box, positive definite with spectrum in (0, 1].
The singular profile is the solution of L Q = 1 on A, extended by zero;
it satisfies the pointwise identity (Z11 Q) Q = Q on the whole grid up to
the solve residual.

Everything here is matrix-free: one operator application costs a forward
and an inverse FFT. A dense matrix assembly is provided as an oracle for
small masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .shapes import Mask
from .spectral import Grid, RealField, _real_fft, apply_z11

__all__ = [
    "RestrictedOperator",
    "ProfileSolution",
    "ProfileReport",
    "ConvergenceError",
    "CurvatureBreakdownError",
    "SingularOperatorError",
    "apply_L",
    "dense_L_matrix",
    "solve_profile",
    "estimate_coercivity",
    "verify_profile",
]

DENSE_CELL_LIMIT = 4096

# Seed for the Lanczos start vector: fixed so repeated runs are bit-identical.
_LANCZOS_SEED = 0x5EED


class ConvergenceError(RuntimeError):
    """Conjugate gradient failed to reach the tolerance within max_iter.

    Carries the best iterate (``best``, a RealField extended by zero off
    the mask) and the relative residual history.
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
    """The masked multiplier operator; acts on fields supported on the mask."""

    grid: Grid
    mask: Mask

    def __post_init__(self) -> None:
        if self.mask.grid is not self.grid and self.mask.grid != self.grid:
            raise ValueError("mask grid does not match operator grid")

    def apply_packed(self, x: np.ndarray) -> np.ndarray:
        """Operator action on a member-cell vector of length cell_count."""
        return self.mask.pack(_real_fft(self.mask.unpack(x), self.grid.m11))


def apply_L(op: RestrictedOperator, phi: RealField) -> RealField:
    """Apply the restricted operator to a field supported on the mask.

    The input must be exactly zero off the mask (tolerance 0); the output is
    zero off the mask by construction.
    """
    if phi.grid != op.grid:
        raise ValueError("field grid does not match operator grid")
    off = phi.values[~op.mask.indicator]
    if off.size and np.any(off != 0.0):
        raise ValueError("apply_L input must be exactly zero off the mask")
    z = apply_z11(phi)
    out = np.where(op.mask.indicator, z.values, 0.0)
    return RealField(op.grid, out)


def dense_L_matrix(op: RestrictedOperator) -> np.ndarray:
    """Assemble the operator as a dense cell_count x cell_count matrix.

    Column j is the operator applied to the indicator of cell j. Used as an
    oracle for the matrix-free application and for exact spectra at small
    sizes; guarded against quadratic blow-up.
    """
    m = op.mask.cell_count
    if m > DENSE_CELL_LIMIT:
        raise ValueError(f"dense assembly refused for cell_count {m} > {DENSE_CELL_LIMIT}")
    mat = np.empty((m, m))
    e = np.zeros(m)
    for j in range(m):
        e[j] = 1.0
        mat[:, j] = op.apply_packed(e)
        e[j] = 0.0
    return mat


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
    grid: Grid
    mask: Mask

    def __post_init__(self) -> None:
        if not (0.0 < self.delta_estimate <= 1.0):
            raise ValueError(f"delta_estimate must lie in (0, 1], got {self.delta_estimate}")


def _cg(op: RestrictedOperator, b: np.ndarray, tol: float, max_iter: int,
        refresh_every: int = 25) -> tuple[np.ndarray, int, list[float]]:
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
        if it % refresh_every == 0 or np.linalg.norm(r) <= tol * bnorm:
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


def solve_profile(op: RestrictedOperator, tol: float = 1e-8,
                  max_iter: int = 10_000) -> ProfileSolution:
    """Solve L Q = 1 on the mask by conjugate gradient.

    The right-hand side is the exact indicator value 1 on mask cells, with
    no boundary smoothing; oscillation of Q near the mask boundary is
    expected and reported, not suppressed. The returned residual is
    recomputed with an independent operator application.
    """
    if not (0.0 < tol < 1e-2):
        raise ValueError(f"tol must lie in (0, 1e-2), got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
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

    delta = estimate_coercivity(op, tol=1e-6)
    return ProfileSolution(q=q, residual_l2=residual, iterations=iterations,
                           delta_estimate=delta, grid=op.grid, mask=mask)


def estimate_coercivity(op: RestrictedOperator, tol: float = 1e-6) -> float:
    """Estimate the smallest eigenvalue of the restricted operator.

    Lanczos with full reorthogonalization on the masked subspace (the
    subspace is treated as the ambient space). Stops when the Ritz residual
    bound beta * |last eigenvector entry| certifies relative accuracy
    ``tol``, when the Krylov space is exhausted (then the value is exact to
    roundoff), or at the 2 * cell_count iteration cap.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    dim = op.mask.cell_count
    cap = 2 * dim
    rng = np.random.default_rng(_LANCZOS_SEED)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    basis = [v]
    alphas: list[float] = []
    betas: list[float] = []
    theta = None
    for j in range(cap):
        w = op.apply_packed(basis[j])
        if j > 0:
            w -= betas[j - 1] * basis[j - 1]
        alpha = float(basis[j] @ w)
        w -= alpha * basis[j]
        # Full reorthogonalization, twice for good measure.
        bmat = np.array(basis)
        w -= bmat.T @ (bmat @ w)
        w -= bmat.T @ (bmat @ w)
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            np.array(alphas), np.array(betas), select="i", select_range=(0, 0)
        )
        theta = float(vals[0])
        if beta <= 1e-14 * max(1.0, abs(alpha)):
            break  # Krylov space exhausted; theta is exact to roundoff
        residual_bound = beta * abs(float(vecs[-1, 0]))
        if residual_bound <= 0.1 * tol * max(theta, np.finfo(float).tiny):
            break
        betas.append(beta)
        basis.append(w / beta)
    if theta is None or theta <= 10 * np.finfo(float).eps:
        raise SingularOperatorError(
            f"operator numerically singular (smallest-eigenvalue estimate {theta})"
        )
    return theta


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
    grid = sol.grid
    h2 = grid.h**2
    z = apply_z11(sol.q)
    dev = z.values[mask.indicator] - 1.0
    on_max = float(np.max(np.abs(dev)))
    on_l2 = float(np.sqrt(h2 * np.sum(dev**2)))
    ones_norm = float(np.sqrt(h2 * mask.cell_count))

    off_vals = sol.q.values[~mask.indicator]
    off_max = float(np.max(np.abs(off_vals))) if off_vals.size else 0.0

    defect = z.values * sol.q.values - sol.q.values
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
