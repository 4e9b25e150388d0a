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

from collections.abc import Callable
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
# Largest Krylov basis the coercivity estimate builds between restarts.
_KRYLOV_DIM = 40
# Lanczos restarts allowed per mask cell (ARPACK's default cap).
_RESTARTS_PER_CELL = 10
# A second Gram-Schmidt pass runs when the first leaves less than this
# fraction of the vector's norm (the DGKS test, with ARPACK's constant).
_DGKS_ETA = 0.717
# Columns per block of the restart's 20 x 40 by 40 x m basis product. numpy's
# bundled OpenBLAS starts threads for a product of more than 4 * 65536
# multiply-adds; on a 2-core host each wake-up cost about 4 ms, or the
# second core kept spinning, doubling the CPU time of a solve.
_RESTART_COLUMNS = 256
# CG replaces its recurrence residual by the true b - A x this often.
_CG_REFRESH_EVERY = 25


class ConvergenceError(RuntimeError):
    """An iterative method failed to reach its tolerance within its cap.

    Carries the best iterate (``best``, a RealField extended by zero off
    the mask) and the relative residual history: CG's last iterate and its
    residual per iteration, or the lowest Ritz vector of the coercivity
    estimate and its Ritz residual, relative to the Ritz value, per restart.
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
        window, symbol = _box_kernel(n, p1, p2)
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

    delta = estimate_coercivity(op, tol=1e-6)
    return ProfileSolution(q=q, residual_l2=residual, iterations=iterations,
                           delta_estimate=delta, mask=mask)


def estimate_coercivity(op: RestrictedOperator, tol: float = 1e-6) -> float:
    """Estimate the smallest eigenvalue of the restricted operator to
    relative accuracy tol.

    Thick-restart Lanczos (:func:`_lanczos_smallest`) on the masked
    subspace, with a Krylov basis of at most _KRYLOV_DIM vectors. It stops
    when the Ritz residual is at most tol times the Ritz value, which puts
    the Ritz value within that relative distance of an eigenvalue. The
    residual's square over the spectral gap would allow a looser residual
    only for an isolated lowest eigenvalue; here the two lowest are often
    within a percent of each other. If it does not converge within
    _RESTARTS_PER_CELL restarts per mask cell it raises ConvergenceError
    with the lowest Ritz vector. A basis that spans all m cells ends the
    first cycle on the eigenvalue itself, to roundoff; on a one-cell mask
    that is the operator's single entry bitwise, since a 1 x 1 embedding
    transforms as the identity.

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
    generator continues the basis after a breakdown, so repeated runs are
    bit-identical. Box coordinates make the start, and so the estimate,
    invariant under whole-cell translations of the mask.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    m = op.mask.cell_count
    r, c = op._box_index
    envelope = (r + 1.0) * (c + 1.0)
    v0 = np.where(c % 2 == 0, envelope, -envelope)
    rng = np.random.default_rng(_LANCZOS_SEED)
    v0 += 0.1 * envelope.mean() * rng.standard_normal(m)
    try:
        theta = _lanczos_smallest(op.apply_packed, v0, tol, rng,
                                  max_restarts=_RESTARTS_PER_CELL * m)
    except ConvergenceError as exc:
        exc.best = RealField(op.grid, op.mask.unpack(exc.best))
        raise
    if theta <= 10 * np.finfo(float).eps:
        raise SingularOperatorError(
            f"operator numerically singular (smallest-eigenvalue estimate {theta})"
        )
    return theta


def _lanczos_smallest(apply: Callable[[np.ndarray], np.ndarray], v0: np.ndarray, tol: float,
                      rng: np.random.Generator, max_restarts: int) -> float:
    """Smallest eigenvalue of the positive semidefinite operator ``apply``
    on R^m.

    Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22,
    2000), which gives the iterates of ARPACK's implicit restart with
    exact shifts. Each cycle fills a basis of k = min(_KRYLOV_DIM, m)
    vectors, fully reorthogonalized, and restarts on the k // 2 lowest
    Ritz vectors. A cycle converges when the lowest Ritz residual is at
    most tol times the Ritz value (ARPACK's test, with its eps^(2/3) floor),
    or when the basis spans all m cells. If A v leaves nothing new after
    the reorthogonalization, the basis continues from a random vector
    orthogonal to it, as ARPACK's ``dgetv0`` does. After max_restarts
    cycles it raises ConvergenceError with the packed lowest Ritz vector,
    which the restart has made the first basis vector.
    """
    m = v0.size
    k = min(_KRYLOV_DIM, m)
    keep = k // 2
    basis = np.empty((k + 1, m))
    basis[0] = v0 / np.linalg.norm(v0)
    t = np.zeros((k, k))
    first, history = 0, []
    for _ in range(max_restarts):
        for j in range(first, k):
            v = basis[:j + 1]
            w = apply(basis[j])
            norm = np.sqrt(w @ w)
            h = v @ w
            w -= h @ v
            beta = np.sqrt(w @ w)
            if beta < _DGKS_ETA * norm:
                correction = v @ w
                w -= correction @ v
                h += correction
                beta, norm = np.sqrt(w @ w), beta
                if beta < _DGKS_ETA * norm:  # w lies in the basis' span to roundoff
                    beta = 0.0
            t[:j + 1, j] = t[j, :j + 1] = h
            if beta == 0.0 and j + 1 < k:
                w = rng.standard_normal(m)
                for _ in range(2):
                    w -= (v @ w) @ v
                basis[j + 1] = w / np.sqrt(w @ w)
            elif beta > 0.0:
                np.divide(w, beta, out=basis[j + 1])
        # t is positive semidefinite, so its SVD is its eigendecomposition.
        # The SVD starts no OpenBLAS threads; eigh (LAPACK's divide and
        # conquer above order 25) does, as does the restart's product
        # unless it runs in column blocks (_RESTART_COLUMNS).
        s, theta, _ = np.linalg.svd(t)
        theta, s = theta[::-1], s[:, ::-1]
        residual = abs(beta * s[-1, 0])
        history.append(float(residual / abs(theta[0])))
        if k == m or residual <= tol * max(np.finfo(float).eps ** (2 / 3), abs(theta[0])):
            return float(theta[0])
        ritz = s[:, :keep].T
        for c in range(0, m, _RESTART_COLUMNS):
            basis[:keep, c:c + _RESTART_COLUMNS] = ritz @ basis[:k, c:c + _RESTART_COLUMNS]
        basis[keep] = basis[k]
        t[:keep, :keep] = np.diag(theta[:keep])
        first = keep
    raise ConvergenceError(
        f"Lanczos did not reach tolerance {tol:g} in {max_restarts} restarts "
        f"(last relative Ritz residual {history[-1]:g})",
        basis[0].copy(), history,
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
