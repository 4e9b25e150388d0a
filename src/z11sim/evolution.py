"""Time integration of the multiplier-transport model w_t = (Z11 w) w.

The model has an exact separable singular solution w(x, t) = Q(x)/(T - t)
built from a profile Q solving the restricted multiplier equation; this
module integrates the model forward with an embedded adaptive Runge-Kutta
pair, records the diagnostic trace, and extrapolates the blow-up time from
the linear decay of 1/sup-norm.

Blow-up is declared by sup-norm threshold or by step-size underflow,
whichever occurs first; both are meaningful terminations, not failures.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .spectral import (
    Grid,
    RealField,
    _box_kernel,
    _embedding_axis,
    _real_fft,
    l2_norm,
)

__all__ = [
    "EvolveConfig",
    "EvolutionTrace",
    "StepUnderflowError",
    "rhs",
    "rk_step",
    "step",
    "evolve",
    "estimate_blowup_time",
    "self_similar_deviation",
    "gaussian_bump",
]

TERMINATION_REASONS = ("horizon", "threshold", "step_underflow")

# Cash-Karp embedded pair: six stages, fifth-order propagation with a
# fourth-order companion for the error estimate.
_RK_C = np.array([0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8])
_RK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_RK_B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
_RK_B4 = np.array([2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4])
_RK_E = _RK_B5 - _RK_B4

_PROPAGATION_ORDER = 5
_MAX_GROW = 5.0
_MIN_SHRINK = 0.2
_SUPPORT_CUTOFF = 1e-12
# The blow-up fit uses the last fifth of a trace's time span.
_FIT_WINDOW = 0.2


class StepUnderflowError(RuntimeError):
    """Error control demanded a step below dt_min; downstream this is read
    as the solution outrunning the integrator, i.e. approach to blow-up.
    rejected_attempts counts the step's attempts, all of them rejected."""

    def __init__(self, dt_required: float, dt_min: float, rejected_attempts: int):
        super().__init__(
            f"step control requires dt = {dt_required:g} below dt_min = {dt_min:g}"
        )
        self.dt_required = dt_required
        self.dt_min = dt_min
        self.rejected_attempts = rejected_attempts


@dataclass(frozen=True)
class EvolveConfig:
    """Adaptive integration parameters.

    blowup_threshold is the sup-norm level declaring blow-up; leave it None
    to use 1e6 times the initial sup-norm (computed when evolve starts).
    sign multiplies the right-hand side, giving the negated companion model
    w_t = -(Z11 w) w for the reversal test. t_max, dt_initial, rtol and
    atol must be finite; an infinite blowup_threshold sets no threshold.
    """

    dt_initial: float = 1e-3
    dt_min: float = 1e-12
    safety: float = 0.9
    t_max: float = 1.0
    blowup_threshold: float | None = None
    record_every: int = 10
    rtol: float = 1e-8
    atol: float = 1e-10
    sign: int = 1

    def __post_init__(self) -> None:
        for name in ("t_max", "dt_initial", "rtol", "atol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.dt_min <= self.dt_initial:
            raise ValueError(
                f"need 0 < dt_min <= dt_initial, got dt_min={self.dt_min}, "
                f"dt_initial={self.dt_initial}"
            )
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if not 0.0 < self.safety < 1.0:
            raise ValueError(f"safety must lie in (0, 1), got {self.safety}")
        if self.blowup_threshold is not None and not self.blowup_threshold > 1.0:
            raise ValueError(
                f"blowup_threshold must exceed 1, got {self.blowup_threshold}"
            )
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {self.record_every}")
        if not self.rtol > 0.0:
            raise ValueError(f"rtol must be positive, got {self.rtol}")
        if self.atol < 0.0:
            raise ValueError(f"atol must be nonnegative, got {self.atol}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Recorded run history.

    All arrays share one length. integral and l2_norm are h^2-weighted
    sums, and qform is the mass production h^2 sum (Z11 w) w, the rate at
    which the integral grows (it equals spectral.quadratic_form to
    roundoff). support_cells counts cells with |w| > 1e-12 sup|w|, an
    effective-support diagnostic. The recorded
    states themselves are not kept; evolve streams them to its on_record
    hook. blowup_time_estimate and fit_quality are populated on blow-up-type
    termination when the trailing-window fit succeeds. accepted_steps and
    rejected_steps count the run's accepted steps and the attempts its
    step controller rejected on the way.
    """

    times: np.ndarray
    sup_norm: np.ndarray
    integral: np.ndarray
    l2_norm: np.ndarray
    qform: np.ndarray
    support_cells: np.ndarray
    terminated: str
    blowup_time_estimate: float | None = None
    fit_quality: float | None = None
    accepted_steps: int = 0
    rejected_steps: int = 0

    def __post_init__(self) -> None:
        if self.terminated not in TERMINATION_REASONS:
            raise ValueError(
                f"terminated must be one of {TERMINATION_REASONS}, got {self.terminated!r}"
            )
        n = len(self.times)
        for name in ("sup_norm", "integral", "l2_norm", "qform", "support_cells"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"trace column {name} length differs from times")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def fields(self) -> tuple[RealField, ...]:
        """Always empty: recorded states go to evolve's on_record hook and
        are never kept. Only the benchmark tracer (perfbench/tracer.py)
        still reads this; delete it with that reader at the next change to
        the benchmark."""
        return ()


@dataclass(frozen=True, eq=False)
class StepResult:
    """One accepted adaptive step of a state on its support box: the new
    state's box values and its right-hand side (the first stage of the
    step after it, on the same box), the step actually taken, the
    proposal for the next step, the scaled local error estimate, and the
    number of attempts rejected before this one."""

    values: np.ndarray
    rate: np.ndarray
    dt_accepted: float
    dt_next: float
    error_estimate: float
    rejected_attempts: int


def _rhs_values(symbol: np.ndarray, values: np.ndarray, sign: int) -> np.ndarray:
    return sign * _real_fft(values, symbol) * values


def _box(omega: RealField) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Grid index of the bounding box of omega's support and the symbol of
    the circulant embedding that box, where the box circulant is exact;
    the zero field runs on the grid."""
    support = omega.values != 0.0
    n = omega.grid.n
    if not support.any():
        return np.ix_(np.arange(n), np.arange(n)), omega.grid.m11
    (start1, b1, p1), (start2, b2, p2) = (_embedding_axis(support.any(axis=a)) for a in (1, 0))
    index = np.ix_((start1 + np.arange(b1)) % n, (start2 + np.arange(b2)) % n)
    return index, _box_kernel(omega.grid, p1, p2)[1]


def _scatter(grid: Grid, index: tuple[np.ndarray, np.ndarray],
             box: np.ndarray) -> np.ndarray:
    """A grid array holding ``box`` at the support box ``index``, 0
    elsewhere."""
    values = np.zeros((grid.n, grid.n))
    values[index] = box
    return values


def rhs(omega: RealField, sign: int = 1) -> RealField:
    """Right-hand side (Z11 w) w, pointwise in space.

    The product is taken on the grid without spectral truncation: Z11 has
    order zero, so no derivative loss feeds aliasing. The product vanishes
    exactly wherever w does, so the flow keeps the support of the data, as
    the equation w = w0 exp(int Z11 w dt) does. So the product is taken on
    the periodic bounding box of the support, with Z11 applied through the
    box's circulant embedding as the restricted operator is; full support
    makes the box the grid.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    index, symbol = _box(omega)
    product = _rhs_values(symbol, omega.values[index], sign)
    return RealField(omega.grid, _scatter(omega.grid, index, product))


def _stage_sum(coefficients: tuple[float, ...] | np.ndarray,
               stages: list[np.ndarray]) -> np.ndarray:
    """sum_i c_i k_i over the nonzero coefficients, paired with the stages
    so far, in plain numpy arithmetic, which starts no threads (the BLAS
    product of np.tensordot may)."""
    terms = (c * k for c, k in zip(coefficients, stages) if c != 0.0)
    total = next(terms)
    for term in terms:
        total += term
    return total


def _rk_attempt(symbol: np.ndarray, y: np.ndarray, k0: np.ndarray, dt: float,
                sign: int) -> tuple[np.ndarray, np.ndarray]:
    """One raw Cash-Karp attempt from y and its right-hand side k0 (the
    first stage): fifth-order update and embedded error field.

    Works on bare arrays so that overflowing trial stages propagate as
    non-finite values instead of raising; the caller turns those into step
    rejections.
    """
    k = [k0]
    for i in range(1, 6):
        k.append(_rhs_values(symbol, y + dt * _stage_sum(_RK_A[i], k), sign))
    return y + dt * _stage_sum(_RK_B5, k), dt * _stage_sum(_RK_E, k)


def rk_step(omega: RealField, dt: float, sign: int = 1) -> tuple[RealField, np.ndarray]:
    """Single fixed step of the embedded pair, no acceptance control.

    Returns the fifth-order update and the pointwise difference between the
    embedded orders (the raw local error field). Used directly for
    convergence-order measurements. Stages and sums run on the support box
    of :func:`rhs`; the error field is zero off it.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    index, symbol = _box(omega)
    y = omega.values[index]
    y_new, err = _rk_attempt(symbol, y, _rhs_values(symbol, y, sign), dt, sign)
    return (RealField(omega.grid, _scatter(omega.grid, index, y_new)),
            _scatter(omega.grid, index, err))


def step(y: np.ndarray, rate: np.ndarray, dt: float, config: EvolveConfig,
         symbol: np.ndarray, n: int) -> StepResult:
    """Advance a state on its support box by one accepted step, shrinking
    dt until the local error passes.

    The state lives on the bounding box of its support: ``y`` holds the
    box's values (every cell off it is 0 and stays 0, since the flow keeps
    the support), ``rate`` is y's right-hand side (Z11 y) y times
    config.sign on the box, ``symbol`` is the box's circulant symbol as
    :func:`rhs` builds it, and ``n`` is the grid's points per axis. Every
    attempt starts from ``rate``, and the result carries the new state's
    right-hand side, so the first stage of the next step is computed once.

    The scaled error combines atol and rtol per cell; a step is accepted
    when its root mean square over all n^2 grid cells is at most 1 and
    the update is finite. Each attempt's step factor is the standard
    fifth-order proposal safety * err^(-1/5), clamped to [1/5, 5]; an error
    of 0 gives 5 and a non-finite error 1/5. An accepted step proposes
    dt_next = factor * dt from this step's error alone (evolve may shorten
    it). A rejection retries with dt times the factor, capped at 0.9; if
    that would push dt below dt_min the step underflows, which downstream
    is read as approach to blow-up rather than failure. Every nonzero
    error lies on the box, so the box's sum is divided by n^2.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    rejected = 0
    while True:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            y_new, err_field = _rk_attempt(symbol, y, rate, dt, config.sign)
            scale = config.atol + config.rtol * np.maximum(np.abs(y), np.abs(y_new))
            # err_field is 0 off the support; a 0 counts 0, even at scale 0 (atol = 0)
            ratio = np.divide(err_field, scale, out=np.zeros_like(y), where=err_field != 0.0)
            err = float(np.sqrt(np.sum(ratio**2) / n**2))
        if err == 0.0:
            factor = _MAX_GROW
        elif np.isfinite(err):
            factor = config.safety * err ** (-1.0 / _PROPAGATION_ORDER)
            factor = min(_MAX_GROW, max(_MIN_SHRINK, factor))
        else:
            factor = _MIN_SHRINK
        if err <= 1.0 and np.all(np.isfinite(y_new)):
            return StepResult(
                values=y_new,
                rate=_rhs_values(symbol, y_new, config.sign),
                dt_accepted=dt,
                dt_next=dt * factor,
                error_estimate=err,
                rejected_attempts=rejected,
            )
        dt = dt * min(factor, 0.9)
        rejected += 1
        if dt < config.dt_min:
            raise StepUnderflowError(dt, config.dt_min, rejected)


def evolve(omega0: RealField, config: EvolveConfig,
           on_record: Callable[[float, RealField], None] | None = None) -> EvolutionTrace:
    """Integrate from omega0, recording every record_every accepted steps.

    Terminates at the horizon t_max, at the blow-up threshold, or at step
    underflow. After every accepted step but the first, the next step is
    the smaller of step's proposal dt_next and Gustafsson's predictive
    proposal dt_next * (dt_n / dt_{n-1}) * (err_{n-1} / err_n)^(1/5), as in
    RADAU5: near blow-up the error constant grows from step to step, so the
    standard proposal alone overshoots and is rejected. The prediction
    needs both error estimates positive, and a step clipped to the horizon
    never serves as dt_n or dt_{n-1}.

    The initial and final states are always recorded. Each record also
    calls on_record(t, field) with the recorded time and state, once per
    trace row and in order; evolve keeps no state beyond the current one,
    so a caller that needs fields keeps them itself. On a blow-up-type
    termination the trailing-window fit of 1/sup-norm is attempted and its
    result stored when it succeeds.

    The flow keeps the support of omega0, so the run's state lives on the
    bounding box of that support, found once: each accepted step
    (:func:`step`) works on the box alone, and a grid-sized field is built
    only to hand a record to on_record. Every record, and the threshold
    test after every step, reads the box: the sums gather it alone (every
    cell off it is 0), and qform is h^2 sum sign * rate, where rate is the
    state's right-hand side sign (Z11 w) w, which the step after the state
    starts from (sign^2 = 1, so this is bitwise h^2 sum (Z11 w) w). Z11
    acts through the box's circulant embedding, as :func:`rhs` applies it;
    that circulant is exact for every field supported in the box, so a
    cell that underflows to 0 on the way changes nothing.
    """
    grid = omega0.grid
    index, symbol = _box(omega0)
    h2 = grid.h**2
    y = omega0.values[index]
    sup0 = float(np.max(np.abs(y)))
    if config.blowup_threshold is not None:
        threshold = config.blowup_threshold
    elif sup0 > 0.0:
        threshold = 1e6 * sup0
    else:
        threshold = float("inf")

    # one row per record, in the order of EvolutionTrace's array fields
    rows: list[tuple[float, float, float, float, float, int]] = []

    def record(t: float, y: np.ndarray, rate: np.ndarray,
               state: RealField | None = None) -> None:
        s = float(np.max(np.abs(y)))
        rows.append((t, s, float(h2 * np.sum(y)), float(np.sqrt(h2 * np.sum(y**2))),
                     float(config.sign * h2 * np.sum(rate)),
                     int(np.count_nonzero(np.abs(y) > _SUPPORT_CUTOFF * s))))
        if on_record is not None:
            on_record(t, RealField(grid, _scatter(grid, index, y)) if state is None else state)

    rate = _rhs_values(symbol, y, config.sign)
    record(0.0, y, rate, omega0)
    t = 0.0
    dt = config.dt_initial
    n_steps = 0
    n_rejected = 0
    previous: StepResult | None = None
    horizon_slack = 1e-12 * config.t_max
    while True:
        if config.t_max - t <= horizon_slack:
            terminated = "horizon"
            break
        clipped = config.t_max - t < dt
        try:
            result = step(y, rate, min(dt, config.t_max - t), config, symbol, grid.n)
        except StepUnderflowError as exc:
            n_rejected += exc.rejected_attempts
            terminated = "step_underflow"
            break
        y, rate = result.values, result.rate
        t += result.dt_accepted
        dt = result.dt_next
        if (previous is not None and not clipped
                and previous.error_estimate > 0.0 and result.error_estimate > 0.0):
            dt *= min(1.0, result.dt_accepted / previous.dt_accepted
                      * (previous.error_estimate / result.error_estimate)
                      ** (1.0 / _PROPAGATION_ORDER))
        previous = None if clipped else result
        n_steps += 1
        n_rejected += result.rejected_attempts
        if np.max(np.abs(y)) >= threshold:
            terminated = "threshold"
            break
        if n_steps % config.record_every == 0 and config.t_max - t > horizon_slack:
            record(t, y, rate)
    if t > rows[-1][0]:
        record(t, y, rate)

    trace = EvolutionTrace(
        *map(np.array, zip(*rows)),
        terminated=terminated,
        accepted_steps=n_steps,
        rejected_steps=n_rejected,
    )
    if terminated in ("threshold", "step_underflow"):
        try:
            t_est, quality = estimate_blowup_time(trace)
        except ValueError:
            pass
        else:
            trace = dataclasses.replace(
                trace, blowup_time_estimate=t_est, fit_quality=quality
            )
    return trace


def estimate_blowup_time(trace: EvolutionTrace) -> tuple[float, float]:
    """Extrapolate the blow-up time from the trailing part of a trace.

    For the separable singular solution 1/sup-norm decays linearly to zero
    at t = T, so a least-squares line through 1/sup_norm over the final
    _FIT_WINDOW fraction (a fifth) of the time span is extrapolated to its
    root. Returns the root and the coefficient of determination of the fit.
    """
    times = np.asarray(trace.times, dtype=float)
    sups = np.asarray(trace.sup_norm, dtype=float)
    if len(times) < 2:
        raise ValueError("trace too short for a blow-up fit")
    t_lo = times[-1] - _FIT_WINDOW * (times[-1] - times[0])
    window = times >= t_lo
    t_w = times[window]
    s_w = sups[window]
    if len(t_w) < 10:
        raise ValueError(
            f"blow-up fit needs at least 10 samples in the fit window, got {len(t_w)}"
        )
    if np.any(np.diff(s_w) <= 0.0) or np.any(s_w <= 0.0):
        raise ValueError("no blow-up trend: sup-norm not growing across the fit window")
    y = 1.0 / s_w
    slope, intercept = np.polyfit(t_w, y, 1)
    if slope >= 0.0:
        raise ValueError("no blow-up trend: 1/sup-norm not decaying in the fit window")
    fitted = slope * t_w + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    quality = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    return float(-intercept / slope), quality


def self_similar_deviation(omega_t: RealField, q: RealField, T: float, t: float) -> float:
    """Relative L2 distance of a state from the separable solution Q/(T - t)."""
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


def _check_bump(center: tuple[float, float], width: float, cutoff: float | None) -> None:
    """Reject a bump :func:`gaussian_bump` cannot build: width and cutoff
    must be positive, and center, width and cutoff finite."""
    if width <= 0.0:
        raise ValueError(f"width must be positive, got {width}")
    if cutoff is not None and cutoff <= 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    for name, value in (("center", center), ("width", width), ("cutoff", cutoff)):
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")


def gaussian_bump(grid: Grid, center: tuple[float, float] = (0.0, 0.0),
                  width: float = 1.0, amplitude: float = 1.0,
                  cutoff: float | None = None) -> RealField:
    """Gaussian bump exp(-r^2 / (2 width^2)), optionally truncated to a disk.

    With cutoff set, the field is exactly zero outside the disk of that
    radius about the center, giving compactly supported initial data.
    center, width and cutoff must be finite.
    """
    _check_bump(center, width, cutoff)
    x1, x2 = grid.coords()
    r2 = (x1 - center[0]) ** 2 + (x2 - center[1]) ** 2
    values = amplitude * np.exp(-r2 / (2.0 * width**2))
    if cutoff is not None:
        values = np.where(r2 <= cutoff**2, values, 0.0)
    return RealField(grid, values)
