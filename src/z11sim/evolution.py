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
    _real_fft,
    field_integral,
    l2_norm,
    quadratic_form,
    sup_norm,
)

__all__ = [
    "EvolveConfig",
    "EvolutionTrace",
    "StepResult",
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


class StepUnderflowError(RuntimeError):
    """Error control demanded a step below dt_min; downstream this is read
    as the solution outrunning the integrator, i.e. approach to blow-up."""

    def __init__(self, dt_required: float, dt_min: float):
        super().__init__(
            f"step control requires dt = {dt_required:g} below dt_min = {dt_min:g}"
        )
        self.dt_required = dt_required
        self.dt_min = dt_min


@dataclass(frozen=True)
class EvolveConfig:
    """Adaptive integration parameters.

    blowup_threshold is the sup-norm level declaring blow-up; leave it None
    to use 1e6 times the initial sup-norm (computed when evolve starts).
    sign multiplies the right-hand side, giving the negated companion model
    w_t = -(Z11 w) w for the reversal test.
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

    All arrays share one length. support_cells counts cells with
    |w| > 1e-12 sup|w|, an effective-support diagnostic. The recorded
    states themselves are not kept; evolve streams them to its on_record
    hook. blowup_time_estimate and fit_quality are populated on blow-up-type
    termination when the trailing-window fit succeeds.
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
    """One accepted adaptive step: the new state, the step actually taken,
    the proposal for the next step, and the scaled local error estimate."""

    field: RealField
    dt_accepted: float
    dt_next: float
    error_estimate: float


def _rhs_values(grid: Grid, values: np.ndarray, sign: int) -> np.ndarray:
    return sign * _real_fft(values, grid.m11) * values


def rhs(omega: RealField, sign: int = 1) -> RealField:
    """Right-hand side (Z11 w) w, pointwise in space.

    The product is taken on the grid without spectral truncation: Z11 has
    order zero, so no derivative loss feeds aliasing. The product vanishes
    exactly wherever w does, so the flow keeps the support of the data, as
    the equation w = w0 exp(int Z11 w dt) does.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return RealField(omega.grid, _rhs_values(omega.grid, omega.values, sign))


def _rk_attempt(grid: Grid, y: np.ndarray, dt: float,
                sign: int) -> tuple[np.ndarray, np.ndarray]:
    """One raw Cash-Karp attempt: fifth-order update and embedded error field.

    Works on bare arrays so that overflowing trial stages propagate as
    non-finite values instead of raising; the caller turns those into step
    rejections.
    """
    k = np.empty((6,) + y.shape)
    k[0] = _rhs_values(grid, y, sign)
    for i in range(1, 6):
        a = np.asarray(_RK_A[i])
        yi = y + dt * np.tensordot(a, k[:i], axes=1)
        k[i] = _rhs_values(grid, yi, sign)
    y_new = y + dt * np.tensordot(_RK_B5, k, axes=1)
    err = dt * np.tensordot(_RK_E, k, axes=1)
    return y_new, err


def rk_step(omega: RealField, dt: float, sign: int = 1) -> tuple[RealField, np.ndarray]:
    """Single fixed step of the embedded pair, no acceptance control.

    Returns the fifth-order update and the pointwise difference between the
    embedded orders (the raw local error field). Used directly for
    convergence-order measurements.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    y_new, err = _rk_attempt(omega.grid, omega.values, dt, sign)
    return RealField(omega.grid, y_new), err


def _scaled_error(err: np.ndarray, y_old: np.ndarray, y_new: np.ndarray,
                  rtol: float, atol: float) -> float:
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def step(omega: RealField, dt: float, config: EvolveConfig) -> StepResult:
    """Advance one accepted step, shrinking dt until the local error passes.

    The scaled error combines atol and rtol per cell; a step is accepted
    when the root-mean-square scaled error is at most 1. Rejections shrink
    dt by the standard fifth-order factor; if that would push dt below
    dt_min the step underflows, which downstream is read as approach to
    blow-up rather than failure.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = omega.grid
    y = omega.values
    while True:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            y_new, err_field = _rk_attempt(grid, y, dt, config.sign)
            err = _scaled_error(err_field, y, y_new, config.rtol, config.atol)
        if np.isfinite(err) and err <= 1.0 and np.all(np.isfinite(y_new)):
            if err == 0.0:
                factor = _MAX_GROW
            else:
                factor = config.safety * err ** (-1.0 / _PROPAGATION_ORDER)
                factor = min(_MAX_GROW, max(_MIN_SHRINK, factor))
            return StepResult(
                field=RealField(grid, y_new),
                dt_accepted=dt,
                dt_next=dt * factor,
                error_estimate=err,
            )
        if np.isfinite(err):
            factor = max(_MIN_SHRINK, config.safety * err ** (-1.0 / _PROPAGATION_ORDER))
        else:
            factor = _MIN_SHRINK
        dt = dt * min(factor, 0.9)
        if dt < config.dt_min:
            raise StepUnderflowError(dt, config.dt_min)


def _support_count(values: np.ndarray, sup: float) -> int:
    if sup == 0.0:
        return 0
    return int(np.count_nonzero(np.abs(values) > _SUPPORT_CUTOFF * sup))


def evolve(omega0: RealField, config: EvolveConfig,
           on_record: Callable[[float, RealField], None] | None = None) -> EvolutionTrace:
    """Integrate from omega0, recording every record_every accepted steps.

    Terminates at the horizon t_max, at the blow-up threshold, or at step
    underflow. The initial and final states are always recorded. Each
    record also calls on_record(t, field) with the recorded time and
    state, once per trace row and in order; evolve keeps no state beyond
    the current one, so a caller that needs fields keeps them itself. On
    a blow-up-type termination the trailing-window fit of 1/sup-norm is
    attempted and its result stored when it succeeds.
    """
    grid = omega0.grid
    sup0 = sup_norm(omega0)
    if config.blowup_threshold is not None:
        threshold = config.blowup_threshold
    elif sup0 > 0.0:
        threshold = 1e6 * sup0
    else:
        threshold = float("inf")

    times: list[float] = []
    sups: list[float] = []
    integrals: list[float] = []
    l2s: list[float] = []
    qforms: list[float] = []
    supports: list[int] = []

    def record(field: RealField, t: float) -> None:
        times.append(t)
        s = sup_norm(field)
        sups.append(s)
        integrals.append(field_integral(field))
        l2s.append(l2_norm(field))
        qforms.append(quadratic_form(field))
        supports.append(_support_count(field.values, s))
        if on_record is not None:
            on_record(t, field)

    record(omega0, 0.0)
    omega = omega0
    t = 0.0
    dt = config.dt_initial
    n_steps = 0
    horizon_slack = 1e-12 * config.t_max
    while True:
        if config.t_max - t <= horizon_slack:
            terminated = "horizon"
            break
        try:
            result = step(omega, min(dt, config.t_max - t), config)
        except StepUnderflowError:
            terminated = "step_underflow"
            break
        omega = result.field
        t += result.dt_accepted
        dt = result.dt_next
        n_steps += 1
        sup = sup_norm(omega)
        if sup >= threshold:
            terminated = "threshold"
            break
        if n_steps % config.record_every == 0 and config.t_max - t > horizon_slack:
            record(omega, t)
    if t > times[-1]:
        record(omega, t)

    trace = EvolutionTrace(
        times=np.array(times),
        sup_norm=np.array(sups),
        integral=np.array(integrals),
        l2_norm=np.array(l2s),
        qform=np.array(qforms),
        support_cells=np.array(supports),
        terminated=terminated,
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


def estimate_blowup_time(trace: EvolutionTrace,
                         fit_window: float = 0.2) -> tuple[float, float]:
    """Extrapolate the blow-up time from the trailing part of a trace.

    For the separable singular solution 1/sup-norm decays linearly to zero
    at t = T, so a least-squares line through 1/sup_norm over the final
    fit_window fraction of the time span is extrapolated to its root.
    Returns the root and the coefficient of determination of the fit.
    """
    if not 0.0 < fit_window <= 1.0:
        raise ValueError(f"fit_window must lie in (0, 1], got {fit_window}")
    times = np.asarray(trace.times, dtype=float)
    sups = np.asarray(trace.sup_norm, dtype=float)
    if len(times) < 2:
        raise ValueError("trace too short for a blow-up fit")
    t_lo = times[-1] - fit_window * (times[-1] - times[0])
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


def gaussian_bump(grid: Grid, center: tuple[float, float] = (0.0, 0.0),
                  width: float = 1.0, amplitude: float = 1.0,
                  cutoff: float | None = None) -> RealField:
    """Gaussian bump exp(-r^2 / (2 width^2)), optionally truncated to a disk.

    With cutoff set, the field is exactly zero outside the disk of that
    radius about the center, giving compactly supported initial data.
    """
    if width <= 0.0:
        raise ValueError(f"width must be positive, got {width}")
    if cutoff is not None and cutoff <= 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    x1, x2 = grid.coords()
    r2 = (x1 - center[0]) ** 2 + (x2 - center[1]) ** 2
    values = amplitude * np.exp(-r2 / (2.0 * width**2))
    if cutoff is not None:
        values = np.where(r2 <= cutoff**2, values, 0.0)
    return RealField(grid, values)
