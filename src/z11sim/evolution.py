"""Time integration of the multiplier-transport model w_t = (Z11 w) w.

The model has an exact separable singular solution w(x, t) = Q(x)/(T - t)
built from a profile Q solving the restricted multiplier equation; this
module integrates the model forward with an embedded adaptive Runge-Kutta
pair and records the diagnostic trace; a separate fit extrapolates the
blow-up time from the trace's linear decay of 1/sup-norm.

Blow-up is declared by sup-norm threshold or by step-size underflow,
whichever occurs first; both are meaningful terminations, not failures.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .profile import RestrictedOperator
from .shapes import Mask
from .spectral import Grid, RealField, _real_fft

__all__ = [
    "EvolveConfig",
    "EvolutionTrace",
    "StepUnderflowError",
    "step",
    "evolve",
    "estimate_blowup_time",
    "self_similar_deviation",
    "gaussian_bump",
]

TERMINATION_REASONS = ("horizon", "threshold", "step_underflow")

# Cash-Karp embedded pair: six stages, fifth-order propagation with a
# fourth-order companion for the error estimate.
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
# A step's proposed factor is _SAFETY * err^(-1/5), clamped to
# [_MIN_SHRINK, _MAX_GROW].
_SAFETY = 0.9
_MAX_GROW = 5.0
_MIN_SHRINK = 0.2
# A step underflows below dt_initial / _DT_FLOOR_RATIO, a floor that scales
# with dt_initial: 1e-12 at the default dt_initial = 1e-3.
_DT_FLOOR_RATIO = 1e9
_SUPPORT_CUTOFF = 1e-12
# Blow-up is declared once the sup-norm reaches _BLOWUP_RATIO times its
# initial value, a level relative to the data: T(c w0) = T(w0) / c.
_BLOWUP_RATIO = 1e6
# The blow-up fit uses the last fifth of a trace's time span.
_FIT_WINDOW = 0.2


class StepUnderflowError(RuntimeError):
    """Error control demanded a step below the floor dt_min, which is
    dt_initial / 1e9; downstream this is read as the solution outrunning
    the integrator, i.e. approach to blow-up. rejected_attempts counts the
    step's attempts, all of them rejected."""

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

    t_max, dt_initial, rtol and atol must be finite. Blow-up is declared
    at 1e6 times the initial sup-norm (:func:`evolve`), a level that scales
    with the data, so no setting fixes it. A step underflows below
    dt_initial / 1e9 (:func:`step`), so halving dt_initial halves that
    floor exactly. record_every = 1, the default, records every accepted
    step, as the blow-up fit's trailing window needs.
    """

    dt_initial: float = 1e-3
    t_max: float = 1.0
    record_every: int = 1
    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("t_max", "dt_initial", "rtol", "atol"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("t_max", "dt_initial", "rtol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {self.record_every}")
        if self.atol < 0.0:
            raise ValueError(f"atol must be nonnegative, got {self.atol}")


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Recorded run history.

    All arrays share one length. integral and l2_norm are h^2-weighted
    sums, and qform is the mass production h^2 sum (Z11 w) w, the rate at
    which the integral grows (it equals spectral.quadratic_form to
    roundoff). support_cells counts cells with |w| > 1e-12 sup|w|, an
    effective-support diagnostic. The recorded
    states themselves are not kept; evolve streams their cells on
    ``support`` to its on_record hook, and ``support.unpack(cells)`` puts
    a record on the grid. ``support`` is the support of the initial data,
    which the flow keeps, or the full-grid mask for the zero field; a
    trace built by hand may carry none. accepted_steps and rejected_steps
    count the run's accepted steps and the attempts its step controller
    rejected on the way. The trace holds no blow-up time:
    :func:`estimate_blowup_time` fits one from it.
    """

    times: np.ndarray
    sup_norm: np.ndarray
    integral: np.ndarray
    l2_norm: np.ndarray
    qform: np.ndarray
    support_cells: np.ndarray
    terminated: str
    accepted_steps: int = 0
    rejected_steps: int = 0
    support: Mask | None = None

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


def _check_dt(dt: float) -> None:
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")


def _rhs_values(symbol: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Right-hand side (Z11 w) w of a state's box values, pointwise.

    The product is taken without spectral truncation: Z11 has order zero,
    so no derivative loss feeds aliasing. It vanishes exactly wherever w
    does, so the flow keeps the support of the data, as the equation
    w = w0 exp(int Z11 w dt) does; on the support, (Z11 w) w is (L w) w
    with L the restricted operator of the support. So ``values`` are the
    box values of that operator, and ``symbol`` is its circulant's, which
    applies Z11 exactly to every field supported in the box.
    """
    return _real_fft(values, symbol) * values


def _support(omega: RealField) -> Mask:
    """The support of omega, which the flow keeps: the flow of omega steps
    on the box of its restricted operator, and records its cells. The
    zero field takes the full-grid mask, whose box is the grid."""
    support = omega.values != 0.0
    return Mask(omega.grid, support if support.any() else ~support)


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


def _rk_attempt(symbol: np.ndarray, y: np.ndarray, k0: np.ndarray,
                dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One raw Cash-Karp attempt from y and its right-hand side k0 (the
    first stage): fifth-order update and embedded error field.

    Works on bare arrays so that overflowing trial stages propagate as
    non-finite values instead of raising; the caller turns those into step
    rejections.
    """
    k = [k0]
    for i in range(1, 6):
        k.append(_rhs_values(symbol, y + dt * _stage_sum(_RK_A[i], k)))
    return y + dt * _stage_sum(_RK_B5, k), dt * _stage_sum(_RK_E, k)


def step(op: RestrictedOperator, y: np.ndarray, rate: np.ndarray, dt: float,
         config: EvolveConfig) -> StepResult:
    """Advance a state on its support box by one accepted step, shrinking
    dt until the local error passes.

    ``op`` is the restricted operator of the state's support, and the
    state lives on that operator's box: ``y`` holds the box's values
    (every cell off the support is 0 and stays 0, since the flow keeps
    the support), and ``rate`` is y's right-hand side (Z11 y) y on the
    box, as :func:`_rhs_values` takes it with ``op._symbol``. Every
    attempt starts from ``rate``, and the result carries the new state's
    right-hand side, so the first stage of the next step is computed once.
    dt must be positive and finite.

    The scaled error combines atol and rtol per cell; a step is accepted
    when its root mean square over all n^2 grid cells is at most 1 and
    the update is finite. Each attempt's step factor is the standard
    fifth-order proposal _SAFETY * err^(-1/5), _SAFETY = 0.9, clamped to
    [1/5, 5]; an error of 0 gives 5 and a non-finite error 1/5. An
    accepted step proposes dt_next = factor * dt from this step's error
    alone (evolve may shorten it). A rejection retries with dt times the
    factor, capped at 0.9; if that would push dt below the floor
    config.dt_initial / 1e9 the step underflows, which downstream is read
    as approach to blow-up rather than failure. Every nonzero error lies
    on the box, so the box's sum is divided by n^2.
    """
    _check_dt(dt)
    symbol, n = op._symbol, op.grid.n
    dt_min = config.dt_initial / _DT_FLOOR_RATIO
    rejected = 0
    while True:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            y_new, err_field = _rk_attempt(symbol, y, rate, dt)
            scale = config.atol + config.rtol * np.maximum(np.abs(y), np.abs(y_new))
            # err_field is 0 off the support; a 0 counts 0, even at scale 0 (atol = 0)
            ratio = np.divide(err_field, scale, out=np.zeros_like(y), where=err_field != 0.0)
            err = float(np.sqrt(np.sum(ratio**2) / n**2))
        if err == 0.0:
            factor = _MAX_GROW
        elif np.isfinite(err):
            factor = _SAFETY * err ** (-1.0 / _PROPAGATION_ORDER)
            factor = min(_MAX_GROW, max(_MIN_SHRINK, factor))
        else:
            factor = _MIN_SHRINK
        if err <= 1.0 and np.all(np.isfinite(y_new)):
            return StepResult(
                values=y_new,
                rate=_rhs_values(symbol, y_new),
                dt_accepted=dt,
                dt_next=dt * factor,
                error_estimate=err,
                rejected_attempts=rejected,
            )
        dt = dt * min(factor, 0.9)
        rejected += 1
        if dt < dt_min:
            raise StepUnderflowError(dt, dt_min, rejected)


def evolve(omega0: RealField, config: EvolveConfig,
           on_record: Callable[[float, np.ndarray], None] | None = None) -> EvolutionTrace:
    """Integrate from omega0, recording every record_every accepted steps.

    Terminates at the horizon t_max, at the blow-up threshold, or at step
    underflow. The threshold is 1e6 times the sup-norm of omega0
    (_BLOWUP_RATIO); zero data have none and run to the horizon. After
    every accepted step but the first, the next step is the smaller of
    step's proposal dt_next and Gustafsson's predictive proposal
    dt_next * (dt_n / dt_{n-1}) * (err_{n-1} / err_n)^(1/5), as in
    RADAU5: near blow-up the error constant grows from step to step, so the
    standard proposal alone overshoots and is rejected. The prediction
    needs both error estimates positive, and a step clipped to the horizon
    never serves as dt_n or dt_{n-1}.

    The initial and final states are always recorded. Each record also
    calls on_record(t, cells) with the recorded time and the state's cells
    on the support of omega0, once per trace row and in order: ``cells``
    is a new 1-D array in Mask.pack order, and ``trace.support.unpack(
    cells)`` is the state on the grid, zero off the support (a cell of
    omega0 there that holds -0.0 reads +0.0). evolve keeps no state beyond
    the current one, so a caller that needs states keeps them itself.
    evolve fits no blow-up time; :func:`estimate_blowup_time` fits one
    from the trace.

    The flow keeps the support of omega0, so the run's state lives on the
    box of the support's restricted operator, built once: each accepted
    step (:func:`step`) works on the box alone, and so does each record.
    on_record's cells are read from the box by the operator's boolean
    cell selector (:meth:`RestrictedOperator._pack_box`), with no index
    array of the support's size, so a run whose support is not
    the whole grid builds no grid-sized array after its operator. Every
    record, and the threshold test after every step, reads the box: the
    sums gather it alone (every cell off it is 0), and qform is h^2 sum
    rate, where rate is the state's right-hand side (Z11 w) w, which the
    step after the state starts from. Z11 acts through the box's circulant
    embedding (:func:`_rhs_values`); that circulant is exact for
    every field supported in the box, so a cell that underflows to 0 on
    the way changes nothing.
    """
    op = RestrictedOperator(_support(omega0))
    h2 = omega0.grid.h**2
    y = omega0.values[op._box]
    # the run reads omega0 no further: a caller that holds no reference to
    # it frees its grid-sized values for the run
    del omega0
    sup0 = float(np.max(np.abs(y)))
    threshold = _BLOWUP_RATIO * sup0 if sup0 > 0.0 else float("inf")

    # one row per record, in the order of EvolutionTrace's array fields
    rows: list[tuple[float, float, float, float, float, int]] = []

    def record(t: float, y: np.ndarray, rate: np.ndarray) -> None:
        s = float(np.max(np.abs(y)))
        rows.append((t, s, float(h2 * np.sum(y)), float(np.sqrt(h2 * np.sum(y**2))),
                     float(h2 * np.sum(rate)),
                     int(np.count_nonzero(np.abs(y) > _SUPPORT_CUTOFF * s))))
        if on_record is not None:
            on_record(t, op._pack_box(y))

    rate = _rhs_values(op._symbol, y)
    record(0.0, y, rate)
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
            result = step(op, y, rate, min(dt, config.t_max - t), config)
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

    return EvolutionTrace(
        *map(np.array, zip(*rows)),
        terminated=terminated,
        accepted_steps=n_steps,
        rejected_steps=n_rejected,
        support=op.mask,
    )


def estimate_blowup_time(trace: EvolutionTrace) -> tuple[float, float]:
    """Extrapolate the blow-up time from the trailing part of a trace.

    For the separable singular solution 1/sup-norm decays linearly to zero
    at t = T, so a least-squares line through 1/sup_norm over the final
    _FIT_WINDOW fraction (a fifth) of the time span is extrapolated to its
    root. Returns the root and the coefficient of determination of the fit.

    The line comes in closed form from the centred times t_c = t - mean(t):
    slope = sum t_c (y - mean(y)) / sum t_c^2, intercept = mean(y) - slope
    mean(t). It agrees with np.polyfit to roundoff, and it calls no LAPACK
    routine, whose first call in a process pages in about 1 MB. Scaling
    the times and 1/sup-norm by the same power of two scales the root by
    it exactly.
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
    t_mean, y_mean = np.mean(t_w), np.mean(y)
    t_c = t_w - t_mean
    spread = float(np.sum(t_c**2))
    if spread == 0.0:
        raise ValueError("no blow-up trend: the fit window spans no time")
    slope = float(np.sum(t_c * (y - y_mean))) / spread
    intercept = float(y_mean - slope * t_mean)
    if slope >= 0.0:
        raise ValueError("no blow-up trend: 1/sup-norm not decaying in the fit window")
    fitted = slope * t_w + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    quality = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    return float(-intercept / slope), quality


def self_similar_deviation(cells: np.ndarray, q_cells: np.ndarray, T: float,
                           t: float) -> float:
    """Relative L2 distance of a record from the separable solution Q/(T - t).

    ``cells`` is a record as evolve's on_record hands it out, the state on
    the run's support, and ``q_cells`` is Q gathered on the same cells,
    ``trace.support.pack(q.values)``. Q and every state of a run from
    Q / T are 0 off that support, so the sums over its cells are the
    grid's, and h^2 cancels from the ratio.
    """
    if t >= T:
        raise ValueError(f"t must be strictly less than T, got t={t}, T={T}")
    if len(cells) != len(q_cells):
        raise ValueError(f"record has {len(cells)} cells, profile {len(q_cells)}")
    target = q_cells / (T - t)
    denom = float(np.sqrt(np.sum(target**2)))
    if denom == 0.0:
        raise ValueError("profile is identically zero")
    return float(np.sqrt(np.sum((cells - target) ** 2))) / denom


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
    """Gaussian bump amplitude exp(-r^2 / (2 width^2)), optionally
    truncated to a disk.

    With cutoff set, the field is exactly zero outside the disk of that
    radius about the center, giving compactly supported initial data.
    center, width and cutoff must be finite.

    With cutoff, r^2 and the bump are evaluated only on the box of rows
    with (x1 - c1)^2 <= cutoff^2 and columns with (x2 - c2)^2 <= cutoff^2,
    and scattered into a grid of zeros. Each cell takes the same
    expression as on the whole grid, and adding a nonnegative square is
    monotone in floating point, so a cell outside the box has r^2 >
    cutoff^2: the field is bitwise the whole-grid one, and no grid-sized
    temporary is built.
    """
    _check_bump(center, width, cutoff)
    x = grid.x
    if cutoff is None:
        r2 = (x[:, None] - center[0]) ** 2 + (x[None, :] - center[1]) ** 2
        return RealField(grid, amplitude * np.exp(-r2 / (2.0 * width**2)))
    rows = np.flatnonzero((x - center[0]) ** 2 <= cutoff**2)
    cols = np.flatnonzero((x - center[1]) ** 2 <= cutoff**2)
    r2 = (x[rows, None] - center[0]) ** 2 + (x[None, cols] - center[1]) ** 2
    values = np.zeros((grid.n, grid.n))
    values[np.ix_(rows, cols)] = np.where(
        r2 <= cutoff**2, amplitude * np.exp(-r2 / (2.0 * width**2)), 0.0)
    return RealField(grid, values)
