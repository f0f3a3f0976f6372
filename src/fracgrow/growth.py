"""Fractional-order growth model: closed form, series terms, rate
estimation, prediction grids, and MAE-based order selection.

The model describes a size density w(s, t) whose time derivative plus a
fractional spatial derivative of order beta equals eta * w, with initial
condition w(s, 0) = M e^{r s}.  Under the exponential rule for the spatial
operator the decomposition series sums to the closed form

    w(s, t) = M * e^{r s} * e^{(eta - r^beta) * t}.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .errors import DomainError, ValidationError
from .fractional import FracOrder
from .terms import TermSum, adm_iterate

_SERIES_W0_EXP_MULT = 1


@dataclass(frozen=True)
class GrowthParams:
    """Model constants: initial size M, initial rate r, growth rate eta, order beta."""

    M: float
    r: float
    eta: float
    order: FracOrder

    def __post_init__(self):
        if not self.M > 0:
            raise ValidationError(f"initial size M must be positive, got {self.M}")
        if not 0.0 < self.r < 1.0:
            raise ValidationError(f"initial growth rate r must lie in (0, 1), got {self.r}")


@dataclass(frozen=True)
class ObservationSeries:
    """Observed (month, length) pairs; months strictly increasing."""

    points: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        if not self.points:
            raise ValidationError("observation series is empty")
        prev = None
        for month, length in self.points:
            if month < 1 or month != int(month):
                raise ValidationError(f"months must be positive integers, got {month}")
            if prev is not None and month <= prev:
                raise ValidationError(f"months must be strictly increasing at month {month}")
            if not (length > 0 and math.isfinite(length)):
                raise ValidationError(
                    f"lengths must be positive and finite, got {length} at month {month}"
                )
            prev = month

    @property
    def months(self) -> List[int]:
        return [m for m, _ in self.points]

    @property
    def lengths(self) -> List[float]:
        return [h for _, h in self.points]


@dataclass(frozen=True)
class EtaSchedule:
    """Per-interval growth rates; interval i covers the step month i -> i+1."""

    rates: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        if not self.rates:
            raise ValidationError("eta schedule is empty")
        for interval, eta in self.rates:
            if not math.isfinite(eta):
                raise ValidationError(f"rate of interval {interval} must be finite, got {eta}")

    @property
    def values(self) -> List[float]:
        return [eta for _, eta in self.rates]

    def replaced(self, interval: int, eta: float) -> "EtaSchedule":
        """Copy of the schedule with one interval's rate replaced."""
        if interval not in {i for i, _ in self.rates}:
            raise ValidationError(f"no interval {interval} in schedule")
        return EtaSchedule(
            tuple((i, eta if i == interval else e) for i, e in self.rates)
        )


class Convention(enum.Enum):
    """How the prediction grid advances month to month."""

    CLOSED_FORM_PER_ROW = "closed_form_per_row"
    CUMULATIVE = "cumulative"
    CUMULATIVE_NO_AGE = "cumulative_no_age"


class EtaMode(enum.Enum):
    ABSOLUTE = "absolute"
    SPECIFIC = "specific"


@dataclass(frozen=True)
class PredictionGrid:
    """Months x fractional-orders matrix of predicted lengths."""

    months: Tuple[int, ...]
    orders: Tuple[FracOrder, ...]
    values: Tuple[Tuple[float, ...], ...]  # one row per month
    convention: Convention

    def column(self, order_index: int) -> List[float]:
        return [row[order_index] for row in self.values]


def closed_form(p: GrowthParams, s: float, t: float) -> float:
    """Closed-form solution M * e^{r s + (eta - r^beta) t}.

    The exponents are summed before exponentiating, so a large e^{r s} and a
    small e^{(eta - r^beta) t} cancel instead of overflowing or underflowing.
    """
    if s < 0 or t < 0:
        raise DomainError("s and t must be non-negative")
    x = p.eta - p.r ** p.order.beta
    try:
        value = p.M * math.exp(p.r * s + x * t)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"closed form overflows a float at s={s}, t={t}")
    return value


def series_term(p: GrowthParams, n: int) -> TermSum:
    """n-th decomposition iterate: (eta - r^beta)^n * M with time power n."""
    if n < 0:
        raise ValidationError("series index must be non-negative")
    rb = p.r ** p.order.beta
    # Accumulate with the same float operations the recursion performs so
    # the result is bit-identical to adm_iterate's iterate.
    c = p.M
    for _ in range(n):
        c = -(c * rb) + c * p.eta
    return TermSum.single(c, exp_mult=_SERIES_W0_EXP_MULT, t_power=n)


def series_terms(p: GrowthParams, depth: int) -> List[TermSum]:
    """Iterates w_0 ... w_depth computed through the decomposition engine."""
    w0 = TermSum.single(p.M, exp_mult=_SERIES_W0_EXP_MULT, t_power=0)
    return adm_iterate(w0, p.order, p.r, p.eta, n_iterations=depth)


def estimate_eta(obs: ObservationSeries, mode: EtaMode = EtaMode.ABSOLUTE) -> EtaSchedule:
    """Growth rates from consecutive observations.

    ABSOLUTE: eta_i = (h_{i+1} - h_i) / (t_{i+1} - t_i).
    SPECIFIC: the same quantity divided by h_i (per-capita rate).
    """
    pts = obs.points
    if len(pts) < 2:
        raise ValidationError("need at least 2 observations to estimate rates")
    rates = []
    for i in range(len(pts) - 1):
        (m1, h1), (m2, h2) = pts[i], pts[i + 1]
        dt = m2 - m1
        if dt == 0:
            raise DomainError(f"degenerate interval at month {m1}")
        eta = (h2 - h1) / dt
        if mode is EtaMode.SPECIFIC:
            eta /= h1
        rates.append((i + 1, eta))
    return EtaSchedule(tuple(rates))


def step_exponent(r: float, eta: float, order: FracOrder, convention: Convention) -> float:
    """Log growth factor of one monthly step; positive means an increase."""
    rb = r ** order.beta
    if convention is Convention.CUMULATIVE:
        return r + eta - rb
    if convention is Convention.CUMULATIVE_NO_AGE:
        return eta - rb
    raise DomainError("step_exponent applies to the cumulative conventions only")


def predict_table(
    M: float,
    r: float,
    etas: EtaSchedule,
    orders: Sequence[FracOrder],
    convention: Convention = Convention.CUMULATIVE,
) -> PredictionGrid:
    """Prediction grid, one row per month, one column per fractional order.

    CLOSED_FORM_PER_ROW evaluates the closed form at s = t = m-1 with that
    month's eta; the cumulative conventions advance the previous row by one
    monthly factor (with or without the aging term r * ds).
    """
    if not M > 0:
        raise ValidationError(f"M must be positive, got {M}")
    if not 0.0 < r < 1.0:
        raise ValidationError(f"r must lie in (0, 1), got {r}")
    if not orders:
        raise ValidationError("need at least one fractional order")
    eta_vals = etas.values
    months = tuple(range(1, len(eta_vals) + 2))
    rows: List[Tuple[float, ...]] = [tuple(M for _ in orders)]
    for m_index, eta in enumerate(eta_vals, start=1):
        if convention is Convention.CLOSED_FORM_PER_ROW:
            row = tuple(
                closed_form(GrowthParams(M, r, eta, o), float(m_index), float(m_index))
                for o in orders
            )
        else:
            prev = rows[-1]
            row = tuple(
                prev[j] * math.exp(step_exponent(r, eta, o, convention))
                for j, o in enumerate(orders)
            )
        rows.append(row)
    return PredictionGrid(months, tuple(orders), tuple(rows), convention)


def decreasing_steps(grid: PredictionGrid) -> List[Tuple[int, float]]:
    """(month, beta) pairs where the prediction drops from the previous month."""
    out = []
    for i in range(1, len(grid.values)):
        for j, order in enumerate(grid.orders):
            if grid.values[i][j] < grid.values[i - 1][j]:
                out.append((grid.months[i], order.beta))
    return out


def mae(predicted: Sequence[float], observed: Sequence[float]) -> float:
    """Mean absolute error between two equal-length series."""
    if len(predicted) != len(observed):
        raise ValidationError(
            f"length mismatch: {len(predicted)} predicted vs {len(observed)} observed"
        )
    if not predicted:
        raise ValidationError("cannot score empty series")
    return sum(abs(p - o) for p, o in zip(predicted, observed)) / len(predicted)


def fit_order(
    obs: ObservationSeries,
    orders: Sequence[FracOrder],
    r: float,
    convention: Convention = Convention.CUMULATIVE,
    eta_mode: EtaMode = EtaMode.ABSOLUTE,
) -> Tuple[FracOrder, Dict[FracOrder, float]]:
    """Score every candidate order by MAE and return the best.

    Rates are estimated from the observations, the grid is generated per
    order, and each column is scored against the observed lengths.  Ties
    break toward the smaller beta.
    """
    if not orders:
        raise ValidationError("need at least one candidate order")
    observed = obs.lengths
    grid = predict_table(observed[0], r, estimate_eta(obs, eta_mode), list(orders), convention)
    scores = {order: mae(grid.column(j), observed) for j, order in enumerate(orders)}
    return _best_order(scores, len(obs.points)), scores


def _best_order(scores: Dict[FracOrder, float], n_observations: int) -> FracOrder:
    """Order with the lowest MAE over ``n_observations`` points; ties break
    toward the smaller beta."""
    if n_observations < 3:
        raise ValidationError("need at least 3 observations to fit the order")
    return min(sorted(scores, key=lambda o: o.beta), key=lambda o: scores[o])
