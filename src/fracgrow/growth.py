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
import operator
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
        if not (self.M > 0 and math.isfinite(self.M)):
            raise ValidationError(f"initial size M must be positive and finite, got {self.M}")
        if not 0.0 < self.r < 1.0:
            raise ValidationError(f"initial growth rate r must lie in (0, 1), got {self.r}")
        if not math.isfinite(self.eta):
            raise ValidationError(f"growth rate eta must be finite, got {self.eta}")


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
    """Monthly growth rates keyed by month: the rate keyed m is that of the
    step from month m to month m + 1."""

    rates: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        if not self.rates:
            raise ValidationError("eta schedule is empty")
        for interval, eta in self.rates:
            if not math.isfinite(eta):
                raise ValidationError(f"rate of interval {interval} must be finite, got {eta}")

    def replaced(self, month: int, eta: float) -> "EtaSchedule":
        """Copy of the schedule with the rate keyed ``month`` replaced."""
        months = [m for m, _ in self.rates]
        if month not in months:
            raise ValidationError(f"no rate for the step from month {month} to month {month + 1}: "
                                  f"the rates cover months {months[0]} to {months[-1] + 1}")
        return EtaSchedule(
            tuple((m, eta if m == month else e) for m, e in self.rates)
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
    """Growth rates between neighbouring observations, each keyed by the
    month its step starts at: observations at months 4..7 give keys 4, 5, 6.

    The observations must fall on consecutive months, because a prediction
    grid steps one month per row: a gap raises :class:`DomainError` naming
    the first one.  Fewer than two observations raise ValidationError.

    ABSOLUTE: eta = h2 - h1 for observations (m, h1), (m + 1, h2).
    SPECIFIC: the same quantity divided by h1 (per-capita rate).
    """
    pts = obs.points
    if len(pts) < 2:
        raise ValidationError("need at least 2 observations to estimate rates")
    rates = []
    for (m1, h1), (m2, h2) in zip(pts, pts[1:]):
        if m2 != m1 + 1:
            raise DomainError(
                f"observations skip from month {m1} to month {m2}; "
                "the prediction grid needs one observation per month"
            )
        eta = h2 - h1
        if mode is EtaMode.SPECIFIC:
            eta /= h1
        rates.append((m1, eta))
    return EtaSchedule(tuple(rates))


def predict_table(
    M: float,
    r: float,
    etas: EtaSchedule,
    orders: Sequence[FracOrder],
    convention: Convention = Convention.CUMULATIVE,
) -> PredictionGrid:
    """Prediction grid, one row per month, one column per fractional order.

    Rows run from the first rate's month, whose row is M, and each rate,
    keyed by consecutive months, steps to the next row.  CLOSED_FORM_PER_ROW
    evaluates the closed form at s = t = rows since the first, with the rate
    of the step into that row; the cumulative conventions advance the
    previous row by one monthly factor (with or without the aging term r * ds).
    """
    if not (M > 0 and math.isfinite(M)):
        raise ValidationError(f"M must be positive and finite, got {M}")
    if not 0.0 < r < 1.0:
        raise ValidationError(f"r must lie in (0, 1), got {r}")
    if not orders:
        raise ValidationError("need at least one fractional order")
    keys, eta_vals = zip(*etas.rates)
    months = tuple(range(keys[0], keys[0] + len(keys) + 1))
    if keys != months[:-1]:
        raise ValidationError(f"rates must be keyed by consecutive months from month {keys[0]}")
    rows: List[Tuple[float, ...]] = [tuple(M for _ in orders)]
    if convention is Convention.CLOSED_FORM_PER_ROW:
        for m_index, eta in enumerate(eta_vals, start=1):
            rows.append(tuple(
                closed_form(GrowthParams(M, r, eta, o), float(m_index), float(m_index))
                for o in orders
            ))
    else:
        # One monthly factor e^{(r + eta) - r^beta}, or e^{eta - r^beta}
        # without aging, with r^beta taken once per order.
        rbs = [r ** o.beta for o in orders]
        aging = convention is Convention.CUMULATIVE
        prev = rows[0]
        for eta in eta_vals:
            base = r + eta if aging else eta
            prev = tuple(p * math.exp(base - b) for p, b in zip(prev, rbs))
            rows.append(prev)
    return PredictionGrid(months, tuple(orders), tuple(rows))


def decreasing_steps(grid: PredictionGrid) -> List[Tuple[int, float]]:
    """(month, beta) pairs where the prediction drops from the previous month."""
    out = []
    for i in range(1, len(grid.values)):
        for j, order in enumerate(grid.orders):
            if grid.values[i][j] < grid.values[i - 1][j]:
                out.append((grid.months[i], order.beta))
    return out


def mae(predicted: Sequence[float], observed: Sequence[float]) -> float:
    """Mean absolute error between two equal-length series, the absolute
    errors summed correctly rounded (``math.fsum``), so the score does not
    depend on the Python version's float ``sum``."""
    if len(predicted) != len(observed):
        raise ValidationError(
            f"length mismatch: {len(predicted)} predicted vs {len(observed)} observed"
        )
    if not predicted:
        raise ValidationError("cannot score empty series")
    return math.fsum(map(abs, map(operator.sub, predicted, observed))) / len(predicted)


def order_scores(grid: PredictionGrid, observed: Sequence[float]) -> Dict[FracOrder, float]:
    """MAE of each order's column of ``grid`` against the observed lengths."""
    return {order: mae(column, observed) for order, column in zip(grid.orders, zip(*grid.values))}


def fit_order(
    obs: ObservationSeries,
    orders: Sequence[FracOrder],
    r: float,
    convention: Convention = Convention.CUMULATIVE,
    eta_mode: EtaMode = EtaMode.ABSOLUTE,
) -> Tuple[FracOrder, Dict[FracOrder, float]]:
    """(best order, MAE per order): the ``fracgrow fit`` pipeline without the
    month-8 override.

    Rates come from :func:`estimate_eta` (consecutive months only), the
    grid from :func:`predict_table` starting at the first observed length,
    the scores from :func:`order_scores`, and the pick from
    :func:`best_order`.
    """
    observed = obs.lengths
    grid = predict_table(observed[0], r, estimate_eta(obs, eta_mode), orders, convention)
    scores = order_scores(grid, observed)
    return best_order(scores, len(observed)), scores


def best_order(scores: Dict[FracOrder, float], n_observations: int) -> FracOrder:
    """Order with the lowest MAE over ``n_observations`` points; ties break
    toward the smaller beta.  Fewer than 3 observations raise
    ValidationError."""
    if n_observations < 3:
        raise ValidationError("need at least 3 observations to fit the order")
    return min(sorted(scores, key=lambda o: o.beta), key=lambda o: scores[o])
