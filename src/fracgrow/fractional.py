"""Riemann-Liouville fractional integral and Caputo fractional derivative.

Closed forms are provided for power functions and for exponentials; a
product-integration quadrature handles arbitrary integrands.  Two distinct
rules are exposed for exponentials:

* ``caputo_exp_paper_rule`` -- the eigenfunction-style simplification
  D^beta[c * e^{r s}] = c * r^beta * e^{r s}, which the growth model uses.
* ``caputo_exp_exact`` -- the strict Caputo derivative on [0, s], which
  evaluates to r * s^{1-beta} * E_{1, 2-beta}(r s).

The two disagree for beta < 1; both are kept so the gap can be inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, ValidationError
from .special import MLParams, gamma, mittag_leffler


@dataclass(frozen=True)
class FracOrder:
    """Fractional order beta, restricted to (0, 1]."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValidationError(f"fractional order must lie in (0, 1], got {self.beta}")


@dataclass(frozen=True)
class PowerFunction:
    """The function (s - a)^gamma_exp with lower terminal a."""

    gamma_exp: float
    a: float = 0.0

    def __post_init__(self):
        if not self.gamma_exp > -1.0:
            raise ValidationError(f"exponent must exceed -1, got {self.gamma_exp}")
        if self.a < 0.0:
            raise ValidationError(f"lower terminal must be >= 0, got {self.a}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Graded product-integration mesh for the weakly singular kernel."""

    nodes: int = 4096
    grading: float = 2.0

    def __post_init__(self):
        if self.nodes < 16:
            raise ValidationError(f"need at least 16 nodes, got {self.nodes}")
        if self.grading < 1.0:
            raise ValidationError(f"grading must be >= 1, got {self.grading}")


def rl_integral_power(order: float, p: PowerFunction, s: float) -> float:
    """Riemann-Liouville integral of order ``order`` applied to (s-a)^gamma.

    Closed form: Gamma(g+1)/Gamma(g+order+1) * (s-a)^(g+order).
    """
    if order <= 0:
        raise DomainError(f"integral order must be positive, got {order}")
    if s < p.a:
        raise DomainError(f"evaluation point {s} below lower terminal {p.a}")
    g = p.gamma_exp
    if s == p.a:
        return 0.0
    return gamma(g + 1.0) / gamma(g + order + 1.0) * (s - p.a) ** (g + order)


def caputo_power(order: FracOrder, p: PowerFunction, s: float) -> float:
    """Caputo derivative of (s-a)^gamma; constants (gamma = 0) map to 0."""
    g = p.gamma_exp
    if g < 0:
        raise DomainError(f"caputo_power requires a non-negative exponent, got {g}")
    if g == 0.0:
        return 0.0
    if s <= p.a:
        raise DomainError(f"evaluation point {s} must exceed lower terminal {p.a}")
    b = order.beta
    return gamma(g + 1.0) / gamma(g - b + 1.0) * (s - p.a) ** (g - b)


def caputo_exp_paper_rule(order: FracOrder, r: float, scale: float, s: float) -> float:
    """Simplified rule: derivative of scale * e^{r s} is scale * r^beta * e^{r s}.

    Raises :class:`DomainError` where that overflows a float.
    """
    if r <= 0:
        raise DomainError(f"growth rate r must be positive, got {r}")
    try:
        value = scale * r ** order.beta * math.exp(r * s)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"paper-rule Caputo derivative is not finite or overflows a float (r={r}, s={s}, scale={scale})")
    return value


def caputo_exp_exact(order: FracOrder, r: float, s: float) -> float:
    """Strict Caputo derivative of e^{r s} on [0, s].

    Equals r * s^{1-beta} * E_{1, 2-beta}(r s): apply the fractional
    integral of order 1-beta to the classical derivative r e^{r s} and sum
    the exponential series termwise through the power-function closed form.
    """
    if r <= 0:
        raise DomainError(f"growth rate r must be positive, got {r}")
    if s <= 0:
        raise DomainError(f"caputo_exp_exact needs s > 0, got {s}")
    b = order.beta
    ml = mittag_leffler(MLParams(alpha=1.0, beta=2.0 - b), r * s)
    return r * s ** (1.0 - b) * ml


def caputo_numeric(
    order: FracOrder,
    f_prime: Callable[[float], float],
    s: float,
    q: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Caputo derivative by product integration of f' against the kernel.

    The mesh is graded toward the singular endpoint xi = s; on each panel
    f' is interpolated linearly and the kernel (s-xi)^(-beta) is integrated
    exactly, so the singularity is never sampled.  An integrand that
    raises ``OverflowError``, or a result that is not finite, raises
    :class:`DomainError`.
    """
    b = order.beta
    if not 0.0 < b < 1.0:
        raise DomainError("caputo_numeric requires 0 < beta < 1; use the classical derivative at beta = 1")
    if s <= 0:
        raise DomainError(f"caputo_numeric needs s > 0, got {s}")

    n = q.nodes
    g = q.grading
    xi = [s * (1.0 - (1.0 - i / n) ** g) for i in range(n + 1)]
    try:
        f_vals = [f_prime(x) for x in xi]
    except OverflowError:
        raise DomainError(f"the integrand overflows a float on [0, {s}]") from None

    one_mb = 1.0 - b
    two_mb = 2.0 - b
    # tau = s - xi and tau^(1-b) once per node (interior nodes bound two
    # panels); tau^(2-b) is tau * tau^(1-b).
    tau = [s - x for x in xi]
    pw = [t ** one_mb for t in tau]
    total = 0.0
    for a, c, ta, tc, pa, pc, fa, fc in zip(xi, xi[1:], tau, tau[1:], pw, pw[1:], f_vals, f_vals[1:]):
        h = c - a
        if h == 0.0:
            continue
        # moments of the kernel over the panel:
        #   m0 = int (s-xi)^-b dxi,  m1 = int (xi-a)(s-xi)^-b dxi
        m0 = (pa - pc) / one_mb
        m1 = ta * m0 - (ta * pa - tc * pc) / two_mb
        total += fa * m0 + (fc - fa) / h * m1
    value = total / gamma(one_mb)
    if not math.isfinite(value):
        raise DomainError(f"Caputo quadrature on [0, {s}] is not finite: {value}")
    return value
