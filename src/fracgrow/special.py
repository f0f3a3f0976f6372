"""Gamma and Mittag-Leffler special functions.

:func:`gamma` is ``math.gamma`` with the package's errors, and exact
factorials at the positive integers.

The Mittag-Leffler function generalizes the exponential:
:func:`mittag_leffler` sums z^m / Gamma(m*alpha + beta), with beta = 1 (the
one-parameter E_alpha) unless :class:`MLParams` says otherwise.  The series
is summed directly with a relative-term stopping rule.

* Integer alpha and beta (E_1 = exp, E_2(z) = cosh sqrt(z), E_{1,2}) are
  summed exactly in integer arithmetic and rounded once, so the result is
  the correctly rounded value of the truncated series wherever the
  stopping rule fires within the term budget (with the defaults, z in about
  [-130, 340] for alpha = beta = 1).  Where a ``math.lgamma`` bound shows
  the first term far below that rule (a huge alpha), 1/Gamma(beta) is
  returned without the sum.
* Other parameters are summed in floating point.  For z < 0 the sum
  alternates and loses about the ratio of its largest term to its value,
  e^{|z|^(1/alpha)} or more, to cancellation.  The sum of |terms| is kept
  beside the sum, and where eps times it exceeds 1e-9 of the result the
  call raises :class:`DomainError` instead of returning: E_{1/2}(-8),
  whose float sum is 3.2e13 against a true 0.0700, raises.  The path
  returns on alpha = 0.5 over [-3, 10] and alpha in [0.75, 1.75] over
  [-5, 50], where it was checked to 1e-9 against high-precision references,
  save next to a real zero of E_alpha (alpha > 1 has some in [-5, 0]): where
  |E_alpha(z)| falls below about 2e-6 no relative accuracy is left, and it
  raises there too.

Non-finite arguments and results that overflow a float raise
:class:`DomainError`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, NonConvergenceError, PoleError, ValidationError

DEFAULT_TOL = 1e-15
DEFAULT_MAX_TERMS = 500
_FLOAT_PATH_REL_ERR = 1e-9


@dataclass(frozen=True)
class MLParams:
    """Parameters of the two-parameter Mittag-Leffler function.

    ``beta`` here is the second series parameter, not the fractional order
    of the growth model.
    """

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 < self.beta < math.inf:
            raise ValidationError(f"beta must be positive and finite, got {self.beta}")


def gamma(x: float) -> float:
    """Gamma function for real ``x``: ``math.gamma`` behind the package's
    errors.

    Integer ``x`` up to 171 gives the correctly rounded (x-1)!.  Raises
    :class:`PoleError` at zero and the negative integers, and
    :class:`DomainError` for a non-finite ``x`` or where Gamma(x) overflows
    or underflows a float.
    """
    if not math.isfinite(x):
        raise DomainError(f"gamma needs a finite argument, got {x}")
    if x == math.floor(x):
        if x <= 0:
            raise PoleError(f"gamma has a pole at {x}")
        if x <= 171:
            return float(math.factorial(int(x) - 1))
    try:
        value = math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma({x}) overflows a float") from None
    if value == 0.0:
        raise DomainError(f"gamma({x}) underflows a float")
    return value


def mittag_leffler(
    params: MLParams,
    z: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> float:
    """Mittag-Leffler function E_{alpha,beta}(z); ``params.beta`` defaults
    to 1, which gives the one-parameter E_alpha(z)."""
    alpha, beta = params.alpha, params.beta
    if not math.isfinite(z):
        raise DomainError(f"Mittag-Leffler needs a finite argument, got z={z}")
    # m = 0 term
    total = 1.0 / gamma(beta)
    if z == 0.0:
        return total
    if alpha == int(alpha) and beta == int(beta) and beta >= 1:
        # Integer parameters make every term rational in z (a float is an
        # exact rational), so the alternating sums that would otherwise lose
        # ~e^{2|z|} of relative accuracy can be carried exactly and rounded
        # once at the end.
        if _first_term_negligible(alpha, beta, z, tol):
            return total
        return _ml_series_exact(int(alpha), int(beta), z, tol, max_terms)
    log_abs_z = math.log(abs(z))
    sign_z = 1.0 if z > 0 else -1.0
    sign = 1.0
    absum = total
    for m in range(1, max_terms + 1):
        sign *= sign_z
        # z^m / Gamma(m*alpha + beta), in log magnitude to dodge overflow
        # of the numerator and denominator separately.
        try:
            term = sign * math.exp(m * log_abs_z - math.lgamma(m * alpha + beta))
        except OverflowError:
            raise _ml_overflow(alpha, beta, z) from None
        total += term
        absum += abs(term)
        if abs(term) <= tol * abs(total):
            if not math.isfinite(total):
                raise _ml_overflow(alpha, beta, z)
            # each term is rounded to about eps of itself, so the sum is
            # good to about eps * absum: raise where that is more than the
            # promised relative error of the sum
            if absum * sys.float_info.epsilon > _FLOAT_PATH_REL_ERR * abs(total):
                raise DomainError(
                    f"Mittag-Leffler float series loses too much to cancellation: terms of total size "
                    f"{absum:.3g} sum to {total:.3g} (alpha={alpha}, beta={beta}, z={z})"
                )
            return total
    raise _ml_no_convergence(alpha, beta, z, max_terms)


def _first_term_negligible(alpha: float, beta: float, z: float, tol: float) -> bool:
    """Whether |z| / Gamma(alpha + beta) is below tol / Gamma(beta) with a
    factor 1000 to spare, compared in logs.

    For alpha >= 1 and beta >= 1 each later term shrinks by at least that
    same ratio, so the whole tail is negligible and the sum is 1/Gamma(beta).
    This spares the exact path from building (alpha + beta - 1)! for a huge
    alpha only to find the first term below the stopping rule.
    """
    return tol > 0 and (
        math.log(abs(z)) - math.lgamma(alpha + beta)
        < math.log(tol) - math.log(1000.0) - math.lgamma(beta)
    )


def _ml_series_exact(alpha: int, beta: int, z: float, tol: float, max_terms: int) -> float:
    """The series summed exactly over a common integer denominator.

    With z = N / 2^e, the partial sum through term m is S_m / D_m where
    D_m = 2^(e m) (alpha m + beta - 1)!.  Each D_m / D_(m-1) is the integer
    2^e (k+1)...(k+alpha), k = alpha (m-1) + beta - 1, so S_m and D_m grow
    by integer products alone and the sum is rounded once, by int division.
    """
    num, den = z.as_integer_ratio()
    e = den.bit_length() - 1  # den is a power of two
    tol_num, tol_den = tol.as_integer_ratio()
    total, denom = 1, math.factorial(beta - 1)
    power = 1
    k = beta - 1
    for m in range(1, max_terms + 1):
        power *= num
        step = math.perm(k + alpha, alpha)
        k += alpha
        total = ((total * step) << e) + power
        denom = (denom * step) << e
        # |term| <= tol |total|, with term = power / denom and total / denom
        if total and tol_den * abs(power) <= tol_num * abs(total):
            try:
                return total / denom
            except OverflowError:
                raise _ml_overflow(alpha, beta, z) from None
    raise _ml_no_convergence(alpha, beta, z, max_terms)


def _ml_overflow(alpha: float, beta: float, z: float) -> DomainError:
    return DomainError(f"Mittag-Leffler series overflows a float (alpha={alpha}, beta={beta}, z={z})")


def _ml_no_convergence(alpha: float, beta: float, z: float, max_terms: int) -> NonConvergenceError:
    return NonConvergenceError(
        f"Mittag-Leffler series did not converge in {max_terms} terms "
        f"(alpha={alpha}, beta={beta}, z={z})"
    )
