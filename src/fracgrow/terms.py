"""Closed term algebra and the Adomian decomposition recursion.

Every function this engine manipulates is a finite sum of basis terms

    c * e^{k * r * s} * t^n / n!

with integer k >= 0 and n >= 0.  The family is closed under the spatial
operator (via the exponential rule), the inverse time operator (exact under
the factorial normalization), and products, which is all the decomposition
recursion needs.

The Adomian polynomials come from partial powers of the series extended one
order per step: J.-S. Duan, "Convenient analytic recurrence algorithms for the
Adomian polynomials", Appl. Math. Comput. 217 (2011) 6337-6348.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import DomainError, TermOverflowError, ValidationError
from .fractional import FracOrder

T_POWER_CAP = 64
COEFF_LIMIT = 1e300


@dataclass(frozen=True)
class SeriesTerm:
    """One basis term c * e^{exp_mult * r * s} * t^t_power / t_power!."""

    coeff: float
    exp_mult: int
    t_power: int

    def __post_init__(self):
        if self.exp_mult < 0 or self.t_power < 0:
            raise ValidationError("exp_mult and t_power must be non-negative")


class TermSum:
    """Canonical finite sum of :class:`SeriesTerm` values.

    Canonical means: at most one term per (exp_mult, t_power) key and no
    zero coefficients.  Build one from ``terms`` or from a ``coeffs`` map
    keyed by (exp_mult, t_power); a coefficient that is NaN or exceeds
    ``COEFF_LIMIT`` in magnitude raises :class:`TermOverflowError`.
    Instances are immutable; all operations return fresh sums.

    Because a sum never changes, the two layouts :func:`term_multiply`
    reads are built on first use and kept: the terms sorted by key, for a
    left operand, and the terms grouped by t-power, for a right one.  The
    Adomian recursion reuses each iterate and each partial power as an
    operand many times, so each layout is built once per sum.
    """

    __slots__ = ("_coeffs", "_by_key", "_by_power")

    def __init__(self, terms: Iterable[SeriesTerm] = (), *,
                 coeffs: Optional[Mapping[Tuple[int, int], float]] = None):
        if coeffs is None:
            coeffs = {}
            for t in terms:
                key = (t.exp_mult, t.t_power)
                coeffs[key] = coeffs.get(key, 0.0) + t.coeff
        self._coeffs = {k: c for k, c in coeffs.items() if c != 0.0}
        for c in self._coeffs.values():
            if not abs(c) <= COEFF_LIMIT:
                raise TermOverflowError(f"coefficient {c} is not finite or exceeds {COEFF_LIMIT}")
        self._by_key = None
        self._by_power = None

    def _terms_by_key(self) -> List[Tuple[int, int, float]]:
        """(exp_mult, t_power, coeff) triples sorted by (exp_mult, t_power)."""
        if self._by_key is None:
            self._by_key = [(k, n, c) for (k, n), c in sorted(self._coeffs.items())]
        return self._by_key

    def _terms_by_power(self) -> List[Tuple[int, List[Tuple[int, float]]]]:
        """(t_power, [(exp_mult, coeff), ...]) groups sorted by t_power."""
        if self._by_power is None:
            groups: Dict[int, List[Tuple[int, float]]] = {}
            for k, n, c in self._terms_by_key():
                groups.setdefault(n, []).append((k, c))
            self._by_power = sorted(groups.items())
        return self._by_power

    @classmethod
    def zero(cls) -> "TermSum":
        return cls(())

    @classmethod
    def single(cls, coeff: float, exp_mult: int = 0, t_power: int = 0) -> "TermSum":
        return cls((SeriesTerm(coeff, exp_mult, t_power),))

    @property
    def terms(self) -> Tuple[SeriesTerm, ...]:
        return tuple(SeriesTerm(c, k, n) for (k, n), c in sorted(self._coeffs.items()))

    def coefficient(self, exp_mult: int, t_power: int) -> float:
        return self._coeffs.get((exp_mult, t_power), 0.0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def scaled(self, factor: float) -> "TermSum":
        return TermSum(coeffs={k: c * factor for k, c in self._coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TermSum):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "TermSum(0)"
        parts = [f"{c:g}*e^({k}rs)*t^{n}/{n}!" for (k, n), c in sorted(self._coeffs.items())]
        return "TermSum(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """N(w) = sum_j c_j w^j over integer powers j >= 1."""

    coefficients: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        for j, _ in self.coefficients:
            if j < 1:
                raise ValidationError(f"nonlinearity powers must be >= 1, got {j}")

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, float]) -> "PolynomialNonlinearity":
        return cls(tuple(sorted(coeffs.items())))


def term_add(x: TermSum, y: TermSum) -> TermSum:
    """Coefficient-wise merge on (exp_mult, t_power) keys."""
    coeffs = dict(x._coeffs)
    _accumulate(coeffs, y)
    return TermSum(coeffs=coeffs)


def _accumulate(coeffs: Dict[Tuple[int, int], float], y: TermSum) -> None:
    """Add the coefficients of ``y`` into the raw map ``coeffs`` in place."""
    for k, c in y._coeffs.items():
        coeffs[k] = coeffs.get(k, 0.0) + c


def term_multiply(x: TermSum, y: TermSum, n_cap: int = T_POWER_CAP) -> TermSum:
    """Product of two sums.

    The binomial factor C(n1+n2, n1) converts (t^n1/n1!)(t^n2/n2!) into
    the normalized t^(n1+n2)/(n1+n2)! form.  It depends on the t-powers
    alone, so it is taken once per left term and t-power of ``y``, over the
    layouts each :class:`TermSum` keeps.  Each output key gets at most one
    product per left term, and the left terms are taken in key order, so
    every coefficient is added up in the order of a plain loop over term
    pairs in key order and rounds the same.  (Dense per-exp_mult lists
    indexed by t-power were slower: a cubic iterate holds only about n + 1
    terms, spread over its exp_mults, so the per-row overhead outweighs the
    hashing it saves.)
    """
    coeffs: Dict[Tuple[int, int], float] = {}
    get = coeffs.get
    y_groups = y._terms_by_power()
    for k1, n1, c1 in x._terms_by_key():
        for n2, group in y_groups:
            n = n1 + n2
            if n > n_cap:
                first = next(m for _, m in _pair_keys(x, y) if m > n_cap)
                raise TermOverflowError(f"time power {first} exceeds cap {n_cap}")
            b = float(math.comb(n, n1))
            for k2, c2 in group:
                key = (k1 + k2, n)
                coeffs[key] = get(key, 0.0) + c1 * c2 * b
    try:
        return TermSum(coeffs=coeffs)
    except TermOverflowError:
        # several coefficients may overflow: name the one whose key comes first
        return TermSum(coeffs={key: coeffs[key] for key in _pair_keys(x, y)})


def _pair_keys(x: TermSum, y: TermSum) -> Iterator[Tuple[int, int]]:
    """The output key of each term pair, for the left and then the right
    terms taken in key order: the order :func:`term_multiply` reports
    errors in, whatever order it adds the pairs in."""
    return ((k1 + k2, n1 + n2) for k1, n1, _ in x._terms_by_key() for k2, n2, _ in y._terms_by_key())


def apply_Ls(x: TermSum, order: FracOrder, r: float) -> TermSum:
    """Spatial fractional derivative under the exponential rule.

    Each term (c, k, n) maps to (c * (k r)^beta, k, n); terms constant in s
    (k = 0) are annihilated, consistent with the Caputo derivative of a
    constant being zero.
    """
    if r <= 0:
        raise ValidationError(f"growth rate r must be positive, got {r}")
    coeffs = {(k, n): c * (k * r) ** order.beta for (k, n), c in x._coeffs.items() if k != 0}
    return TermSum(coeffs=coeffs)


def apply_Lt_inverse(x: TermSum, n_cap: int = T_POWER_CAP) -> TermSum:
    """Definite time integral from 0 to t: (c, k, n) -> (c, k, n+1)."""
    coeffs: Dict[Tuple[int, int], float] = {}
    for (k, n), c in x._coeffs.items():
        if n + 1 > n_cap:
            raise TermOverflowError(f"time power {n + 1} exceeds cap {n_cap}")
        coeffs[(k, n + 1)] = c
    return TermSum(coeffs=coeffs)


def adomian_polynomials(nl: PolynomialNonlinearity, w_terms: Sequence[TermSum], n: int) -> TermSum:
    """n-th Adomian polynomial of the nonlinearity over the given iterates.

    For N(w) = w^j, A_n is the coefficient of lambda^n in (sum_i lambda^i
    w_i)^j; linear combinations follow from the polynomial coefficients.
    The partial powers are built by the recurrence :func:`adm_iterate`
    extends one order per step, so both give bit-identical results.
    """
    if not 0 <= n < len(w_terms):
        raise ValidationError(f"A_{n} needs n >= 0 and {n + 1} iterates, got {len(w_terms)}")
    powers = _new_powers(nl, list(w_terms[: n + 1]))
    for m in range(n + 1):
        a_m = _adomian_step(nl, powers, m)
    return a_m


def _new_powers(nl: PolynomialNonlinearity, ws: List[TermSum]) -> List[List[TermSum]]:
    """[P_1, ..., P_J] for the top power J with a nonzero coefficient; P_1 is ``ws``."""
    top = max((j for j, c in nl.coefficients if c != 0.0), default=1)
    return [ws] + [[] for _ in range(top - 1)]


def _adomian_step(nl: PolynomialNonlinearity, powers: List[List[TermSum]], n: int) -> TermSum:
    """Extend each partial power to order n and return A_n = sum_j c_j P_j[n].

    ``powers[j - 1]`` holds P_j = (sum_i lambda^i w_i)^j through order n - 1.
    Order n follows Duan's recurrence, P_j[n] = sum_{i=0..n} P_{j-1}[i] w_{n-i},
    with every product formed whole and added in the order i = 0..n into one
    coefficient map, validated once as a :class:`TermSum`.
    """
    ws = powers[0]
    for j in range(1, len(powers)):
        acc: Dict[Tuple[int, int], float] = {}
        for i in range(n + 1):
            _accumulate(acc, term_multiply(powers[j - 1][i], ws[n - i]))
        powers[j].append(TermSum(coeffs=acc))
    a_n: Dict[Tuple[int, int], float] = {}
    for j, c in nl.coefficients:
        if c != 0.0:
            _accumulate(a_n, powers[j - 1][n].scaled(c))
    return TermSum(coeffs=a_n)


def adm_iterate(
    w0: TermSum,
    order: FracOrder,
    r: float,
    eta: float,
    nl: Optional[PolynomialNonlinearity] = None,
    source: Optional[TermSum] = None,
    n_iterations: int = 1,
) -> List[TermSum]:
    """Run the decomposition recursion, returning [w_0, ..., w_N].

    Each step computes

        w_{n+1} = -Lt^-1(Ls(w_n)) + eta * Lt^-1(w_n) - Lt^-1(A_n)

    plus Lt^-1(source) in w_1 alone, with the source and nonlinear
    contributions dropped when absent.  Each iterate is added up in one
    coefficient map, in the order Lt^-1(source), -Lt^-1(Ls(w_n)),
    +eta * Lt^-1(w_n), -Lt^-1(A_n), and validated once: an iterate raises
    :class:`TermOverflowError` when one of its own coefficients is NaN or
    exceeds ``COEFF_LIMIT``, whatever the partial sums on the way.  The
    powers behind A_n grow by one order per step and live for this call:
    N steps with top power J make (J - 1) N (N + 1) / 2 term products.
    """
    if n_iterations < 0:
        raise ValidationError("n_iterations must be non-negative")
    ws = [w0]
    powers = _new_powers(nl, ws) if nl is not None else None
    for i in range(n_iterations):
        acc = dict(apply_Lt_inverse(source)._coeffs) if i == 0 and source is not None else {}
        ls = apply_Ls(ws[i], order, r)._coeffs
        # Ls keeps the keys of w_n with k != 0, so Lt^-1(w_n) covers them all
        for (k, n), c in apply_Lt_inverse(ws[i])._coeffs.items():
            acc[k, n] = acc.get((k, n), 0.0) - ls.get((k, n - 1), 0.0) + c * eta
        if powers is not None:
            _accumulate(acc, apply_Lt_inverse(_adomian_step(nl, powers, i)).scaled(-1.0))
        ws.append(TermSum(coeffs=acc))
    return ws


def evaluate(x: TermSum, r: float, s: float, t: float) -> float:
    """Numeric value sum of c * e^{k r s} * t^n / n! over all terms.

    Raises :class:`DomainError` where that value overflows a float.
    """
    total = 0.0
    try:
        for (k, n), c in sorted(x._coeffs.items()):
            factor = 1.0
            for i in range(1, n + 1):
                factor *= t / i
            total += c * math.exp(k * r * s) * factor
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"series value at s={s}, t={t} is not finite or overflows a float")
    return total
