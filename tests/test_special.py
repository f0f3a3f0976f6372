import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fracgrow import special
from fracgrow.errors import DomainError, NonConvergenceError, PoleError, ValidationError
from fracgrow.special import DEFAULT_MAX_TERMS, DEFAULT_TOL, MLParams, gamma, mittag_leffler


def ml_fraction_series(alpha, beta, z, tol=DEFAULT_TOL, max_terms=DEFAULT_MAX_TERMS):
    """The integer-parameter series summed in Fraction arithmetic, rounded once.

    Same terms and stopping rule as the library's exact path, with every
    partial sum reduced to lowest terms; the library must match it bit for bit.
    """
    zq = Fraction(z)
    total = Fraction(1, math.factorial(beta - 1))
    power = Fraction(1)
    for m in range(1, max_terms + 1):
        power *= zq
        term = power / math.factorial(m * alpha + beta - 1)
        total += term
        if total != 0 and abs(term) <= Fraction(tol) * abs(total):
            return float(total)
    raise NonConvergenceError("oracle series did not converge")


ml_arguments = st.floats(min_value=-50.0, max_value=50.0).filter(lambda z: z != 0.0)


class TestGamma:
    def test_gamma_one(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_half_is_sqrt_pi(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_gamma_five(self):
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.7, 3.2, 10.0, 19.5, 29.9])
    def test_matches_stdlib(self, x):
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=20.0))
    def test_recurrence(self, x):
        assert gamma(x + 1.0) / (x * gamma(x)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma(x)

    def test_negative_non_integer(self):
        assert gamma(-0.5) == pytest.approx(math.gamma(-0.5), rel=1e-12)

    @pytest.mark.parametrize("x", [142.5, 160.25, 171.5, 171.62, -170.5])
    def test_near_float_range_limits(self, x):
        # base^(x-0.5) of the Lanczos formula alone overflows from x ~ 142.
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 171.7, 200.0, 1e300, -200.5])
    def test_non_finite_or_out_of_range_is_domain_error(self, x):
        with pytest.raises(DomainError):
            gamma(x)

    @pytest.mark.parametrize("x", [5e-324, 1e-310, -5e-324, -180.5])
    def test_overflow_and_underflow_near_zero_and_far_left(self, x):
        with pytest.raises(DomainError):
            gamma(x)

    def test_positive_integers_are_exact_factorials(self):
        for n in range(1, 172):
            assert gamma(float(n)) == float(math.factorial(n - 1))

    def test_matches_mpmath(self):
        # Seeded non-integer points across the whole float range of Gamma,
        # against a 50-digit reference.  Results below the smallest normal
        # float (x in about (-171, -170.6)) carry fewer significant bits, so
        # the error is taken relative to max(|Gamma(x)|, smallest normal).
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(1704)
        points = [rng.uniform(-171.0, 0.0) for _ in range(1500)]
        points += [rng.uniform(0.0, 171.6) for _ in range(1500)]
        worst = 0.0
        with mpmath.workdps(50):
            for x in points:
                exact = mpmath.gamma(mpmath.mpf(x))
                scale = max(abs(exact), sys.float_info.min)
                worst = max(worst, float(abs(mpmath.mpf(gamma(x)) - exact) / scale))
        assert worst <= 2e-15


class TestMittagLeffler:
    def test_alpha_one_is_exp(self):
        assert mittag_leffler(MLParams(alpha=1.0), 1.0) == pytest.approx(math.e, rel=1e-13)

    def test_z_zero(self):
        assert mittag_leffler(MLParams(alpha=1.0), 0.0) == 1.0

    def test_alpha_two_cosh_identity(self):
        # E_2(z^2) = cosh(z)
        assert mittag_leffler(MLParams(alpha=2.0), 1.0) == pytest.approx(
            math.cosh(1.0), rel=1e-13
        )

    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_exp_identity_range(self, z):
        value = mittag_leffler(MLParams(alpha=1.0), z)
        assert abs(value - math.exp(z)) <= 1e-12 * math.exp(z)

    def test_cap_raises(self):
        with pytest.raises(NonConvergenceError):
            mittag_leffler(MLParams(alpha=1.0), 40.0, max_terms=10)

    def test_finite_within_budget(self):
        for z in (-50.0, -10.0, 10.0, 50.0):
            assert math.isfinite(mittag_leffler(MLParams(alpha=1.0), z))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_is_domain_error(self, alpha, z):
        with pytest.raises(DomainError):
            mittag_leffler(MLParams(alpha=alpha), z)

    @pytest.mark.parametrize(
        "alpha,beta,z",
        [
            (0.5, 1.0, -50.0),  # a single term overflows
            (0.626166235303638, 1.7264630096187852, 157.59111527795505),  # the sum overflows
        ],
    )
    def test_float_path_overflow_is_domain_error(self, alpha, beta, z):
        with pytest.raises(DomainError):
            mittag_leffler(MLParams(alpha=alpha, beta=beta), z)

    @pytest.mark.parametrize("alpha,z", [(0.5, -5.0), (0.5, -8.0), (0.9, -30.0), (1.21, -2.53)])
    def test_float_path_cancellation_is_domain_error(self, alpha, z):
        # summed in floats the first three lose 12 to 15 digits: E_{1/2}(-8) came out
        # as 3.2e13 (true value 0.0700) and E_{0.9}(-30) as -19644; the last
        # lies next to a zero of E_{1.21}, where the value is -4e-7
        with pytest.raises(DomainError, match="cancellation"):
            mittag_leffler(MLParams(alpha=alpha), z)

    @pytest.mark.parametrize("alpha,z_lo,z_hi", [(0.5, -3.0, 10.0), (0.75, -5.0, 50.0), (1.25, -5.0, 50.0),
                                                 (1.75, -5.0, 50.0)])
    def test_float_path_returns_on_its_checked_domain(self, alpha, z_lo, z_hi):
        mpmath = pytest.importorskip("mpmath")
        for i in range(41):
            z = z_lo + (z_hi - z_lo) * i / 40
            value = mittag_leffler(MLParams(alpha=alpha), z)
            with mpmath.workdps(40):
                exact = mpmath.mpf(0)
                for m in range(2000):
                    term = mpmath.mpf(z) ** m * mpmath.rgamma(alpha * m + 1)
                    exact += term
                    if m > 10 and abs(term) < mpmath.mpf(10) ** -35 * abs(exact):
                        break
                assert abs(value - exact) <= 1e-9 * abs(exact)

    def test_exact_path_overflow_is_domain_error(self):
        # e^720 exceeds the float range; the sum converges once the budget allows.
        with pytest.raises(DomainError):
            mittag_leffler(MLParams(alpha=1.0), 720.0, max_terms=3000)


class TestExactPath:
    """Integer alpha and beta: exact integer sums, rounded once."""

    @given(
        st.sampled_from([1, 2]),
        st.sampled_from([1, 2, 3]),
        ml_arguments,
    )
    def test_bit_identical_to_fraction_series(self, alpha, beta, z):
        value = mittag_leffler(MLParams(alpha=float(alpha), beta=float(beta)), z)
        assert value.hex() == ml_fraction_series(alpha, beta, z).hex()

    @pytest.mark.parametrize("z", [-49.9, -30.0, -0.1, 1 / 3, 7.3, 49.9, 2.0 ** -60])
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-6, 0.5])
    def test_bit_identical_at_other_tolerances(self, z, tol):
        value = mittag_leffler(MLParams(alpha=1.0), z, tol=tol)
        assert value.hex() == ml_fraction_series(1, 1, z, tol=tol).hex()

    @given(ml_arguments)
    def test_alpha_one_is_exp(self, z):
        assert mittag_leffler(MLParams(alpha=1.0), z) == pytest.approx(math.exp(z), rel=1e-14)

    @given(st.floats(min_value=0.0, max_value=7.0))
    def test_alpha_two_at_minus_square_is_cos(self, x):
        assert mittag_leffler(MLParams(alpha=2.0), -x * x) == pytest.approx(math.cos(x), abs=1e-14)

    @given(ml_arguments)
    def test_beta_two_is_expm1_over_z(self, z):
        value = mittag_leffler(MLParams(alpha=1.0, beta=2.0), z)
        assert value == pytest.approx(math.expm1(z) / z, rel=1e-14)


class TestNegligibleFirstTerm:
    """Integer parameters whose m = 1 term is far below tol return
    1/Gamma(beta) without the exact sum."""

    @pytest.mark.parametrize("alpha,beta,z,expected", [
        (1e6, 1.0, 1.0, 1.0),
        (2e5, 1.0, -40.0, 1.0),
        (2e5, 3.0, 7.5, 0.5),
        (1e300, 2.0, 1e300, 1.0),
    ])
    def test_huge_alpha_returns_at_once(self, alpha, beta, z, expected):
        start = time.perf_counter()
        assert mittag_leffler(MLParams(alpha=alpha, beta=beta), z) == expected
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("alpha", [1, 2, 5, 12, 30])
    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("factor", [0.01, 0.9, 1.1, 100.0])
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-8])
    def test_agrees_with_exact_sum_near_the_bound(self, alpha, beta, factor, tol):
        # z around the point where the bound starts to fire, on both sides
        edge = math.exp(math.log(tol / 1000.0) - math.lgamma(beta) + math.lgamma(alpha + beta))
        for z in (factor * edge, -factor * edge):
            exact = special._ml_series_exact(alpha, beta, z, tol, DEFAULT_MAX_TERMS)
            value = mittag_leffler(MLParams(alpha=float(alpha), beta=float(beta)), z, tol=tol)
            assert abs(value - exact) <= tol * abs(exact)
            assert special._first_term_negligible(alpha, beta, z, tol) == (factor < 1)

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_never_fires_on_moderate_arguments(self, alpha):
        for k in range(-3000, 5001):
            z = k / 100.0
            if z:
                assert not special._first_term_negligible(alpha, 1, z, DEFAULT_TOL)


class TestMittagLeffler2:
    def test_exp_reduction(self):
        assert mittag_leffler(MLParams(alpha=1.0, beta=1.0), 2.0) == pytest.approx(
            math.exp(2.0), rel=1e-13
        )

    def test_expm1_identity(self):
        # E_{1,2}(z) = (e^z - 1) / z
        assert mittag_leffler(MLParams(alpha=1.0, beta=2.0), 1.0) == pytest.approx(
            math.expm1(1.0), rel=1e-13
        )

    def test_z_zero_uses_gamma_beta(self):
        assert mittag_leffler(MLParams(alpha=1.0, beta=2.0), 0.0) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            MLParams(alpha=0.0)
        with pytest.raises(ValidationError):
            MLParams(alpha=1.0, beta=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                MLParams(alpha=bad)
            with pytest.raises(ValidationError):
                MLParams(alpha=1.0, beta=bad)
