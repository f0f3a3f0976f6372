import math

import pytest

from fracgrow.errors import DomainError, ValidationError
from fracgrow.fractional import (
    FracOrder,
    PowerFunction,
    QuadratureSpec,
    caputo_exp_exact,
    caputo_exp_paper_rule,
    caputo_numeric,
    caputo_power,
    rl_integral_power,
)


def brute_rl_integral(order, gamma_exp, s, panels=200_000):
    """Midpoint quadrature of the fractional integral of xi^gamma_exp on [0, s].

    Independent of the closed form; the kernel is integrable so midpoint
    sampling converges (slowly) despite the endpoint weakness.
    """
    total = 0.0
    h = s / panels
    for i in range(panels):
        xi = (i + 0.5) * h
        total += (s - xi) ** (order - 1.0) * xi ** gamma_exp
    return total * h / math.gamma(order)


def per_panel_caputo(beta, f_prime, s, nodes, grading=2.0):
    """The product-integration rule with both kernel powers taken per panel edge.

    Same graded mesh and moments as ``caputo_numeric``, which takes one power
    per node; the two must agree to rounding.
    """
    xi = [s * (1.0 - (1.0 - i / nodes) ** grading) for i in range(nodes + 1)]
    f_vals = [f_prime(x) for x in xi]
    one_mb, two_mb = 1.0 - beta, 2.0 - beta
    total = 0.0
    for i in range(nodes):
        a, c = xi[i], xi[i + 1]
        h = c - a
        if h == 0.0:
            continue
        ta, tc = s - a, s - c
        d1 = (ta ** one_mb - tc ** one_mb) / one_mb
        d2 = (ta ** two_mb - tc ** two_mb) / two_mb
        total += f_vals[i] * d1 + (f_vals[i + 1] - f_vals[i]) / h * (ta * d1 - d2)
    return total / math.gamma(one_mb)


class TestRLIntegralPower:
    def test_classical_integral(self):
        assert rl_integral_power(1.0, PowerFunction(1.0), 2.0) == pytest.approx(2.0, rel=1e-13)

    def test_half_order_constant(self):
        # 1 / Gamma(1.5), frozen from the quadrature oracle below
        value = rl_integral_power(0.5, PowerFunction(0.0), 1.0)
        assert value == pytest.approx(1.1283791670955126, rel=1e-12)
        # midpoint error on the weak endpoint singularity scales like h^0.5
        assert value == pytest.approx(brute_rl_integral(0.5, 0.0, 1.0), rel=2e-3)

    def test_zero_interval(self):
        assert rl_integral_power(0.7, PowerFunction(2.0, a=1.0), 1.0) == 0.0

    def test_below_terminal(self):
        with pytest.raises(DomainError):
            rl_integral_power(0.5, PowerFunction(1.0, a=2.0), 1.0)


class TestCaputoPower:
    def test_classical_reduction(self):
        assert caputo_power(FracOrder(1.0), PowerFunction(2.0), 3.0) == pytest.approx(6.0, rel=1e-13)

    def test_constant_annihilation(self):
        for beta in (0.1, 0.5, 0.9, 1.0):
            assert caputo_power(FracOrder(beta), PowerFunction(0.0), 2.0) == 0.0

    def test_half_order_linear(self):
        assert caputo_power(FracOrder(0.5), PowerFunction(1.0), 1.0) == pytest.approx(
            2.0 / math.sqrt(math.pi), rel=1e-12
        )

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            caputo_power(FracOrder(0.5), PowerFunction(-0.5), 1.0)

    @pytest.mark.parametrize("gamma_exp", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_beta_to_one_continuity(self, gamma_exp, s):
        classical = gamma_exp * s ** (gamma_exp - 1.0)
        value = caputo_power(FracOrder(0.999), PowerFunction(gamma_exp), s)
        assert abs(value - classical) <= 1e-2 * abs(classical)

    @pytest.mark.parametrize("gamma_exp", [1.0, 2.0])
    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_composition_recovers_function(self, gamma_exp, s):
        # integral of order beta applied to the Caputo derivative gives back
        # g(s) - g(0) for g = s^gamma_exp
        beta = 0.6
        deriv_coeff = caputo_power(FracOrder(beta), PowerFunction(gamma_exp), 1.0)
        recovered = deriv_coeff * rl_integral_power(beta, PowerFunction(gamma_exp - beta), s)
        assert recovered == pytest.approx(s ** gamma_exp, rel=1e-10)


class TestCaputoExpRules:
    def test_paper_rule_classical(self):
        assert caputo_exp_paper_rule(FracOrder(1.0), 0.04305, 1.0, 0.0) == pytest.approx(
            0.04305, rel=1e-13
        )

    def test_paper_rule_half_order(self):
        assert caputo_exp_paper_rule(FracOrder(0.5), 0.04305, 1.0, 0.0) == pytest.approx(
            math.sqrt(0.04305), rel=1e-13
        )

    def test_paper_rule_zero_scale(self):
        assert caputo_exp_paper_rule(FracOrder(0.3), 0.2, 0.0, 5.0) == 0.0

    @pytest.mark.parametrize("r,scale,s", [(1.0, 1.0, 800.0), (1.0, 1e300, 700.0)])
    def test_paper_rule_overflow_is_domain_error(self, r, scale, s):
        # e^800 overflows math.exp; 1e300 * e^700 overflows the product
        with pytest.raises(DomainError):
            caputo_exp_paper_rule(FracOrder(0.5), r, scale, s)

    def test_exact_classical_reduction(self):
        assert caputo_exp_exact(FracOrder(1.0), 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)

    def test_exact_vanishes_at_origin(self):
        assert caputo_exp_exact(FracOrder(0.5), 1.0, 1e-12) == pytest.approx(0.0, abs=1e-5)

    def test_exact_value_via_series_oracle(self):
        # direct summation of r * s^{1-beta} * sum (r s)^m / Gamma(m + 2 - beta)
        r, s, beta = 1.0, 1.0, 0.5
        oracle = sum((r * s) ** m / math.gamma(m + 2.0 - beta) for m in range(60))
        oracle *= r * s ** (1.0 - beta)
        assert caputo_exp_exact(FracOrder(beta), r, s) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("r", [0.04305, 0.3, 0.9])
    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_exact_below_paper_rule(self, r, beta, s):
        # regression snapshot of the one-sided gap for r in (0,1)
        exact = caputo_exp_exact(FracOrder(beta), r, s)
        rule = caputo_exp_paper_rule(FracOrder(beta), r, 1.0, s)
        assert exact < rule

    def test_rule_decreasing_in_beta(self):
        r = 0.04305
        values = [
            caputo_exp_paper_rule(FracOrder(b), r, 1.0, 0.0)
            for b in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCaputoNumeric:
    def test_zero_integrand(self):
        assert caputo_numeric(FracOrder(0.5), lambda xi: 0.0, 1.0) == 0.0

    def test_matches_power_closed_form(self):
        value = caputo_numeric(FracOrder(0.5), lambda xi: 1.0, 1.0)
        assert value == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-6)

    def test_matches_exp_exact(self):
        value = caputo_numeric(FracOrder(0.5), math.exp, 1.0)
        assert value == pytest.approx(caputo_exp_exact(FracOrder(0.5), 1.0, 1.0), abs=1e-6)

    def test_linearity(self):
        beta = FracOrder(0.4)
        f = math.exp
        g = math.sin
        for a, b in [(2.0, -3.0), (0.5, 0.25), (-1.0, 4.0)]:
            combined = caputo_numeric(beta, lambda xi: a * f(xi) + b * g(xi), 2.0)
            split = a * caputo_numeric(beta, f, 2.0) + b * caputo_numeric(beta, g, 2.0)
            assert combined == pytest.approx(split, abs=1e-10)

    def test_rejects_beta_one(self):
        with pytest.raises(DomainError):
            caputo_numeric(FracOrder(1.0), math.exp, 1.0)

    @pytest.mark.parametrize("nodes", [256, 4096, 16384])
    @pytest.mark.parametrize("beta,r,s", [(0.1, 0.3, 4.0), (0.5, 1.0, 1.0), (0.75, 2.5, 0.6), (0.95, 0.8, 3.0)])
    def test_matches_per_panel_rule(self, nodes, beta, r, s):
        def f_prime(xi):
            return r * math.exp(r * xi)

        value = caputo_numeric(FracOrder(beta), f_prime, s, QuadratureSpec(nodes=nodes))
        assert value == pytest.approx(per_panel_caputo(beta, f_prime, s, nodes), rel=1e-12)

    def test_matches_per_panel_rule_with_repeated_nodes(self):
        # Steep grading rounds the last nodes onto s; their empty panels are skipped.
        spec = QuadratureSpec(nodes=64, grading=12.0)
        value = caputo_numeric(FracOrder(0.5), math.exp, 1.0, spec)
        assert math.isfinite(value)
        assert value == pytest.approx(per_panel_caputo(0.5, math.exp, 1.0, 64, 12.0), rel=1e-12)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.8])
    def test_error_falls_as_nodes_squared(self, beta):
        r, s = 1.2, 2.0
        exact = caputo_exp_exact(FracOrder(beta), r, s)
        errors = [
            abs(caputo_numeric(FracOrder(beta), lambda xi: r * math.exp(r * xi), s, QuadratureSpec(nodes=n)) - exact)
            for n in (256, 1024)
        ]
        slope = math.log(errors[1] / errors[0]) / math.log(4.0)
        assert -2.2 < slope < -1.8

    @pytest.mark.parametrize("nodes", [16, 257, 4096])
    def test_one_f_prime_evaluation_per_node(self, nodes):
        calls = []

        def f_prime(xi):
            calls.append(xi)
            return math.cos(xi)

        caputo_numeric(FracOrder(0.3), f_prime, 1.5, QuadratureSpec(nodes=nodes))
        assert len(calls) == nodes + 1

    def test_integrand_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            caputo_numeric(FracOrder(0.5), math.exp, 800.0, QuadratureSpec(nodes=256))

    def test_non_finite_result_is_domain_error(self):
        # every f' value is finite, but the weighted sum overflows
        with pytest.raises(DomainError):
            caputo_numeric(FracOrder(0.5), lambda xi: 1e308, 10.0, QuadratureSpec(nodes=256))

    def test_quadrature_spec_validation(self):
        with pytest.raises(ValidationError):
            QuadratureSpec(nodes=8)
        with pytest.raises(ValidationError):
            QuadratureSpec(grading=0.5)


class TestFracOrder:
    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5])
    def test_rejects_out_of_range(self, beta):
        with pytest.raises(ValidationError):
            FracOrder(beta)

    def test_accepts_boundary(self):
        assert FracOrder(1.0).beta == 1.0
