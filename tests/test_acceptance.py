"""Acceptance suite: one test per criterion, each timed against its budget
and reporting a single PASS line (run with ``pytest -s`` to see them).
"""

import math
import random
import time

import pytest

from fracgrow import abalone
from fracgrow.cli import main
from fracgrow.errors import FracgrowError
from fracgrow.fractional import (
    FracOrder,
    PowerFunction,
    caputo_exp_exact,
    caputo_numeric,
    caputo_power,
)
from fracgrow.growth import (
    Convention,
    GrowthParams,
    ObservationSeries,
    closed_form,
    fit_order,
    series_terms,
)
from fracgrow.special import MLParams, gamma, mittag_leffler
from fracgrow.terms import (
    PolynomialNonlinearity,
    SeriesTerm,
    TermSum,
    adomian_polynomials,
    evaluate,
    term_add,
    term_multiply,
)

from synthetic import self_consistent_series

ORDERS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


class _timed:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.3f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name} exceeded {self.budget}s"
        return False


def test_criterion_1_special_function_identities():
    with _timed("criterion-1 special-function identities", 0.1):
        for z in (-2.0, -1.0, 0.5, 1.0, 5.0):
            value = mittag_leffler(MLParams(alpha=1.0), z)
            assert abs(value - math.exp(z)) <= 1e-12 * math.exp(z)
        e12 = mittag_leffler(MLParams(alpha=1.0, beta=2.0), 1.0)
        assert abs(e12 - (math.e - 1.0)) <= 1e-12
        assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-12


def test_criterion_2_caputo_cross_oracle():
    with _timed("criterion-2 Caputo cross-oracle agreement", 1.0):
        order = FracOrder(0.5)
        analytic = caputo_power(order, PowerFunction(1.0), 1.0)
        numeric = caputo_numeric(order, lambda xi: 1.0, 1.0)
        assert abs(analytic - numeric) <= 1e-6
        exact = caputo_exp_exact(order, 1.0, 1.0)
        numeric = caputo_numeric(order, math.exp, 1.0)
        assert abs(exact - numeric) <= 1e-6


def test_criterion_3_series_vs_closed_form():
    with _timed("criterion-3 depth-25 series vs closed form", 0.1):
        M, r = abalone.INITIAL_LENGTH, abalone.INITIAL_GROWTH_RATE
        for beta in ORDERS:
            for month_offset, eta in enumerate(abalone.REFERENCE_ETAS, start=1):
                p = GrowthParams(M, r, eta, FracOrder(beta))
                t = s = float(month_offset)  # months 2..24 -> elapsed 1..23
                partial = sum(evaluate(w, r, s, t) for w in series_terms(p, 25))
                exact = closed_form(p, s, t)
                assert abs(partial - exact) <= 1e-12 * exact


def test_criterion_4_adomian_cauchy_product_law():
    with _timed("criterion-4 Adomian polynomial Cauchy law", 1.0):
        square = PolynomialNonlinearity.from_dict({2: 1.0})
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(0, 10)
            ws = [
                TermSum(
                    SeriesTerm(float(rng.randint(-3, 3)), rng.randint(0, 2), rng.randint(0, 2))
                    for _ in range(rng.randint(1, 2))
                )
                for _ in range(n + 1)
            ]
            cauchy = TermSum.zero()
            for i in range(n + 1):
                cauchy = term_add(cauchy, term_multiply(ws[i], ws[n - i]))
            assert adomian_polynomials(square, ws, n) == cauchy


def test_criterion_5_reference_table_structure():
    with _timed("criterion-5 reference-table structural reproduction", 0.1):
        report = abalone.deviation_report()
        assert set(report) == {c.value for c in Convention}
        for stats in report.values():
            values = stats["values"]
            assert len(values) == 24 and all(len(row) == 6 for row in values)
            # (a) month-1 row is the initial length for every order
            assert all(v == abalone.INITIAL_LENGTH for v in values[0])
            # (b) strict increase across orders in every later row
            for row in values[1:]:
                assert all(a < b for a, b in zip(row, row[1:]))
            # (c) the deviation report quantifies the (documented) gap to the
            # printed cells; exact cell equality is not a target
            assert stats["max_abs_deviation"] > 0.0
            assert stats["mean_abs_deviation"] > 0.0


def test_criterion_6_fit_order_round_trip():
    with _timed("criterion-6 order-fitting round trip", 0.5):
        orders = [FracOrder(b) for b in (0.5, 0.7, 1.0)]
        for beta_star in (0.5, 0.7, 1.0):
            lengths = self_consistent_series(
                abalone.INITIAL_LENGTH, abalone.INITIAL_GROWTH_RATE, beta_star, 12
            )
            obs = ObservationSeries(tuple((i + 1, h) for i, h in enumerate(lengths)))
            best, scores = fit_order(obs, orders, abalone.INITIAL_GROWTH_RATE)
            assert best.beta == beta_star
            assert scores[best] <= 1e-9


def test_criterion_7_month8_diagnostic(capsys):
    with _timed("criterion-7 month-8 diagnostic", 0.1):
        assert main(["predict", "--reference", "--orders", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "decreases at month(s) [8]" in out
        assert main(
            ["predict", "--reference", "--orders", "0.5", "--correct-month8", "0.3800"]
        ) == 0
        out = capsys.readouterr().out
        assert "all monthly steps increase" in out


def test_criterion_8_paper_vs_exact_compare(capsys):
    with _timed("criterion-8 paper-rule vs exact comparison", 0.1):
        r, beta = 0.04305, 0.5
        for s in (1.0, 6.0, 12.0, 24.0):
            assert main(
                ["caputo", "--compare", "--beta", str(beta), "--r", str(r), "--s", str(s)]
            ) == 0
            out = capsys.readouterr().out
            values = {}
            for line in out.splitlines():
                key, _, val = line.partition(":")
                values[key.strip()] = float(val)
            assert "paper-exact rel diff" in values
            # independent oracles: direct exponential, direct series with the
            # stdlib gamma
            paper_oracle = r ** beta * math.exp(r * s)
            ml_oracle = sum(
                (r * s) ** m / math.gamma(m + 2.0 - beta) for m in range(80)
            ) * r * s ** (1.0 - beta)
            assert abs(values["paper"] - paper_oracle) <= 1e-8 * paper_oracle
            assert abs(values["exact"] - ml_oracle) <= 1e-8 * ml_oracle
