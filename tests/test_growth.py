import math

import pytest

from fracgrow import abalone
from fracgrow.errors import DomainError, ValidationError
from fracgrow.fractional import FracOrder
from fracgrow.growth import (
    Convention,
    EtaMode,
    EtaSchedule,
    GrowthParams,
    ObservationSeries,
    closed_form,
    decreasing_steps,
    estimate_eta,
    fit_order,
    mae,
    predict_table,
    series_term,
    series_terms,
)
from fracgrow.terms import evaluate

from synthetic import self_consistent_series


def params(M=0.5322, r=0.04305, eta=0.4936, beta=0.5):
    return GrowthParams(M, r, eta, FracOrder(beta))


def obs_from_lengths(lengths, start=1):
    return ObservationSeries(tuple((start + i, h) for i, h in enumerate(lengths)))


class TestClosedForm:
    def test_initial_value(self):
        assert closed_form(params(), 0.0, 0.0) == pytest.approx(0.5322, rel=1e-14)

    def test_classical_order(self):
        p = params(beta=1.0)
        expected = 0.5322 * math.exp(0.4936 - 0.04305)
        assert closed_form(p, 0.0, 1.0) == pytest.approx(expected, rel=1e-13)
        assert closed_form(p, 0.0, 1.0) == pytest.approx(0.83512, abs=1e-4)

    def test_stationary_when_eta_matches(self):
        r, beta = 0.04305, 0.5
        p = params(eta=r ** beta, beta=beta)
        for t in (0.0, 1.0, 10.0):
            assert closed_form(p, 2.0, t) == pytest.approx(
                0.5322 * math.exp(0.04305 * 2.0), rel=1e-13
            )

    def test_large_exponents_cancel(self):
        # e^{r s} alone overflows at s = 2500, e^{x t} alone underflows at
        # t = 2000; the products themselves are representable
        p = GrowthParams(1.0, 0.5, 0.1, FracOrder(1.0))
        assert closed_form(p, 2500.0, 2500.0) == pytest.approx(math.exp(250.0), rel=1e-12)
        p = GrowthParams(1.0, 0.3, -0.3305, FracOrder(1.0))
        assert closed_form(p, 2000.0, 2000.0) == pytest.approx(math.exp(-661.0), rel=1e-12)

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            closed_form(GrowthParams(1.0, 0.5, 0.9, FracOrder(1.0)), 2500.0, 2500.0)
        with pytest.raises(DomainError):
            closed_form(GrowthParams(1e300, 0.5, 0.9, FracOrder(1.0)), 0.0, 100.0)

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            GrowthParams(-1.0, 0.04305, 0.5, FracOrder(0.5))
        with pytest.raises(ValidationError):
            GrowthParams(1.0, 1.5, 0.5, FracOrder(0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_constants_rejected(self, bad):
        with pytest.raises(ValidationError):
            GrowthParams(bad, 0.04305, 0.5, FracOrder(0.5))
        with pytest.raises(ValidationError):
            GrowthParams(1.0, 0.04305, bad, FracOrder(0.5))


class TestSeriesTerm:
    def test_w0(self):
        w0 = series_term(params(), 0)
        assert w0.coefficient(1, 0) == 0.5322
        assert len(w0) == 1

    def test_w1(self):
        p = params()
        w1 = series_term(p, 1)
        expected = (p.eta - p.r ** 0.5) * p.M
        assert w1.coefficient(1, 1) == pytest.approx(expected, rel=1e-14)

    def test_identical_to_recursion(self):
        p = params(beta=0.7)
        ws = series_terms(p, 12)
        for n, w in enumerate(ws):
            assert series_term(p, n) == w  # exact coefficient-map equality

    @pytest.mark.parametrize("beta", [0.5, 0.7, 1.0])
    def test_partial_sum_matches_closed_form(self, beta):
        p = params(beta=beta)
        for s in (0.0, 5.0, 24.0):
            for t in (0.0, 3.0, 24.0):
                # depth-25 truncation supports 1e-12 only up to |x| t ~ 4;
                # larger products are covered by the remainder-bound test
                if abs(p.eta - p.r ** beta) * t > 4.0:
                    continue
                partial = sum(
                    evaluate(series_term(p, n), p.r, s, t) for n in range(26)
                )
                exact = closed_form(p, s, t)
                assert abs(partial - exact) <= 1e-12 * exact


class TestEstimateEta:
    def test_absolute(self):
        sched = estimate_eta(obs_from_lengths([2.0, 3.0]))
        assert sched.rates == ((1, 1.0),)

    def test_specific(self):
        sched = estimate_eta(obs_from_lengths([2.0, 3.0]), EtaMode.SPECIFIC)
        assert sched.rates == ((1, 0.5),)

    def test_constant_series(self):
        for mode in EtaMode:
            sched = estimate_eta(obs_from_lengths([2.0, 2.0, 2.0]), mode)
            assert sched.rates == ((1, 0.0), (2, 0.0))

    @pytest.mark.parametrize("mode", list(EtaMode))
    def test_month_gap_rejected(self, mode):
        obs = ObservationSeries(((1, 2.0), (3, 4.0)))
        with pytest.raises(DomainError, match="observations skip from month 1 to month 3"):
            estimate_eta(obs, mode)

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            estimate_eta(obs_from_lengths([2.0]))

    def test_keyed_by_the_month_each_step_starts(self):
        sched = estimate_eta(obs_from_lengths([2.0, 3.0, 5.0, 6.0], start=4))
        assert sched.rates == ((4, 1.0), (5, 2.0), (6, 1.0))


class TestObservationSeries:
    def test_duplicate_month_rejected(self):
        with pytest.raises(ValidationError):
            ObservationSeries(((1, 2.0), (1, 3.0)))

    def test_decreasing_month_rejected(self):
        with pytest.raises(ValidationError):
            ObservationSeries(((2, 2.0), (1, 3.0)))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValidationError):
            ObservationSeries(((1, 0.0),))

    @pytest.mark.parametrize("length", [math.inf, math.nan])
    def test_nonfinite_length_rejected(self, length):
        with pytest.raises(ValidationError):
            ObservationSeries(((1, 1.0), (2, length)))


class TestPredictTable:
    def setup_method(self):
        self.orders = [FracOrder(b) for b in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
        self.etas = abalone.reference_schedule()

    @pytest.mark.parametrize("convention", list(Convention))
    def test_first_row_is_initial_length(self, convention):
        grid = predict_table(0.5322, 0.04305, self.etas, self.orders, convention)
        assert all(v == 0.5322 for v in grid.values[0])

    @pytest.mark.parametrize("convention", list(Convention))
    def test_rows_increase_in_beta(self, convention):
        grid = predict_table(0.5322, 0.04305, self.etas, self.orders, convention)
        for row in grid.values[1:]:
            assert all(a < b for a, b in zip(row, row[1:]))

    def test_cumulative_month_two(self):
        grid = predict_table(0.5322, 0.04305, self.etas, self.orders)
        # classical column advances by e^{r + eta_1 - r} = e^{0.4936}
        assert grid.values[1][-1] == pytest.approx(0.5322 * math.exp(0.4936), rel=1e-13)
        assert grid.values[1][-1] == pytest.approx(0.8719, abs=1e-4)

    def test_shape(self):
        grid = predict_table(0.5322, 0.04305, self.etas, self.orders)
        assert grid.months == tuple(range(1, 25))
        assert len(grid.values) == 24
        assert all(len(row) == 6 for row in grid.values)

    @pytest.mark.parametrize("convention", list(Convention))
    def test_rows_labelled_from_first_key(self, convention):
        grid = predict_table(2.0, 0.3, EtaSchedule(((4, 0.5), (5, 0.6), (6, 0.1))), self.orders, convention)
        assert grid.months == (4, 5, 6, 7)
        keyed_from_one = predict_table(2.0, 0.3, EtaSchedule(((1, 0.5), (2, 0.6), (3, 0.1))),
                                       self.orders, convention)
        assert grid.values == keyed_from_one.values

    def test_non_consecutive_keys_rejected(self):
        with pytest.raises(ValidationError, match="consecutive"):
            predict_table(2.0, 0.3, EtaSchedule(((1, 0.5), (3, 0.6))), self.orders)

    def test_requires_orders(self):
        with pytest.raises(ValidationError):
            predict_table(0.5322, 0.04305, self.etas, [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_M_rejected(self, bad):
        with pytest.raises(ValidationError):
            predict_table(bad, 0.04305, self.etas, self.orders)


class TestMonth8Diagnostic:
    @staticmethod
    def step(eta):
        """The two rows of a one-rate grid over the step from month 7 to 8."""
        grid = predict_table(0.5322, 0.04305, EtaSchedule(((7, eta),)), [FracOrder(0.5)],
                             Convention.CUMULATIVE)
        return grid.values[0][0], grid.values[1][0]

    def test_printed_rate_forces_decrease(self):
        month7, month8 = self.step(abalone.MONTH8_PRINTED)
        assert month8 < month7

    def test_corrected_rate_increases(self):
        month7, month8 = self.step(abalone.MONTH8_CORRECTED)
        assert month8 > month7

    def test_decreasing_steps_flags_month_8(self):
        grid = predict_table(
            0.5322, 0.04305, abalone.reference_schedule(), [FracOrder(0.5)]
        )
        assert (8, 0.5) in decreasing_steps(grid)

    def test_override_clears_the_drop(self):
        grid = predict_table(
            0.5322,
            0.04305,
            abalone.correct_month8(abalone.reference_schedule(), abalone.MONTH8_CORRECTED),
            [FracOrder(0.5)],
        )
        assert decreasing_steps(grid) == []


class TestMae:
    def test_identical(self):
        assert mae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_simple(self):
        assert mae([1.0, 2.0], [2.0, 4.0]) == 1.5

    def test_zero_iff_equal(self):
        assert mae([1.0, 2.0], [1.0, 2.0000001]) > 0.0

    def test_permutation_invariant(self):
        a, b = [1.0, 5.0, 2.0], [2.0, 3.0, 7.0]
        perm = [2, 0, 1]
        assert mae(a, b) == pytest.approx(
            mae([a[i] for i in perm], [b[i] for i in perm]), rel=1e-15
        )

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            mae([1.0], [1.0, 2.0])

    def test_sum_is_correctly_rounded(self):
        # a plain float sum drops both 1s on Python 3.11
        assert mae([1e16, 1.0, 1.0], [0.0, 0.0, 0.0]) == (1e16 + 2) / 3


class TestFitOrder:
    def test_round_trip_recovers_order(self):
        orders = [FracOrder(b) for b in (0.5, 0.7, 1.0)]
        for beta_star in (0.5, 0.7, 1.0):
            lengths = self_consistent_series(0.5322, 0.04305, beta_star, 12)
            best, scores = fit_order(obs_from_lengths(lengths), orders, 0.04305)
            assert best.beta == beta_star
            assert scores[best] <= 1e-9

    def test_single_candidate(self):
        lengths = self_consistent_series(0.5322, 0.04305, 0.7, 6)
        best, scores = fit_order(obs_from_lengths(lengths), [FracOrder(0.9)], 0.04305)
        assert best.beta == 0.9
        assert list(scores) == [FracOrder(0.9)]

    def test_low_observations_pick_smallest_order(self):
        # columns increase in beta; when the observed series sits below every
        # column, the smallest beta must win
        obs = obs_from_lengths([3.0, 3.3, 3.6, 3.9])
        orders = [FracOrder(b) for b in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
        etas = estimate_eta(obs)
        grid = predict_table(obs.lengths[0], 0.04305, etas, orders)
        for row, observed in zip(grid.values[1:], obs.lengths[1:]):
            assert all(v > observed for v in row)
        best, scores = fit_order(obs, orders, 0.04305)
        assert best.beta == 0.5
        assert scores[best] == min(scores.values())

    def test_best_is_exact_argmin(self):
        lengths = self_consistent_series(0.5322, 0.04305, 0.7, 8)
        orders = [FracOrder(b) for b in (0.55, 0.65, 0.75, 0.85)]
        best, scores = fit_order(obs_from_lengths(lengths), orders, 0.04305)
        assert scores[best] == min(scores.values())

    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            fit_order(obs_from_lengths([1.0, 2.0]), [FracOrder(0.5)], 0.04305)

    def test_month_gap_rejected(self):
        obs = ObservationSeries(((1, 1.0), (2, 1.2), (4, 1.5), (5, 1.7)))
        with pytest.raises(DomainError, match="from month 2 to month 4"):
            fit_order(obs, [FracOrder(0.5)], 0.04305)


class TestEtaSchedule:
    def test_replace(self):
        sched = EtaSchedule(((1, 0.5), (2, 0.6)))
        assert sched.replaced(2, 0.9).rates == ((1, 0.5), (2, 0.9))

    def test_replace_missing_interval(self):
        with pytest.raises(ValidationError):
            EtaSchedule(((1, 0.5),)).replaced(3, 0.9)

    def test_month8_override_replaces_the_rate_keyed_7(self):
        sched = EtaSchedule(tuple((m, 0.1) for m in range(5, 10)))
        assert abalone.correct_month8(sched, 0.9).rates == ((5, 0.1), (6, 0.1), (7, 0.9), (8, 0.1), (9, 0.1))
        assert abalone.correct_month8(sched, None) is sched
        with pytest.raises(ValidationError, match="cover months 8 to 13"):
            abalone.correct_month8(EtaSchedule(tuple((m, 0.1) for m in range(8, 13))), 0.9)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rate_rejected(self, eta):
        with pytest.raises(ValidationError):
            EtaSchedule(((1, 0.5), (2, eta)))
        with pytest.raises(ValidationError):
            EtaSchedule(((1, 0.5), (2, 0.6))).replaced(2, eta)
