import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fracgrow import terms
from fracgrow.errors import DomainError, TermOverflowError, ValidationError
from fracgrow.fractional import FracOrder
from fracgrow.terms import (
    PolynomialNonlinearity,
    SeriesTerm,
    TermSum,
    adm_iterate,
    adomian_polynomials,
    apply_Ls,
    apply_Lt_inverse,
    evaluate,
    term_add,
    term_multiply,
)


def ts(*triples):
    return TermSum(SeriesTerm(c, k, n) for c, k, n in triples)


def random_termsum(rng, max_terms=3, max_k=2, max_n=3):
    # integer coefficients keep every float operation exact
    return ts(
        *(
            (float(rng.randint(-4, 4)), rng.randint(0, max_k), rng.randint(0, max_n))
            for _ in range(rng.randint(1, max_terms))
        )
    )


class TestTermAlgebra:
    def test_add_identity(self):
        x = ts((2.0, 1, 1))
        assert term_add(x, TermSum.zero()) == x

    def test_add_cancellation(self):
        assert term_add(ts((1.0, 1, 0)), ts((-1.0, 1, 0))).is_zero()

    def test_add_merge(self):
        assert term_add(ts((2.0, 0, 1)), ts((3.0, 0, 1))) == ts((5.0, 0, 1))

    def test_multiply_identity(self):
        x = ts((3.0, 2, 1), (1.0, 0, 0))
        assert term_multiply(x, ts((1.0, 0, 0))) == x

    def test_multiply_binomial_factor(self):
        # (t/1!)(t/1!) = 2 * t^2/2!
        assert term_multiply(ts((1.0, 1, 1)), ts((1.0, 1, 1))) == ts((2.0, 2, 2))

    def test_square_of_one_plus_t(self):
        # (1 + t)^2 = 1 + 2t + 2 * t^2/2!
        x = ts((1.0, 0, 0), (1.0, 0, 1))
        assert term_multiply(x, x) == ts((1.0, 0, 0), (2.0, 0, 1), (2.0, 0, 2))

    def test_multiply_power_cap(self):
        with pytest.raises(TermOverflowError):
            term_multiply(ts((1.0, 0, 40)), ts((1.0, 0, 40)))

    def test_commutative_associative(self):
        rng = random.Random(7)
        for _ in range(50):
            x, y, z = (random_termsum(rng) for _ in range(3))
            assert term_multiply(x, y) == term_multiply(y, x)
            assert term_multiply(term_multiply(x, y), z) == term_multiply(
                x, term_multiply(y, z)
            )

    def test_coefficient_guard(self):
        with pytest.raises(TermOverflowError):
            term_multiply(ts((1e200, 0, 0)), ts((1e200, 0, 0)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 2e300])
    def test_nonfinite_coefficient_rejected(self, bad):
        with pytest.raises(TermOverflowError):
            TermSum.single(bad)
        with pytest.raises(TermOverflowError):
            TermSum(coeffs={(1, 0): bad})
        with pytest.raises(TermOverflowError):
            ts((1.0, 0, 0)).scaled(bad)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValidationError):
            SeriesTerm(1.0, -1, 0)


def pair_loop_multiply(x, y, n_cap=terms.T_POWER_CAP):
    """The product as one loop over term pairs, both sums in key order, with
    C(n1+n2, n1) taken as an int per pair."""
    coeffs = {}
    y_items = sorted(y._coeffs.items())
    for (k1, n1), c1 in sorted(x._coeffs.items()):
        for (k2, n2), c2 in y_items:
            n = n1 + n2
            if n > n_cap:
                raise TermOverflowError(f"time power {n} exceeds cap {n_cap}")
            key = (k1 + k2, n)
            coeffs[key] = coeffs.get(key, 0.0) + c1 * c2 * math.comb(n, n1)
    return TermSum(coeffs=coeffs)


def outcome(multiply, x, y, n_cap):
    """A product's coefficients by float.hex, or the error it raised."""
    try:
        product = multiply(x, y, n_cap)
    except TermOverflowError as exc:
        return "raised", str(exc)
    return sorted((k, n, c.hex()) for (k, n), c in product._coeffs.items())


# small integers and halves cancel exactly, so some keys sum to zero and drop
# out; 1e200 squared overflows the coefficient limit
coefficients = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, -0.5, 3.0, -3.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e200, -1e200]),
)
term_sums = st.lists(
    st.tuples(coefficients, st.integers(0, 3), st.integers(0, 12)), max_size=8
).map(lambda triples: ts(*triples))


class TestMultiplyLayouts:
    @settings(max_examples=300, deadline=None)
    @given(term_sums, term_sums, term_sums, st.integers(0, 24))
    def test_bit_identical_to_pair_loop(self, x, y, z, n_cap):
        # y is a right operand, then a left one, then a right one again, so
        # its kept layouts are read after they were built
        for a, b in ((x, y), (y, z), (x, y), (y, x), (y, y)):
            for cap in (n_cap, terms.T_POWER_CAP):
                assert outcome(term_multiply, a, b, cap) == outcome(pair_loop_multiply, a, b, cap)
            top = [max((n for _, n in p._coeffs), default=None) for p in (a, b)]
            if None not in top and sum(top) > n_cap:
                with pytest.raises(TermOverflowError, match="exceeds cap"):
                    term_multiply(a, b, n_cap)


class TestOperators:
    def test_Ls_kills_constants(self):
        assert apply_Ls(ts((5.0, 0, 2)), FracOrder(0.5), 0.3).is_zero()

    def test_Ls_exponential_rule(self):
        out = apply_Ls(ts((2.0, 1, 0)), FracOrder(0.5), 0.04305)
        assert out.coefficient(1, 0) == pytest.approx(2.0 * 0.04305 ** 0.5, rel=1e-15)

    def test_Ls_classical_case(self):
        assert apply_Ls(ts((1.0, 2, 0)), FracOrder(1.0), 0.5) == ts((1.0, 2, 0))

    def test_Ls_beta_one_on_basis(self):
        rng = random.Random(3)
        r = 0.25
        for _ in range(20):
            x = random_termsum(rng)
            out = apply_Ls(x, FracOrder(1.0), r)
            for term in x.terms:
                expected = term.coeff * term.exp_mult * r
                assert out.coefficient(term.exp_mult, term.t_power) == pytest.approx(
                    expected, rel=1e-15, abs=0.0
                )

    def test_Lt_inverse_single_step(self):
        assert apply_Lt_inverse(ts((3.0, 1, 0))) == ts((3.0, 1, 1))

    def test_Lt_inverse_twice(self):
        assert apply_Lt_inverse(apply_Lt_inverse(ts((3.0, 1, 0)))) == ts((3.0, 1, 2))

    def test_Lt_inverse_empty(self):
        assert apply_Lt_inverse(TermSum.zero()).is_zero()

    def test_Lt_inverse_cap(self):
        with pytest.raises(TermOverflowError):
            apply_Lt_inverse(ts((1.0, 0, 64)))


class TestAdomianPolynomials:
    def setup_method(self):
        self.square = PolynomialNonlinearity.from_dict({2: 1.0})

    def test_a0(self):
        w0 = ts((2.0, 1, 0))
        assert adomian_polynomials(self.square, [w0], 0) == term_multiply(w0, w0)

    def test_a1(self):
        w0, w1 = ts((2.0, 1, 0)), ts((3.0, 0, 1))
        expected = term_multiply(w0, w1).scaled(2.0)
        assert adomian_polynomials(self.square, [w0, w1], 1) == expected

    def test_a2(self):
        w0, w1, w2 = ts((2.0, 1, 0)), ts((3.0, 0, 1)), ts((1.0, 1, 1))
        expected = term_add(
            term_multiply(w1, w1), term_multiply(w0, w2).scaled(2.0)
        )
        assert adomian_polynomials(self.square, [w0, w1, w2], 2) == expected

    def test_cauchy_product_law(self):
        rng = random.Random(11)
        for _ in range(30):
            ws = [random_termsum(rng, max_n=2) for _ in range(11)]
            for n in range(11):
                cauchy = TermSum.zero()
                for i in range(n + 1):
                    cauchy = term_add(cauchy, term_multiply(ws[i], ws[n - i]))
                assert adomian_polynomials(self.square, ws, n) == cauchy

    def test_sums_like_a_term_add_chain(self):
        # float coefficients: the one-map accumulation must add the products
        # in the same order as chained term_add, and drop exact cancellations
        rng = random.Random(17)
        cube = PolynomialNonlinearity.from_dict({3: 1.0})

        def chained(xs, ys, n):
            acc = TermSum.zero()
            for i in range(n + 1):
                acc = term_add(acc, term_multiply(xs[i], ys[n - i]))
            return acc

        for _ in range(20):
            ws = [ts(*((rng.uniform(-2, 2), rng.randrange(3), rng.randrange(3)) for _ in range(3)))
                  for _ in range(6)]
            ws[2], ws[3] = ws[0], ws[1].scaled(-1.0)  # P_2[3] cancels to zero
            squares = [chained(ws, ws, n) for n in range(6)]
            for n in range(6):
                assert adomian_polynomials(self.square, ws, n) == squares[n]
                assert adomian_polynomials(cube, ws, n) == chained(squares, ws, n)

    def test_degenerate_split(self):
        # w0 = w, later iterates empty: A_0 = N(w), A_n = 0 for n >= 1
        for j in (2, 3):
            nl = PolynomialNonlinearity.from_dict({j: 1.0})
            w = ts((2.0, 1, 0), (1.0, 0, 1))
            ws = [w] + [TermSum.zero()] * 5
            a0 = adomian_polynomials(nl, ws, 0)
            power = w
            for _ in range(j - 1):
                power = term_multiply(power, w)
            assert a0 == power
            for n in range(1, 6):
                assert adomian_polynomials(nl, ws, n).is_zero()

    def test_cubic_composition_sum(self):
        # A_n of w^3 is the sum over i1 + i2 + i3 = n of w_i1 w_i2 w_i3;
        # integer coefficients keep every order of summation exact
        rng = random.Random(13)
        cube = PolynomialNonlinearity.from_dict({3: 1.0})
        for _ in range(5):
            ws = [random_termsum(rng, max_n=2) for _ in range(7)]
            for n in range(7):
                direct = TermSum.zero()
                for i1 in range(n + 1):
                    for i2 in range(n + 1 - i1):
                        triple = term_multiply(ws[i1], ws[i2])
                        direct = term_add(direct, term_multiply(triple, ws[n - i1 - i2]))
                assert adomian_polynomials(cube, ws, n) == direct

    def test_short_list_rejected(self):
        with pytest.raises(ValidationError):
            adomian_polynomials(self.square, [ts((1.0, 0, 0))], 1)
        with pytest.raises(ValidationError):
            adomian_polynomials(self.square, [ts((1.0, 0, 0))], -1)

    def test_power_below_one_rejected(self):
        with pytest.raises(ValidationError):
            PolynomialNonlinearity.from_dict({0: 1.0})


class TestAdmIterate:
    def test_first_iterate(self):
        M, r, eta, beta = 0.5322, 0.04305, 0.4936, 0.5
        ws = adm_iterate(ts((M, 1, 0)), FracOrder(beta), r, eta, n_iterations=1)
        assert ws[1].coefficient(1, 1) == pytest.approx((eta - r ** beta) * M, rel=1e-14)
        assert len(ws[1]) == 1

    def test_second_iterate(self):
        M, r, eta, beta = 0.5322, 0.04305, 0.4936, 0.5
        ws = adm_iterate(ts((M, 1, 0)), FracOrder(beta), r, eta, n_iterations=2)
        assert ws[2].coefficient(1, 2) == pytest.approx(
            (eta - r ** beta) ** 2 * M, rel=1e-13
        )

    def test_stationary_when_eta_matches(self):
        r, beta = 0.04305, 0.5
        eta = r ** beta
        ws = adm_iterate(ts((1.0, 1, 0)), FracOrder(beta), r, eta, n_iterations=5)
        # -(c * rb) + c * eta cancels exactly when eta == rb
        for w in ws[1:]:
            assert w.is_zero()

    def test_truncation_error_bound(self):
        M, r, eta, beta, s = 0.5322, 0.04305, 0.4936, 0.7, 3.0
        x = eta - r ** beta
        for N in (5, 10, 25):
            ws = adm_iterate(ts((M, 1, 0)), FracOrder(beta), r, eta, n_iterations=N)
            for t in (0.5, 2.0, 8.0):
                partial = sum(evaluate(w, r, s, t) for w in ws)
                exact = M * math.exp(r * s) * math.exp(x * t)
                bound = (
                    M
                    * math.exp(r * s)
                    * abs(x * t) ** (N + 1)
                    / math.factorial(N + 1)
                    * math.exp(abs(x * t))
                )
                assert abs(partial - exact) <= bound + 1e-12 * exact

    def test_nonlinear_and_source_paths_run(self):
        nl = PolynomialNonlinearity.from_dict({2: 1.0})
        source = ts((0.5, 0, 0))
        ws = adm_iterate(
            ts((1.0, 1, 0)), FracOrder(0.5), 0.2, 0.1, nl=nl, source=source, n_iterations=3
        )
        assert len(ws) == 4
        # source integrates to 0.5 t; nonlinearity contributes -t * e^{2rs}
        assert ws[1].coefficient(0, 1) == pytest.approx(0.5)
        assert ws[1].coefficient(2, 1) == pytest.approx(-1.0)

    @pytest.mark.parametrize("n_iterations", [1, 2, 5, 10])
    def test_constant_source_integrates_once(self, n_iterations):
        # w_t = g with w(0) = w0 constant in s: w = w0 + g t at every depth
        w0, g, t = 0.75, 2.0, 1.3
        ws = adm_iterate(ts((w0, 0, 0)), FracOrder(0.5), 0.2, 0.0, source=ts((g, 0, 0)),
                         n_iterations=n_iterations)
        assert sum(evaluate(w, 0.2, 1.0, t) for w in ws) == pytest.approx(w0 + g * t, rel=1e-15)

    def test_cubic_matches_bernoulli_closed_form(self):
        # Terms constant in s make Ls vanish, so w_t = eta w - c w^3, a
        # Bernoulli equation: w^-2 = c/eta + (w0^-2 - c/eta) e^{-2 eta t}.
        eta, c, w0, t = 0.5, 0.3, 1.0, 0.5
        nl = PolynomialNonlinearity.from_dict({3: c})
        ws = adm_iterate(ts((w0, 0, 0)), FracOrder(0.5), 0.2, eta, nl=nl, n_iterations=24)
        exact = (c / eta + (w0 ** -2 - c / eta) * math.exp(-2.0 * eta * t)) ** -0.5
        assert abs(sum(evaluate(w, 0.2, 1.0, t) for w in ws) - exact) <= 1e-13

    def test_limit_checked_on_the_returned_iterate(self):
        # eta * Lt^-1(w_0) alone is 1.2e300, above COEFF_LIMIT, but w_1 is
        # 8e299 * (eta - r): only the coefficients returned are checked
        ws = adm_iterate(ts((8e299, 1, 0)), FracOrder(1.0), 0.5, 1.5, n_iterations=1)
        assert ws[1] == ts((8e299 * 1.5 - 8e299 * 0.5, 1, 1))
        with pytest.raises(TermOverflowError):
            adm_iterate(ts((8e299, 1, 0)), FracOrder(1.0), 0.5, 2.5, n_iterations=1)


def rebuilt_iterates(w0, order, r, eta, nl, n_iterations, source=None):
    """The recursion with every A_n rebuilt from scratch by the public
    ``adomian_polynomials``, adding terms in adm_iterate's order."""
    ws = [w0]
    for n in range(n_iterations):
        nxt = TermSum.zero()
        if n == 0 and source is not None:
            nxt = term_add(nxt, apply_Lt_inverse(source))
        nxt = term_add(nxt, apply_Lt_inverse(apply_Ls(ws[n], order, r)).scaled(-1.0))
        nxt = term_add(nxt, apply_Lt_inverse(ws[n]).scaled(eta))
        a_n = adomian_polynomials(nl, ws, n)
        ws.append(term_add(nxt, apply_Lt_inverse(a_n).scaled(-1.0)))
    return ws


NONLINEARITIES = {
    "cubic": {3: -0.2},
    "quadcubic": {2: 0.1, 3: -0.15},
}


class TestIncrementalPowers:
    @pytest.mark.parametrize("kind", sorted(NONLINEARITIES))
    def test_equal_to_rebuild(self, kind):
        rng = random.Random(kind)
        nl = PolynomialNonlinearity.from_dict(NONLINEARITIES[kind])
        M, r, eta, beta = (rng.uniform(0.5, 1.5), rng.uniform(0.05, 0.5),
                           rng.uniform(0.1, 0.6), rng.uniform(0.3, 0.95))
        w0 = ts((M, 1, 0))
        ws = adm_iterate(w0, FracOrder(beta), r, eta, nl=nl, n_iterations=20)
        assert ws == rebuilt_iterates(w0, FracOrder(beta), r, eta, nl, 20)
        # terms constant in s, which Ls drops, beside terms it keeps, and a
        # source on the same keys: w_1 adds all four contributions, whose
        # order changes the rounding (uniform(-1, 1) draws lie on a 2^-52
        # grid where sums are exact, hence the divisions)
        keys = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
        for _ in range(10):
            w0 = ts(*((rng.uniform(-1.0, 1.0) / 3.0, k, n) for k, n in keys))
            source = ts(*((rng.uniform(-1.0, 1.0) / 7.0, k, n) for k, n in keys))
            ws = adm_iterate(w0, FracOrder(beta), r, eta, nl=nl, source=source, n_iterations=4)
            assert ws == rebuilt_iterates(w0, FracOrder(beta), r, eta, nl, 4, source)

    @pytest.mark.parametrize("kind", sorted(NONLINEARITIES))
    @pytest.mark.parametrize("depth", [1, 6, 15])
    def test_products_per_call(self, kind, depth, monkeypatch):
        calls = []
        plain = terms.term_multiply

        def counting(x, y, *rest):
            calls.append(1)
            return plain(x, y, *rest)

        monkeypatch.setattr(terms, "term_multiply", counting)
        nl = PolynomialNonlinearity.from_dict(NONLINEARITIES[kind])
        adm_iterate(ts((1.0, 1, 0)), FracOrder(0.5), 0.2, 0.3, nl=nl, n_iterations=depth)
        # two powers (w^2, w^3), each extended by n + 1 products at step n
        assert len(calls) == depth * (depth + 1)


class TestEvaluate:
    def test_empty(self):
        assert evaluate(TermSum.zero(), 0.1, 1.0, 1.0) == 0.0

    def test_initial_term_at_origin(self):
        assert evaluate(ts((0.5322, 1, 0)), 0.04305, 0.0, 7.0) == 0.5322

    @pytest.mark.parametrize("t_power,s,t", [(0, 2000.0, 1.0), (3, 1.0, 1e300)])
    def test_overflow_is_domain_error(self, t_power, s, t):
        # e^{1000} overflows math.exp; t^3/3! at t = 1e300 is inf
        with pytest.raises(DomainError):
            evaluate(TermSum.single(1.0, 1, t_power), 0.5, s, t)

    def test_third_order_term(self):
        M, r, eta, beta, s, t = 2.0, 0.3, 0.8, 0.6, 1.5, 2.5
        c = (eta - r ** beta) ** 3 * M
        value = evaluate(ts((c, 1, 3)), r, s, t)
        assert value == pytest.approx(c * math.exp(r * s) * t ** 3 / 6.0, rel=1e-14)
