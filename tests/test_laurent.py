"""Core exact-arithmetic checks: Laurent polynomials and rational functions."""

import heapq
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symgroupoid
from symgroupoid.laurent import (
    GeneratorTable,
    LaurentPoly,
    Q,
    RationalFn,
    SingularPointError,
    _box,
    _grlex_max,
    exact_coefficient,
    exact_poly_div,
    point_plan,
    rational_evaluator,
)
from symgroupoid.quiver import Quiver, _poly_bracket, exchange_rows, poisson_bracket, skein_product

T = GeneratorTable(["w:a", "w:b", "w:c"])
W1 = GeneratorTable(["w:x"])


def gen(name, power=1, table=T):
    return LaurentPoly.generator(table, name, power)


def rf(p):
    return RationalFn.from_poly(p)


def test_bool_is_false_exactly_at_zero():
    # bool() is the one zero test of every exact value type
    w = gen("w:x", table=W1)
    one = LaurentPoly.one(W1)
    assert not LaurentPoly.zero(T) and not (w - w) and not LaurentPoly.constant(W1, 0)
    assert w and one and -one and LaurentPoly.constant(W1, Q(1, 3))
    quotient = RationalFn(w - one, w + one)
    assert quotient and rf(w) and not rf(w - w) and not quotient - quotient
    assert not RationalFn(w - w, w ** 2 + one)


def test_difference_of_squares():
    w = gen("w:x", table=W1)
    one = LaurentPoly.one(W1)
    assert (w + one) * (w - one) == w ** 2 - one


def test_division_keeps_normalized_pair():
    w = gen("w:x", table=W1)
    one = LaurentPoly.one(W1)
    f = rf(w ** 2 - one) / rf(w - one)
    # no gcd is taken: value stays a pair, but compares equal to w+1
    assert f == rf(w + one)
    at7 = f.evaluate({"w:x": Q(7)})
    assert at7 == Q(8)


def test_three_term_sum_common_denominator():
    # 1 + 1/d + 1/(de) with d = w_d^2, e = w_e^2
    t = GeneratorTable(["w:d", "w:e"])
    d = RationalFn.generator(t, "w:d", 2)
    e = RationalFn.generator(t, "w:e", 2)
    one = RationalFn.constant(t, 1)
    f = one + one / d + one / (d * e)
    # a Laurent value is stored as its Laurent polynomial over 1
    expected_num = (
        LaurentPoly.one(t)
        + LaurentPoly.monomial(t, 1, {"w:d": -2})
        + LaurentPoly.monomial(t, 1, {"w:d": -2, "w:e": -2})
    )
    assert f.num == expected_num
    assert f.den == LaurentPoly.one(t)
    assert f.den.content_exponents() == (0, 0)
    assert f.num.term_count() == 3
    assert f.as_laurent() is f.num


def test_division_by_zero_raises():
    w = gen("w:x", table=W1)
    with pytest.raises(ZeroDivisionError):
        rf(w) / RationalFn.constant(W1, 0)


def test_substitute_inversion():
    w = gen("w:x", table=W1)
    f = rf(w ** 2)
    g = f.substitute({"w:x": rf(w).inverse()})
    assert g == rf(w).inverse() ** 2
    # double substitution of an invertible monomial map returns the original
    h = g.substitute({"w:x": rf(w).inverse()})
    assert h == f


def test_substitute_exchange_rule():
    # 1 + z_f under w_f -> 1/w_f becomes 1 + 1/z_f
    t = GeneratorTable(["w:f", "w:a"])
    wf = RationalFn.generator(t, "w:f")
    wa = RationalFn.generator(t, "w:a")
    one = RationalFn.constant(t, 1)
    f2 = wf ** 2
    image = (one + f2).substitute({"w:f": wf.inverse(), "w:a": wa})
    assert image == one + f2.inverse()


def test_substitute_invertible_monomial_map_round_trip():
    t = GeneratorTable(["w:f", "w:a"])
    wf = RationalFn.generator(t, "w:f")
    wa = RationalFn.generator(t, "w:a")
    one = RationalFn.constant(t, 1)
    f = (wf ** 2 + wa * wf + one) / (wa - wf)
    # (f, a) -> (1/f, a f) is an involutive invertible monomial map
    sigma = {"w:f": wf.inverse(), "w:a": wa * wf}
    g = f.substitute(sigma)
    assert g != f
    assert g.substitute(sigma) == f


def test_substitute_square_bindings():
    wa, wb = gen("w:a"), gen("w:b")
    f = RationalFn(wa ** 4 * wb, wa ** 2 + LaurentPoly.one(T))
    z = rf(gen("w:c")) + 1
    # w:a^2 -> z, w:b -> w:b
    assert f.substitute({"w:b": rf(wb)}, {"w:a": z}) == z ** 2 * rf(wb) / (z + 1)
    with pytest.raises(ArithmeticError):
        rf(wa ** 3).substitute({}, {"w:a": z})
    with pytest.raises(KeyError):
        f.substitute({}, {"w:a": z})


def test_unbound_generator_raises():
    w = gen("w:x", table=W1)
    with pytest.raises(KeyError):
        rf(w).substitute({})


U = GeneratorTable(["w:x", "w:y"])


def _random_poly(rng, table, n_terms, lo, hi, positive):
    terms = {}
    while len(terms) < n_terms:
        exps = tuple(rng.randint(lo, hi) for _ in table)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        terms[exps] = c if positive or rng.random() < 0.5 else -c
    return LaurentPoly(table, terms)


def _random_binding(rng, kind):
    # positive coefficients: positive at a positive point, so no pole
    if kind == "monomial":
        return rf(_random_poly(rng, U, 1, -2, 2, True))
    if kind == "laurent":
        return RationalFn(_random_poly(rng, U, 3, -2, 2, True), _random_poly(rng, U, 1, -2, 2, True))
    return RationalFn(_random_poly(rng, U, 2, -1, 2, True), _random_poly(rng, U, 2, -1, 2, True))


@pytest.mark.parametrize("seed", range(24))
def test_substitute_matches_composed_evaluation(seed):
    # oracle: f(b)(pt) == f(b(pt)); f has negative exponents and a positive
    # denominator, monomial when seed % 4 == 0 and with up to three terms else
    rng = random.Random(seed)
    kinds = ("monomial", "laurent", "general")
    num = _random_poly(rng, T, rng.randint(1, 4), -3, 3, False)
    den = _random_poly(rng, T, 1 if seed % 4 == 0 else rng.randint(2, 3), -2, 2, True)
    square = seed % 3 == 0
    if square:
        # w:c enters with even exponents only and is bound at the squared level
        num = LaurentPoly(T, {(a, b, 2 * c): k for (a, b, c), k in num.terms.items()})
        den = LaurentPoly(T, {(a, b, 2 * c): k for (a, b, c), k in den.terms.items()})
    f = RationalFn(num, den)
    bind = {name: _random_binding(rng, kinds[(seed + j) % 3]) for j, name in enumerate(T.names)}
    pt = {name: Fraction(rng.randint(1, 7), rng.randint(1, 5)) for name in U.names}
    composed = {name: b.evaluate(pt) for name, b in bind.items()}
    if square:
        root = bind.pop("w:c")
        image = f.substitute(bind, {"w:c": root * root})
    else:
        image = f.substitute(bind)
    assert image.table == U
    assert image.evaluate(pt) == f.evaluate(composed)


def test_substitute_zero_binding():
    wa, wb = gen("w:a"), gen("w:b")
    x = RationalFn.generator(U, "w:x")
    zero = RationalFn.constant(U, 0)
    # only positive powers of w:a: its zero value is a value
    f = RationalFn(wa ** 2 + wb, wa + LaurentPoly.one(T))
    assert f.substitute({"w:a": zero, "w:b": x}) == x
    # a negative power of w:a has a pole at zero
    with pytest.raises(ZeroDivisionError):
        rf(gen("w:a", -2) + wb).substitute({"w:a": zero, "w:b": x})
    with pytest.raises(ZeroDivisionError):
        RationalFn(gen("w:a", -1) + wb, wb + LaurentPoly.one(T)).substitute({"w:a": zero, "w:b": x})


def test_substitute_odd_square_bound_exponent_in_the_denominator():
    wa, wb = gen("w:a"), gen("w:b")
    f = RationalFn(wb, wa ** 3 + LaurentPoly.one(T))
    with pytest.raises(ArithmeticError):
        f.substitute({"w:b": rf(wb)}, {"w:a": rf(wa) + 1})


@pytest.mark.parametrize("kind", ["monomial", "non-monomial"])
def test_substitute_rejects_a_binding_over_another_table(kind):
    f = rf(gen("w:a") + gen("w:b", -1))
    other = GeneratorTable(["w:x", "w:y", "w:z"])
    foreign = RationalFn.generator(other, "w:z", 2)
    if kind == "non-monomial":
        foreign = foreign + 1
    with pytest.raises(ValueError):
        f.substitute({"w:a": RationalFn.generator(U, "w:x"), "w:b": foreign})


def test_partial_derivatives():
    w = gen("w:x", table=W1)
    assert rf(w ** 2).derivative("w:x") == rf(w.scale(2))
    assert rf(w).inverse().derivative("w:x") == -(rf(w) ** -2)
    t = GeneratorTable(["w:1", "w:2"])
    w1 = RationalFn.generator(t, "w:1")
    w2 = RationalFn.generator(t, "w:2")
    f = (w1 + w2) / w1
    assert f.derivative("w:1") == -w2 / (w1 ** 2)


def test_derivative_matches_central_difference():
    t = GeneratorTable(["w:u", "w:v"])
    u = RationalFn.generator(t, "w:u")
    v = RationalFn.generator(t, "w:v")
    f = (u ** 2 * v + RationalFn.constant(t, 3)) / (u + v)
    h = Q(1, 10_000)
    p = {"w:u": Q(5, 3), "w:v": Q(7, 2)}
    exact = f.derivative("w:u").evaluate(p)
    up = f.evaluate({"w:u": p["w:u"] + h, "w:v": p["w:v"]})
    down = f.evaluate({"w:u": p["w:u"] - h, "w:v": p["w:v"]})
    approx = (up - down) / (2 * h)
    assert abs(approx - exact) < Q(1, 100_000)


def test_evaluate_at_singular_point():
    w = gen("w:x", table=W1)
    f = rf(LaurentPoly.one(W1)) / rf(w - LaurentPoly.one(W1))
    with pytest.raises(SingularPointError) as err:
        f.evaluate({"w:x": Q(1)})
    assert err.value.denominator == w - LaurentPoly.one(W1)


def test_rational_evaluator_over_several_functions():
    a, b, c = (rf(gen(n)) for n in T.names)
    one = RationalFn.constant(T, 1)
    fns = [a + one / b, (a + one) / (b * c), a / (b + c), one / (a - one), b * b / c]
    # stored forms: the Laurent values over 1, with negative exponents
    assert [f.is_laurent() for f in fns] == [True, True, False, False, True]
    assert fns[1].num == (gen("w:a") + LaurentPoly.one(T)) * gen("w:b", -1) * gen("w:c", -1)
    point = {"w:a": Q(3, 2), "w:b": Q(-2), "w:c": Q(5, 7)}
    expected = [Q(3, 2) + Q(-1, 2), Q(5, 2) / Q(-10, 7), Q(3, 2) / Q(-9, 7), Q(2), Q(4) / Q(5, 7)]
    assert rational_evaluator(fns)(point) == expected
    assert [f.evaluate(point) for f in fns] == expected
    pairs = rational_evaluator(fns)(point, gradient=True)
    assert [v for v, _ in pairs] == expected
    for f, (_, grads) in zip(fns, pairs):
        assert grads == [point[n] * f.derivative(n).evaluate(point) for n in T.names]
    # the first function without a value names its denominator: a stored one,
    # or, at a zero coordinate under a numerator's negative exponent, the
    # stored one times the monomial that clears those exponents
    for gradient in (False, True):
        at_pole = {"w:a": Q(1), "w:b": Q(0), "w:c": Q(2)}
        for order, named in (
            ([0, 3, 1], gen("w:b")),
            ([3, 0, 1], gen("w:a") - LaurentPoly.one(T)),
            ([4, 1], gen("w:b") * gen("w:c")),
            ([2, 0], gen("w:b")),
        ):
            with pytest.raises(SingularPointError) as err:
                rational_evaluator([fns[k] for k in order])(at_pole, gradient)
            assert err.value.denominator == named, order
    # off the poles, values at a zero coordinate are exact
    zero_b = {"w:a": Q(2), "w:b": Q(0), "w:c": Q(3)}
    assert rational_evaluator([fns[2], fns[4], fns[3]])(zero_b) == [Q(2, 3), Q(0), Q(1)]


def test_w_over_w_at_seven():
    w = gen("w:x", table=W1)
    f = rf(w) / rf(w)
    assert f.evaluate({"w:x": Q(7)}) == 1


def test_negative_monomial_power():
    m = LaurentPoly.monomial(T, Fraction(2), {"w:a": 2, "w:b": -1})
    assert m ** -2 == LaurentPoly.monomial(T, Fraction(1, 4), {"w:a": -4, "w:b": 2})
    with pytest.raises(ArithmeticError):
        (m + LaurentPoly.one(T)) ** -1


def test_monomial_refuses_a_non_integer_exponent():
    # int(e) used to truncate: an exponent 1/2 gave the constant 1, and 2.9 gave w_a^2
    for bad in (Fraction(1, 2), 2.9, Fraction(4, 2), True, "2"):
        with pytest.raises(ValueError, match="exponent of w:a"):
            LaurentPoly.monomial(T, 1, {"w:a": bad})
    assert LaurentPoly.monomial(T, Q(1, 2), {"w:a": -3, "w:c": 2}).terms == {(-3, 0, 2): Q(1, 2)}


def test_constructor_refuses_a_key_that_is_not_one_int_per_generator():
    # such keys used to be kept: the square of {(1,): 1} was {(2,): 1}
    for key in ((1,), (1, 0, 0, 0), (0.5, 1, 0), (True, 1, 0), (Fraction(1), 1, 0), ("1", 0, 0)):
        with pytest.raises(ValueError, match="one exponent per generator"):
            LaurentPoly(T, {key: 1})
    # a zero coefficient does not excuse its key
    with pytest.raises(ValueError, match="one exponent per generator"):
        LaurentPoly(T, {(0, 0, 0): 1, (1,): 0})
    assert LaurentPoly(T, {(1, 0, -2): 3, (0, 0, 0): 0}).terms == {(1, 0, -2): 3}


def test_a_product_by_one_is_the_other_operand():
    one = LaurentPoly.one(T)
    half = LaurentPoly.monomial(T, Q(1, 2), {"w:a": 1, "w:c": -2})
    polys = [LaurentPoly.zero(T), one, gen("w:b"), half, half + gen("w:a", -1) + one]
    for p in polys:
        terms, h = dict(p.terms), hash(p)
        assert p * one is p and one * p is p
        # the shared operand is never written: results built on it copy it
        for q in (p * one, one * p):
            assert q + gen("w:c") - gen("w:c") == p and -(-q) == p and q * half * half ** -1 == p
        assert p.terms == terms and hash(p) == h
    # a product of operands other than 1 by a monomial builds a new polynomial
    others = [LaurentPoly.constant(T, 2), LaurentPoly.constant(T, -1), LaurentPoly.constant(T, Q(1, 3)), gen("w:a"), gen("w:c", -1)]
    for m in others:
        for p in polys[2:]:
            for product in (p * m, m * p):
                assert product is not p and product is not m
                assert product.terms == _reference_product(p, m)


def test_positive_powers_start_from_the_base(monkeypatch):
    # powers used to start from one, so p ** k made one product too many
    p = gen("w:a") + gen("w:b", -1)
    calls = []
    mul = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    for k, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2)):
        calls.clear()
        power = p ** k
        assert len(calls) == products, k
        expected = LaurentPoly.one(T)
        for _ in range(k):
            expected = mul(expected, p)
        assert power == expected


def test_equality_with_a_rational_function_is_symmetric():
    # LaurentPoly.__eq__ used to answer False for a RationalFn, so p == rf(p)
    # was False while rf(p) == p was True
    p = gen("w:a") + LaurentPoly.one(T)
    assert p == rf(p) and rf(p) == p
    assert not p != rf(p) and not rf(p) != p
    assert p != rf(p + p) and rf(p + p) != p
    assert not p == rf(p + p) and not rf(p + p) == p
    assert p != 0 and not p == 0


def test_rationalfn_normalization_invariants():
    w = gen("w:x", table=W1)
    one = LaurentPoly.one(W1)
    f = RationalFn(w + one, (w ** 3).scale(-2))
    # the denominator has no monomial content and a positive leading
    # coefficient; a monomial denominator becomes 1, its content in the numerator
    assert f.den.content_exponents() == (0,)
    assert f.den.leading_coefficient() > 0
    assert f.den == one and f.num == (w + one).shift((-3,)).scale(Q(-1, 2))
    g = RationalFn(w ** 2 - one, w ** 5 - w ** 3)
    assert g.den.content_exponents() == (0,)
    assert g.den == w ** 2 - one and g.num == (w ** 2 - one).shift((-3,))


def test_denominator_content_is_divided_out():
    # 6x / 4x keeps no integer content: constants end over 1, so repeated
    # division of constant rational functions does not grow their integers
    w = gen("w:x", table=W1)
    one = LaurentPoly.one(W1)
    f = RationalFn(w.scale(6), w.scale(4))
    assert f.num == LaurentPoly.constant(W1, Q(3, 2)) and f.den == one
    g = RationalFn(w + one, (w ** 2).scale(Q(-4, 3)) + w.scale(Q(2, 9)))
    assert g.den == w.scale(6) - one and g.num == (w + one).shift((-1,)).scale(Q(-9, 2))
    assert g.den.content_exponents() == (0,)
    assert g == RationalFn(w + one, one) / RationalFn((w ** 2).scale(Q(-4, 3)) + w.scale(Q(2, 9)), one)
    c = RationalFn.constant(W1, Q(5, 7))
    for _ in range(6):
        c = c / RationalFn.constant(W1, Q(7, 5)) * RationalFn.constant(W1, Q(7, 5))
    assert c.num == LaurentPoly.constant(W1, Q(5, 7)) and c.den == one


def test_text_and_json_round_trip():
    p = (
        LaurentPoly.monomial(T, Fraction(3, 7), {"w:a": 2, "w:c": -5})
        + LaurentPoly.monomial(T, Fraction(-1), {"w:b": 1})
        + LaurentPoly.constant(T, Fraction(11, 2))
    )
    # the text form the CLI prints
    assert p.to_text() == "3/7 * w:a^2 * w:c^-5 + 11/2 + -1 * w:b"
    assert LaurentPoly.from_json(T, p.to_json()) == p
    f = RationalFn(p, LaurentPoly.monomial(T, 2, {"w:a": 1}) + LaurentPoly.one(T))
    assert RationalFn.from_json(T, f.to_json()) == f


def test_exact_poly_div():
    w = gen("w:x", table=W1)
    one = LaurentPoly.one(W1)
    assert exact_poly_div(w ** 2 - one, w - one) == w + one
    assert exact_poly_div(w ** 2 + one, w - one) is None


@pytest.mark.parametrize("n", [23, 30])
def test_exact_poly_div_geometric_sum(n):
    # a step-count cap once gave up on these exact quotients (n >= 23)
    w = gen("w:x", table=W1)
    one = LaurentPoly.one(W1)
    quotient = sum((w ** k for k in range(1, n)), one)
    assert exact_poly_div(w ** n - one, w - one) == quotient
    assert exact_poly_div(w ** n + one, w - one) is None


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)


@st.composite
def laurent_polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(3))
        terms[exps] = draw(small_fractions)
    return LaurentPoly(T, terms)


@given(laurent_polys(), laurent_polys(), laurent_polys())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(laurent_polys())
@settings(max_examples=30, deadline=None)
def test_evaluate_commutes_with_arithmetic(a):
    p = {"w:a": Q(3, 2), "w:b": Q(5), "w:c": Q(7, 3)}
    b = LaurentPoly.monomial(T, Fraction(2), {"w:a": 1}) + LaurentPoly.one(T)
    assert rf(a * b).evaluate(p) == rf(a).evaluate(p) * rf(b).evaluate(p)
    assert rf(a + b).evaluate(p) == rf(a).evaluate(p) + rf(b).evaluate(p)


@given(laurent_polys(), laurent_polys())
@settings(max_examples=60, deadline=None)
def test_exact_poly_div_recovers_factor(p, q):
    if not q:
        return
    assert exact_poly_div(p * q, q) == p


@given(laurent_polys(), laurent_polys(), st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3), small_fractions)
@settings(max_examples=100, deadline=None)
def test_normal_form_ignores_a_common_monomial(p, q, exps, c):
    # the stored pair depends on the ratio up to a common monomial: only the
    # denominator's monomial content is shifted away, and its rational content
    if not (q and c):
        return
    m = LaurentPoly(T, {exps: c})
    f, g = RationalFn(p, q), RationalFn(p * m, q * m)
    assert (g.num, g.den) == (f.num, f.den)
    assert f.den.content_exponents() == (0, 0, 0) and f.den.leading_coefficient() > 0


@given(laurent_polys(), st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3), small_fractions)
@settings(max_examples=100, deadline=None)
def test_a_monomial_denominator_is_stored_as_one(p, exps, c):
    if not c:
        return
    q = LaurentPoly(T, {exps: c})
    f = RationalFn(p, q)
    assert f.den == LaurentPoly.one(T) and f.num == p * q ** -1
    assert f.is_laurent() and f.as_laurent() is f.num


exponent_vectors = st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3)


@st.composite
def normalized_fns(draw):
    """A RationalFn in normal form, made from inputs that are not: a
    denominator scaled by a fraction of either sign and shifted (one term
    makes a Laurent value), put together by the validating constructor or by
    a quotient, or a Laurent polynomial over 1."""
    num = draw(laurent_polys())
    den = draw(laurent_polys().filter(bool)).scale(draw(small_fractions.filter(bool))).shift(draw(exponent_vectors))
    how = draw(st.sampled_from(["constructor", "quotient", "from_poly"]))
    if how == "constructor":
        return RationalFn(num, den)
    if how == "quotient":
        return rf(num) / rf(den)
    return rf(num)


def _assert_normal(r):
    # field by field what the validating constructor makes of the pair
    s = RationalFn(r.num, r.den)
    assert (r.num, r.den) == (s.num, s.den), r
    assert _well_formed(r.num) and _well_formed(r.den)


@given(normalized_fns(), normalized_fns(), st.sampled_from(["free", "negated"]), st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_closed_operations_keep_the_normal_form(f, g, relation, k):
    # sums, differences, products and powers of normal forms are stored as
    # they come (RationalFn._of); quotients and inverses are normalized
    if relation == "negated":
        g = -f  # f + g is zero: its denominator must become 1
    results = [f, g, f + g, g + f, f - g, g - f, f - f, f * g, f * 0, -f, f ** k, rf(f.num), rf(f.den)]
    results += [f.derivative(name) for name in T.names]
    results.append(poisson_bracket(f, g, CHAIN))
    if g:
        results += [f / g, g.inverse(), g ** -k]
    for r in results:
        _assert_normal(r)
    # the values are those of the pairs the validating constructor takes
    assert f + g == RationalFn(f.num * g.den + g.num * f.den, f.den * g.den)
    assert f - g == RationalFn(f.num * g.den - g.num * f.den, f.den * g.den)
    assert f * g == RationalFn(f.num * g.num, f.den * g.den)
    assert f ** k == RationalFn(f.num ** k, f.den ** k)


@st.composite
def u_values(draw):
    """A nonzero rational function on U: a ratio of small Laurent polynomials."""
    parts = []
    for _ in range(2):
        terms = {}
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            exps = tuple(draw(st.integers(min_value=-1, max_value=1)) for _ in range(2))
            terms[exps] = draw(small_fractions.filter(bool))
        part = LaurentPoly(U, terms)
        parts.append(part if part else LaurentPoly.one(U))
    return RationalFn(*parts)


positive_fractions = st.fractions(min_value=Q(1, 4), max_value=4, max_denominator=5).filter(bool)


@given(
    laurent_polys(),
    laurent_polys(),
    st.lists(u_values(), min_size=3, max_size=3),
    st.tuples(positive_fractions, positive_fractions),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_substitute_agrees_with_evaluation_at_the_substituted_point(p, q, values, at, square):
    # numerators carry negative exponents; w:c is bound at the squared level
    # (to the square of its value, so its value is a root) when ``square``
    if not q:
        return
    if square:
        p, q = (LaurentPoly(T, {(a, b, 2 * e): k for (a, b, e), k in x.terms.items()}) for x in (p, q))
    f = RationalFn(p, q)
    point = dict(zip(U.names, at))
    try:
        image_point = dict(zip(T.names, rational_evaluator(values)(point)))
        if not all(image_point.values()):
            return
        expected = f.evaluate(image_point)
    except SingularPointError:
        return
    plain = dict(zip(T.names, values))
    squares = {}
    if square:
        squares["w:c"] = plain.pop("w:c") ** 2
    assert f.substitute(plain, squares).evaluate(point) == expected


def test_exact_poly_div_with_negative_exponents_throughout():
    # divisor, dividend and quotient all have negative exponents in every
    # generator they use: the division runs on them as they are
    p = gen("w:a", -2) * gen("w:b", -1) + LaurentPoly.monomial(T, Q(3, 2), {"w:c": -3}) + gen("w:a", -1)
    q = gen("w:a", -1) - LaurentPoly.monomial(T, 2, {"w:b": -2, "w:c": -1})
    assert all(e < 0 for exps in q.terms for e in exps if e)
    assert exact_poly_div(p * q, q) == p
    assert exact_poly_div(p * q, p) == q
    assert exact_poly_div(p * q, q * gen("w:b", -3)) == p * gen("w:b", 3)


def test_exact_poly_div_refuses_a_monomial_below_the_quotient_box():
    # the added monomial lies below every term of the product; the quotient
    # exponent it asks for is below min(n) - min(d), so the division stops there
    w = gen("w:x", table=W1)
    one = LaurentPoly.one(W1)
    p, q = w + one, w ** 2 - w + one
    low = LaurentPoly.generator(W1, "w:x", -5)
    assert exact_poly_div(p * q + low, q) is None
    assert exact_poly_div(p * q + low.scale(Q(1, 3)), q) is None
    u = gen("w:a", -1) + gen("w:b", 2)
    v = gen("w:c") - gen("w:a", -2)
    assert exact_poly_div(u * v + gen("w:a", -4) * gen("w:c", -1), v) is None


def test_exact_poly_div_refuses_an_empty_quotient_box():
    # the divisor spans more degrees of some generator than the dividend, so
    # no quotient fits between min(n) - min(d) and max(n) - max(d)
    one = LaurentPoly.one(T)
    assert exact_poly_div(gen("w:a", 2) + gen("w:b"), gen("w:a", 3) + one) is None
    assert exact_poly_div(gen("w:c", -1) + gen("w:a"), gen("w:c", -2) + gen("w:c")) is None
    p = gen("w:a", 4) * gen("w:b", -3) + gen("w:c", 2) + one
    assert exact_poly_div(p, gen("w:b", 2) - gen("w:b", -2)) is None
    # the box of the dividend itself is never empty
    assert exact_poly_div(p, p) == one


@given(laurent_polys(), laurent_polys())
@settings(max_examples=60, deadline=None)
def test_degree_boxes_add_under_multiplication(p, q):
    # per generator, the lowest and highest degrees of a product are the sums
    # of its factors', so an exact quotient's box is never empty
    if not (p and q):
        return
    assert _box((p * q).terms) == [(a + c, b + d) for (a, b), (c, d) in zip(_box(p.terms), _box(q.terms))]


@given(laurent_polys(), laurent_polys(), st.tuples(*[st.integers(min_value=-6, max_value=6)] * 3), small_fractions)
@settings(max_examples=150, deadline=None)
def test_exact_poly_div_of_a_perturbed_product(p, q, exps, c):
    # never a false quotient: None, or a quotient that multiplies back
    if not q:
        return
    n = p * q + LaurentPoly(T, {exps: c})
    quotient = exact_poly_div(n, q)
    assert quotient is None or quotient * q == n


def test_equal_rational_functions_are_not_two_set_members():
    x = rf(gen("w:a")) + rf(LaurentPoly.one(T))
    a, b = x / x, RationalFn.constant(T, 1)
    assert a == b
    try:
        members = {a, b}
    except TypeError:
        return  # unhashable: no set can hold them at all
    assert len(members) == 1


def _reference_value(p, point):
    total = Fraction(0)
    for exps, c in p.terms.items():
        term = c
        for name, e in zip(p.table.names, exps):
            if e:
                term *= Fraction(point[name]) ** e
        total += term
    return total


coordinates = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
)


def _pass_values(p, point):
    """The value and Euler gradient of p at a real point, read off one run of
    its point plan."""
    num, den, ((value, partials),) = point_plan([p])(point, gradient=True)
    return Fraction(value * num, den), [Fraction(x * num, den) for x in partials]


@given(laurent_polys(), st.lists(coordinates, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_euler_gradient_matches_fraction_reference(p, coords):
    # the Euler partial w_i * dp/dw_i against w_i times the derivative's value
    point = dict(zip(T.names, coords))
    try:
        expected = (
            _reference_value(p, point),
            [point[n] * _reference_value(p.derivative(n), point) for n in T.names],
        )
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            point_plan([p])(point, gradient=True)
        with pytest.raises(SingularPointError):
            rf(p).evaluate(point)
        return
    assert _pass_values(p, point) == expected
    value = rf(p).evaluate(point)
    assert value == expected[0] and type(value) is Fraction


@given(laurent_polys(), laurent_polys(), st.lists(coordinates, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_rational_euler_gradient_matches_derivative_oracle(p, q, coords):
    # the quotient rule over one shared pass, against w_i times the derivative
    # values of num and den combined in field arithmetic
    if not q:
        return
    f = RationalFn(p, q)
    point = dict(zip(T.names, coords))
    # num and den times the monomial w^s that clears num's negative exponents:
    # the same value with no negative exponent, so a pole on a zero coordinate
    # shows as a vanishing denominator
    clear = tuple(max(0, -e) for e in f.num.content_exponents())
    num, den = f.num.shift(clear), f.den.shift(clear)
    nv, dv = _reference_value(num, point), _reference_value(den, point)
    if not dv:
        with pytest.raises(SingularPointError) as err:
            rational_evaluator([f])(point, gradient=True)
        assert err.value.denominator == den
        return
    dn = [point[n] * _reference_value(num.derivative(n), point) for n in T.names]
    dd = [point[n] * _reference_value(den.derivative(n), point) for n in T.names]
    ((value, grads),) = rational_evaluator([f])(point, gradient=True)
    assert value == nv / dv == f.evaluate(point)
    assert grads == [(a * dv - nv * b) / (dv * dv) for a, b in zip(dn, dd)]
    # a Fraction value has Fraction partials
    assert type(value) is Fraction and all(type(g) is Fraction for g in grads)


def test_a_coordinate_off_both_axes_is_refused():
    # a coordinate is an int or a Fraction; a complex one is a TypeError from
    # the pass and from every entry above it
    p = gen("w:a") * gen("w:b") + gen("w:c", -1)
    f = RationalFn(p, gen("w:a") + LaurentPoly.one(T))
    point = {"w:a": Fraction(2, 3) - 1j, "w:b": Q(2), "w:c": Q(3)}
    for gradient in (False, True):
        with pytest.raises(TypeError, match="not an exact rational"):
            point_plan([p])(point, gradient)
        with pytest.raises(TypeError, match="not an exact rational"):
            rational_evaluator([f])(point, gradient)
    with pytest.raises(TypeError, match="not an exact rational"):
        rf(p).evaluate(point)
    # a coordinate the terms do not use is not read
    assert rf(gen("w:b")).evaluate(point) == 2


def test_zero_coordinate_under_negative_exponent_raises():
    p = LaurentPoly.monomial(T, Fraction(1), {"w:a": -1}) + gen("w:b")
    point = {"w:a": Q(0), "w:b": Q(2), "w:c": Q(3)}
    # the kernel's pole is a ZeroDivisionError; the public path names the
    # denominator that vanishes there, w:a once the numerator is cleared
    with pytest.raises(ZeroDivisionError):
        point_plan([p])(point, gradient=True)
    with pytest.raises(SingularPointError) as err:
        rf(p).evaluate(point)
    assert err.value.denominator == gen("w:a")
    # a zero coordinate under nonnegative exponents is an ordinary point; its
    # own Euler partial w_a * dq/dw_a is zero there
    q = gen("w:a") * gen("w:b") + gen("w:a", 2) + gen("w:b") * gen("w:c")
    assert _pass_values(q, point) == (Q(6), [Q(0), Q(6), Q(6)])


def test_zero_coordinate_goes_through_the_power_table():
    # the table of a = 0 holds 0**e, and the pass's scale stays nonzero
    point = {"w:a": Q(0), "w:b": Q(2), "w:c": Q(3)}
    q = gen("w:a") * gen("w:b") + gen("w:a", 2) + gen("w:b") * gen("w:c")
    # a lone polynomial whose lowest exponent of the zero coordinate is
    # positive: every term vanishes, and so does every partial
    r = gen("w:a", 2) * gen("w:c", -1) + LaurentPoly.monomial(T, Q(5, 2), {"w:a": 3, "w:b": 1})
    assert _pass_values(r, point) == (Q(0), [Q(0), Q(0), Q(0)])
    assert rf(r).evaluate(point) == 0 and rf(gen("w:a", 4)).evaluate(point) == 0
    # beside a polynomial that does not use it, in one pass
    assert rational_evaluator([rf(r), rf(q)])(point, gradient=True) == [
        (Q(0), [Q(0), Q(0), Q(0)]),
        (Q(6), [Q(0), Q(6), Q(6)]),
    ]


def test_power_tables_follow_the_exponents_that_occur():
    # a table over the whole span 0..100000 held 10^5 integers of up to 160 000
    # bits, and 1 + w^100000 at 3/2 ran out of a 512 MiB address space
    code = textwrap.dedent(
        """
        import resource
        from fractions import Fraction

        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, hard))
        from symgroupoid.laurent import GeneratorTable, LaurentPoly, RationalFn

        p = LaurentPoly(GeneratorTable(["w:x"]), {(0,): 1, (100000,): 1})
        expected = 1 + Fraction(3, 2) ** 100000
        assert RationalFn.from_poly(p).evaluate({"w:x": Fraction(3, 2)}) == expected
        """
    )
    package_root = str(Path(symgroupoid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]


def test_rational_evaluate_makes_one_point_pass(point_plans):
    # numerator and denominator share one plan, run once; it used to be one
    # pass each
    f = RationalFn(gen("w:a") + gen("w:b", 2), gen("w:c") + LaurentPoly.one(T))
    assert f.evaluate({"w:a": Q(1), "w:b": Q(1, 2), "w:c": Q(3)}) == Q(5, 16)
    assert point_plans == [[[f.num, f.den], 1]]


def _row_value(num, den, row):
    value, partials = row
    return Fraction(value * num, den), partials and [Fraction(x * num, den) for x in partials]


def _assert_one_pass_is_many(polys, point, gradient=False):
    """One pass over ``polys`` against one pass per polynomial and the
    term-by-term reference."""
    num, den, rows = point_plan(polys)(point, gradient)
    assert len(rows) == len(polys)
    for p, row in zip(polys, rows):
        value, partials = _row_value(num, den, row)
        n1, d1, (alone,) = point_plan([p])(point, gradient)
        assert (value, partials) == _row_value(n1, d1, alone)
        assert value == _reference_value(p, point)
        if gradient:
            assert partials == [point[n] * _reference_value(p.derivative(n), point) for n in T.names]
    return rows


@given(st.lists(laurent_polys(), max_size=5), st.lists(coordinates, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_one_point_pass_over_several_polynomials(polys, coords):
    point = dict(zip(T.names, coords))
    try:
        for p in polys:
            _reference_value(p, point)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            point_plan(polys)(point)
        return
    _assert_one_pass_is_many(polys, point, gradient=True)


def test_one_point_pass_shares_columns_across_polynomials():
    one = LaurentPoly.one(T)
    a, b, c = gen("w:a"), gen("w:b"), gen("w:c")
    # w:a is constant in the first polynomial and varies in the second; the
    # third is empty
    polys = [
        a * a * (b + c.scale(3)),
        a + gen("w:a", -1) * b + one,
        LaurentPoly.zero(T),
        b.scale(Q(1, 2)) + one,
        c * c * b + c - one,
    ]
    real = {"w:a": Q(2, 3), "w:b": Q(-5), "w:c": Q(7, 2)}
    rows = _assert_one_pass_is_many(polys, real, gradient=True)
    assert rows[2] == (0, [0, 0, 0])
    rows = _assert_one_pass_is_many(polys, real)
    assert rows[2] == (0, None)


def test_one_point_pass_refuses_as_a_pass_per_polynomial():
    one = LaurentPoly.one(T)
    a, b, c = gen("w:a"), gen("w:b"), gen("w:c")
    polys = [a + one, LaurentPoly.zero(T), b * gen("w:c", -1)]
    # a generator one polynomial uses and the point lacks
    with pytest.raises(KeyError, match="no value for generator 'w:c'"):
        point_plan(polys)({"w:a": Q(1), "w:b": Q(2)})
    # a coordinate that is neither an int nor a Fraction: a float, a bool, or
    # a complex number off the real line
    for bad in (1.5, True, 2j, 1 + 1j):
        for gradient in (False, True):
            with pytest.raises(TypeError, match="not an exact rational"):
                point_plan(polys)({"w:a": bad, "w:b": Q(2), "w:c": Q(3)}, gradient)
    # zero under a negative exponent in the last polynomial only
    with pytest.raises(ZeroDivisionError):
        point_plan(polys)({"w:a": Q(1), "w:b": Q(2), "w:c": Q(0)})
    # the same coordinate under non-negative exponents is an ordinary point
    rows = _assert_one_pass_is_many([c * c + a, polys[0], c], {"w:a": Q(1), "w:b": Q(2), "w:c": Q(0)}, True)
    assert rows[2][0] == 0
    with pytest.raises(ValueError, match="mixed generator tables"):
        point_plan([a, gen("w:x", table=W1)])


@given(st.lists(laurent_polys(), max_size=4), st.lists(st.lists(coordinates, min_size=3, max_size=3), min_size=2, max_size=4))
@settings(max_examples=100, deadline=None)
def test_one_plan_at_many_points_matches_a_pass_at_each(polys, coords):
    # a plan keeps nothing of one point for the next: each run gives what a
    # fresh pass gives there, or raises as it does
    run = point_plan(polys)
    for point in (dict(zip(T.names, c)) for c in coords):
        for gradient in (False, True):
            try:
                expected = point_plan(polys)(point, gradient)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    run(point, gradient)
                continue
            assert run(point, gradient) == expected


def test_power_lists_by_exponent_and_by_position():
    # a column whose exponents from min(lo, 0) to max(hi, 0) are no more than
    # its terms is read through a list indexed by the exponent itself: w:a
    # takes 0 to 3 and w:b -3 to -1 here (the other tests mix signs); w:c,
    # from -40 to 40 over 8 terms, through its exponents' positions
    a, b, c = gen("w:a"), gen("w:b", -1), gen("w:c")
    polys = [
        a * b + gen("w:a", 2) * gen("w:b", -3) + gen("w:a", 3) * gen("w:b", -2) * gen("w:c", 40),
        b * a + (c * b).scale(Q(5, 3)) - gen("w:b", -2),
        gen("w:c", -40) * b + a * gen("w:b", -2),
    ]
    assert sorted({e[1] for p in polys for e in p.terms}) == [-3, -2, -1]
    run = point_plan(polys)
    for point in (
        {"w:a": Q(2, 3), "w:b": Q(-5), "w:c": Q(7, 2)},
        {"w:a": 3, "w:b": Q(1, 4), "w:c": -1},
        {"w:a": 0, "w:b": Q(1, 4), "w:c": -1},
    ):
        num, den, rows = run(point, gradient=True)
        for p, row in zip(polys, rows):
            value, partials = _row_value(num, den, row)
            assert value == _reference_value(p, point)
            assert partials == [point[n] * _reference_value(p.derivative(n), point) for n in T.names]


def _evaluator_functions():
    a, b, c = (rf(gen(n)) for n in T.names)
    one = RationalFn.constant(T, 1)
    return [a + one / b, (a + one) / (b * c), a / (b + c), one / (a - one), b * b / c]


def test_one_evaluator_at_many_points_matches_a_fresh_evaluation():
    # int, Fraction and zero coordinates, with and without gradients, through
    # one evaluator in turn
    fns = _evaluator_functions()
    evaluate = rational_evaluator(fns)
    points = [
        {"w:a": 3, "w:b": -2, "w:c": 5},
        {"w:a": Q(3, 2), "w:b": Q(-2), "w:c": Q(5, 7)},
        {"w:a": 0, "w:b": Q(1, 3), "w:c": 4},
        {"w:a": Q(-7, 3), "w:b": 6, "w:c": Q(1, 9)},
    ]
    for gradient in (False, True, False):
        for point in points:
            assert evaluate(point, gradient) == rational_evaluator(fns)(point, gradient)
    assert rational_evaluator([])({}) == []


def test_evaluator_errors_are_raised_by_the_run_that_meets_them():
    fns = _evaluator_functions()
    evaluate = rational_evaluator(fns)
    good = {"w:a": Q(3, 2), "w:b": Q(-2), "w:c": Q(5, 7)}
    at_pole = {"w:a": Q(1), "w:b": Q(0), "w:c": Q(2)}
    with pytest.raises(SingularPointError) as fresh:
        rational_evaluator(fns)(at_pole)
    assert fresh.value.denominator == gen("w:b")
    for gradient in (False, True):
        expected = rational_evaluator(fns)(good, gradient)
        for bad, error, message in (
            ({"w:a": 1, "w:b": 2}, KeyError, "no value for generator 'w:c'"),
            ({"w:a": 1, "w:b": 1.5, "w:c": 3}, TypeError, "not an exact rational"),
            ({"w:a": 1, "w:b": 2, "w:c": True}, TypeError, "not an exact rational"),
            (at_pole, SingularPointError, "vanishes"),
            (at_pole, SingularPointError, "vanishes"),
        ):
            with pytest.raises(error, match=message) as err:
                evaluate(bad, gradient)
            if error is SingularPointError:
                # the zero w:b sits under the first numerator's negative exponent
                assert err.value.denominator == fresh.value.denominator
            assert evaluate(good, gradient) == expected
    # a generator no term uses need not have a value, nor a rational one
    first_and_fourth = rational_evaluator([fns[0], fns[3]])
    for unused in ({}, {"w:c": 1.5}):
        assert first_and_fourth({"w:a": 2, "w:b": 3, **unused}) == [Q(7, 3), Q(1)]


def test_evaluator_builds_the_cleared_plan_once(point_plans):
    # one plan for the stored pairs; the cleared pairs get theirs at the first
    # point that needs them, and keep it
    fns = _evaluator_functions()
    evaluate = rational_evaluator(fns)
    good = {"w:a": Q(3, 2), "w:b": Q(-2), "w:c": Q(5, 7)}
    zero_a = {"w:a": 0, "w:b": Q(1, 3), "w:c": 4}
    at_pole = {"w:a": Q(1), "w:b": Q(0), "w:c": Q(2)}
    evaluate(good)
    evaluate(zero_a, gradient=True)
    assert [(len(polys), runs) for polys, runs in point_plans] == [(10, 2)]
    for _ in range(2):
        with pytest.raises(SingularPointError):
            evaluate(at_pole)
        evaluate(good)
    assert [(len(polys), runs) for polys, runs in point_plans] == [(10, 6), (10, 2)]


def _exact_coefficient_ok(c):
    """A coefficient is an int (not a bool) when integral, else a Fraction with denominator > 1."""
    return type(c) is int or (isinstance(c, Fraction) and c.denominator > 1)


def _all_coefficients_exact(p):
    return all(_exact_coefficient_ok(c) for c in p.terms.values())


def _well_formed(p):
    """Every key a tuple of table length, every coefficient nonzero and exact."""
    n = len(p.table)
    return all(type(e) is tuple and len(e) == n for e in p.terms) and all(
        c and _exact_coefficient_ok(c) for c in p.terms.values()
    )


def test_inexact_coefficient_is_rejected():
    with pytest.raises(TypeError):
        LaurentPoly.constant(T, True)
    with pytest.raises(TypeError):
        LaurentPoly.one(T).scale(True)
    with pytest.raises(TypeError):
        LaurentPoly.constant(T, 0.5)


def test_shift_takes_a_vector_of_the_table_length():
    p = gen("w:a") + gen("w:c", -1)
    assert p.shift((1, 0, 2)).terms == {(2, 0, 2): 1, (1, 0, 1): 1}
    for bad in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError):
            p.shift(bad)


def test_exact_coefficient_keeps_an_exact_fraction():
    half = Fraction(1, 2)
    assert exact_coefficient(half) is half
    two = exact_coefficient(Fraction(4, 2))
    assert two == 2 and type(two) is int
    for bad in (True, 0.5, None):
        with pytest.raises(TypeError):
            exact_coefficient(bad)


def _reference_product(a, b):
    """a * b on Fraction coefficients, one term pair at a time."""
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            terms[key] = terms.get(key, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in terms.items() if c}


integer_half_third = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6).map(lambda k: Fraction(k, 2)),
    st.integers(min_value=-6, max_value=6).map(lambda k: Fraction(k, 3)),
)


@st.composite
def integer_half_third_polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(3))
        terms[exps] = draw(integer_half_third)
    return LaurentPoly(T, terms)


@given(
    integer_half_third_polys(),
    integer_half_third_polys(),
    integer_half_third.filter(bool),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_coefficients_are_ints_when_integral(a, b, c, k):
    assert _well_formed(a) and _well_formed(b)
    product = a * b
    assert product.terms == _reference_product(a, b)
    results = [a + b, a - b, -a, a + a, a - a, product, a.scale(c), a.shift((1, -2, 0)), a.derivative("w:b")]
    mono = LaurentPoly.monomial(T, c, {"w:a": 1, "w:c": -2})
    assert (mono ** -k).terms == {(-k, 0, 2 * k): Fraction(c) ** -k}
    # a one-term operand on either side
    for x, y in ((mono, b), (b, mono)):
        assert (x * y).terms == _reference_product(x, y)
        results.append(x * y)
    results += [mono ** k, mono ** -k]
    rows = exchange_rows(CHAIN, T)
    results += [_poly_bracket(a, b, rows), _poly_bracket(a, b, rows, 4), _poly_bracket(mono, b, rows, 4)]
    if b:
        quotient = exact_poly_div(product, b)
        assert quotient == a
        results.append(quotient)
    for p in results:
        assert _well_formed(p), p.terms


# a quiver on the generators of T, with a half-weight arrow
CHAIN = Quiver.from_arrows(["a", "b", "c"], [("a", "b", 2), ("b", "c", 1), ("c", "a", 4)])


def test_one_term_products_are_well_formed():
    # (1/2 w_a) * (2 w_b + 4) has integral coefficients, which are ints
    half = LaurentPoly.monomial(T, Q(1, 2), {"w:a": 1})
    p = LaurentPoly.monomial(T, 2, {"w:b": 1}) + LaurentPoly.constant(T, 4)
    for product in (half * p, p * half):
        assert product.terms == {(1, 1, 0): 1, (1, 0, 0): 2}
        assert all(type(c) is int for c in product.terms.values())
    third = LaurentPoly.monomial(T, Q(2, 3), {"w:c": -1})
    assert (third * p).terms == {(0, 1, -1): Q(4, 3), (0, 0, -1): Q(8, 3)}
    assert (third * LaurentPoly.monomial(T, Q(3, 2), {"w:c": 1})).terms == {(0, 0, 0): 1}
    assert (half * LaurentPoly.zero(T)).terms == {} and (LaurentPoly.zero(T) * half).terms == {}
    assert (-(half * p)).terms == {(1, 1, 0): -1, (1, 0, 0): -2}


def test_poly_bracket_results_are_well_formed():
    rows = exchange_rows(CHAIN, T)
    wa, wb = gen("w:a"), gen("w:b")
    half = LaurentPoly.monomial(T, Q(1, 2), {"w:c": 1})
    # 8·{w_a, w_b} = b_ab = 2 and 8·(½ + {w_a, w_b})·w_a·w_b = (4 + 2)·w_a·w_b
    assert _poly_bracket(wa, wb, rows).terms == {(1, 1, 0): 2}
    assert _poly_bracket(wa, wb, rows, 4).terms == {(1, 1, 0): 6}
    # b_cb = -1: 8·{½ w_c, 2 w_b} is -1, an int
    assert _poly_bracket(half, wb.scale(2), rows).terms == {(0, 1, 1): -1}
    assert type(_poly_bracket(half, wb.scale(2), rows).terms[(0, 1, 1)]) is int
    # a pair with a·B·b = -unit cancels: 4 + a·B·b = 0 for w_b^2 and w_a
    assert not _poly_bracket(wb * wb, wa, rows, 4)
    for p, r in ((wa + half, wb - half), (wa * wb + wb, half)):
        for unit in (0, 4):
            assert _well_formed(_poly_bracket(p, r, rows, unit))


def test_skein_product_halves_in_integers_or_keeps_fractions():
    w = {v: RationalFn.generator(T, f"w:{v}") for v in "abc"}
    # 8·(½·w_a·w_b + {w_a, w_b}) = 6·w_a·w_b is not divisible by 8
    s = skein_product(w["a"], w["b"], CHAIN)
    assert s.num.terms == {(1, 1, 0): Q(3, 4)} and s.den == LaurentPoly.one(T)
    # 8·(½·2w_a·2w_b + {2w_a, 2w_b}) = 24·w_a·w_b is: its coefficients are ints
    s = skein_product(w["a"] * 2, w["b"] * 2, CHAIN)
    assert s.num.terms == {(1, 1, 0): 3} and type(s.num.terms[(1, 1, 0)]) is int
    # b_ca = 4 gives 8·w_c·w_a, an int after the 1/8; b_ba = -2 gives 2·2·w_b·w_a
    s = skein_product(w["c"] + w["b"] * 2, w["a"], CHAIN)
    assert s.num.terms == {(1, 0, 1): 1, (1, 1, 0): Q(1, 2)}
    for f, g in ((w["c"] + w["b"] * 2, w["a"] * 4), (w["a"] * Q(1, 3), w["c"] * 3)):
        s = skein_product(f, g, CHAIN)
        assert _well_formed(s.num)
        assert s == f * g * Q(1, 2) + poisson_bracket(f, g, CHAIN)


def test_negative_power_of_an_integer_monomial_is_exact():
    m = LaurentPoly.monomial(T, 3, {"w:a": 1})
    assert (m ** -1).terms == {(-1, 0, 0): Fraction(1, 3)}
    assert (m ** -2 * m ** 2) == LaurentPoly.one(T)


def _heap_exact_poly_div(num, den):
    """Reference division: the graded-lex leading-term algorithm on a
    mutable term dict with a lazy max-heap (Monagan-Pearce), bounded by the
    quotient box ``min(num) - min(den) <= e <= max(num) - max(den)``."""
    if not num:
        return LaurentPoly.zero(num.table)
    lows, tops = [], []
    for (nlo, nhi), (dlo, dhi) in zip(_box(num.terms), _box(den.terms)):
        lows.append(nlo - dlo)
        tops.append(nhi - dhi)
    if any(lo > hi for lo, hi in zip(lows, tops)):
        return None
    lead = _grlex_max(den.terms)
    lead_c = den.terms[lead]
    d_rest = [(e, c) for e, c in den.terms.items() if e != lead]
    quo, rem = {}, dict(num.terms)

    def negkey(exps):
        return (-sum(exps), tuple(-e for e in exps))

    heap = [negkey(e) for e in rem]
    heapq.heapify(heap)
    while heap:
        nk = heapq.heappop(heap)
        rlead = tuple(-e for e in nk[1])
        if rlead not in rem:
            continue  # stale heap entry
        qexps = tuple(a - b for a, b in zip(rlead, lead))
        if not all(lo <= e <= hi for lo, e, hi in zip(lows, qexps, tops)):
            return None
        qc = exact_coefficient(Fraction(rem.pop(rlead), lead_c))
        quo[qexps] = qc
        for e, c in d_rest:
            key = tuple(a + b for a, b in zip(e, qexps))
            s = rem.get(key, 0) - qc * c
            if s:
                if key not in rem:
                    heapq.heappush(heap, negkey(key))
                rem[key] = s
            elif key in rem:
                del rem[key]
    if rem:
        return None
    return LaurentPoly(num.table, quo)


def _assert_divides_as_the_reference(n, d):
    quotient, expected = exact_poly_div(n, d), _heap_exact_poly_div(n, d)
    if expected is None:
        assert quotient is None
    else:
        assert quotient is not None and quotient.terms == expected.terms
        assert _well_formed(quotient)
    return quotient


@st.composite
def divisor_polys(draw):
    """Two to four terms over the three generators of T, with Fraction
    coefficients or, half of the time, integer ones (primitive or not)."""
    coefficients = draw(st.sampled_from([small_fractions, st.integers(min_value=-4, max_value=4)]))
    exps = draw(
        st.lists(st.tuples(*[st.integers(min_value=-2, max_value=2)] * 3), min_size=2, max_size=4, unique=True)
    )
    return LaurentPoly(T, {e: draw(coefficients.filter(bool)) for e in exps})


@given(
    laurent_polys(),
    integer_half_third_polys(),
    divisor_polys(),
    st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3),
    integer_half_third.filter(bool),
)
@settings(max_examples=200, deadline=None)
def test_exact_poly_div_agrees_with_the_heap_reference(p, r, q, exps, c):
    # the same quotient as the graded-lex heap division, or None on both
    # sides, for a product, a perturbed product and a product by q twice
    m = LaurentPoly(T, {exps: c})
    for a in (p, r):
        assert _assert_divides_as_the_reference(a * q, q) == a
        _assert_divides_as_the_reference(a * q + m, q)
        assert _assert_divides_as_the_reference(a * q * q, q) == a * q
    _assert_divides_as_the_reference(r * q + m, q.scale(2))


def test_exact_poly_div_by_a_divisor_that_is_not_primitive():
    # den(1) = 4 does not divide num(1) = 2, but den's content is 2, so the
    # quotient 1/2 is not an integer polynomial and the unit point tells nothing
    x, one = gen("w:a"), LaurentPoly.one(T)
    assert exact_poly_div(one + x, (one + x).scale(2)) == LaurentPoly.constant(T, Q(1, 2))
    assert exact_poly_div((one + x) * (one - x), (one + x).scale(-6)) == (one - x).scale(Q(-1, 6))


def test_exact_poly_div_without_a_monomial_top_coefficient():
    # in both generators (1 + x)(1 + y) has the top coefficient 1 + y or 1 + x
    x, y, one = gen("w:a"), gen("w:b"), LaurentPoly.one(T)
    d = (one + x) * (one + y)
    p = x * gen("w:c", -1) + LaurentPoly.monomial(T, Q(2, 3), {"w:b": 2}) - one
    assert exact_poly_div(d * p, d) == p
    assert exact_poly_div(d * p + gen("w:c", -1), d) is None
    for n in (d * p, d * p * d, d * p + x * y, (d * p).scale(3)):
        _assert_divides_as_the_reference(n, d)


def test_exact_poly_div_by_a_divisor_vanishing_at_one():
    # den(1) = 0 leaves the unit-point test nothing to say
    x, y, one = gen("w:a"), gen("w:b"), LaurentPoly.one(T)
    d = x - one
    assert exact_poly_div(d * (x + y.scale(2)), d) == x + y.scale(2)
    assert exact_poly_div(x * x + y, d) is None
    assert exact_poly_div(x * x - y, d) is None
    assert exact_poly_div(x * y - y, d) == y


def test_exact_poly_div_of_an_integer_dividend_that_fails_late():
    # integer and primitive, a nonempty box, den(1) = 3 divides num(1) = 6,
    # and still 3x - 3y is left over: the recursion refuses it
    x, y, one = gen("w:a"), gen("w:b"), LaurentPoly.one(T)
    d = one + x + y
    n = d * (one + x) + (x - y).scale(3)
    assert sum(n.terms.values()) % sum(d.terms.values()) == 0
    assert exact_poly_div(n, d) is None
    assert _heap_exact_poly_div(n, d) is None
    # an integer dividend whose value at 1 the divisor's does not divide
    assert exact_poly_div(d * (one + x) + one, d) is None
