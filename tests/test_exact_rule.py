"""One rule types every exact number the program computes: a Fraction when the
value is real and a GaussianRational otherwise.  Each operation that can meet
a value off the real line is checked, at real points and at points with
coordinates on the imaginary axis, against a reference in pairs of Fractions
(re, im): term by term, by the permutation expansion (characteristic
polynomial and determinant) or through ``row_reduce``."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgroupoid.gauss import GaussianRational
from symgroupoid.laurent import GeneratorTable, LaurentPoly, RationalFn, SingularPointError, evaluate_rational_fns
from symgroupoid.matrices import MatrixRF, row_reduce, solve

T = GeneratorTable(["w:a", "w:b", "w:c"])

small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero = small.filter(bool)
# a Gaussian operand as outside input may build it: real, on the imaginary
# axis, or with both parts nonzero
gaussians = st.builds(GaussianRational, small, small)
# the other operand: an int, a Fraction or a Gaussian
operands = st.one_of(st.integers(min_value=-5, max_value=5), small, gaussians)
# a point's coordinates: real, given as a Fraction or as a GaussianRational,
# or on the imaginary axis
coordinates = st.one_of(
    small,
    st.builds(GaussianRational, small),
    st.builds(GaussianRational, st.just(Fraction(0)), nonzero),
)
# matrix entries that follow the rule, many of them on the imaginary axis
entries = st.one_of(
    small,
    st.builds(lambda y: GaussianRational(0, y), nonzero),
    st.builds(GaussianRational, small, nonzero),
)


def follows_the_rule(value) -> bool:
    return bool(value.im) if isinstance(value, GaussianRational) else type(value) is Fraction


# -- the reference: pairs (re, im) of Fractions ------------------------------------


def pair(value) -> tuple:
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return Fraction(value), Fraction(0)


def p_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def p_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def p_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def p_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    if not n:
        raise ZeroDivisionError("inverse of zero")
    return x[0] / n, -x[1] / n


def p_pow(x, k):
    if k < 0:
        x, k = p_inv(x), -k
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = p_mul(out, x)
    return out


def p_value(p: LaurentPoly, point: dict) -> tuple:
    """p at the point, term by term."""
    total = (Fraction(0), Fraction(0))
    for exps, c in p.terms.items():
        term = pair(c)
        for name, e in zip(p.table.names, exps):
            if e:
                term = p_mul(term, p_pow(pair(point[name]), e))
        total = p_add(total, term)
    return total


def p_charpoly(rows: list) -> list:
    """The coefficients [c0 .. cn] of det(lambda I - M), expanded over
    permutations as products of the linear entries lambda*delta - m."""
    n = len(rows)
    total = [(Fraction(0), Fraction(0))] * (n + 1)
    for perm in permutations(range(n)):
        poly = [(Fraction(_sign(perm)), Fraction(0))]
        for i, j in enumerate(perm):
            factor = [p_sub((Fraction(0), Fraction(0)), pair(rows[i][j])), (Fraction(int(i == j)), Fraction(0))]
            out = [(Fraction(0), Fraction(0))] * (len(poly) + 1)
            for a, x in enumerate(poly):
                for b, y in enumerate(factor):
                    out[a + b] = p_add(out[a + b], p_mul(x, y))
            poly = out
        total = [p_add(t, c) for t, c in zip(total, poly)]
    return total


def _sign(perm: tuple) -> int:
    inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
    return -1 if inversions % 2 else 1


def assert_exact(value, reference: tuple):
    assert pair(value) == reference
    assert follows_the_rule(value), value


# -- GaussianRational arithmetic ---------------------------------------------------


@given(gaussians, operands)
@settings(max_examples=200, deadline=None)
def test_gaussian_arithmetic_follows_the_rule(a, b):
    x, y = pair(a), pair(b)
    cases = [
        (a + b, p_add(x, y)),
        (b + a, p_add(y, x)),
        (a - b, p_sub(x, y)),
        (b - a, p_sub(y, x)),
        (-a, p_sub((0, 0), x)),
        (a * b, p_mul(x, y)),
        (b * a, p_mul(y, x)),
    ]
    if b:
        cases.append((a / b, p_mul(x, p_inv(y))))
    if a:
        cases += [(b / a, p_mul(y, p_inv(x))), (a.inverse(), p_inv(x))]
    for k in range(-2, 4):
        if a or k >= 0:
            cases.append((a**k, p_pow(x, k)))
    for value, reference in cases:
        assert_exact(value, reference)
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


# -- evaluation --------------------------------------------------------------------


@st.composite
def laurent_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        exps = tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(3))
        terms[exps] = draw(small)
    return LaurentPoly(T, terms)


@given(laurent_polys(), st.lists(coordinates, min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_laurent_evaluate_follows_the_rule(p, coords):
    point = dict(zip(T.names, coords))
    try:
        reference = p_value(p, point)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            p.evaluate(point)
        return
    assert_exact(p.evaluate(point), reference)


@given(
    st.lists(st.tuples(laurent_polys(), laurent_polys().filter(bool)), min_size=1, max_size=3),
    st.lists(coordinates.filter(bool), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_rational_evaluation_follows_the_rule(pairs, coords):
    # one pass over several functions; no zero coordinate, so a vanishing
    # denominator is the only singular case
    fns = [RationalFn(p, q) for p, q in pairs]
    point = dict(zip(T.names, coords))
    dens = [p_value(f.den, point) for f in fns]
    if not all(any(d) for d in dens):
        with pytest.raises(SingularPointError):
            evaluate_rational_fns(fns, point)
        return
    values = evaluate_rational_fns(fns, point)
    for f, d, value in zip(fns, dens, values):
        assert_exact(value, p_mul(p_value(f.num, point), p_inv(d)))


# -- matrices ----------------------------------------------------------------------


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def products(draw):
    r, k, c = (draw(st.integers(min_value=1, max_value=3)) for _ in range(3))
    return draw(matrices(r, k)), draw(matrices(k, c))


@given(products())
@settings(max_examples=200, deadline=None)
def test_matrix_product_follows_the_rule(ab):
    a, b = ab
    out = MatrixRF(a) * MatrixRF(b)
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            reference = (Fraction(0), Fraction(0))
            for k, x in enumerate(row):
                reference = p_add(reference, p_mul(pair(x), pair(b[k][j])))
            assert_exact(out[i, j], reference)


square = st.integers(min_value=1, max_value=3).flatmap(lambda n: matrices(n, n))


def _reduced(mat: list, rhs: list):
    """The solution columns of mat X = rhs by ``row_reduce`` on the field
    path, or None when mat is singular."""
    n = len(mat)
    rows = [list(row) + list(r) for row, r in zip(mat, rhs)]
    if len(row_reduce(rows, n)) < n:
        return None
    return [row[n:] for row in rows]


@given(square, st.data())
@settings(max_examples=150, deadline=None)
def test_solve_and_inverse_follow_the_rule(mat, data):
    n = len(mat)
    vec = data.draw(st.lists(entries, min_size=n, max_size=n))
    reference = _reduced(mat, [[v] for v in vec])
    if reference is None:
        with pytest.raises(ZeroDivisionError):
            solve(mat, vec)
        with pytest.raises(ZeroDivisionError):
            MatrixRF(mat).inverse()
        return
    for x, (ref,) in zip(solve(mat, vec), reference):
        assert_exact(x, pair(ref))
    inverse = MatrixRF(mat).inverse()
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, row in enumerate(_reduced(mat, identity)):
        for j, ref in enumerate(row):
            assert_exact(inverse[i, j], pair(ref))


@given(square)
@settings(max_examples=150, deadline=None)
def test_charpoly_and_det_follow_the_rule(mat):
    m = MatrixRF(mat)
    reference = p_charpoly(mat)
    for c, ref in zip(m.charpoly(), reference, strict=True):
        assert_exact(c, ref)
    # det M = (-1)^n c0
    assert_exact(m.det(), p_mul(((-1) ** len(mat), 0), reference[0]))
