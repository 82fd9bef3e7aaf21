"""The one exact row reduction behind solve and rank of rational-function
entries, the one strict solve and its refusals, the characteristic polynomial against a
Faddeev-LeVerrier reference, evaluation against per-entry evaluation, and
numeric ranks, products, solutions, inverses and determinants against the
field path."""

import random
from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgroupoid import matrices
from symgroupoid.laurent import GeneratorTable, LaurentPoly, RationalFn, SingularPointError
from symgroupoid.matrices import MatrixRF, _subset_det, row_reduce
from symgroupoid.suites import _casimir_point, _positive_point, _real_rank_chain
from symgroupoid.teich import build_surface, chain_matrix

T = GeneratorTable(["w:x"])

# each test runs over Fraction entries and over constant rational functions
FIELDS = {
    "fraction": Fraction,
    "rational_fn": lambda x: RationalFn.constant(T, x),
}


@pytest.fixture(params=sorted(FIELDS))
def field(request):
    return FIELDS[request.param]


def _rows(field, rows):
    return [[field(x) for x in row] for row in rows]


def _column(field, values):
    return MatrixRF([[field(x)] for x in values])


def test_inverse_of_singular_matrix_raises(field):
    # A X = I has no solution when A is singular
    m = MatrixRF(_rows(field, [[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
    with pytest.raises(ZeroDivisionError, match="^inconsistent linear system$"):
        m.solve(MatrixRF.identity(3, field(1), field(0)))
    assert m.rank() == 2


def test_inverse_and_solve_agree_on_a_nonsingular_system(field):
    m = MatrixRF(_rows(field, [[0, 2, 1], [1, 1, 0], [3, 0, 2]]))
    ident = MatrixRF.identity(3, field(1), field(0))
    inv = m.solve(ident)
    assert m * inv == ident == inv * m
    vec = _column(field, [5, -1, Fraction(1, 2)])
    x = m.solve(vec)
    assert (x.rows, x.cols) == (3, 1)
    assert m * x == vec
    assert x == inv * vec
    # several right-hand sides are solved together, column by column
    rhs = MatrixRF(_rows(field, [[5, 1], [-1, 0], [Fraction(1, 2), 7]]))
    both = m.solve(rhs)
    assert [both[i, 1] for i in range(3)] == [y[0] for y in m.solve(_column(field, [1, 0, 7])).entries]
    assert [both[i, 0] for i in range(3)] == [y[0] for y in x.entries]


@pytest.mark.parametrize("tall", [False, True])
def test_solve_raises_on_an_inconsistent_system(field, tall):
    if tall:
        # x + y = 1, x - y = 0 and x = 1: the first two give x = y = 1/2
        mat, vec = [[1, 1], [1, -1], [1, 0]], [1, 0, 1]
    else:
        # x + y = 1 and 2x + 2y = 3: singular and inconsistent
        mat, vec = [[1, 1], [2, 2]], [1, 3]
    with pytest.raises(ZeroDivisionError, match="^inconsistent linear system$"):
        MatrixRF(_rows(field, mat)).solve(_column(field, vec))


def test_solve_of_a_consistent_tall_system(field):
    # x + y = 1, x - y = 0 and 2x = 1: three equations, one solution
    m = MatrixRF(_rows(field, [[1, 1], [1, -1], [2, 0]]))
    assert m.solve(_column(field, [1, 0, 1])) == _column(field, [Fraction(1, 2), Fraction(1, 2)])


def test_solve_refuses_a_free_unknown(field):
    # x0 + 2 x1 = 3, x2 = 4, and a redundant third equation: consistent, but
    # x1 is free, so there is no unique solution
    m = MatrixRF(_rows(field, [[1, 2, 0], [0, 0, 1], [2, 4, 1]]))
    with pytest.raises(ZeroDivisionError, match="^singular linear system$"):
        m.solve(_column(field, [3, 4, 10]))


def test_solve_refuses_an_empty_or_wide_matrix_and_a_right_hand_side_of_other_rows(field):
    square = MatrixRF(_rows(field, [[1, 2], [3, 4]]))
    for a, rhs in [
        (MatrixRF([]), MatrixRF([])),
        (MatrixRF([[], []]), _column(field, [1, 2])),
        (MatrixRF(_rows(field, [[1, 2]])), _column(field, [1])),
        (square, _column(field, [1])),
        (square, _column(field, [1, 2, 3])),
    ]:
        with pytest.raises(ValueError):
            a.solve(rhs)


def test_an_empty_matrix_is_refused_by_every_method_that_needs_an_entry():
    # pfaffian and is_unipotent_upper raised IndexError from the zero they
    # read off the first entry, while det raised ValueError
    empty = MatrixRF([])
    for method in (empty.pfaffian, empty.is_unipotent_upper, empty.det):
        with pytest.raises(ValueError, match="^empty matrix$"):
            method()


def test_sum_and_difference_refuse_a_shape_mismatch(field):
    a = MatrixRF(_rows(field, [[1, 2]]))
    # zip used to cut the longer operand: [[1, 2]] + [[1]] was [[2]]
    for b in (MatrixRF(_rows(field, [[1]])), a.transpose(), MatrixRF(_rows(field, [[1, 2], [3, 4]]))):
        for x, y in ((a, b), (b, a)):
            for op in (add, sub):
                with pytest.raises(ValueError, match="^shape mismatch$"):
                    op(x, y)
    assert a + a == MatrixRF(_rows(field, [[2, 4]])) and (a - a).entries == _rows(field, [[0, 0]])


def test_rank_of_a_wide_matrix(field):
    # the pivot of the second row is in the third column
    m = MatrixRF(_rows(field, [[1, 2, 0, 1], [2, 4, 1, 0], [3, 6, 1, 1]]))
    assert m.rank() == 2
    assert m.transpose().rank() == 2


def faddeev_charpoly(m: MatrixRF) -> list:
    """Reference: det(lambda I - M) by Faddeev-LeVerrier, n dense products.
    M_1 = M, c_(n-k) = -tr(M_k) / k, M_(k+1) = M (M_k + c_(n-k) I)."""
    n = m.rows
    ident = MatrixRF.identity(n, m._one(), m._zero())
    mk = ident
    cs = []
    for k in range(1, n + 1):
        mk = m * mk
        ck = reduce(add, (mk[i, i] for i in range(n))) * Fraction(-1, k)
        cs.append(ck)
        mk = mk + ident.scale(ck)
    return cs[::-1] + [Fraction(1)]


def assert_same_charpoly(m: MatrixRF):
    expected = faddeev_charpoly(m)
    got = m.charpoly()
    assert got == expected
    assert [type(c) for c in got] == [type(c) for c in expected]
    assert type(got[-1]) is Fraction and got[-1] == 1


def _random_entry(rng: random.Random) -> Fraction:
    # a third of the entries vanish, so pivots must be searched for
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.67 else Fraction(0)


# the kinds of numeric entry: Fractions (a matrix stores an int as one).
# The one kind stays a parameter so that these tests keep the ids, and the
# rng seeds (through len(kind)), they had when there were two kinds.
KINDS = ["fraction"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 9))
def test_charpoly_matches_faddeev_on_random_matrices(kind, n):
    rng = random.Random(100 * n + len(kind))
    for _ in range(6):
        assert_same_charpoly(MatrixRF([[_random_entry(rng) for _ in range(n)] for _ in range(n)]))


@pytest.mark.parametrize("field", [Fraction, lambda x: RationalFn.constant(T, x)])
def test_charpoly_swaps_onto_a_zero_subdiagonal_pivot(field):
    # column 0 is zero on the subdiagonal but not in row 3, so the reduction
    # must swap rows 1 and 3 and columns 1 and 3 before it clears column 0
    rows = [[1, 2, 0, 3, 1], [0, 1, 4, 0, 2], [0, 0, 2, 1, 0], [5, 0, 1, 1, 3], [2, 1, 0, 0, 1]]
    assert_same_charpoly(MatrixRF([[field(x) for x in row] for row in rows]))


@pytest.mark.parametrize("field", [Fraction, lambda x: RationalFn.constant(T, x)])
def test_charpoly_with_a_zero_column_below_the_subdiagonal(field):
    # column 0 is zero from the subdiagonal down, so that step has no pivot
    # and the Hessenberg form splits into blocks
    rows = [[3, 1, 2, 0, 1], [0, 1, 0, 2, 1], [0, 4, 2, 1, 0], [0, 1, 1, 0, 3], [0, 2, 0, 1, 1]]
    assert_same_charpoly(MatrixRF([[field(x) for x in row] for row in rows]))


def test_charpoly_of_the_genus3_rank_matrix_at_casimir_minus_one():
    # the size-8 leaf matrix of groupoid_spectrum_locus, in its real form
    model = build_surface("genus3_extended")
    upt = _real_rank_chain().evaluator()(_casimir_point(model, "at", random.Random(5)))
    core = upt.transpose().solve(upt)
    assert core.rows == 8
    assert {type(x) for row in core.entries for x in row} == {Fraction}
    for m in (upt, core):
        assert_same_charpoly(m)


# -- evaluation: one shared pass, the values of per-entry evaluation -----------


def assert_evaluates_like_its_entries(u: MatrixRF, point: dict):
    got = u.evaluator()(point)
    for i in range(u.rows):
        for j in range(u.cols):
            want = u[i, j].evaluate(point)
            assert got[i, j] == want and type(got[i, j]) is type(want), (i, j)


@pytest.mark.parametrize("casimir", [-1, 1])
def test_evaluate_matches_entries_on_the_genus3_rank_chain(casimir):
    # at Casimir -1, the chain's real form
    model = build_surface("genus3_extended")
    u = _real_rank_chain() if casimir == -1 else chain_matrix(model.name, model.chains["rank"])
    rng = random.Random(11)
    for _ in range(3):
        assert_evaluates_like_its_entries(u, _casimir_point(model, "at", rng))


def test_evaluate_matches_entries_on_the_genus2_braid_chain():
    model = build_surface("genus2_x7")
    u = chain_matrix(model.name, model.chains["braid"])
    rng = random.Random(12)
    for _ in range(3):
        assert_evaluates_like_its_entries(u, _positive_point(model.seed.frame, rng))


G3 = GeneratorTable(["w:a", "w:b", "w:c"])


def _random_poly(rng: random.Random, lo: int) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(lo, 2) for _ in G3.names)
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return LaurentPoly(G3, terms)


def _random_rf_matrix(rng: random.Random, point: dict, rows: int, cols: int, lo: int) -> MatrixRF:
    """Random rational functions with a denominator that is nonzero at ``point``."""
    entries = []
    for _ in range(rows):
        row = []
        while len(row) < cols:
            den = _random_poly(rng, lo)
            if den and RationalFn.from_poly(den).evaluate(point):
                row.append(RationalFn(_random_poly(rng, lo), den))
        entries.append(row)
    return MatrixRF(entries)


@pytest.mark.parametrize(
    "point, lo",
    [
        # a zero coordinate (nonnegative exponents only)
        ({"w:a": Fraction(0), "w:b": Fraction(-3, 2), "w:c": Fraction(5, 3)}, 0),
        # negative coordinates under negative exponents
        ({"w:a": Fraction(2, 3), "w:b": Fraction(-2), "w:c": Fraction(-4, 5)}, -2),
        # a coordinate given as an int
        ({"w:a": Fraction(7, 2), "w:b": Fraction(-1, 3), "w:c": 3}, -2),
    ],
)
def test_evaluate_matches_entries_on_random_matrices(point, lo):
    rng = random.Random(13 + lo)
    for rows, cols in ((1, 1), (3, 4), (5, 5)):
        assert_evaluates_like_its_entries(_random_rf_matrix(rng, point, rows, cols, lo), point)


def test_evaluate_raises_for_a_missing_generator_and_a_zero_denominator():
    x, y = (RationalFn.generator(G3, name) for name in ("w:a", "w:b"))
    one = RationalFn.constant(G3, 1)
    u = MatrixRF([[x, one], [one, x / (y - one)]])
    with pytest.raises(KeyError):
        u.evaluator()({"w:a": Fraction(2)})
    with pytest.raises(SingularPointError):
        u.evaluator()({"w:a": Fraction(2), "w:b": Fraction(1)})
    with pytest.raises(SingularPointError):
        u.evaluator()({"w:a": Fraction(2), "w:b": 1})
    assert u.evaluator()({"w:a": Fraction(2), "w:b": Fraction(3)}) == MatrixRF([[2, 1], [1, 1]])


def test_evaluate_refuses_a_coordinate_off_both_axes():
    # a coordinate is an int or a Fraction: a complex one is refused, off
    # both axes or on the imaginary axis, and so is a float
    x, y = (RationalFn.generator(G3, name) for name in ("w:a", "w:b"))
    u = MatrixRF([[x, RationalFn.constant(G3, 1)], [y, x * y]])
    for bad in (1 + 1j, 1j, 1.5):
        with pytest.raises(TypeError, match="not an exact rational"):
            u.evaluator()({"w:a": Fraction(2), "w:b": bad})


def test_evaluate_makes_one_point_pass(point_plans):
    # one plan over all numerators and denominators, run once: the per-entry
    # evaluation made two passes per entry
    model = build_surface("genus3_extended")
    u = chain_matrix(model.name, model.chains["rank"])
    u.evaluator()(_casimir_point(model, "at", random.Random(3)))
    assert [(len(polys), runs) for polys, runs in point_plans] == [(2 * u.rows * u.cols, 1)]


def test_evaluator_builds_one_plan_for_every_point(point_plans):
    # the evaluator of a matrix prepares its pass once and runs it at each
    # point, with the values a fresh evaluate gives there
    model = build_surface("genus3_extended")
    u = chain_matrix(model.name, model.chains["rank"])
    rng = random.Random(4)
    points = [_casimir_point(model, "at", rng) for _ in range(3)]
    evaluate = u.evaluator()
    values = [evaluate(pt) for pt in points]
    assert [(len(polys), runs) for polys, runs in point_plans] == [(2 * u.rows * u.cols, 3)]
    assert values == [u.evaluator()(pt) for pt in points]


# -- numeric rank: fraction-free elimination against row_reduce ----------------


def _reference_rank(m: MatrixRF) -> int:
    return len(row_reduce(list(m.entries), m.cols))


def _low_rank(rng: random.Random, rows: int, cols: int, rank: int) -> MatrixRF:
    """A rows x cols product of random rows x rank and rank x cols factors."""
    if not rank:
        return MatrixRF([[Fraction(0)] * cols for _ in range(rows)])
    left = [[_random_entry(rng) for _ in range(rank)] for _ in range(rows)]
    right = [[_random_entry(rng) for _ in range(cols)] for _ in range(rank)]
    return MatrixRF(left) * MatrixRF(right)


@pytest.mark.parametrize("kind", KINDS)
def test_numeric_rank_matches_row_reduce(kind):
    rng = random.Random(20 + len(kind))
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        for m in (
            MatrixRF([[_random_entry(rng) for _ in range(cols)] for _ in range(rows)]),
            _low_rank(rng, rows, cols, rng.randint(0, min(rows, cols))),
        ):
            assert m.rank() == _reference_rank(m)


def test_numeric_rank_edge_cases():
    assert MatrixRF([[1, 0], [0, -1]]).rank() == 2
    m = MatrixRF([[Fraction(0)] * 3 for _ in range(2)])
    assert m.rank() == 0 == _reference_rank(m)
    m = MatrixRF([[], [], []])
    assert (m.rows, m.cols) == (3, 0) and m.rank() == 0 == _reference_rank(m)
    assert MatrixRF([]).rank() == 0


# -- numeric product, solve, inverse and det in integers against the field path --


def entrywise_product(a: MatrixRF, b: MatrixRF) -> list:
    """Reference: each entry the field sum of its nonzero products, or A's
    zero when there is none (values and types of the field path)."""
    zero = a[0, 0] - a[0, 0]
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            terms = [a[i, k] * b[k, j] for k in range(a.cols) if a[i, k] and b[k, j]]
            row.append(reduce(add, terms) if terms else zero)
        out.append(row)
    return out


def reference_solve(mat: list, rhs: list) -> list:
    """Reference: Gauss-Jordan on the augmented rows [A | rhs] by
    ``row_reduce``; the rows of the solution."""
    n = len(mat[0])
    rows = [list(a) + list(b) for a, b in zip(mat, rhs)]
    pivots = row_reduce(rows, len(rows[0]))
    if pivots and pivots[-1] >= n:
        raise ZeroDivisionError("inconsistent linear system")
    if len(pivots) < n:
        raise ZeroDivisionError("singular linear system")
    return [row[n:] for row in rows[:n]]


def reference_inverse(m: MatrixRF) -> list:
    n = m.rows
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m.entries)]
    if len(row_reduce(rows, n)) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in rows]


def assert_numeric_entries(values: list, expected: list):
    """Equal values, each a Fraction."""
    assert values == expected
    for x in values:
        assert type(x) is Fraction, x


def seeded_rngs():
    return st.integers(0, 2**32 - 1).map(random.Random)


@st.composite
def numeric_matrices(draw, rows=None, cols=None):
    """A rows x cols matrix (sizes 1-8) of ``_random_entry`` values from a
    drawn seed; given a drawn rank, the product of random rows x rank and
    rank x cols factors, so singular and low-rank matrices are common."""
    rows = rows or draw(st.integers(1, 8))
    cols = cols or draw(st.integers(1, 8))
    rank = draw(st.none() | st.integers(0, min(rows, cols)))
    rng = draw(seeded_rngs())

    def random_matrix(r: int, c: int) -> MatrixRF:
        return MatrixRF([[_random_entry(rng) for _ in range(c)] for _ in range(r)])

    if rank is None:
        return random_matrix(rows, cols)
    if not rank:
        return MatrixRF([[Fraction(0)] * cols for _ in range(rows)])
    return MatrixRF(entrywise_product(random_matrix(rows, rank), random_matrix(rank, cols)))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_numeric_product_matches_the_entrywise_product(kind, data):
    a = data.draw(numeric_matrices())
    b = data.draw(numeric_matrices(rows=a.cols))
    got = (a * b).entries
    expected = entrywise_product(a, b)
    assert got == expected
    assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in expected]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("several_columns", [False, True])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_numeric_solve_matches_row_reduce(kind, several_columns, data):
    # a square or tall matrix, and one right-hand side or two to three
    cols = data.draw(st.integers(1, 8))
    m = data.draw(numeric_matrices(rows=data.draw(st.integers(cols, 8)), cols=cols))
    rng = data.draw(seeded_rngs())
    k = rng.randint(2, 3) if several_columns else 1
    if data.draw(st.booleans()):
        rhs = MatrixRF([[_random_entry(rng) for _ in range(k)] for _ in range(m.rows)])
    else:
        # right-hand sides in the column span: a consistent system
        x = MatrixRF([[_random_entry(rng) for _ in range(k)] for _ in range(m.cols)])
        rhs = MatrixRF(entrywise_product(m, x))
    try:
        expected = reference_solve(m.entries, rhs.entries)
    except ZeroDivisionError as exc:
        with pytest.raises(ZeroDivisionError, match=f"^{exc}$"):
            m.solve(rhs)
        return
    got = m.solve(rhs)
    assert (got.rows, got.cols) == (cols, k)
    for row, want in zip(got.entries, expected):
        assert_numeric_entries(row, want)


def test_numeric_solve_error_messages_and_free_unknowns():
    def solve(mat, vec):
        return MatrixRF(mat).solve(MatrixRF([[v] for v in vec]))

    # x + y = 1 and 2x + 2y = 3: inconsistent, and singular too
    with pytest.raises(ZeroDivisionError, match="^inconsistent linear system$"):
        solve([[1, 1], [2, 2]], [1, 3])
    # x + y = 1 twice: consistent but singular
    with pytest.raises(ZeroDivisionError, match="^singular linear system$"):
        solve([[1, 1], [1, 1]], [1, 1])
    # x0 + 2 x1 = 3, x2 = 5 and their sum: x1 is free, so no solution is unique
    with pytest.raises(ZeroDivisionError, match="^singular linear system$"):
        solve([[1, 2, 0], [0, 0, 1], [1, 2, 1]], [3, 5, 8])
    # the first two equations alone are fewer than the unknowns
    with pytest.raises(ValueError):
        solve([[1, 2, 0], [0, 0, 1]], [3, 5])


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_numeric_inverse_matches_row_reduce(kind, data):
    n = data.draw(st.integers(1, 8))
    m = data.draw(numeric_matrices(rows=n, cols=n))
    ident = MatrixRF.identity(n, Fraction(1), Fraction(0))
    try:
        expected = reference_inverse(m)
    except ZeroDivisionError:
        # A X = I has no solution when A is singular
        with pytest.raises(ZeroDivisionError, match="^inconsistent linear system$"):
            m.solve(ident)
        return
    inv = m.solve(ident)
    for row, want in zip(inv.entries, expected):
        assert_numeric_entries(row, want)
    assert m * inv == ident


def test_numeric_inverse_of_singular_matrices_raises():
    for entries in ([[Fraction(0)]], [[1, 2], [2, 4]]):
        n = len(entries)
        with pytest.raises(ZeroDivisionError, match="^inconsistent linear system$"):
            MatrixRF(entries).solve(MatrixRF.identity(n, Fraction(1), Fraction(0)))


def _sign(perm) -> int:
    return (-1) ** sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_numeric_det_matches_the_subset_dp(data):
    n = data.draw(st.integers(1, 8))
    m = data.draw(numeric_matrices(rows=n, cols=n))
    d = m.det()
    assert type(d) is Fraction and d == _subset_det(m.entries, Fraction(0))
    assert (d == 0) == (m.rank() < n)
    perm = data.draw(st.permutations(range(n)))
    assert MatrixRF([m.entries[i] for i in perm]).det() == _sign(perm) * d


def test_numeric_det_of_singular_and_permuted_matrices():
    assert MatrixRF([[1, 2], [2, 4]]).det() == 0
    assert MatrixRF([[Fraction(0)] * 3 for _ in range(3)]).det() == 0
    rows = [[Fraction(1, 2), 3, 0], [0, Fraction(-2, 3), 1], [5, 0, Fraction(1, 4)]]
    base = MatrixRF(rows).det()
    assert base == _subset_det(MatrixRF(rows).entries, Fraction(0)) != 0
    for perm in permutations(range(3)):
        assert MatrixRF([rows[i] for i in perm]).det() == _sign(perm) * base


def _numeric_operations():
    """Numeric product, solve, inverse, det and rank on Fraction entries."""
    rng = random.Random(7)
    frac = MatrixRF([[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)] for _ in range(4)])
    vec = MatrixRF([[Fraction(k + 1, 3)] for k in range(4)])
    ident = MatrixRF.identity(4, Fraction(1), Fraction(0))
    assert frac.det()
    return [
        lambda: frac * frac,
        lambda: frac.solve(vec),
        lambda: frac.solve(ident),
        frac.det,
        frac.rank,
    ]


def test_numeric_solve_and_inverse_never_call_row_reduce(monkeypatch):
    operations = _numeric_operations()

    def refuse(*args):
        raise AssertionError("row_reduce called on numeric entries")

    monkeypatch.setattr(matrices, "row_reduce", refuse)
    for op in operations:
        op()
    with pytest.raises(ZeroDivisionError, match="^inconsistent linear system$"):
        MatrixRF([[1, 2], [2, 4]]).solve(MatrixRF.identity(2, Fraction(1), Fraction(0)))


FRACTION_ARITHMETIC = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__", "__neg__",
]


def test_numeric_operations_do_no_fraction_arithmetic(monkeypatch):
    # every Fraction they build is an output entry, from
    # integer numerators and denominators
    operations = _numeric_operations()
    expected = [op() for op in operations]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a numeric matrix operation")

    with monkeypatch.context() as patch:
        for name in FRACTION_ARITHMETIC:
            patch.setattr(Fraction, name, refuse)
        got = [op() for op in operations]
    assert got == expected
