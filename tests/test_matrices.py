"""The one exact row reduction behind inverse, rank and solve, and the
characteristic polynomial against a Faddeev-LeVerrier reference."""

import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from symgroupoid.gauss import GaussianRational
from symgroupoid.laurent import GeneratorTable, RationalFn
from symgroupoid.matrices import MatrixRF, solve
from symgroupoid.suites import _casimir_point
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


def test_inverse_of_singular_matrix_raises(field):
    m = MatrixRF(_rows(field, [[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
    with pytest.raises(ZeroDivisionError):
        m.inverse()
    assert m.rank() == 2


def test_inverse_and_solve_agree_on_a_nonsingular_system(field):
    rows = _rows(field, [[0, 2, 1], [1, 1, 0], [3, 0, 2]])
    m = MatrixRF(rows)
    inv = m.inverse()
    one, zero = field(1), field(0)
    assert m * inv == MatrixRF.identity(3, one, zero)
    vec = [field(5), field(-1), field(Fraction(1, 2))]
    x = solve(rows, vec)
    assert [sum((r * y for r, y in zip(row, x)), zero) for row in rows] == vec
    assert x == [sum((inv[i, j] * vec[j] for j in range(3)), zero) for i in range(3)]


@pytest.mark.parametrize("allow_underdetermined", [False, True])
def test_solve_raises_on_an_inconsistent_system(field, allow_underdetermined):
    # x + y = 1 and 2x + 2y = 3: underdetermined and inconsistent
    mat = _rows(field, [[1, 1], [2, 2]])
    vec = [field(1), field(3)]
    with pytest.raises(ZeroDivisionError):
        solve(mat, vec, allow_underdetermined=allow_underdetermined)


def test_solve_sets_free_unknowns_to_zero(field):
    # x0 + 2 x1 = 3, x2 = 4, and a redundant third equation: x1 is free
    mat = _rows(field, [[1, 2, 0], [0, 0, 1], [2, 4, 1]])
    vec = [field(3), field(4), field(10)]
    assert solve(mat, vec, allow_underdetermined=True) == [field(3), field(0), field(4)]
    with pytest.raises(ZeroDivisionError):
        solve(mat, vec)


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


def _random_entry(rng: random.Random, kind: str):
    def part():
        # a third of the parts vanish, so pivots must be searched for
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.67 else Fraction(0)

    return part() if kind == "fraction" else GaussianRational(part(), part())


@pytest.mark.parametrize("kind", ["fraction", "gaussian"])
@pytest.mark.parametrize("n", range(1, 9))
def test_charpoly_matches_faddeev_on_random_matrices(kind, n):
    rng = random.Random(100 * n + len(kind))
    for _ in range(6):
        assert_same_charpoly(MatrixRF([[_random_entry(rng, kind) for _ in range(n)] for _ in range(n)]))


@pytest.mark.parametrize("field", [Fraction, lambda x: GaussianRational(Fraction(x), Fraction(x, 3))])
def test_charpoly_swaps_onto_a_zero_subdiagonal_pivot(field):
    # column 0 is zero on the subdiagonal but not in row 3, so the reduction
    # must swap rows 1 and 3 and columns 1 and 3 before it clears column 0
    rows = [[1, 2, 0, 3, 1], [0, 1, 4, 0, 2], [0, 0, 2, 1, 0], [5, 0, 1, 1, 3], [2, 1, 0, 0, 1]]
    assert_same_charpoly(MatrixRF([[field(x) for x in row] for row in rows]))


@pytest.mark.parametrize("field", [Fraction, lambda x: GaussianRational(Fraction(x), Fraction(x, 3))])
def test_charpoly_with_a_zero_column_below_the_subdiagonal(field):
    # column 0 is zero from the subdiagonal down, so that step has no pivot
    # and the Hessenberg form splits into blocks
    rows = [[3, 1, 2, 0, 1], [0, 1, 0, 2, 1], [0, 4, 2, 1, 0], [0, 1, 1, 0, 3], [0, 2, 0, 1, 1]]
    assert_same_charpoly(MatrixRF([[field(x) for x in row] for row in rows]))


def test_charpoly_of_the_genus3_rank_matrix_at_casimir_minus_one():
    # the size-8 leaf matrix of groupoid_spectrum_locus, with Fraction and
    # GaussianRational entries mixed
    model = build_surface("genus3_extended")
    u = chain_matrix(model.name, model.chains["rank"])
    upt = u.evaluate(_casimir_point(model.seed.frame, random.Random(5), -1))
    core = upt.transpose().inverse() * upt
    assert core.rows == 8
    assert {type(x) for row in core.entries for x in row} == {Fraction, GaussianRational}
    for m in (upt, core):
        assert_same_charpoly(m)
