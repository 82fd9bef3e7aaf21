"""The one exact row reduction behind inverse, rank and solve."""

from fractions import Fraction

import pytest

from symgroupoid.laurent import GeneratorTable, RationalFn
from symgroupoid.matrices import MatrixRF, solve

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
