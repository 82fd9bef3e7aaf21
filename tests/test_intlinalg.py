"""Integer kernel lattices, and the fraction-free rank, determinant and
solutions against field references."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgroupoid.intlinalg import (
    IntMatrix,
    det_bareiss,
    kernel_basis,
    rank_bareiss,
    solve_bareiss,
)
from symgroupoid.matrices import MatrixRF, row_reduce
from symgroupoid.squares import amalgamated_quiver, square_quiver, transport_quiver


def kernel_rank_bruteforce(m: IntMatrix, bound: int = 3) -> int:
    """Oracle for tiny matrices: dimension of the kernel by enumerating
    small-coefficient vectors and counting independent ones."""
    vecs = []
    for cand in product(range(-bound, bound + 1), repeat=m.cols):
        if all(x == 0 for x in cand):
            continue
        if all(s == 0 for s in m.mul_vector(cand)):
            trial = vecs + [list(cand)]
            if rank_bareiss(IntMatrix(trial)) == len(trial):
                vecs.append(list(cand))
    return len(vecs)


def test_nonsingular_skew_has_empty_kernel():
    m = IntMatrix([[0, 1], [-1, 0]])
    assert kernel_basis(m) == []
    assert rank_bareiss(m) == 2


def test_is_skew_symmetric():
    assert IntMatrix([[0, 2, -1], [-2, 0, 4], [1, -4, 0]]).is_skew_symmetric()
    assert IntMatrix([]).is_skew_symmetric() and IntMatrix([[0]]).is_skew_symmetric()
    assert not IntMatrix([[0, 2], [2, 0]]).is_skew_symmetric()
    assert not IntMatrix([[1, 2], [-2, 0]]).is_skew_symmetric()
    assert not IntMatrix([[0, 2, 1], [-2, 0, 3]]).is_skew_symmetric()
    assert not IntMatrix([[0, 2, -1], [-2, 0, 4], [1, -3, 0]]).is_skew_symmetric()


def test_small_examples():
    assert kernel_basis(IntMatrix([[2, 4], [6, 8]])) == []
    basis = kernel_basis(IntMatrix([[1, 2], [2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    assert v in ([2, -1], [-2, 1])


def test_kernel_vectors_annihilate_and_are_primitive():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(2, 5)
        cols = rng.randint(2, 6)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        basis = kernel_basis(m)
        for v in basis:
            assert all(s == 0 for s in m.mul_vector(v))
            from math import gcd

            g = 0
            for x in v:
                g = gcd(g, abs(x))
            assert g == 1
        # lattice rank equals cols - rank over Q (independent Bareiss oracle)
        assert len(basis) == cols - rank_bareiss(m)
        # and basis vectors are linearly independent
        if basis:
            assert rank_bareiss(IntMatrix(basis)) == len(basis)


def test_kernel_rank_matches_bruteforce_on_tiny_matrices():
    rng = random.Random(11)
    for _ in range(10):
        m = IntMatrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        assert len(kernel_basis(m)) == kernel_rank_bruteforce(m)


def rational_kernel(m: IntMatrix) -> list:
    """Oracle: a basis of the kernel over Q, by Gauss-Jordan over Fractions."""
    rows = [[Fraction(x) for x in row] for row in m.entries]
    pivots = row_reduce(rows, m.cols)
    basis = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def coefficients(v, basis):
    """The rational coefficients of v in the span of the independent vectors
    of ``basis`` (one equation per coordinate), or None."""
    try:
        solution = MatrixRF([list(col) for col in zip(*basis)]).solve(MatrixRF([[x] for x in v]))
    except ZeroDivisionError:
        return None
    return [x for (x,) in solution.entries]


def primitive(v) -> list:
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints]


def assert_kernel_lattice(m: IntMatrix, basis: list, rng: random.Random, samples: int = 8):
    """kernel_basis spans exactly {x in Z^cols : M x = 0}, by exact membership
    both ways: each basis vector is an integer vector of the rational kernel,
    and each sampled primitive integer kernel vector has integer coefficients
    in the basis."""
    rational = rational_kernel(m)
    assert len(basis) == len(rational)
    if not rational:
        return
    for v in basis:
        assert all(type(x) is int for x in v)
        assert coefficients(v, rational) is not None
    vectors = [primitive(v) for v in rational]
    for _ in range(samples):
        combo = [Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in rational]
        v = [sum(c * r[j] for c, r in zip(combo, rational)) for j in range(m.cols)]
        if any(v):
            vectors.append(primitive(v))
    for v in vectors:
        c = coefficients(v, basis)
        assert c is not None and all(x.denominator == 1 for x in c), (m, basis, v)


def test_kernel_lattice_matches_oracle_on_random_matrices():
    rng = random.Random(23)
    for _ in range(150):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 7)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        assert_kernel_lattice(m, kernel_basis(m), rng)


@pytest.mark.parametrize("family", [square_quiver, amalgamated_quiver, transport_quiver])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_kernel_lattice_matches_oracle_on_lattice_quivers(family, n):
    m = family(n).doubled
    assert_kernel_lattice(m, kernel_basis(m), random.Random(n))


def test_kernel_basis_saturates_the_rational_lattice():
    # d x_P = -N x_F with d = 4 gives the kernel vector (-2, -2, 4), but half
    # of it is an integer kernel vector too
    m = IntMatrix([[2, 0, 1], [0, 2, 1]])
    assert kernel_basis(m) == [[-1, -1, 2]]
    assert_kernel_lattice(m, kernel_basis(m), random.Random(0))


def test_kernel_basis_of_zero_and_empty_matrices():
    assert kernel_basis(IntMatrix([[0] * 3 for _ in range(2)])) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis(IntMatrix([])) == []
    assert rank_bareiss(IntMatrix([])) == 0


# -- exact entries only ----------------------------------------------------------


@pytest.mark.parametrize("bad", [Fraction(1, 2), 2.7, 2.0, True, "3", None])
def test_int_matrix_rejects_inexact_entries(bad):
    # int(x) used to truncate: IntMatrix([[Fraction(1, 2), 2.7]]) was [[0, 2]]
    with pytest.raises(TypeError):
        IntMatrix([[1, bad]])
    m = IntMatrix([[0, 0]])
    with pytest.raises(TypeError):
        m[0, 1] = bad
    assert m == IntMatrix([[0, 0]])


def test_int_matrix_takes_ints_and_integral_fractions():
    m = IntMatrix([[Fraction(6, 3), -4]])
    m[0, 1] = Fraction(-10, 2)
    assert m.entries == [[2, -5]]
    assert all(type(x) is int for x in m.entries[0])


# -- determinant and solutions against field references --------------------------

@st.composite
def int_matrices(draw, rows=None, cols=None):
    """A rows x cols matrix of small integers from a drawn seed; given a drawn
    rank, the product of random rows x rank and rank x cols factors."""
    rows = rows or draw(st.integers(1, 8))
    cols = cols or draw(st.integers(1, 8))
    rank = draw(st.none() | st.integers(0, min(rows, cols)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def random_rows(r: int, c: int) -> list:
        return [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]

    if rank is None:
        return random_rows(rows, cols)
    if not rank:
        return [[0] * cols for _ in range(rows)]
    left, right = random_rows(rows, rank), random_rows(rank, cols)
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def leibniz_det(rows: list) -> int:
    """Reference: the sum over permutations, each signed by its inversions."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


@given(st.integers(1, 5).flatmap(lambda n: int_matrices(n, n)), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_det_bareiss_matches_leibniz_and_row_swaps(rows, rng):
    d = det_bareiss(IntMatrix(rows))
    assert d == leibniz_det(rows)
    # a permutation of the rows multiplies the determinant by its sign
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
    assert det_bareiss(IntMatrix([rows[i] for i in perm])) == (-1) ** inversions * d


def test_det_bareiss_edge_cases():
    assert det_bareiss(IntMatrix([[0, 1], [1, 0]])) == -1
    assert det_bareiss(IntMatrix([[0] * 3 for _ in range(3)])) == 0
    assert det_bareiss(IntMatrix([[1, 2], [2, 4]])) == 0
    assert det_bareiss(IntMatrix([])) == 1
    with pytest.raises(ValueError):
        det_bareiss(IntMatrix([[1, 2]]))


def reference_solutions(rows: list, unknowns: int):
    """Oracle: Gauss-Jordan over Fractions on [A | B]; the pivot columns and,
    per column of B, its entries in the first ``unknowns`` rows: the
    solution when every unknown has a pivot."""
    reduced = [[Fraction(x) for x in row] for row in rows]
    pivots = row_reduce(reduced, len(rows[0]))
    columns = [[row[f] for row in reduced[:unknowns]] for f in range(unknowns, len(rows[0]))]
    return pivots, columns


@given(int_matrices(), st.integers(1, 3), st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_solve_bareiss_matches_gauss_jordan(rows, rhs, consistent, rng):
    unknowns = len(rows[0])
    if consistent:
        # right-hand sides in the column span
        aug = [row + [sum(row) * (k + 1) for k in range(rhs)] for row in rows]
    else:
        aug = [row + [rng.randint(-5, 5) for _ in range(rhs)] for row in rows]
    pivots, expected = reference_solutions(aug, unknowns)
    m = IntMatrix(aug)
    if pivots and pivots[-1] >= unknowns:
        with pytest.raises(ZeroDivisionError, match="^inconsistent linear system$"):
            solve_bareiss(m, unknowns)
    elif len(pivots) < unknowns:
        with pytest.raises(ZeroDivisionError, match="^singular linear system$"):
            solve_bareiss(m, unknowns)
    else:
        d, xs = solve_bareiss(m, unknowns)
        assert all(type(y) is int for x in xs for y in x)
        assert [[Fraction(y, d) for y in x] for x in xs] == expected
