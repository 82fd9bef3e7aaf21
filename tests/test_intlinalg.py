"""Integer kernel lattices and fraction-free rank."""

import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from symgroupoid.intlinalg import (
    IntMatrix,
    kernel_basis,
    rank_bareiss,
)
from symgroupoid.matrices import row_reduce, solve
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
    """The rational coefficients of v in the span of basis, or None."""
    try:
        return solve([[Fraction(x) for x in col] for col in zip(*basis)], [Fraction(x) for x in v])
    except ZeroDivisionError:
        return None


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
    assert kernel_basis(IntMatrix.zero(2, 3)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis(IntMatrix([])) == []
    assert rank_bareiss(IntMatrix([])) == 0
