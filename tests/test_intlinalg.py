"""Integer kernel lattices and fraction-free rank."""

import random
from itertools import product

from symgroupoid.intlinalg import (
    IntMatrix,
    rank_bareiss,
    smith_kernel_basis,
)


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
    assert smith_kernel_basis(m) == []
    assert rank_bareiss(m) == 2


def test_small_examples():
    assert smith_kernel_basis(IntMatrix([[2, 4], [6, 8]])) == []
    basis = smith_kernel_basis(IntMatrix([[1, 2], [2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    assert v in ([2, -1], [-2, 1])


def test_kernel_vectors_annihilate_and_are_primitive():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(2, 5)
        cols = rng.randint(2, 6)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        basis = smith_kernel_basis(m)
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
        assert len(smith_kernel_basis(m)) == kernel_rank_bruteforce(m)
