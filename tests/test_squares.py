"""Lattice quiver family: vertex counts, coranks, and the published Casimirs."""

from fractions import Fraction

import pytest

from symgroupoid.intlinalg import IntMatrix
from symgroupoid.quiver import Quiver, corank, monomial_casimirs, monomial_is_casimir
from symgroupoid.squares import (
    amalgamate_monomial,
    amalgamated_quiver,
    det_b_exponents,
    square4_pre_casimirs,
    square_quiver,
    transport_quiver,
)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vertex_counts(n):
    assert len(square_quiver(n).vertices) == (n + 1) ** 2
    assert len(amalgamated_quiver(n).vertices) == n * (n + 1)
    assert len(transport_quiver(n).vertices) == (n - 1) * (n + 1) + 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_square_corank_is_n_plus_one(n):
    assert corank(square_quiver(n)) == n + 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_amalgamated_corank_is_two_n(n):
    assert corank(amalgamated_quiver(n)) == 2 * n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_transport_quiver_corank(n):
    q = transport_quiver(n)
    # det(B) is a Casimir monomial; the unit-determinant slice leaves n-1
    det = det_b_exponents(n)
    assert monomial_is_casimir(q, det)
    assert corank(q) - 1 == n - 1


def test_a_monomial_in_names_that_are_not_vertices_is_refused():
    # such a monomial used to "commute" with every vertex
    q = square_quiver(3)
    with pytest.raises(ValueError, match="^not vertices of the quiver: nope$"):
        monomial_is_casimir(q, {"nope": 1})
    with pytest.raises(ValueError, match="^not vertices of the quiver: nope, zz$"):
        monomial_is_casimir(q, {q.vertices[0]: 1, "zz": 2, "nope": 1})


def test_kernel_rank_n3_square_is_four():
    basis = monomial_casimirs(square_quiver(3))
    assert len(basis) == 4


def test_amalgamated_kernel_rank_n3_is_six():
    assert len(monomial_casimirs(amalgamated_quiver(3))) == 6


def test_published_monomials_n4():
    q4 = square_quiver(4)
    monos = square4_pre_casimirs()
    # C0, C1 and the products Ck * Ck~ are Casimirs of the full lattice
    assert monomial_is_casimir(q4, monos["C0"])
    assert monomial_is_casimir(q4, monos["C1"])
    for k in (2, 3, 4):
        prod = dict(monos[f"C{k}"])
        for v, e in monos[f"C{k}~"].items():
            prod[v] = prod.get(v, 0) + e
        assert monomial_is_casimir(q4, prod)
        # the factors alone are not Casimirs of the full lattice
        assert not monomial_is_casimir(q4, monos[f"C{k}"])
        assert not monomial_is_casimir(q4, monos[f"C{k}~"])


def test_published_monomials_project_to_amalgamated_casimirs():
    amalg = amalgamated_quiver(4)
    monos = square4_pre_casimirs()
    for label, exps in monos.items():
        assert monomial_is_casimir(amalg, amalgamate_monomial(4, exps)), label


def test_zero_quiver_all_singletons():
    from symgroupoid.intlinalg import IntMatrix

    q = Quiver(["x", "y", "z"], IntMatrix([[0] * 3 for _ in range(3)]))
    assert corank(q) == 3
    assert len(monomial_casimirs(q)) == 3


def test_empty_quiver_has_no_casimirs():
    from symgroupoid.intlinalg import IntMatrix

    q = Quiver([], IntMatrix([]))
    assert corank(q) == 0
    assert monomial_casimirs(q) == []


def test_square_quiver_12_casimir_basis():
    # 169 vertices: the lattice reduction used to hang here
    assert len(monomial_casimirs(square_quiver(12))) == 13


def test_monomial_is_casimir_multiplies_in_integers(monkeypatch):
    # the exponents are scaled by the lcm of their denominators, so the
    # exchange matrix only ever multiplies ints
    vectors = []
    mul_vector = IntMatrix.mul_vector

    def spy(self, v):
        vectors.append(list(v))
        return mul_vector(self, v)

    monkeypatch.setattr(IntMatrix, "mul_vector", spy)
    q = transport_quiver(3)
    halved = {v: Fraction(e, 2) for v, e in det_b_exponents(3).items()}
    assert monomial_is_casimir(q, halved)
    assert monomial_is_casimir(q, {v: int(e) for v, e in det_b_exponents(3).items()})
    assert not monomial_is_casimir(q, {q.vertices[0]: Fraction(1, 3)})
    assert len(vectors) == 3
    assert all(type(x) is int for v in vectors for x in v)
