"""Exact integer matrices.  One fraction-free (Bareiss) elimination gives the
rank, the determinant (its last pivot, signed by its row swaps), the solutions
of a linear system (back-substitution over the last pivot) and, with a Hermite
normal form modulo the last pivot, the kernel lattice.  ``integer_vectors`` is
the one clearing of denominators: rational vectors as integer ones over one
scale."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import neg
from typing import Sequence


class IntMatrix:
    """Dense matrix of arbitrary-precision integers.  An entry is an ``int`` or
    an integral ``Fraction``; anything else is a ``TypeError``, never truncated."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]]):
        self.entries = [[x if type(x) is int else _exact_int(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged rows")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __setitem__(self, ij, value):
        i, j = ij
        self.entries[i][j] = _exact_int(value)

    def is_skew_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(row == list(map(neg, col)) for row, col in zip(self.entries, zip(*self.entries)))

    def mul_vector(self, v: Sequence[int]) -> list:
        return [sum(self.entries[i][j] * v[j] for j in range(self.cols)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"IntMatrix({self.entries!r})"


def integer_vectors(vectors: Sequence[Sequence]) -> tuple:
    """Vectors of ints and Fractions as integer vectors over one scale:
    ``(ints, d)`` with d the least positive integer that makes d·x integral
    for every entry x, and ``ints[k]`` the vector d·vectors[k]."""
    d = lcm(*(x.denominator for v in vectors for x in v))
    return [[x.numerator * (d // x.denominator) for x in v] for v in vectors], d


def _exact_int(x) -> int:
    """An ``int`` (not a bool) or an integral ``Fraction`` as an int."""
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise TypeError(f"an IntMatrix entry must be an int or an integral Fraction, got {x!r}")


def _bareiss_echelon(m: IntMatrix) -> tuple:
    """Forward fraction-free (Bareiss) elimination: the nonzero echelon rows,
    their pivot columns and the sign of the row swaps.  Every entry is a minor
    of M, so none outgrows them; the last pivot is the minor on the pivot
    columns of the leading rows (the swapped rows in their new order)."""
    a = [row[:] for row in m.entries]
    rows, cols = m.rows, m.cols
    pivots = []
    prev = 1
    sign = 1
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots, sign


def rank_bareiss(m: IntMatrix) -> int:
    """Rank over the rationals: the number of Bareiss pivots."""
    return len(_bareiss_echelon(m)[1])


def det_bareiss(m: IntMatrix) -> int:
    """Determinant of a square matrix: the last Bareiss pivot, with the sign
    of the row swaps; 0 when a column has no pivot."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    u, pivots, sign = _bareiss_echelon(m)
    if len(pivots) < m.cols:
        return 0
    return sign * u[-1][-1] if u else 1


def _back_substitute(u: list, pivots: list, f: int) -> list:
    """y with d x_P = y for the echelon rows ``u`` (pivot columns ``pivots``,
    last pivot d) and right-hand side column f: x solves U_P x = U_f.  Every
    division is exact, since d x is an integer vector by Cramer's rule."""
    d = u[-1][pivots[-1]]
    r = len(pivots)
    y = [0] * r
    for i in range(r - 1, -1, -1):
        row = u[i]
        y[i] = (d * row[f] - sum(row[pivots[j]] * y[j] for j in range(i + 1, r))) // row[pivots[i]]
    return y


def solve_bareiss(m: IntMatrix, unknowns: int) -> tuple:
    """The solution of A X = B for M = [A | B], A its first ``unknowns``
    columns (at least one).

    Returns (d, xs), d the last pivot: for each column of B, the integer
    vector d x whose quotient by d is the solution x.  Raises
    ``ZeroDivisionError`` when a column of B is not in the span of A's (a
    pivot in B: inconsistent) and when A has fewer pivots than unknowns
    (singular), so that every column of A is a pivot column.
    """
    u, pivots, _ = _bareiss_echelon(m)
    if pivots and pivots[-1] >= unknowns:
        raise ZeroDivisionError("inconsistent linear system")
    if len(pivots) < unknowns:
        raise ZeroDivisionError("singular linear system")
    return u[-1][pivots[-1]], [_back_substitute(u, pivots, f) for f in range(unknowns, m.cols)]


def kernel_basis(m: IntMatrix) -> list:
    """Basis of the integer kernel lattice {x in Z^cols : M x = 0}, in Hermite
    normal form on the free columns (so it depends only on the lattice).

    With r pivot columns P, k free columns F and last pivot d, back-substitution
    gives an integer r x k matrix N with d x_P = -N x_F; its divisions are exact
    by Cramer's rule.  The lattice is {c in Z^k : N c = 0 mod |d|}: the rows with
    pivots in the last k coordinates of a Hermite normal form, taken modulo |d|
    so that every entry stays in [0, |d|), of the vectors (N e_f, e_f) and
    |d| Z^(r+k) (Domich-Kannan-Trotter; Cohen, GTM 138, 2.4).  Each c gives the
    kernel vector x_F = c, x_P = -N c / d.
    """
    u, pivots, _ = _bareiss_echelon(m)
    r = len(pivots)
    free = sorted(set(range(m.cols)) - set(pivots))
    d = u[-1][pivots[-1]] if u else 1
    modulus, n = abs(d), r + len(free)
    gens = []
    for s, f in enumerate(free):
        y = _back_substitute(u, pivots, f) if u else []
        gens.append(y + [int(t == s) for t in range(len(free))])
    # active rows keep their entries from coordinate i on; the rest are zero
    rows = [[x % modulus for x in g] for g in gens]
    lattice = []
    for i in range(n):
        h = [modulus] + [0] * (n - i - 1)
        rest = []
        for q in rows:
            # Euclid on the entries at i: h becomes the pivot row, q leaves with 0 there
            while q[0]:
                t = h[0] // q[0]
                h, q = q, [h[0] - t * q[0]] + [(a - t * b) % modulus for a, b in zip(h[1:], q[1:])]
            if any(q):
                rest.append(q[1:])
        rows = rest
        if i >= r:
            lattice.append([0] * (i - r) + h)
    for t, pivot_row in enumerate(lattice):
        for s in range(t):
            mult = lattice[s][t] // pivot_row[t]
            lattice[s] = [a - mult * b for a, b in zip(lattice[s], pivot_row)]
    basis = []
    for c in lattice:
        x = [0] * m.cols
        for f, cf in zip(free, c):
            x[f] = cf
        for i, p in enumerate(pivots):
            x[p] = -sum(g[i] * cf for g, cf in zip(gens, c)) // d
        basis.append(x)
    return basis
