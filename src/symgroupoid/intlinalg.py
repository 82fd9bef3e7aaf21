"""Exact integer matrices: Smith reduction, kernel lattices, fraction-free rank."""

from __future__ import annotations

from math import gcd
from typing import Sequence


class IntMatrix:
    """Dense matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]]):
        self.entries = [[int(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged rows")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __setitem__(self, ij, value):
        i, j = ij
        self.entries[i][j] = int(value)

    def is_skew_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.entries[i][j] == -self.entries[j][i]
            for i in range(self.rows)
            for j in range(i, self.cols)
        )

    def mul_vector(self, v: Sequence[int]) -> list:
        return [sum(self.entries[i][j] * v[j] for j in range(self.cols)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"IntMatrix({self.entries!r})"


def rank_bareiss(m: IntMatrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in m.entries]
    rows, cols = m.rows, m.cols
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def _vec_content(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
        if g == 1:
            return 1
    return g


def smith_kernel_basis(m: IntMatrix) -> list:
    """Basis of the integer kernel lattice {v : M v = 0}, primitive vectors.

    Row/column reduction to Smith-like diagonal form while tracking the right
    multiplier V (column operations), so that kernel vectors of the diagonal
    form pull back to kernel vectors of M.
    """
    a = [row[:] for row in m.entries]
    rows, cols = m.rows, m.cols
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def col_addmul(dst: int, src: int, k: int):
        for i in range(rows):
            a[i][dst] += k * a[i][src]
        for i in range(cols):
            v[i][dst] += k * v[i][src]

    def col_swap(c1: int, c2: int):
        for i in range(rows):
            a[i][c1], a[i][c2] = a[i][c2], a[i][c1]
        for i in range(cols):
            v[i][c1], v[i][c2] = v[i][c2], v[i][c1]

    def row_addmul(dst: int, src: int, k: int):
        for j in range(cols):
            a[dst][j] += k * a[src][j]

    def row_swap(r1: int, r2: int):
        a[r1], a[r2] = a[r2], a[r1]

    t = 0
    while t < min(rows, cols):
        # locate a pivot of minimal absolute value in the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best = x
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        row_swap(t, pi)
        col_swap(t, pj)
        # clear the pivot row and column
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_addmul(i, t, -q)
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_addmul(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                break
        t += 1

    basis = []
    for j in range(cols):
        if all(a[i][j] == 0 for i in range(rows)):
            vec = [v[i][j] for i in range(cols)]
            g = _vec_content(vec)
            if g > 1:
                vec = [x // g for x in vec]
            basis.append(vec)
    return basis

