"""Dense matrices over an exact field (rational functions, rationals, ...).

Entries only need ``+ - * /`` (``1 / x`` included), equality with each
other, and a truth value that is false exactly at zero.  Everything is
written for the small sizes appearing here (n <= 9), favoring exactness over
asymptotics.

Rational matrices (``int`` and ``Fraction`` entries) do their product,
``solve``, ``rank`` and ``det`` in integers.  ``intlinalg.integer_vectors``
puts each matrix over one scale (a product's right factor by columns); a
product is integer dot products, and the rest is ``intlinalg``'s one Bareiss
elimination.  The only ``Fraction`` built is each output entry.  Other
entries take the field path: ``row_reduce`` and the subset-DP determinant.
``MatrixRF.solve`` is the one linear solve: it asks for a unique solution,
so a singular or inconsistent system is a ``ZeroDivisionError``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub
from typing import Callable, Sequence

from .intlinalg import IntMatrix, det_bareiss, integer_vectors, rank_bareiss, solve_bareiss
from .laurent import rational_evaluator


def row_reduce(rows: list, ncols: int) -> list:
    """Gauss-Jordan elimination over the first ``ncols`` columns of ``rows``.

    Each column's pivot is its first nonzero entry, searched top-down among
    the rows not yet holding a pivot; the pivot row is scaled to a leading one
    and the column is cleared in every other row.  The outer list is reduced
    in place (row lists are replaced, never mutated).  Returns the pivot
    columns, the k-th one led by row k.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        inv = 1 / rows[r][c]
        pivot_row = rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(row, pivot_row)]
        pivots.append(c)
    return pivots


class MatrixRF:
    """Square or rectangular matrix of exact field elements."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        # plain ints would leave exact arithmetic at the first division
        self.entries = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int, one, zero) -> "MatrixRF":
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __setitem__(self, ij, v):
        i, j = ij
        self.entries[i][j] = v

    def map(self, fn: Callable) -> "MatrixRF":
        return MatrixRF([[fn(x) for x in row] for row in self.entries])

    def transpose(self) -> "MatrixRF":
        return MatrixRF([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __mul__(self, other: "MatrixRF") -> "MatrixRF":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        if self.rows and self.cols and other.cols and _is_rational(self.entries + other.entries):
            return MatrixRF(_rational_product(self.entries, other.entries))
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not a or not b:
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                if acc is None:
                    acc = self._zero()
                row.append(acc)
            out.append(row)
        return MatrixRF(out)

    def __add__(self, other: "MatrixRF") -> "MatrixRF":
        return self._entrywise(add, other)

    def __sub__(self, other: "MatrixRF") -> "MatrixRF":
        return self._entrywise(sub, other)

    def _entrywise(self, op: Callable, other: "MatrixRF") -> "MatrixRF":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return MatrixRF([list(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, c) -> "MatrixRF":
        return self.map(lambda x: x * c)

    def _zero(self):
        if not self.cols:
            raise ValueError("empty matrix")
        probe = self.entries[0][0]
        return probe - probe

    def _one(self):
        return self._zero() ** 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixRF) or self.rows != other.rows or self.cols != other.cols:
            return NotImplemented if not isinstance(other, MatrixRF) else False
        return all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def is_upper_triangular(self) -> bool:
        return not any(self.entries[i][j] for i in range(self.rows) for j in range(i))

    def is_unipotent_upper(self) -> bool:
        if not self.is_upper_triangular():
            return False
        one = self._one()
        return all(self.entries[i][i] == one for i in range(self.rows))

    def det(self):
        """Determinant: of ``int`` and ``Fraction`` entries, the Bareiss
        determinant of the matrix over one scale d, divided by d^n; of other
        entries, by subset dynamic programming (division-free)."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            raise ValueError("empty matrix")
        if _is_rational(self.entries):
            ints, d = integer_vectors(self.entries)
            return Fraction(det_bareiss(IntMatrix(ints)), d ** n)
        return _subset_det(self.entries, self._zero())

    def solve(self, rhs: "MatrixRF") -> "MatrixRF":
        """X with A X = ``rhs`` for this matrix A, which has at least one
        column and no fewer rows than columns; ``rhs`` has A's rows.

        Raises ``ZeroDivisionError`` when A is singular (a column without a
        pivot) or the system is inconsistent (a pivot in ``rhs``).  Of ``int``
        and ``Fraction`` entries, one ``intlinalg.solve_bareiss`` on [A | rhs]
        over one scale; of other entries, one ``row_reduce``.
        """
        n = self.cols
        if not 0 < n <= self.rows:
            raise ValueError("solve needs a matrix with at least one column and no fewer rows than columns")
        if rhs.rows != self.rows:
            raise ValueError("shape mismatch")
        rows = [a + b for a, b in zip(self.entries, rhs.entries)]
        if _is_rational(rows):
            d, xs = solve_bareiss(IntMatrix(integer_vectors(rows)[0]), n)
            return MatrixRF([[Fraction(x[i], d) for x in xs] for i in range(n)])
        pivots = row_reduce(rows, n + rhs.cols)
        if pivots and pivots[-1] >= n:
            raise ZeroDivisionError("inconsistent linear system")
        if len(pivots) < n:
            raise ZeroDivisionError("singular linear system")
        return MatrixRF([row[n:] for row in rows[:n]])

    def rank(self) -> int:
        """Rank over the entries' field.  Rational entries (ints and Fractions)
        go to the fraction-free ``rank_bareiss`` once put over one scale.
        Other entries go to ``row_reduce``."""
        rows = self.entries
        if _is_rational(rows):
            return rank_bareiss(IntMatrix(integer_vectors(rows)[0]))
        return len(row_reduce(list(rows), self.cols))

    def charpoly(self) -> list:
        """Coefficients [c0 .. cn] of det(lambda I - M), c_n = 1.

        The matrix is brought to upper Hessenberg form H by similarity (for
        each column, a nonzero pivot below the subdiagonal is swapped onto it
        and clears the entries under it), then the characteristic polynomials
        p_m of the leading m x m blocks of H follow from
        p_m = (lambda - h_mm) p_(m-1) - sum_(i<m) h_im h_(i+1,i) .. h_(m,m-1) p_(i-1)
        (H. Cohen, GTM 138, Algorithm 2.2.9): O(n^3) field operations.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("square matrix required")
        h = [list(row) for row in self.entries]
        for m in range(1, n - 1):
            pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
            if pivot is None:
                continue
            if pivot != m:
                h[m], h[pivot] = h[pivot], h[m]
                for row in h:
                    row[m], row[pivot] = row[pivot], row[m]
            inv = 1 / h[m][m - 1]
            pivot_row = h[m]
            for i in range(m + 1, n):
                u = h[i][m - 1] * inv
                if not u:
                    continue
                # row i -= u * row m (zero left of column m - 1), then
                # column m += u * column i
                row_i = h[i]
                row_i[m - 1 :] = [x - u * y for x, y in zip(row_i[m - 1 :], pivot_row[m - 1 :])]
                for row in h:
                    if row[i]:
                        row[m] = row[m] + u * row[i]
        polys = [[1]]
        for m in range(n):
            prev = polys[m]
            d = h[m][m]
            p = [-(d * prev[0])] + [a - d * b for a, b in zip(prev, prev[1:])] + [prev[-1]]
            t = None
            for i in range(m - 1, -1, -1):
                sub = h[i + 1][i]
                if not sub:
                    break
                t = sub if t is None else t * sub
                c = h[i][m]
                if c:
                    c = c * t
                    for k, b in enumerate(polys[i]):
                        p[k] = p[k] - c * b
            polys.append(p)
        return polys[n][:n] + [Fraction(1)]

    def pfaffian(self):
        """Pfaffian of an antisymmetric matrix of even size (recursive expansion)."""
        n = self.rows
        if n % 2:
            raise ValueError("pfaffian needs even size")

        idx = list(range(n))
        cache: dict = {}

        def rec(active: tuple):
            if not active:
                return None  # multiplicative empty product handled by caller
            if active in cache:
                return cache[active]
            i = active[0]
            rest = active[1:]
            acc = self._zero()
            for pos, j in enumerate(rest):
                a = self.entries[i][j]
                if not a:
                    continue
                sign = (-1) ** pos
                sub = tuple(x for x in rest if x != j)
                tail = rec(sub)
                term = a if tail is None else a * tail
                if sign < 0:
                    term = self._zero() - term
                acc = acc + term
            cache[active] = acc
            return acc

        out = rec(tuple(idx))
        return self._zero() if out is None else out

    def evaluator(self) -> Callable:
        """The entries' values at a point, as a function of the point: one
        ``laurent.rational_evaluator`` over the entries as they are now,
        prepared once and run at each point."""
        evaluate = rational_evaluator([f for row in self.entries for f in row])
        rows, cols = self.rows, self.cols

        def at(point) -> "MatrixRF":
            values = evaluate(point)
            return MatrixRF([values[r * cols : (r + 1) * cols] for r in range(rows)])

        return at

    def __repr__(self) -> str:
        return f"MatrixRF({self.rows}x{self.cols})"


def _subset_det(rows: list, zero):
    """Determinant by subset dynamic programming (division-free), for any
    entries with ``+ - *``; ``zero`` is the entries' zero."""
    n = len(rows)
    # state: chosen column subset for the first r rows
    prev = {0: None}  # subset mask -> accumulated value (None = multiplicative 1 seed)
    for i in range(n):
        nxt: dict = {}
        for mask, acc in prev.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                a = rows[i][j]
                if not a:
                    continue
                # parity of inversions added by placing column j at row i
                sign = (-1) ** (bin(mask >> (j + 1)).count("1"))
                term = a if acc is None else acc * a
                if sign < 0:
                    term = zero - term
                key = mask | bit
                nxt[key] = term if key not in nxt else nxt[key] + term
        prev = nxt
    full = (1 << n) - 1
    if full not in prev:
        return zero
    return prev[full]


def _is_rational(rows: list) -> bool:
    """Whether there are entries and every one is an int or a Fraction."""
    types = {type(x) for row in rows for x in row}
    return bool(types) and types <= {int, Fraction}


def _rational_product(a: list, b: list) -> list:
    """A B for int and Fraction entries: integer dot products of the rows of
    A and the columns of B, each matrix over one scale, one Fraction per
    entry."""
    rows, s = integer_vectors(a)
    cols, t = integer_vectors(list(zip(*b)))
    den = s * t
    return [[Fraction(sum(map(mul, row, col)), den) for col in cols] for row in rows]


def charpoly_is_palindromic(coeffs: list) -> bool:
    """lambda^n p(1/lambda) = +- p(lambda) as coefficient reversal."""
    rev = list(reversed(coeffs))
    return rev == coeffs or rev == [-c for c in coeffs]


def divide_out_root(coeffs: list, root: Fraction) -> list | None:
    """Synthetic division of p by (lambda - root); None when the root misses."""
    out = []
    acc = Fraction(0)
    for c in reversed(coeffs):  # from leading down
        acc = acc * root + c
        out.append(acc)
    remainder = out.pop()
    if remainder:
        return None
    return list(reversed(out))
