"""Dense matrices over an exact field (rational functions, rationals, ...).

Entries only need ``+ - * /``, equality with ``0``/each other, and an
``inverse`` through ``1/x`` or division.  Everything is written for the small
sizes appearing here (n <= 9), favoring exactness over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence


def is_zero_entry(x) -> bool:
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


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
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if is_zero_entry(a) or is_zero_entry(b):
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                if acc is None:
                    acc = self._zero()
                row.append(acc)
            out.append(row)
        return MatrixRF(out)

    def __add__(self, other: "MatrixRF") -> "MatrixRF":
        return MatrixRF(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "MatrixRF") -> "MatrixRF":
        return MatrixRF(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def scale(self, c) -> "MatrixRF":
        return self.map(lambda x: x * c)

    def _zero(self):
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
        return all(
            is_zero_entry(self.entries[i][j]) for i in range(self.rows) for j in range(i)
        )

    def is_unipotent_upper(self) -> bool:
        if not self.is_upper_triangular():
            return False
        one = self._one()
        return all(self.entries[i][i] == one for i in range(self.rows))

    def det(self):
        """Determinant by subset dynamic programming (division-free)."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            raise ValueError("empty matrix")
        # state: chosen column subset for the first r rows
        prev = {0: None}  # subset mask -> accumulated value (None = multiplicative 1 seed)
        for i in range(n):
            nxt: dict = {}
            for mask, acc in prev.items():
                for j in range(n):
                    bit = 1 << j
                    if mask & bit:
                        continue
                    a = self.entries[i][j]
                    if is_zero_entry(a):
                        continue
                    # parity of inversions added by placing column j at row i
                    sign = (-1) ** (bin(mask >> (j + 1)).count("1"))
                    term = a if acc is None else acc * a
                    if sign < 0:
                        term = self._zero() - term
                    key = mask | bit
                    nxt[key] = term if key not in nxt else nxt[key] + term
            prev = nxt
        full = (1 << n) - 1
        if full not in prev:
            return self._zero()
        return prev[full]

    def inverse(self) -> "MatrixRF":
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of a non-square matrix")
        zero = self._zero()
        one = self._one()
        a = [row[:] + [one if i == j else zero for j in range(n)] for i, row in enumerate(self.entries)]
        for c in range(n):
            pivot = None
            for r in range(c, n):
                if not is_zero_entry(a[r][c]):
                    pivot = r
                    break
            if pivot is None:
                raise ZeroDivisionError("singular matrix")
            a[c], a[pivot] = a[pivot], a[c]
            inv = one / a[c][c]
            a[c] = [x * inv for x in a[c]]
            for r in range(n):
                if r != c and not is_zero_entry(a[r][c]):
                    f = a[r][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        return MatrixRF([row[n:] for row in a])

    def rank(self) -> int:
        a = [row[:] for row in self.entries]
        rank = 0
        r = 0
        for c in range(self.cols):
            pivot = None
            for i in range(r, self.rows):
                if not is_zero_entry(a[i][c]):
                    pivot = i
                    break
            if pivot is None:
                continue
            a[r], a[pivot] = a[pivot], a[r]
            inv_p = a[r][c]
            for i in range(r + 1, self.rows):
                if not is_zero_entry(a[i][c]):
                    f = a[i][c] / inv_p
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            r += 1
            rank += 1
            if r == self.rows:
                break
        return rank

    def charpoly(self) -> list:
        """Coefficients [c0 .. cn] of det(lambda I - M), c_n = 1 (Faddeev scheme)."""
        n = self.rows
        if n != self.cols:
            raise ValueError("square matrix required")
        zero = self._zero()
        ident = MatrixRF.identity(n, self._one(), zero)
        mk = ident
        cs = []
        for k in range(1, n + 1):
            mk = self * mk
            ck = mk.trace() * Fraction(-1, k)
            cs.append(ck)
            mk = mk + ident.scale(ck)
        return [cs[n - 1 - i] for i in range(n)] + [Fraction(1)]

    def trace(self):
        acc = self.entries[0][0]
        for i in range(1, self.rows):
            acc = acc + self.entries[i][i]
        return acc

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
                if is_zero_entry(a):
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

    def evaluate(self, point) -> "MatrixRF":
        return self.map(lambda f: f.evaluate(point))

    def to_json(self) -> dict:
        return {
            "n": self.rows,
            "entries": [[x.to_json() if hasattr(x, "to_json") else str(x) for x in row] for row in self.entries],
        }

    def __repr__(self) -> str:
        return f"MatrixRF({self.rows}x{self.cols})"


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
    if remainder != 0:
        return None
    return list(reversed(out))
