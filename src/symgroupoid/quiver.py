"""Quivers with half-integer exchange data, seeds, mutations, log-canonical brackets.

The exchange data is stored doubled (``b = 2*eps``) so that solid arrows give
entries ``±2``, double arrows ``±4`` and the half-weight boundary arrows of
amalgamated quivers ``±1``.  Seed values are rational functions of the initial
generators, kept in a factored product form so that the telescoping
cancellations of mutation sequences happen by exact factor bookkeeping rather
than by multivariate gcd.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .intlinalg import IntMatrix, integer_vectors, kernel_basis, rank_bareiss
from .laurent import (
    GeneratorTable,
    LaurentPoly,
    Q,
    RationalFn,
    exact_coefficient,
    exact_int,
    exact_poly_div,
)


def wname(vertex: str) -> str:
    return f"w:{vertex}"


class FrozenVertexError(ValueError):
    pass


class HalfIntegerMutationError(ArithmeticError):
    """Mutation at a vertex with odd incident doubled-exchange entries."""


class Quiver:
    """Named vertices plus a skew-symmetric doubled exchange matrix.

    A quiver is never written after construction: mutation and relabeling
    build a new one.  So it keeps what ``exchange_rows`` derives from it, one
    entry per generator table.
    """

    def __init__(self, vertices: Sequence[str], doubled: IntMatrix, frozen: Iterable[str] = ()):
        self.vertices = tuple(vertices)
        if doubled.rows != doubled.cols or doubled.rows != len(self.vertices):
            raise ValueError("exchange matrix size must match the vertex list")
        if not doubled.is_skew_symmetric():
            raise ValueError("doubled exchange matrix must be skew-symmetric")
        self.doubled = doubled
        self.frozen = frozenset(frozen)
        unknown = self.frozen - set(self.vertices)
        if unknown:
            raise ValueError(f"frozen names not among vertices: {sorted(unknown)}")
        self._pos = {v: i for i, v in enumerate(self.vertices)}
        self._rows: dict = {}

    @classmethod
    def from_arrows(
        cls,
        vertices: Sequence[str],
        arrows: Iterable[tuple],
        frozen: Iterable[str] = (),
    ) -> "Quiver":
        """Build from (source, target, doubled_weight) triples; weights add up."""
        vertices = tuple(vertices)
        pos = {v: i for i, v in enumerate(vertices)}
        m = [[0] * len(vertices) for _ in vertices]
        for arrow in arrows:
            if len(arrow) == 2:
                src, dst = arrow
                weight = 2
            else:
                src, dst, weight = arrow
            if src == dst:
                raise ValueError(f"arrow {src} -> {dst} is a self-loop")
            i, j = pos[src], pos[dst]
            m[i][j] += weight
            m[j][i] -= weight
        return cls(vertices, IntMatrix(m), frozen)

    def index(self, vertex: str) -> int:
        try:
            return self._pos[vertex]
        except KeyError:
            raise KeyError(f"unknown vertex {vertex!r}") from None

    def b(self, u: str, v: str) -> int:
        return self.doubled[self.index(u), self.index(v)]

    def eps(self, u: str, v: str) -> Fraction:
        return Fraction(self.b(u, v), 2)

    def arrows(self) -> list:
        """Positive-weight arrow triples (src, dst, doubled_weight)."""
        out = []
        for u, row in zip(self.vertices, self.doubled.entries):
            out += [(u, v, w) for v, w in zip(self.vertices, row) if w > 0]
        return out

    def mutate_matrix(self, k: str) -> "Quiver":
        """Exchange-matrix mutation at ``k`` (value bookkeeping lives in Seed)."""
        ki = self.index(k)
        pivot = self.doubled.entries[ki]
        if any(x % 2 for x in pivot):
            raise HalfIntegerMutationError(
                f"vertex {k!r} has half-integer exchange entries; its mutation is not Laurent"
            )
        # b' = b + (|b_ik|·b_kj + b_ik·|b_kj|)/4 off row and column k, -b on
        # them; b_ik = -b_ki is even too, so every gain is a multiple of 4
        new = []
        for i, row in enumerate(self.doubled.entries):
            bik = row[ki]
            if i == ki:
                row = [-x for x in row]
            elif bik:
                a = abs(bik)
                row = [x + (a * y + bik * abs(y)) // 4 for x, y in zip(row, pivot)]
                row[ki] = -bik
            else:
                row = row[:]
            new.append(row)
        return Quiver(self.vertices, IntMatrix(new), self.frozen)

    def swap(self, u: str, v: str) -> "Quiver":
        """Relabel two vertices (rows/columns exchanged); a frozen vertex stays
        frozen under its new label."""
        perm = list(range(len(self.vertices)))
        iu, iv = self.index(u), self.index(v)
        perm[iu], perm[iv] = iv, iu
        old = self.doubled.entries
        m = IntMatrix([[old[a][b] for b in perm] for a in perm])
        relabel = {u: v, v: u}
        return Quiver(self.vertices, m, {relabel.get(w, w) for w in self.frozen})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.doubled == other.doubled
            and self.frozen == other.frozen
        )

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "doubled_exchange": [list(arrow) for arrow in self.arrows()],
            "frozen": sorted(self.frozen),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Quiver":
        vertices, arrows, frozen = data["vertices"], data["doubled_exchange"], data.get("frozen", [])
        for key, value in (("vertices", vertices), ("doubled_exchange", arrows), ("frozen", frozen)):
            if not isinstance(value, list):
                raise ValueError(f"{key} must be a list, got {value!r}")
        for name in vertices + frozen:
            if not isinstance(name, str):
                raise ValueError(f"a vertex name is a string, got {name!r}")
        for arrow in arrows:
            if not (isinstance(arrow, list) and len(arrow) in (2, 3)):
                raise ValueError(f"an arrow is a [source, target] or [source, target, weight] list, got {arrow!r}")
            if len(arrow) == 3:
                exact_int(arrow[2], f"weight of arrow {arrow[0]} -> {arrow[1]}")
        return cls.from_arrows(vertices, [tuple(e) for e in arrows], frozen)

    def __repr__(self) -> str:
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows())} arrows)"


def initial_table(vertices: Sequence[str]) -> GeneratorTable:
    return GeneratorTable([wname(v) for v in vertices])


class ClusterValue:
    """Product form  coeff * w^mono * prod(factor_i^exp_i)  of a seed value,
    ``coeff`` a nonzero exact coefficient and ``mono`` a tuple of ints.

    A value is never written after construction: every operation builds a new
    one.  So ``as_rational`` keeps the expanded ``RationalFn`` it builds.
    """

    __slots__ = ("table", "coeff", "mono", "factors", "_rational")

    def __init__(self, table: GeneratorTable, coeff=1, mono: tuple | None = None, factors=None):
        self.table = table
        self.coeff = exact_coefficient(coeff)
        self.mono = tuple(mono) if mono is not None else (0,) * len(table)
        self.factors: dict = dict(factors) if factors else {}
        self._rational: RationalFn | None = None

    @classmethod
    def generator_square(cls, table: GeneratorTable, vertex: str) -> "ClusterValue":
        mono = [0] * len(table)
        mono[table.index(wname(vertex))] = 2
        return cls(table, 1, tuple(mono))

    @classmethod
    def from_rational(cls, fn: RationalFn) -> "ClusterValue":
        if not fn:
            raise ValueError("a seed value cannot be zero")
        out = cls(fn.table)._with_factor(fn.num, 1)
        return out._with_factor(fn.den, -1)

    def _with_factor(self, poly: LaurentPoly, exp: int, known=()) -> "ClusterValue":
        """Multiply by ``poly**exp``, first dividing ``poly`` by each known factor
        as often as it divides."""
        if exp == 0:
            return self
        factors = dict(self.factors)
        # the split ends: every factor is non-monomial, since units are dropped
        # below, so each exact division lowers the degree of a nonzero ``poly``
        for p in known:
            q = exact_poly_div(poly, p)
            while q is not None:
                poly = q
                factors[p] = factors.get(p, 0) + exp
                q = exact_poly_div(poly, p)
        # keep factors content-free with positive leading coefficient
        content = poly.content_exponents()
        coeff = self.coeff
        mono = self.mono
        if any(content):
            poly = poly.shift(tuple(-e for e in content))
            mono = tuple(m + exp * c for m, c in zip(mono, content))
        lead = poly.leading_coefficient()
        if lead != 1:
            poly = poly.scale(Q(1) / lead)
            coeff = coeff * Fraction(lead) ** exp
        if poly != LaurentPoly.one(self.table):
            factors[poly] = factors.get(poly, 0) + exp
        return ClusterValue(self.table, coeff, mono, {p: e for p, e in factors.items() if e})

    def inverse(self) -> "ClusterValue":
        return ClusterValue(
            self.table,
            Q(1) / self.coeff,
            tuple(-e for e in self.mono),
            {p: -e for p, e in self.factors.items()},
        )

    def __mul__(self, other: "ClusterValue") -> "ClusterValue":
        out = ClusterValue(
            self.table,
            self.coeff * other.coeff,
            tuple(a + b for a, b in zip(self.mono, other.mono)),
            self.factors,
        )
        for p, e in other.factors.items():
            out = out._with_factor(p, e)
        return out

    def __pow__(self, k: int) -> "ClusterValue":
        return ClusterValue(
            self.table,
            Fraction(self.coeff) ** k,
            tuple(k * e for e in self.mono),
            {p: k * e for p, e in self.factors.items()},
        )

    def split(self) -> tuple:
        """(numerator LaurentPoly, denominator LaurentPoly) with den = positive-exponent part."""
        num = LaurentPoly._of(self.table, {self.mono: self.coeff})
        den = LaurentPoly.one(self.table)
        for p, e in self.factors.items():
            if e > 0:
                num = num * p ** e
            else:
                den = den * p ** (-e)
        return num, den

    def as_rational(self) -> RationalFn:
        if self._rational is None:
            self._rational = RationalFn(*self.split())
        return self._rational

    def sqrt(self) -> "ClusterValue":
        """Exact square root of a perfect-square product form."""
        from math import isqrt

        if any(e % 2 for e in self.mono) or any(e % 2 for e in self.factors.values()):
            raise ArithmeticError("value is not a perfect square in the factored form")
        if self.coeff < 0:
            raise ArithmeticError("coefficient is not a perfect rational square")
        pn, pd = self.coeff.numerator, self.coeff.denominator
        rn, rd = isqrt(pn), isqrt(pd)
        if rn * rn != pn or rd * rd != pd:
            raise ArithmeticError("coefficient is not a perfect rational square")
        return ClusterValue(
            self.table,
            Fraction(rn, rd),
            tuple(e // 2 for e in self.mono),
            {p: e // 2 for p, e in self.factors.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClusterValue):
            return NotImplemented
        if (
            self.coeff == other.coeff
            and self.mono == other.mono
            and self.factors == other.factors
        ):
            return True
        return self.as_rational() == other.as_rational()

    def __repr__(self) -> str:
        return f"ClusterValue({self.as_rational().to_text()})"


def cv_sum(values: Sequence[ClusterValue], known=()) -> ClusterValue:
    """Exact sum of factored values over their least common factored
    denominator, the summed numerator split over ``known`` and then over that
    denominator's factors.  A zero sum raises ``ValueError``."""
    table = values[0].table
    den_exp: dict = {}
    for v in values:
        for p, e in v.factors.items():
            if e < 0:
                den_exp[p] = max(den_exp.get(p, 0), -e)
    total = LaurentPoly.zero(table)
    for v in values:
        num = LaurentPoly._of(table, {v.mono: v.coeff})
        for p, e in v.factors.items():
            lift = e + den_exp.get(p, 0)
            if lift:
                num = num * p ** lift
        for p, e in den_exp.items():
            if p not in v.factors:
                num = num * p ** e
        total = total + num
    # the split must never get a zero sum: exact_poly_div(0, p) is 0, never None
    if not total:
        raise ValueError("a seed value cannot be zero")
    out = ClusterValue(table)._with_factor(total, 1, list(dict.fromkeys([*known, *den_exp])))
    for p, e in den_exp.items():
        out = out._with_factor(p, -e)
    return out


class Seed:
    """A quiver together with values for its vertices over the initial frame.

    A seed is never written after construction: mutation and relabeling build
    a new one.  So ``word_values`` keeps the value of each telescopic word that
    ``teich.telescopic`` evaluates on it, keyed by the word as a tuple.
    """

    def __init__(self, quiver: Quiver, values: Mapping[str, ClusterValue], frame: GeneratorTable):
        self.quiver = quiver
        self.values = dict(values)
        self.frame = frame
        self.word_values: dict = {}
        missing = set(quiver.vertices) - set(self.values)
        if missing:
            raise ValueError(f"vertices without values: {sorted(missing)}")
        unknown = set(self.values) - set(quiver.vertices)
        if unknown:
            raise ValueError(f"values for names that are not vertices: {sorted(unknown)}")

    @classmethod
    def initial(cls, quiver: Quiver, frame: GeneratorTable | None = None) -> "Seed":
        frame = frame or initial_table(quiver.vertices)
        values = {v: ClusterValue.generator_square(frame, v) for v in quiver.vertices}
        return cls(quiver, values, frame)

    def value(self, vertex: str) -> RationalFn:
        return self.values[vertex].as_rational()

    def to_json(self) -> dict:
        out = self.quiver.to_json()
        out["values"] = {v: self.value(v).to_json() for v in self.quiver.vertices}
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Seed":
        quiver = Quiver.from_json(data)
        frame = initial_table(quiver.vertices)
        if "values" not in data:
            return cls.initial(quiver, frame)
        given = data["values"]
        if not isinstance(given, dict):
            raise ValueError(f"values must be an object from vertex to value, got {given!r}")
        values = {v: ClusterValue.from_rational(RationalFn.from_json(frame, f)) for v, f in given.items()}
        return cls(quiver, values, frame)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Seed):
            return NotImplemented
        return (
            self.quiver == other.quiver
            and self.frame == other.frame
            and all(self.values[v] == other.values[v] for v in self.quiver.vertices)
        )


def mutate(seed: Seed, k: str) -> Seed:
    """Seed mutation at a non-frozen vertex, values tracked in the initial frame."""
    if k in seed.quiver.frozen:
        raise FrozenVertexError(f"vertex {k!r} is frozen")
    quiver = seed.quiver.mutate_matrix(k)
    zk = seed.values[k]
    one = ClusterValue(seed.frame)
    known = list(dict.fromkeys(p for v in seed.quiver.vertices for p in seed.values[v].factors))
    plus, minus = cv_sum([one, zk], known), cv_sum([one, zk.inverse()], known)
    values = dict(seed.values)
    values[k] = zk.inverse()
    for v in seed.quiver.vertices:
        m2 = seed.quiver.b(k, v)
        if v == k or m2 == 0:
            continue
        m = m2 // 2
        values[v] = seed.values[v] * (minus if m > 0 else plus) ** (-m)
    return Seed(quiver, values, seed.frame)


def apply_sequence(seed: Seed, seq: Sequence) -> Seed:
    """Left-to-right composition of mutations and vertex transpositions.

    Items are vertex names, or pairs ``(u, v)`` exchanging the two labels.
    """
    current = seed
    for item in seq:
        if isinstance(item, str):
            current = mutate(current, item)
        else:
            u, v = item
            quiver = current.quiver.swap(u, v)
            values = dict(current.values)
            values[u], values[v] = values[v], values[u]
            current = Seed(quiver, values, current.frame)
    return current


# -- log-canonical Poisson bracket ------------------------------------------


def exchange_rows(quiver: Quiver, table: GeneratorTable) -> tuple:
    """The doubled exchange matrix in table positions, one sparse row per
    generator: row i holds the pairs ``(j, b_ij)`` with b_ij nonzero.  A
    generator outside the quiver gets an empty row.  The rows are built once
    per quiver and table, and are tuples, so no caller can change them."""
    rows = quiver._rows.get(table)
    if rows is None:
        pos = [table.index(wname(v)) if wname(v) in table else None for v in quiver.vertices]
        built: list = [()] * len(table)
        for ti, entries in zip(pos, quiver.doubled.entries):
            if ti is not None:
                built[ti] = tuple(sorted((tj, bij) for tj, bij in zip(pos, entries) if bij and tj is not None))
        rows = quiver._rows[table] = tuple(built)
    return rows


def _poly_bracket(p: LaurentPoly, r: LaurentPoly, rows: Sequence, unit: int = 0) -> LaurentPoly:
    """Σ ca·cb·(unit + a·B·b)·w^(a+b) over the term pairs of p and r: 8·{p, r}
    at ``unit`` 0, and 8·(½·p·r + {p, r}) at ``unit`` 4.

    The monomial bracket {w^a, w^b} is (a·B·b)/8 · w^(a+b) with B the doubled
    exchange matrix, so integers are summed here and the caller takes the 1/8
    once.  B·e is formed once per term e of the operand with fewer terms, from
    the sparse ``exchange_rows`` of B; when that operand is ``p``, B·e is
    negated, since b·B·a is −a·B·b when ``Quiver`` keeps B skew-symmetric.  The
    unit is symmetric and is never negated.
    """
    if len(p.terms) < len(r.terms):
        small, big, sign = p.terms, r.terms, -1
    else:
        small, big, sign = r.terms, p.terms, 1
    cache = []
    for e, c in small.items():
        col = [sign * sum([bij * e[j] for j, bij in row]) for row in rows]
        if unit or any(col):
            cache.append((e, c, col))
    terms: dict = {}
    for a, ca in big.items():
        for e, c, col in cache:
            q = unit + sum(map(mul, a, col))
            if not q:
                continue
            key = tuple(map(add, a, e))
            s = terms.get(key, 0) + ca * c * q
            if s:
                terms[key] = s
            elif key in terms:
                del terms[key]
    return LaurentPoly._of(p.table, terms)


def poisson_bracket(f: RationalFn, g: RationalFn, quiver: Quiver) -> RationalFn:
    """{f, g} for the log-canonical bracket {z_u, z_v} = eps_uv z_u z_v.

    For f = p/q and g = r/s, 8·q²s²·{f, g} = 8({p, r}qs − {p, s}qr − {q, r}ps
    + {q, s}pr), which has integer coefficients when f and g have them; its 1/8
    is taken once.  The denominator q²s² is a product of normal ones, so it
    is normal too (see ``RationalFn``) and the pair is taken as it is.
    """
    p, q = f.num, f.den
    r, s = g.num, g.den
    qs = q * s  # raises on mixed generator tables
    rows = exchange_rows(quiver, f.table)
    num = (
        _poly_bracket(p, r, rows) * qs
        - _poly_bracket(p, s, rows) * q * r
        - _poly_bracket(q, r, rows) * p * s
        + _poly_bracket(q, s, rows) * p * r
    )
    return RationalFn._of(num.scale(Fraction(1, 8)), qs * qs)


def skein_product(f: RationalFn, g: RationalFn, quiver: Quiver) -> RationalFn:
    """The distinguished resolution 1/2 f g + {f, g} of a single crossing.

    Geodesic functions are Laurent polynomials in every chart, so f and g must
    be: 8·(½·f·g + {f, g}) is one pass over their term pairs, each weighted by
    4 + a·B·b, and its 1/8 is taken once, by a shift of three bits when every
    coefficient is an int divisible by 8.  ``as_laurent`` raises
    ``ArithmeticError`` on a denominator that is not a monomial.
    """
    p, r = f.as_laurent(), g.as_laurent()
    if r.table != p.table:
        raise ValueError("mixed generator tables")
    eight = _poly_bracket(p, r, exchange_rows(quiver, p.table), 4)
    coeffs = eight.terms.values()
    if Fraction in map(type, coeffs) or any(map((7).__and__, coeffs)):
        return RationalFn.from_poly(eight.scale(Fraction(1, 8)))
    return RationalFn.from_poly(LaurentPoly._of(p.table, {e: c >> 3 for e, c in eight.terms.items()}))


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


class Jet:
    """An exact value and its Euler gradient (w_i·∂/∂w_i, in table order) at
    one point: forward mode.  Closed under +, -, *, / and integer powers by
    the sum, product and quotient rules, which hold for any derivation; an int
    or Fraction operand, on either side, is a constant with zero gradient.
    A leaf is ``Jet(value, grad)`` of a pair that
    ``laurent.rational_evaluator`` gives with ``gradient``."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad: list):
        self.value = value
        self.grad = grad

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value + other.value, list(map(add, self.grad, other.grad)))
        if _is_scalar(other):
            return Jet(self.value + other, self.grad)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, [-g for g in self.grad])

    def __sub__(self, other):
        return self + -other if isinstance(other, Jet) or _is_scalar(other) else NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self.value, other.value
            return Jet(a * b, [a * dg + b * df for df, dg in zip(self.grad, other.grad)])
        if _is_scalar(other):
            return Jet(self.value * other, [other * g for g in self.grad])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            b = other.value
            q = self.value / b
            return Jet(q, [(df - q * dg) / b for df, dg in zip(self.grad, other.grad)])
        if _is_scalar(other):
            return Jet(self.value / other, [g / other for g in self.grad])
        return NotImplemented

    def __rtruediv__(self, other):
        if not _is_scalar(other):
            return NotImplemented
        b = self.value
        q = other / b
        return Jet(q, [-q * dg / b for dg in self.grad])

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        v = self.value
        slope = k * v ** (k - 1) if k else 0
        return Jet(v ** k, [slope * g for g in self.grad])


def brackets_at(quiver: Quiver, table: GeneratorTable, left: Sequence[Sequence], right: Sequence[Sequence]) -> list:
    """The brackets at one real point of functions given by their Euler
    gradients (``laurent.rational_evaluator``): row a holds {f_a, g_b} for
    every b, with ``left[a]`` the gradient of f_a and ``right[b]`` that of g_b.

    The bracket is log-canonical, so {f, g} = (1/8)·Σ b_ij·F_i·G_j with B the
    doubled exchange matrix (``exchange_rows``) and F_i = w_i·∂f/∂w_i.  Each
    side is put over one integer scale, B·G is formed once per right
    gradient, and each bracket is one integer dot product over 8·d_F·d_G,
    a Fraction."""
    ls, d1 = integer_vectors(left)
    rs, d2 = (ls, d1) if right is left else integer_vectors(right)
    rows = exchange_rows(quiver, table)
    hs = [[sum([b * g[j] for j, b in row]) for row in rows] for g in rs]
    den, zero = 8 * d1 * d2, Fraction(0)

    def over(x: int) -> Fraction:
        return Fraction(x, den) if x else zero

    return [[over(sum(map(mul, f, h))) for h in hs] for f in ls]


# -- Casimir lattice ----------------------------------------------------------


def corank(quiver: Quiver) -> int:
    return len(quiver.vertices) - rank_bareiss(quiver.doubled)


def monomial_casimirs(quiver: Quiver) -> list:
    """Basis of the Casimir lattice as Laurent monomials in the w-generators.

    A vector alpha with eps*alpha = 0 yields the monomial prod z_v^alpha_v,
    i.e. w-exponents 2*alpha.  Every basis element is checked to bracket to
    zero with every cluster variable (a kernel identity, asserted exactly).
    """
    basis = kernel_basis(quiver.doubled)
    table = initial_table(quiver.vertices)
    rows = exchange_rows(quiver, table)
    out = []
    for alpha in basis:
        exps = tuple(2 * a for a in alpha)
        mono = LaurentPoly(table, {exps: Q(1)})
        for i, v in enumerate(quiver.vertices):
            zv = LaurentPoly.generator(table, wname(v), 2)
            if _poly_bracket(mono, zv, rows):
                raise AssertionError(f"kernel vector fails to commute with {v}")
        out.append(mono)
    return out


def monomial_is_casimir(quiver: Quiver, z_exponents: Mapping[str, Fraction]) -> bool:
    """Check Sum_j eps_ij alpha_j = 0 for a monomial prod z_j^alpha_j (alpha
    rational, an int or a Fraction per vertex), with alpha scaled to integers
    by ``integer_vectors``.  A name that is not a vertex is a ValueError."""
    unknown = set(z_exponents) - set(quiver.vertices)
    if unknown:
        raise ValueError(f"not vertices of the quiver: {', '.join(sorted(unknown))}")
    (alpha,), _ = integer_vectors([[z_exponents.get(v, 0) for v in quiver.vertices]])
    return not any(quiver.doubled.mul_vector(alpha))
