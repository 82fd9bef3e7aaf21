"""Sparse multivariate Laurent polynomials and rational functions over exact rationals.

Every quantity in this package is a Laurent polynomial (or a ratio of two) in
square-root generators ``w:v``.  A cluster variable ``z_v`` is represented as
``w_v**2``, so half-integer powers of cluster variables become integer powers
of the generators and no radicals ever appear.

A coefficient is a plain ``int`` when it is integral and a
:class:`fractions.Fraction` with denominator > 1 otherwise, never a float or a
bool; the constructor's coercion establishes that invariant for outside
input, the kernel's arithmetic keeps it for its own results (see
``LaurentPoly._of``), and every division or negative power of a coefficient
goes through ``Fraction``.  Exponent vectors
are tuples of ints indexed by a :class:`GeneratorTable`.  Terms are kept in a
dict with no zero coefficients; the canonical term order is graded
lexicographic on the exponent vector, which makes term counts and serialized
output deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, compress, repeat
from math import gcd, prod
from operator import add, mul, sub
from typing import Callable, Iterable, Mapping, Sequence

from .intlinalg import integer_vectors

Q = Fraction


def exact_int(value, what: str) -> int:
    """A JSON integer (not a boolean) from a file; anything else is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def exact_rational(value, what: str) -> Fraction:
    """A JSON integer (not a boolean) or a string ``Fraction`` parses, such as
    ``"p/q"``; floats and anything else are a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f'{what} must be a JSON integer or a "p/q" string, got {value!r}')
    return Fraction(value)


class SingularPointError(ArithmeticError):
    """Raised when a denominator vanishes at an evaluation point."""

    def __init__(self, denominator: "LaurentPoly"):
        self.denominator = denominator
        super().__init__("denominator vanishes at the evaluation point")


class GeneratorTable:
    """Ordered list of generator names; exponent vectors index into it."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be unique")
        self._index = {n: i for i, n in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"GeneratorTable({list(self.names)!r})"


def exact_coefficient(x) -> int | Fraction:
    """The exact rational ``x`` as a coefficient: an ``int`` when integral, else
    a ``Fraction``.  An ``int`` or a ``Fraction`` is not rebuilt (an integral
    ``Fraction`` gives its numerator); strings are parsed by ``Fraction``, and
    floats, bools and anything else are a TypeError."""
    if type(x) is int:
        return x
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction, str)):
        raise TypeError(f"cannot interpret {x!r} as an exact rational")
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def grlex_key(exps: tuple) -> tuple:
    """Graded-lex sort key: total degree first, then the exponent vector."""
    return (sum(exps), exps)


class LaurentPoly:
    """Sparse Laurent polynomial: map exponent vector -> nonzero exact coefficient.

    Invariant of ``terms``: every key is a tuple of ints of the table's length,
    and every coefficient is a nonzero ``int``, or a ``Fraction`` with
    denominator > 1.  The public constructor establishes it for any
    coefficients, and refuses (ValueError) a key that breaks it.
    The trusted constructor ``_of`` only turns integral ``Fraction``s into
    ints; it may be called by the arithmetic of this module and by
    ``quiver._poly_bracket``, ``quiver.skein_product``, ``quiver.cv_sum`` and
    ``quiver.ClusterValue.split``, on a term dict they have just built, with
    tuple keys of the table's length and nonzero ``int``/``Fraction``
    coefficients, and no longer touch.
    """

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: GeneratorTable, terms: Mapping[tuple, int | Fraction] | None = None):
        self.table = table
        clean = {}
        if terms:
            keys = list(map(tuple, terms))
            if set(map(len, keys)) - {len(table)} or set(map(type, chain.from_iterable(keys))) - {int}:
                raise ValueError(f"every key must be a tuple of {len(table)} ints, one exponent per generator")
            for exps, coeff in zip(keys, terms.values()):
                c = exact_coefficient(coeff)
                if c:
                    clean[exps] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def _of(cls, table: GeneratorTable, terms: dict) -> "LaurentPoly":
        """The polynomial on a term dict the kernel built (see the class
        docstring), which it takes over without a copy; an integral
        ``Fraction`` coefficient becomes an int."""
        if Fraction in map(type, terms.values()):
            for exps, c in terms.items():
                if type(c) is Fraction and c.denominator == 1:
                    terms[exps] = c.numerator
        p = object.__new__(cls)
        p.table = table
        p.terms = terms
        p._hash = None
        return p

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, table: GeneratorTable) -> "LaurentPoly":
        return cls(table, {})

    @classmethod
    def constant(cls, table: GeneratorTable, value) -> "LaurentPoly":
        c = exact_coefficient(value)
        if not c:
            return cls.zero(table)
        return cls._of(table, {(0,) * len(table): c})

    @classmethod
    def one(cls, table: GeneratorTable) -> "LaurentPoly":
        return cls.constant(table, 1)

    @classmethod
    def generator(cls, table: GeneratorTable, name: str, power: int = 1) -> "LaurentPoly":
        exps = [0] * len(table)
        exps[table.index(name)] = power
        return cls(table, {tuple(exps): 1})

    @classmethod
    def monomial(cls, table: GeneratorTable, coeff, exps: Mapping[str, int]) -> "LaurentPoly":
        """``coeff`` times the generators to integer exponents; any other
        exponent is a ValueError."""
        vec = [0] * len(table)
        for name, e in exps.items():
            vec[table.index(name)] = exact_int(e, f"exponent of {name}")
        return cls(table, {tuple(vec): coeff})

    # -- basic structure -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def term_count(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def leading_coefficient(self) -> int | Fraction:
        """Coefficient of the graded-lex-largest term (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        return self.terms[_grlex_max(self.terms)]

    def content_exponents(self) -> tuple:
        """Componentwise minimum of all exponent vectors (zero vector if empty)."""
        if not self.terms:
            return (0,) * len(self.table)
        if len(self.terms) == 1:
            return next(iter(self.terms))
        return tuple(map(min, *self.terms))

    def support(self) -> set:
        """Names of generators appearing with a nonzero exponent."""
        names = self.table.names
        seen = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e != 0:
                    seen.add(names[i])
        return seen

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.table != other.table:
            raise ValueError("mixed generator tables")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = s
            elif exps in terms:
                del terms[exps]
        return LaurentPoly._of(self.table, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) - c
            if s:
                terms[exps] = s
            elif exps in terms:
                del terms[exps]
        return LaurentPoly._of(self.table, terms)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        # polynomials are never written after construction, so a product by
        # the constant 1 can be the other operand itself
        if _is_one(other.terms):
            return self
        if _is_one(self.terms):
            return other
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        if len(small) == 1:
            # a monomial shifts and scales: the keys stay distinct, no sum cancels
            ((e2, c2),) = small.items()
            return LaurentPoly._of(self.table, {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in big.items()})
        terms: dict = {}
        for e2, c2 in small.items():
            for e1, c1 in big.items():
                key = tuple(map(add, e1, e2))
                s = terms.get(key, 0) + c1 * c2
                if s:
                    terms[key] = s
                elif key in terms:
                    del terms[key]
        return LaurentPoly._of(self.table, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        c = exact_coefficient(c)
        if not c:
            return LaurentPoly.zero(self.table)
        return LaurentPoly._of(self.table, {e: k * c for e, k in self.terms.items()})

    def shift(self, exps: tuple) -> "LaurentPoly":
        """Multiply by the monomial with exponent vector ``exps``."""
        if len(exps) != len(self.table):
            raise ValueError("shift vector length differs from the table's")
        return LaurentPoly._of(self.table, {tuple(map(add, e, exps)): c for e, c in self.terms.items()})

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            if not self.is_monomial():
                raise ArithmeticError("negative power of a non-monomial")
            ((exps, coeff),) = self.terms.items()
            return LaurentPoly(self.table, {tuple(k * e for e in exps): Fraction(coeff) ** k})
        if k == 0:
            return LaurentPoly.one(self.table)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.table, frozenset(self.terms.items())))
        return self._hash

    # -- calculus ----------------------------------------------------------

    def derivative(self, name: str) -> "LaurentPoly":
        i = self.table.index(name)
        terms = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            key = tuple(new)
            s = terms.get(key, 0) + c * e
            if s:
                terms[key] = s
            elif key in terms:
                del terms[key]
        return LaurentPoly._of(self.table, terms)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form ``coeff * w:name^e * ...`` joined by `` + ``."""
        if not self.terms:
            return "0"
        chunks = []
        for exps, c in self.sorted_terms():
            parts = [str(c)]
            for name, e in zip(self.table.names, exps):
                if e != 0:
                    parts.append(f"{name}^{e}" if e != 1 else name)
            chunks.append(" * ".join(parts))
        return " + ".join(chunks)

    def to_json(self) -> list:
        out = []
        for exps, c in self.sorted_terms():
            entry = {"coeff": f"{c.numerator}/{c.denominator}", "exps": {}}
            for name, e in zip(self.table.names, exps):
                if e != 0:
                    entry["exps"][name] = e
            out.append(entry)
        return out

    @classmethod
    def from_json(cls, table: GeneratorTable, data: list) -> "LaurentPoly":
        terms = {}
        for entry in data:
            vec = [0] * len(table)
            for name, e in entry["exps"].items():
                vec[table.index(name)] = exact_int(e, f"exponent of {name}")
            terms[tuple(vec)] = exact_rational(entry["coeff"], "a coefficient")
        return cls(table, terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"


class RationalFn:
    """Ratio of two Laurent polynomials in canonical form.

    Normalization: the denominator's componentwise-lowest exponent vector is
    shifted to zero (monomial content moved into the numerator, which may then
    carry negative exponents), its rational content is divided out of both
    sides (its coefficients are then coprime integers, so a constant is over 1)
    and its graded-lex leading coefficient is positive.  A value with a
    monomial denominator, a Laurent polynomial, is therefore stored as
    ``(its Laurent polynomial, 1)``.  Full multivariate gcd is not taken;
    equality of values with different denominators is decided by
    cross-multiplication, which needs none.

    Normal denominators are closed under multiplication: lowest exponents
    add (per generator, the lowest-degree parts multiply), a product of
    primitive integer polynomials is primitive (Gauss's lemma), and
    graded-lex leading coefficients multiply.  So a sum, difference,
    product or non-negative power of normal forms, whose denominator is a
    product of normal ones, is already normal, and only a zero numerator
    needs a fix: its denominator becomes 1.  Those results, ``from_poly``
    (over 1), ``derivative`` (over den·den) and ``quiver.poisson_bracket``
    (over q²s²) go through the trusted ``_of``; a quotient, an inverse, a
    substitution and every outside input (``from_json``,
    ``ClusterValue.as_rational``) go through the validating constructor.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if num.table != den.table:
            raise ValueError("mixed generator tables")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = LaurentPoly.one(den.table)
        else:
            low = den.content_exponents()
            if any(low):
                neg = tuple(-e for e in low)
                num = num.shift(neg)
                den = den.shift(neg)
            coeffs = den.terms.values()
            # a product of denominators with content 1 has content 1 (Gauss's
            # lemma), so most denominators pass here, the monomial 1 fastest
            if len(coeffs) > 1 or 1 not in coeffs:
                (ints,), d = integer_vectors([coeffs])
                g = gcd(*ints)  # the content is g/d
                if g != 1 or d != 1:
                    num = num.scale(Fraction(d, g))
                    den = den.scale(Fraction(d, g))
        if den.leading_coefficient() < 0:
            num = -num
            den = -den
        self.num = num
        self.den = den

    @classmethod
    def _of(cls, num: LaurentPoly, den: LaurentPoly) -> "RationalFn":
        """The pair ``(num, den)`` as it is, for a denominator already in
        normal form (see the class docstring); a zero ``num`` goes over 1."""
        f = object.__new__(cls)
        f.num = num
        f.den = den if num else LaurentPoly.one(den.table)
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "RationalFn":
        return cls._of(p, LaurentPoly.one(p.table))

    @classmethod
    def constant(cls, table: GeneratorTable, value) -> "RationalFn":
        return cls.from_poly(LaurentPoly.constant(table, value))

    @classmethod
    def generator(cls, table: GeneratorTable, name: str, power: int = 1) -> "RationalFn":
        return cls.from_poly(LaurentPoly.generator(table, name, power))

    @property
    def table(self) -> GeneratorTable:
        return self.num.table

    # -- structure ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_laurent(self) -> bool:
        """True when the denominator is a single monomial."""
        return self.den.is_monomial()

    def as_laurent(self) -> LaurentPoly:
        """The value as a Laurent polynomial (monomial denominator required):
        the numerator, since a monomial denominator is normalized to 1."""
        if not self.is_laurent():
            raise ArithmeticError("not in Laurent form: denominator is not a monomial")
        return self.num

    def support(self) -> set:
        return self.num.support() | self.den.support()

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "RationalFn":
        if isinstance(other, RationalFn):
            return other
        if isinstance(other, LaurentPoly):
            return RationalFn.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RationalFn.constant(self.table, other)
        raise TypeError(f"cannot combine RationalFn with {type(other).__name__}")

    def __add__(self, other) -> "RationalFn":
        o = self._coerce(other)
        if self.den == o.den:
            return RationalFn._of(self.num + o.num, self.den)
        return RationalFn._of(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFn":
        return RationalFn._of(-self.num, self.den)

    def __sub__(self, other) -> "RationalFn":
        o = self._coerce(other)
        if self.den == o.den:
            return RationalFn._of(self.num - o.num, self.den)
        return RationalFn._of(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other) -> "RationalFn":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RationalFn":
        o = self._coerce(other)
        return RationalFn._of(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFn":
        o = self._coerce(other)
        if not o:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFn(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "RationalFn":
        return self._coerce(other) / self

    def inverse(self) -> "RationalFn":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return RationalFn(self.den, self.num)

    def __pow__(self, k: int) -> "RationalFn":
        if k < 0:
            return self.inverse() ** (-k)
        return RationalFn._of(self.num ** k, self.den ** k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RationalFn, LaurentPoly, int, Fraction)):
            return NotImplemented
        o = self._coerce(other)
        if self.den == o.den:
            return self.num == o.num
        return self.num * o.den == o.num * self.den

    # equal values need not share a canonical (num, den) without a gcd, so no
    # hash can agree with ==; rational functions are not set members or keys
    __hash__ = None

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self, name: str) -> "RationalFn":
        num = self.num.derivative(name) * self.den - self.num * self.den.derivative(name)
        return RationalFn._of(num, self.den * self.den)

    def evaluate(self, point: Mapping[str, object]):
        return rational_evaluator([self])(point)[0]

    def substitute(
        self,
        bindings: Mapping[str, "RationalFn"],
        square_bindings: Mapping[str, "RationalFn"] | None = None,
    ) -> "RationalFn":
        """Exact composition: replace every generator by a rational function.

        A generator in ``square_bindings`` is bound at the squared level: its
        value replaces the generator's square, so it must appear with even
        exponents only (its square root need not exist in the ring).

        One pass over Laurent polynomials, over a common denominator.  With
        the binding ``N_g/D_g`` of generator ``g`` and its lowest and largest
        exponents ``lo_g`` and ``hi_g`` over the terms of ``num`` and ``den``
        (``lo_g <= 0``, since the denominator has content zero), both are
        multiplied by ``prod N_g**-lo_g * D_g**hi_g``: each term
        ``c * prod g**e`` becomes ``c * prod N_g**(e-lo_g) * D_g**(hi_g-e)``
        and the common factor cancels from the ratio.  When ``N_g`` and
        ``D_g`` are monomials the factor is an (exponent vector, coefficient)
        pair, with the coefficient an integer after one more common scale.
        """
        square_bindings = square_bindings or {}
        missing = self.support() - set(bindings) - set(square_bindings)
        if missing:
            raise KeyError(f"unbound generators: {sorted(missing)}")
        values = [*bindings.values(), *square_bindings.values()]
        if not values:
            raise ValueError("empty bindings")
        target = values[0].table
        if any(v.table != target for v in values):
            raise ValueError("mixed generator tables")
        zero = (0,) * len(target)
        one = LaurentPoly.one(target)
        exponents = [*self.num.terms, *self.den.terms]
        # per generator in use, its factor for each exponent it takes
        monos: list = []  # (table position, {e: (exponent vector, int coefficient)})
        polys: list = []  # (table position, {e: LaurentPoly})
        for i, name in enumerate(self.table.names):
            col = {exps[i] for exps in exponents}
            if col == {0}:
                continue
            if name in square_bindings:
                odd = sorted(e for e in col if e % 2)
                if odd:
                    raise ArithmeticError(
                        f"generator {name} appears with odd exponent {odd[0]}; no square root available"
                    )
                value, step = square_bindings[name], 2
            else:
                value, step = bindings[name], 1
            lo, hi = min(col) // step, max(col) // step
            num, den = value.num, value.den
            if num.is_monomial() and den.is_monomial():
                ((nvec, nc),), ((dvec, dc),) = num.terms.items(), den.terms.items()
                nc, dc = Fraction(nc), Fraction(dc)
                # nc**a * dc**b with a + b = hi - lo, scaled by (nc, dc denominators)**(hi - lo)
                p, q = nc.numerator * dc.denominator, dc.numerator * nc.denominator
                table = {}
                for e in col:
                    a, b = e // step - lo, hi - e // step
                    vec = tuple(a * x + b * y for x, y in zip(nvec, dvec))
                    table[e] = (vec if any(vec) else zero, p ** a * q ** b)
                monos.append((i, table))
            else:
                polys.append((i, {e: num ** (e // step - lo) * den ** (hi - e // step) for e in col}))
        products: dict = {}  # exponents of the non-monomial bindings -> product of their factors

        def sub(p: LaurentPoly) -> LaurentPoly:
            acc: dict = {}
            for exps, c in p.terms.items():
                vec = zero
                for i, table in monos:
                    fvec, fc = table[exps[i]]
                    if fvec is not zero:
                        vec = tuple(map(add, vec, fvec))
                    c *= fc
                key = tuple(exps[i] for i, _ in polys)
                prod = products.get(key)
                if prod is None:
                    factors = [table[e] for (_, table), e in zip(polys, key)]
                    prod = products[key] = reduce(mul, factors) if factors else one
                for pexps, pc in prod.terms.items():
                    k = tuple(map(add, vec, pexps))
                    acc[k] = acc.get(k, 0) + c * pc
            return LaurentPoly(target, acc)

        den = sub(self.den)
        if not den:
            raise ZeroDivisionError("denominator is identically zero after substitution")
        return RationalFn(sub(self.num), den)

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, table: GeneratorTable, data: dict) -> "RationalFn":
        return cls(LaurentPoly.from_json(table, data["num"]), LaurentPoly.from_json(table, data["den"]))

    def to_text(self) -> str:
        if self.is_laurent():
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    def __repr__(self) -> str:
        return f"RationalFn({self.to_text()})"


def point_plan(polys: Sequence[LaurentPoly]) -> Callable:
    """The evaluation of polynomials over one table, prepared once from their
    exponents, as a function ``run(point, gradient=False)`` to call at each
    point.

    A coordinate is an int (not a bool) or a Fraction; anything else is a
    TypeError.  With ``w_i = a/b`` and ``lo <= e <= hi`` for every exponent
    e of ``w_i`` over the terms of all the polynomials,
    ``(a/b)**e = a**(e-lo) * b**(hi-e) * a**lo / b**hi``: one integer power
    list per generator, shared by every polynomial, makes every term an
    integer, up to one scale shared by all terms, once the coefficients are
    over one scale (``intlinalg.integer_vectors``).  A zero coordinate takes
    the powers of ``a = 0`` with ``lo`` raised to 0, which keeps the scale
    nonzero; under a negative exponent it is a ZeroDivisionError.  Each of these errors, and the
    KeyError of a missing coordinate that a term uses, is raised by the run
    at the point that meets it.

    The plan holds what depends on the exponents alone: the coefficients
    over their scale, each polynomial's slice of the terms of all of them and,
    per generator in use, the exponents of its power list and each term's
    index into it.  When the exponents from ``min(lo, 0)`` to ``max(hi, 0)``
    are no more than the terms, the list holds all of them and the index is
    the exponent itself: the list is rotated to start at exponent 0, so that
    a negative one counts from its end.  Otherwise the list holds the
    exponents that occur, and the index is each term's position among them.
    Either way a list is never longer than the terms, whatever the span
    ``hi - lo``.  A run builds each generator's power list and multiplies
    every term by its powers in one sweep over the terms; each polynomial's
    value and partials are sums over its slice.

    A run returns ``(num, den, rows)``, one row ``(value, partials)`` per
    polynomial: its value is ``value * num/den``, with ``value`` an int.
    With ``gradient``, ``partials`` is a list of ints in table order, the
    Euler partial ``w_i * dp/dw_i`` being ``partials[i] * num/den``: the
    exponent-weighted sum of the same terms.  Otherwise it is None.
    """
    if not polys:
        return lambda point, gradient=False: (1, 1, [])
    table = polys[0].table
    if len(polys) > 1 and any(p.table != table for p in polys):
        raise ValueError("mixed generator tables")
    names = table.names
    count = len(polys)
    # every term of every polynomial; polynomial k owns terms starts[k]:ends[k]
    exps = [e for p in polys for e in p.terms]
    coeffs = [c for p in polys for c in p.terms.values()]
    ends = list(accumulate(len(p.terms) for p in polys))
    starts = [0, *ends[:-1]]
    (base,), lcd = integer_vectors([coeffs])
    # per generator in use: (table index, name, exponent column, lowest and
    # highest exponent of its power list, gaps between the list's exponents,
    # each term's index into the list, the list's rotation); a generator with
    # one exponent scales every term alike and needs no list
    in_use = []
    for i, col in enumerate(zip(*exps)):
        present = set(col)
        lo, hi = min(present), max(present)
        if lo == hi:
            if lo:
                in_use.append((i, names[i], col, lo, hi, None, None, 0))
            continue
        low, high = min(lo, 0), max(hi, 0)
        if high - low < len(col):
            # the list runs over every exponent from low to high; rotated to
            # start at exponent 0 it is indexed by the exponent itself, a
            # negative one counting from its end
            in_use.append((i, names[i], col, low, high, [1] * (high - low), col, -low))
        else:
            es = sorted(present)
            position = {e: k for k, e in enumerate(es)}
            in_use.append((i, names[i], col, lo, hi, list(map(sub, es[1:], es)), list(map(position.__getitem__, col)), 0))

    def run(point: Mapping[str, object], gradient: bool = False) -> tuple:
        num, den = 1, lcd
        columns = []
        for _, name, _, lo, hi, steps, index, rotation in in_use:
            if name not in point:
                raise KeyError(f"no value for generator {name!r}")
            v = point[name]
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise TypeError(f"{name} = {v!r} is not an exact rational")
            a, b = v.numerator, v.denominator
            first = 0  # the power of a at the list's lowest exponent
            if not a:
                if lo < 0:
                    raise ZeroDivisionError(f"{name} = 0 under a negative exponent")
                lo, first = 0, lo
            if lo > 0:
                num *= a ** lo
            else:
                den *= a ** -lo
            if hi > 0:
                den *= b ** hi
            else:
                num *= b ** -hi
            if index is not None:
                powers = _powers(a, b, first, steps)
                if rotation:
                    powers = powers[rotation:] + powers[:rotation]
                columns.append(map(powers.__getitem__, index))
            elif first:
                columns.append(repeat(0))  # a zero coordinate under the one, positive, exponent
        vals = list(map(prod, zip(base, *columns))) if columns else base
        partials = [None] * count
        if gradient:
            # per generator, its exponent-weighted sum over each polynomial's
            # terms; one that no term uses reads 0 in every polynomial
            weighted = [[0] * count] * len(names)
            for i, _, col, *_ in in_use:
                weighted[i] = _slice_sums(list(map(mul, col, vals)), starts, ends)
            partials = [list(row) for row in zip(*weighted)] if names else [[] for _ in range(count)]
        return num, den, list(zip(_slice_sums(vals, starts, ends), partials))

    return run


def _slice_sums(terms: list, starts: list, ends: list) -> list:
    """The sum of each slice ``terms[start:end]``, from one running sum."""
    running = [0, *accumulate(terms)]
    return list(map(sub, map(running.__getitem__, ends), map(running.__getitem__, starts)))


def _powers(a: int, b: int, first: int, steps: list) -> list:
    """``a**(e-lo) * b**(hi-e)`` for ascending exponents e up to hi, the
    lowest ``first`` above lo and the others ``steps`` apart: each power of a
    from the one before, and each power of b from the one after."""
    apow, bpow = [a ** first], [1]
    for s in steps:
        apow.append(apow[-1] * a ** s)
    for s in reversed(steps):
        bpow.append(bpow[-1] * b ** s)
    return list(map(mul, apow, reversed(bpow)))


def _is_one(terms: Mapping[tuple, object]) -> bool:
    """Whether a term dict is the constant 1."""
    if len(terms) != 1:
        return False
    ((exps, c),) = terms.items()
    return c == 1 and not any(exps)


def _box(terms: Mapping[tuple, object]) -> list:
    """The (lo, hi) of each exponent over a nonempty set of terms."""
    if len(terms) == 1:
        return [(e, e) for e in next(iter(terms))]
    return list(zip(map(min, *terms), map(max, *terms)))


def _grlex_max(terms: Mapping[tuple, object]) -> tuple:
    """The graded-lex-largest exponent vector of a nonempty set of terms (the
    ``grlex_key`` max): the largest vector among those of the top degree."""
    degrees = list(map(sum, terms))
    top = max(degrees)
    return max(compress(terms, map(top.__eq__, degrees)))


def _polynomial_pair(f: RationalFn) -> tuple:
    """``(num, den)`` of ``f`` times the monomial that clears the numerator's
    negative exponents: the same value, as a ratio of polynomials."""
    clear = tuple(max(0, -e) for e in f.num.content_exponents())
    if not any(clear):
        return f.num, f.den
    return f.num.shift(clear), f.den.shift(clear)


def rational_evaluator(fns: Sequence[RationalFn]) -> Callable:
    """The evaluation of rational functions, prepared once as one
    ``point_plan`` over every numerator and denominator, as a function
    ``evaluate(point, gradient=False)`` that returns their values at a point
    or, with ``gradient``, one pair ``(value, euler_gradient)`` per function.

    The pass's shared scale cancels in each ratio N/D, and in each Euler
    partial ``(E·N·D - N·E·D)/D²`` of the quotient rule (E·N the numerator's
    Euler partial), so every value and partial is one Fraction.

    A zero denominator is a SingularPointError, and so is a zero coordinate
    under a negative exponent of a numerator.  The error names the stored
    denominator times the monomial that clears the numerator's negative
    exponents, which vanishes at the point."""
    run = point_plan([p for f in fns for p in (f.num, f.den)])
    cleared = None  # the plan of the cleared pairs, made when a point first needs it

    def evaluate(point: Mapping[str, object], gradient: bool = False) -> list:
        nonlocal cleared
        try:
            _, _, rows = run(point, gradient)
        except ZeroDivisionError:
            # a denominator has content zero, so a numerator put a zero
            # coordinate under a negative exponent; the cleared pairs have the
            # same values, and that function's cleared denominator vanishes
            if cleared is None:
                cleared = point_plan([p for f in fns for p in _polynomial_pair(f)])
            _, _, rows = cleared(point, gradient)
        out = []
        for k, f in enumerate(fns):
            nv, npart = rows[2 * k]
            dv, dpart = rows[2 * k + 1]
            if not dv:
                raise SingularPointError(_polynomial_pair(f)[1])
            value = Fraction(nv, dv)
            if gradient:
                d2 = dv * dv
                value = value, [Fraction(a * dv - nv * b, d2) for a, b in zip(npart, dpart)]
            out.append(value)
        return out

    return evaluate


def exact_poly_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """Exact Laurent division ``num / den`` or None when it does not divide.

    Two refusals come first.  Degrees in each generator add under
    multiplication, so an exact quotient lies in the box
    ``min(num) - min(den) <= e <= max(num) - max(den)``, componentwise, and
    an empty box ends the division.  When every coefficient is an int and
    ``den`` is primitive (its coefficients have gcd 1), an exact quotient has
    integer coefficients by Gauss's lemma, so ``den(1)`` divides ``num(1)``
    (both are coefficient sums) unless ``den(1)`` is 0.

    Then the division runs one generator at a time (``_divide``): as
    polynomials in one generator x, with coefficients in the others, the
    quotient's coefficient of each power of x, from the top down, is the
    remainder's top coefficient over ``den``'s, divided the same way, and
    its product with ``den``'s lower coefficients is taken off the
    remainder.  An exact quotient is unique and every step computes its
    coefficients, so a coefficient that does not divide, an empty range of
    quotient degrees or a remainder left at the end means none exists.
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return LaurentPoly.zero(num.table)
    nterms, dterms = num.terms, den.terms
    for (nlo, nhi), (dlo, dhi) in zip(_box(nterms), _box(dterms)):
        if nlo - dlo > nhi - dhi:
            return None  # the box is empty: no quotient has a term in it
    dcoeffs = dterms.values()
    if Fraction not in map(type, dcoeffs) and Fraction not in map(type, nterms.values()) and gcd(*dcoeffs) == 1:
        d1 = sum(dcoeffs)
        if d1 and sum(nterms.values()) % d1:
            return None  # an integer quotient q would make num(1) = den(1) * q(1)
    quo = _divide(nterms, dterms)
    return None if quo is None else LaurentPoly._of(num.table, quo)


def _divide(num: dict, den: dict) -> dict | None:
    """The exact quotient of two term dicts (``den`` nonzero), or None, by
    recursion on a generator in which ``den`` varies (see ``exact_poly_div``).
    The generator chosen is the one whose top coefficient in ``den`` has the
    fewest terms, so that a monomial top coefficient, when one exists, makes
    each step one shift-and-scale pass."""
    if len(den) == 1:
        ((e, c),) = den.items()
        if c == 1:
            return {tuple(map(sub, k, e)): v for k, v in num.items()}
        return {tuple(map(sub, k, e)): _over(v, c) for k, v in num.items()}
    best = None  # (terms of the top coefficient, generator, top degree)
    for x, col in enumerate(zip(*den)):
        top = max(col)
        if top != min(col) and (best is None or col.count(top) < best[0]):
            best = (col.count(top), x, top)
            if best[0] == 1:
                break
    _, x, top = best
    dgroups: dict = {}  # x-degree -> the terms of den with that degree
    for e, c in den.items():
        dgroups.setdefault(e[x], {})[e] = c
    dtop = dgroups.pop(top)
    dlow = min(dgroups)
    groups: dict = {}  # x-degree -> the remainder's terms with that degree
    for e, c in num.items():
        groups.setdefault(e[x], {})[e] = c
    quo: dict = {}
    # the quotient's x-degrees run from max(num) - top down to min(num) - min(den)
    for j in range(max(groups) - top, min(groups) - dlow - 1, -1):
        rtop = groups.pop(j + top, None)
        if not rtop:
            continue
        q = _divide(rtop, dtop)
        if q is None:
            return None
        quo.update(q)
        for i, d in dgroups.items():
            g = groups.setdefault(j + i, {})
            for e2, c2 in d.items():
                for e1, c1 in q.items():
                    key = tuple(map(add, e1, e2))
                    s = g.get(key, 0) - c1 * c2
                    if s:
                        g[key] = s
                    elif key in g:
                        del g[key]
    if any(groups.values()):
        return None
    return quo


def _over(v, c) -> int | Fraction:
    """The coefficient ``v / c``, an int when it is integral."""
    if type(v) is int and type(c) is int:
        q, r = divmod(v, c)
        if not r:
            return q
    return exact_coefficient(Fraction(v, c))
