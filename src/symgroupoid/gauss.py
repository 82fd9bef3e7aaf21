"""Gaussian rationals: exact field elements a + b*i for rank checks on loci
where a squared generator must take a negative value.

One rule types every exact number the program computes: a ``Fraction`` when
it is real and a ``GaussianRational`` otherwise.  Every arithmetic
operation below returns its result through ``exact``, which applies it."""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """a + b*i with rational parts.  The program builds one only for b != 0
    (see ``exact``); one built with b = 0 from outside input still equals,
    and hashes as, its real part."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _part(re)
        self.im = _part(im)

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return exact(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return exact(-self.re, -self.im)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return exact(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return exact(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return exact(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out, base = Fraction(1), self
        while k:
            if k & 1:
                out = base * out
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value hashes as its real part, as it compares equal to it
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


def exact(re: Fraction, im: Fraction):
    """The number re + i*im: ``re`` itself when ``im`` is 0, else a
    GaussianRational."""
    return GaussianRational(re, im) if im else re


def _part(x) -> Fraction:
    """A real or imaginary part: a Fraction as is, an int as a Fraction; a float,
    bool or string would not be an exact rational of its own, so it is a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"a GaussianRational part must be an int or a Fraction, got {x!r}")


def _coerce(x) -> GaussianRational | None:
    """An int or Fraction (not a bool) as a GaussianRational; None for any
    other operand, so that the operators return NotImplemented and Python
    tries the operand's reflected method."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return GaussianRational(x)
    return None
