"""Reconstruction of five transport matrices from the ten trace functions of a
genus-two chain, with consistency and monodromy residuals.

This is the one floating-point corner of the package: the solve involves
square roots.  All internal arithmetic runs in fixed high-precision decimals
(exact rational inputs are converted losslessly), so the advertised residual
tolerances hold with a wide margin whenever the input sits on the geometric
locus; the residuals are reported as ordinary floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Mapping, Sequence

from .laurent import rational_evaluator
from .quiver import wname
from .teich import chain_matrix, trace_cubic

DEFAULT_TOL = 1e-9
PRECISION = 60


class ReconstructionError(ValueError):
    def __init__(self, quantity: str, message: str):
        self.quantity = quantity
        super().__init__(f"{quantity}: {message}")


@dataclass
class Reconstruction:
    matrices: list  # five 2x2 matrices with Decimal entries


def _high_precision(fn):
    """Run ``fn`` in a local decimal context of PRECISION digits, leaving the caller's alone."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with localcontext() as ctx:
            ctx.prec = PRECISION
            return fn(*args, **kwargs)

    return wrapped


def to_decimal(x) -> Decimal:
    if isinstance(x, Decimal):
        return x
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / Decimal(x.denominator)
    if isinstance(x, int):
        return Decimal(x)
    return Decimal(repr(float(x)))


def _mat_mul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def _mat_inv(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return [[a[1][1] / det, -a[0][1] / det], [-a[1][0] / det, a[0][0] / det]]


def _trace_residual(m4, m5, g45):
    """|d·k + g·h − e·j − i·f − G_{4,5}| for M4 = [[d, e], [f, g]] and
    M5 = [[h, i], [j, k]]: the trace equation left over by the solve."""
    (d, e), (f, g) = m4
    (h, i), (j, k) = m5
    return abs(d * k + g * h - e * j - i * f - g45)


def _normalize_input(g: Mapping) -> dict:
    return {tuple(sorted(k)): to_decimal(v) for k, v in g.items()}


@_high_precision
def reconstruct(g: Mapping) -> Reconstruction:
    """Five transport matrices from the ten trace values g[(i, j)], i < j <= 5.

    The first matrix is the identity, the second diagonal hyperbolic, the
    third symmetric with positive off-diagonal root; the rest come from the
    linear trace system plus the unit-determinant quadratics.  The root
    assignment inside each quadratic pair is fixed by the residuals (the
    final trace equation and the monodromy are the arbiters).
    """
    g = _normalize_input(g)
    g12 = g[(1, 2)]
    if g12 <= 2:
        raise ReconstructionError("G_{1,2}", "must exceed 2 for a hyperbolic element")
    half = g12 / 2
    ep = half + (half * half - 1).sqrt()  # e^{l/2}
    em = 1 / ep
    denom = ep - em

    def linear_pair(g2k, g1k):
        return (-g2k + g1k * ep) / denom, (g2k - g1k * em) / denom

    a3, c3 = linear_pair(g[(2, 3)], g[(1, 3)])
    d4, g4 = linear_pair(g[(2, 4)], g[(1, 4)])
    h5, k5 = linear_pair(g[(2, 5)], g[(1, 5)])

    disc = g12 ** 2 - 4
    b2 = (trace_cubic(g12, g[(2, 3)], g[(1, 3)]) + 4) / disc
    if abs(b2 - (a3 * c3 - 1)) > Decimal("1e-20") * max(Decimal(1), abs(b2)):
        raise ReconstructionError("b^2", "trace identity a c - 1 violated")
    if b2 < 0:
        if b2 > -to_decimal(DEFAULT_TOL):
            b2 = Decimal(0)
        else:
            raise ReconstructionError("b^2", "negative square off the geometric locus")
    b = b2.sqrt()
    if b == 0:
        raise ReconstructionError("b", "vanishing symmetric off-diagonal entry")

    # e f = d g - 1 (unit determinant) and b(e + f) = a g + c d - G_{3,4}
    ef = d4 * g4 - 1
    ef_sum = (a3 * g4 + c3 * d4 - g[(3, 4)]) / b
    ij = h5 * k5 - 1
    ij_sum = (a3 * k5 + c3 * h5 - g[(3, 5)]) / b

    def roots(total, prod, name):
        d = total * total - 4 * prod
        if d < 0:
            if d > -to_decimal(DEFAULT_TOL):
                d = Decimal(0)
            else:
                raise ReconstructionError(name, "negative discriminant off the geometric locus")
        rt = d.sqrt()
        return (total + rt) / 2, (total - rt) / 2

    e_f = roots(ef_sum, ef, "(e,f) pair")
    i_j = roots(ij_sum, ij, "(i,j) pair")

    one, zero = Decimal(1), Decimal(0)
    m1 = [[one, zero], [zero, one]]
    m2 = [[ep, zero], [zero, em]]
    m3 = [[a3, b], [b, c3]]

    best = None
    for swap_ef in (False, True):
        for swap_ij in (False, True):
            e4, f4 = (e_f[1], e_f[0]) if swap_ef else e_f
            i5, j5 = (i_j[1], i_j[0]) if swap_ij else i_j
            m4 = [[d4, e4], [f4, g4]]
            m5 = [[h5, i5], [j5, k5]]
            mats = [m1, m2, m3, m4, m5]
            score = _trace_residual(m4, m5, g[(4, 5)]) + min(Decimal(1), monodromy_residual(mats))
            if best is None or score < best[0]:
                best = (score, mats)
    return Reconstruction(matrices=best[1])


@_high_precision
def trace_table(matrices: Sequence) -> dict:
    """tr(M_i M_j^{-1}) for all pairs i < j."""
    mats = [[[to_decimal(x) for x in row] for row in m] for m in matrices]
    out = {}
    for i in range(5):
        for j in range(i + 1, 5):
            m = _mat_mul(mats[i], _mat_inv(mats[j]))
            out[(i + 1, j + 1)] = m[0][0] + m[1][1]
    return out


@_high_precision
def determinant_residuals(matrices: Sequence) -> list:
    out = []
    for m in matrices:
        mm = [[to_decimal(x) for x in row] for row in m]
        out.append(abs(mm[0][0] * mm[1][1] - mm[0][1] * mm[1][0] - 1))
    return out


@_high_precision
def monodromy_residual(matrices: Sequence):
    """Deviation of the commutator composition from plus or minus identity."""
    m1, m2, m3, m4, m5 = [[[to_decimal(x) for x in row] for row in m] for m in matrices]
    word = _mat_mul(
        _mat_mul(_mat_mul(_mat_inv(m5), m4), _mat_mul(_mat_inv(m3), m2)),
        _mat_mul(
            _mat_mul(_mat_inv(m1), m5),
            _mat_mul(_mat_inv(m4), _mat_mul(m3, _mat_mul(_mat_inv(m2), m1))),
        ),
    )
    plus = max(abs(word[0][0] - 1), abs(word[1][1] - 1), abs(word[0][1]), abs(word[1][0]))
    minus = max(abs(word[0][0] + 1), abs(word[1][1] + 1), abs(word[0][1]), abs(word[1][0]))
    return min(plus, minus)


@_high_precision
def consistency_residuals(g: Mapping, rec: Reconstruction) -> dict:
    """The leftover trace equation and the monodromy deviation."""
    g = _normalize_input(g)
    m4, m5 = ([[to_decimal(x) for x in row] for row in m] for m in rec.matrices[3:5])
    r1 = _trace_residual(m4, m5, g[(4, 5)])
    r2 = monodromy_residual(rec.matrices)
    return {"trace_consistency": float(r1), "monodromy": float(r2)}


def cluster_to_lengths(model, point: Mapping[str, Fraction]) -> dict:
    """Ten trace values of a genus-two chain at an exact positive point.

    The chain matrix is completed by skein products; entries over the first
    five indices become the reconstruction input (exact rationals, so the
    decimal solve keeps full precision).
    """
    if "braid" not in model.chains:
        raise ValueError("model carries no chain data")
    exps, value = model.casimir_constraint
    if math.prod(point[wname(v)] ** int(2 * e) for v, e in exps.items()) != value:
        raise ValueError("point violates the unit-Casimir constraint")
    u = chain_matrix(model.name, model.chains["braid"])
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    values = rational_evaluator([u[i, j] for i, j in pairs])(point)
    return {(i + 1, j + 1): v for (i, j), v in zip(pairs, values)}
