"""Matrix-level groupoid algebra: the signed antidiagonal, generic transport
matrices and the compatibility identities, the unique-unipotent solver with
its corner-minor ratio formula, the trigonometric r-matrix, the reflection
bracket, and Poisson-leaf diagnostics."""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Sequence

from .intlinalg import integer_vectors
from .laurent import GeneratorTable, Q, RationalFn, rational_evaluator
from .matrices import MatrixRF, charpoly_is_palindromic, divide_out_root
from .quiver import Quiver, brackets_at

# random specializations tried per point before a numeric check gives up
NUMERIC_ATTEMPTS = 100

# the one zero entry shared by the entries of ``reflection_rhs``
_ZERO = Fraction(0)


def antidiagonal_sign_matrix(n: int) -> list:
    """S = sum_i (-1)^i E_{i, n+1-i} as integer rows; S^2 = (-1)^(n+1) Id."""
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        rows[i - 1][n - i] = (-1) ** i
    return rows


def antidiagonal_S(n: int, table: GeneratorTable | None = None) -> MatrixRF:
    if n < 1:
        raise ValueError("size must be positive")
    table = table or GeneratorTable([])
    rows = antidiagonal_sign_matrix(n)
    return MatrixRF(
        [[RationalFn.constant(table, x) for x in row] for row in rows]
    )


def twice_theta(x: int) -> int:
    """2·θ(x) for the step θ of the trigonometric r-matrix: the ints 2, 1 and 0
    for x > 0, x = 0 and x < 0.  The one definition of θ: ``theta`` (so
    ``RMatrix``) and ``_reflection_form`` both read it."""
    return (x > 0) + (x >= 0)


def theta(x: int) -> Fraction:
    """θ(x) as a Fraction: 1, 1/2 or 0."""
    return Q(twice_theta(x), 2)


class RMatrix:
    """Trigonometric classical r-matrix on the doubled index space.

    ``r[(i,k),(j,l)] = theta(j - i) delta_il delta_jk``.  Checked at
    construction: r + r^T equals the permutation operator P.
    """

    def __init__(self, n: int):
        self.n = n
        m = n * n
        self.r = [[Q(0)] * m for _ in range(m)]
        self.p = [[Q(0)] * m for _ in range(m)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                self.r[(i - 1) * n + (j - 1)][(j - 1) * n + (i - 1)] = theta(j - i)
                self.p[(i - 1) * n + (j - 1)][(j - 1) * n + (i - 1)] = Q(1)
        for a in range(m):
            for b in range(m):
                if self.r[a][b] + self.r[b][a] != self.p[a][b]:
                    raise AssertionError("r + r^T differs from the permutation operator")


def reflection_rhs(mv: MatrixRF) -> MatrixRF:
    """Right side of the reflection identity r M1M2 - M1M2 r - M1 rt2 M2 + M2 rt2 M1,
    rt2 the partial transpose of r in the second leg, for a matrix of ints and
    Fractions, built entrywise: entry ((i,k),(j,l)) is
    (th(k-i) - th(j-l)) m_kj m_il - th(j-k) m_ik m_jl + th(l-i) m_ki m_lj.

    With the matrix written as M/d (``integer_vectors``) and th in
    half-units, every entry is a Fraction, ``_reflection_form``(M)/(2d²)."""
    ints, d = integer_vectors(mv.entries)
    den = 2 * d * d
    return MatrixRF([[Fraction(x, den) if x else _ZERO for x in row] for row in _reflection_form(ints)])


def _reflection_form(m: list) -> list:
    """The integer form behind ``reflection_rhs``: entry ((i,k),(j,l)) is
    (t(k-i) - t(j-l)) m_kj m_il - t(j-k) m_ik m_jl + t(l-i) m_ki m_lj with
    t = ``twice_theta``; rows in the doubled index order.  It takes only
    +, - and * of the entries and of ints, so it works over any commutative
    ring: on ints here, and on the ``LaurentPoly`` entries of a chain matrix,
    where 4 times it is 8·{M ⊗, M} as ``quiver._poly_bracket`` forms it."""
    n = len(m)
    # half[a][b] = t(a - b)
    half = [[twice_theta(a - b) for b in range(n)] for a in range(n)]
    cols = [list(col) for col in zip(*m)]
    out = []
    for i in range(n):
        mi = m[i]
        tli = [row[i] for row in half]
        for k in range(n):
            mk, tki = m[k], half[k][i]
            mik, mki = mi[k], mk[i]
            row = []
            for j in range(n):
                mkj, tjk_mik, mj = mk[j], half[j][k] * mik, m[j]
                row += [
                    (tki - tjl) * mkj * mil - tjk_mik * mjl + til * mki * mlj
                    for tjl, mil, mjl, til, mlj in zip(half[j], mi, mj, tli, cols[j])
                ]
            out.append(row)
    return out


def bracket_tensor_at(m1: MatrixRF, m2: MatrixRF, quiver: Quiver, point) -> MatrixRF:
    """{M1 tensor, M2} exactly evaluated at a point: entry ((i,k),(j,l)) is
    {m1[i][j], m2[k][l]}, by ``quiver.brackets_at`` on the Euler gradients of
    the entries."""
    return _tensor_and_values(m1, m2, quiver, point)[0]


def reflection_sides_at(m: MatrixRF, quiver: Quiver, point) -> tuple:
    """Both sides of the reflection identity at a point, ``({M tensor, M},
    reflection_rhs(M))``, the entries of M evaluated once with their gradients."""
    tensor, values = _tensor_and_values(m, m, quiver, point)
    return tensor, reflection_rhs(MatrixRF(values))


def _tensor_and_values(m1: MatrixRF, m2: MatrixRF, quiver: Quiver, point) -> tuple:
    """``bracket_tensor_at`` and the rows of values of M1, from one
    ``rational_evaluator`` run per matrix (one in all when M1 is M2)."""
    n = m1.rows

    def at(m: MatrixRF) -> list:
        return rational_evaluator([x for row in m.entries for x in row])(point, gradient=True)

    at1 = at(m1)
    g1 = [g for _, g in at1]
    g2 = g1 if m2 is m1 else [g for _, g in at(m2)]
    brackets = brackets_at(quiver, m1[0, 0].table, g1, g2)
    tensor = [[brackets[i * n + j][k * n + l] for j in range(n) for l in range(n)] for i in range(n) for k in range(n)]
    return MatrixRF(tensor), [[v for v, _ in at1[i * n : i * n + n]] for i in range(n)]


# -- generic transport matrices and the compatibility identities ---------------


def generic_transport_pair(n: int, specialize=None) -> dict:
    """Generic T1, T2, the gr-compatible companions T1~, T2~, and the inverses
    of the third transports, T1-^-1 = S T1 S T1~ S and T2-^-1 = S T2 S T2~ S.

    T1 (upper) and T2 (lower) have fresh generator entries.  The companions'
    triangularity forces linear conditions that are solved for the strict
    off-diagonal entries of T1~ and T2~ (their diagonals stay free), exactly
    the structure of the three transport matrices around a triangle.

    With ``specialize`` (a callable producing exact rationals), the free
    generators take its values and the same systems are solved over Q in
    ``Fraction`` entries.
    """
    names = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            names.append(f"t{i}{j}")
            names.append(f"u{i}{j}")
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            names.append(f"s{i}{j}")
            names.append(f"v{i}{j}")
    if specialize is None:
        table = GeneratorTable(names)
        zero = RationalFn.constant(table, 0)
        gen = functools.partial(RationalFn.generator, table)
        s = antidiagonal_S(n, table)
    else:
        zero, gen = Q(0), specialize
        s = MatrixRF(antidiagonal_sign_matrix(n))

    t1 = MatrixRF([[gen(f"t{i}{j}") if j >= i else zero for j in range(1, n + 1)] for i in range(1, n + 1)])
    t2 = MatrixRF([[gen(f"s{i}{j}") if j <= i else zero for j in range(1, n + 1)] for i in range(1, n + 1)])

    def solve_companion(t: MatrixRF, diag_prefix: str, upper: bool) -> MatrixRF:
        # X triangular like t with a fresh diagonal, and S t S X S triangular
        # of the same kind: its wrong-triangle entries vanish
        x = MatrixRF([[gen(f"{diag_prefix}{i + 1}{i + 1}") if i == j else zero for j in range(n)] for i in range(n)])
        unknowns = [(i, j) for i in range(n) for j in range(n) if i != j and (j > i) == upper]
        targets = [(i, j) for i in range(n) for j in range(n) if i != j and (j > i) != upper]
        return _solve_entries(s * t * s, x, s, unknowns, targets)

    t1t = solve_companion(t1, "u", True)
    t2t = solve_companion(t2, "v", False)
    return {
        "S": s,
        "T1": t1,
        "T2": t2,
        "T1t": t1t,
        "T2t": t2t,
        "T1bar_inv": s * t1 * s * t1t * s,
        "T2bar_inv": s * t2 * s * t2t * s,
    }


def _solve_entries(p: MatrixRF, x: MatrixRF, q: MatrixRF, unknowns, targets) -> MatrixRF:
    """Set the ``unknowns`` entries of ``x`` (given as zero) in place so that
    the ``targets`` entries of P X Q vanish, the other entries of ``x`` staying
    fixed; the coefficient of X_ij in (P X Q)_ab is P_ai Q_jb.  Raises
    ``ZeroDivisionError`` unless the solution is unique; with no unknowns (size
    one), ``x`` is left as it is."""
    if not unknowns:
        return x
    fixed = p * x * q
    mat = MatrixRF([[p[a, i] * q[j, b] for i, j in unknowns] for a, b in targets])
    sol = mat.solve(MatrixRF([[-fixed[t]] for t in targets]))
    for (i, j), (val,) in zip(unknowns, sol.entries):
        x[i, j] = val
    return x


def groupoid_matrices(parts: dict) -> dict:
    """A, Atilde (directly and as B A B^T) from the transport data."""
    s = parts["S"]
    t1, t2, t1t, t2t = parts["T1"], parts["T2"], parts["T1t"], parts["T2t"]
    t1bar_inv, t2bar_inv = parts["T1bar_inv"], parts["T2bar_inv"]
    b = t2 * t1
    a = t1.solve(s * t2t * t1t.transpose() * s)
    atilde = s * t2bar_inv * t1bar_inv.transpose() * s * t2.transpose()
    return {"B": b, "A": a, "Atilde": atilde, "BABt": b * a * b.transpose()}


def transport_groupoid(n: int, rng: random.Random | None = None) -> dict | None:
    """``groupoid_matrices`` of size-n transport data: symbolic without ``rng``;
    with it, at the first of ``NUMERIC_ATTEMPTS`` exact random specializations
    of the free generators that is nonsingular, or None if none is."""
    if rng is None:
        return groupoid_matrices(generic_transport_pair(n))
    for _ in range(NUMERIC_ATTEMPTS):
        try:
            parts = generic_transport_pair(n, specialize=lambda _name: Q(rng.randint(1, 30), rng.randint(1, 7)))
        except ZeroDivisionError:
            continue
        return groupoid_matrices(parts)
    return None


# -- unique unipotent solution and corner minors ------------------------------------


class InadmissibleMatrixError(ArithmeticError):
    def __init__(self, minor: str):
        self.minor = minor
        super().__init__(f"vanishing corner minor {minor}")


def _minor(b: MatrixRF, rows: Sequence[int], cols: Sequence[int]):
    sub = MatrixRF([[b[i, j] for j in cols] for i in rows])
    return sub.det()


def corner_minor_ratios(b: MatrixRF) -> tuple:
    """Lower-left minors delta_k and upper-right minors delta~_k, k in [0, n].

    delta_0 = delta~_n = 1, delta_n = delta~_0 = det(B); for 0 < k < n,
    delta_k uses the last k rows with the first k columns and delta~_k the
    first n-k rows with the last n-k columns.
    """
    n = b.rows
    det = b.det()
    one = b._one()
    deltas = [one] + [_minor(b, range(n - k, n), range(0, k)) for k in range(1, n)] + [det]
    tildes = [det] + [_minor(b, range(0, n - k), range(k, n)) for k in range(1, n)] + [one]
    return deltas, tildes


def solve_unipotent_A(b: MatrixRF) -> dict:
    """The unique unipotent upper-triangular A with B A B^T lower-free.

    B is refused (``InadmissibleMatrixError``) when an interior corner minor
    delta_k or delta~_k (0 < k < n) vanishes, naming the first, and when the
    linear system "strict lower triangle of B A B^T = 0" for the strict upper
    entries of A has no unique solution.  Otherwise it reports A, B A B^T and
    its diagonal, and whether the diagonal is the corner-minor ratio formula
    (-1)^(n+1) (delta~_{n-k}/delta_{n-k}) (delta_{n-k+1}/delta~_{n-k+1}),
    which divides by interior minors only.
    """
    n = b.rows
    deltas, tildes = corner_minor_ratios(b)
    for name, minors in (("delta", deltas), ("delta~", tildes)):
        k = next((k for k in range(1, n) if not minors[k]), None)
        if k is not None:
            raise InadmissibleMatrixError(f"{name}_{k}")
    one = b._one()
    bt = b.transpose()
    a = MatrixRF.identity(n, one, b._zero())
    unknowns = [(i, j) for i in range(n) for j in range(i + 1, n)]
    targets = [(i, j) for i in range(n) for j in range(i)]
    try:
        _solve_entries(b, a, bt, unknowns, targets)
    except ZeroDivisionError:
        raise InadmissibleMatrixError("linear system for the unipotent solution") from None
    image = b * a * bt
    diag = [image[k, k] for k in range(n)]
    sign = one if n % 2 else -one
    ratio_ok = all(
        diag[k - 1] == sign * (tildes[n - k] / deltas[n - k]) * (deltas[n - k + 1] / tildes[n - k + 1])
        for k in range(1, n + 1)
    )
    return {"A": a, "image": image, "diag": diag, "ratio_formula_holds": ratio_ok}


# -- leaf diagnostics ------------------------------------------------------------


def leaf_diagnostics(a: MatrixRF) -> dict:
    """Rank and spectrum data of a form at a rational point: the rank of
    A + A^T, the characteristic polynomial of A^-T A, its palindromy, and the
    multiplicity of the eigenvalue -1 against the count expected on a leaf.

    A is upper-triangular with each diagonal entry 1 or -1: a unipotent form,
    or its congruence D A D by a diagonal D of fourth roots of unity (which
    can make real a form evaluated off the real line).  The congruence keeps
    the rank of A + A^T, and it conjugates A^-T A by D, so it keeps the
    spectrum."""
    n = a.rows
    one = a._one() if n else None
    if not n or n != a.cols or not a.is_upper_triangular() or any(a[k, k] != one and a[k, k] != -one for k in range(n)):
        raise ValueError("matrix must be square, upper-triangular, with diagonal entries 1 or -1")
    sym = a + a.transpose()
    rank = sym.rank()
    core = a.transpose().solve(a)
    coeffs = core.charpoly()
    palindromic = charpoly_is_palindromic(coeffs)
    expected_power = n - 4 if n % 2 == 0 else n - 2
    reduced = coeffs
    power = 0
    for _ in range(len(coeffs) - 1):
        reduced = divide_out_root(reduced, Fraction(-1))
        if reduced is None:
            break
        power += 1
    out = {
        "rank_sym": rank,
        "charpoly": coeffs,
        "palindromic": palindromic,
        "minus_one_multiplicity": power,
        "on_leaf_multiplicity": max(expected_power, 0),
    }
    return out
