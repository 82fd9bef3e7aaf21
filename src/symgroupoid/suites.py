"""The check registry: every check of every named suite, declared once by
suite, id and claim as a function of the rng seed.  Each check re-derives a
structural identity of the construction with exact arithmetic."""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from .groupoid import (
    NUMERIC_ATTEMPTS,
    InadmissibleMatrixError,
    RMatrix,
    antidiagonal_S,
    bracket_tensor_at,
    leaf_diagnostics,
    reflection_sides_at,
    solve_unipotent_A,
    transport_groupoid,
)
from .laurent import GeneratorTable, LaurentPoly, Q, RationalFn, rational_evaluator
from .matrices import MatrixRF
from .network import enumerate_paths_dfs, path_sum_bruteforce, square_network
from .quiver import (
    Jet,
    Quiver,
    Seed,
    apply_sequence,
    brackets_at,
    corank,
    monomial_is_casimir,
    mutate,
    poisson_bracket,
    skein_product,
    wname,
)
from .report import Check
from . import surfaces
from .sl2rep import (
    DEFAULT_TOL,
    ReconstructionError,
    cluster_to_lengths,
    consistency_residuals,
    determinant_residuals,
    reconstruct,
    to_decimal,
    trace_table,
)
from .squares import (
    amalgamate_monomial,
    amalgamated_quiver,
    det_b_exponents,
    square4_pre_casimirs,
    square_quiver,
    transport_quiver,
)
from .teich import (
    braid_twist,
    build_surface,
    catalog_value,
    chain_matrix,
    check_split_points,
    markov,
    matrix_braid,
    separating_sum,
    telescopic,
    trace_cubic,
)

SUITE_NAMES = (
    "groupoid",
    "casimirs",
    "reflection",
    "genus2",
    "genus3",
    "genus4",
    "braid",
    "sl2",
)

# suite -> {check id: (claim, check)}, in declaration order; a check is a
# function of the rng seed returning True, or (False, witness)
_REGISTRY: dict = {name: {} for name in SUITE_NAMES}


def check(suite: str, check_id: str, claim: str):
    """Declare the decorated function of ``rng_seed`` as check ``check_id`` of
    ``suite``.  An unknown suite or an id already taken is an error."""
    if suite not in _REGISTRY:
        raise ValueError(f"check {check_id!r} names unknown suite {suite!r}")
    if any(check_id in entries for entries in _REGISTRY.values()):
        raise ValueError(f"check id {check_id!r} is declared twice")

    def register(fn):
        _REGISTRY[suite][check_id] = (claim, fn)
        return fn

    return register


def _at_seed(fn, rng_seed: int):
    # a plain closure over ``rng_seed``: rebinding that cell reruns the check
    # at another seed without building the suite again
    return lambda: fn(rng_seed)


def build_suite(name: str, rng_seed: int) -> list:
    """The suite's checks at ``rng_seed``, in declaration order.  Nothing runs
    until a check does."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown suite {name!r}")
    return [Check(check_id, claim, _at_seed(fn, rng_seed)) for check_id, (claim, fn) in _REGISTRY[name].items()]


def unit_count(f: RationalFn) -> Fraction:
    """Number of monomials counted with multiplicity: the value at the unit
    point (all generators equal to one)."""
    return f.evaluate({name: Q(1) for name in f.table.names})


def _positive_point(table: GeneratorTable, rng: random.Random, lo: int = 1, hi: int = 40) -> dict:
    return {name: Q(rng.randint(lo, hi), rng.randint(lo, hi)) for name in table.names}


def _random_unipotent(rng: random.Random, n: int) -> MatrixRF:
    """A generic n x n unipotent upper-triangular matrix over the rationals,
    its strict upper entries drawn row by row."""
    return MatrixRF(
        [
            [Q(1) if i == j else (Q(rng.randint(1, 9), rng.randint(1, 4)) if j > i else Q(0)) for j in range(n)]
            for i in range(n)
        ]
    )


def _solve_admissible(draw) -> dict | None:
    """``solve_unipotent_A`` on the first of ``NUMERIC_ATTEMPTS`` draws that lies on
    the admissible stratum (``draw`` returns None for a draw to skip), or None."""
    for _ in range(NUMERIC_ATTEMPTS):
        b = draw()
        if b is None:
            continue
        try:
            return solve_unipotent_A(b)
        except InadmissibleMatrixError:
            continue
    return None


def _casimir_point(model: surfaces.SurfaceModel, vertex: str, rng: random.Random) -> dict:
    """A point of the model's chart on the unit level set of its Casimir, the
    product of the z = w^2 to the exponents of ``model.casimir_constraint``:
    every coordinate but ``w:vertex`` is drawn from ``rng`` in table order,
    and ``w:vertex``, of exponent one, is solved for so that the product of
    the w to those exponents is 1.  On the extended genus-three chart,
    moving ``w:at`` from r to i*r moves the Casimir to -1;
    ``_real_rank_chain`` is the rank chain there, as a real matrix in r."""
    exps, _ = model.casimir_constraint
    solved = wname(vertex)
    pt = {n: Fraction(rng.randint(2, 7), rng.randint(1, 4)) for n in model.seed.frame.names if n != solved}
    pt[solved] = 1 / math.prod(pt[wname(v)] ** e for v, e in exps.items() if v != vertex)
    return pt


def _real_congruence(u: MatrixRF, name: str) -> MatrixRF:
    """The real form B = D U D of a unipotent Laurent matrix U at ``name`` =
    i*r, as a Laurent matrix in r.

    Each entry u_jk must have exponents of ``name`` of the one parity
    p_j + p_k, with p_j that of the last column's entry u_j,n-1 (p_n-1 = 0).
    Then with D = diag(i^p_j), the term c*x*r^e of u_jk (x free of ``name``)
    contributes i^(e + p_j + p_k) c*x*r^e to (D U D)_jk, and e + p_j + p_k is
    even: B_jk is u_jk with each coefficient times (-1)^((e + p_j + p_k)/2).
    B has the rank of U + U^T in B + B^T, the spectrum of U^-T U in
    B^-T B, and the diagonal (-1)^p_j.  An entry that is not a Laurent
    polynomial, or that breaks the grading, is an ArithmeticError."""
    rows = [[f.as_laurent() for f in row] for row in u.entries]
    table = rows[0][0].table
    x = table.index(name)

    def parities(p: LaurentPoly) -> set:
        return {e[x] & 1 for e in p.terms}

    p = []
    for j, row in enumerate(rows):
        last = parities(row[-1])
        if len(last) != 1:
            raise ArithmeticError(f"entry ({j}, {len(row) - 1}) has no single parity in {name}")
        p.append(last.pop())
    out = []
    for j, row in enumerate(rows):
        out_row = []
        for k, f in enumerate(row):
            terms = {}
            for e, c in f.terms.items():
                s = e[x] + p[j] + p[k]
                if s & 1:
                    raise ArithmeticError(f"entry ({j}, {k}) breaks the parity grading in {name}")
                terms[e] = -c if s & 2 else c
            out_row.append(RationalFn.from_poly(LaurentPoly(table, terms)))
        out.append(out_row)
    return MatrixRF(out)


@functools.cache
def _real_rank_chain() -> MatrixRF:
    """``_real_congruence`` of the extended genus-three rank chain at
    ``w:at``: built by the first of the two checks at Casimir -1 that runs,
    once per process."""
    model = build_surface("genus3_extended")
    return _real_congruence(chain_matrix(model.name, model.chains["rank"]), wname("at"))


# -- groupoid ------------------------------------------------------------------


@functools.cache
def _symbolic_groupoid(n: int) -> dict:
    """The size-n groupoid matrices on symbolic transport data: built by the
    first of the three size-n checks that runs, once per process."""
    return transport_groupoid(n)


for _n in (2, 3):
    check("groupoid", f"groupoid_upper_A_n{_n}", "the solved bilinear form is upper-triangular")(
        lambda rng_seed, n=_n: _symbolic_groupoid(n)["A"].is_upper_triangular()
    )
    check("groupoid", f"groupoid_upper_At_n{_n}", "the companion-side form is upper-triangular")(
        lambda rng_seed, n=_n: _symbolic_groupoid(n)["Atilde"].is_upper_triangular()
    )
    check(
        "groupoid",
        f"groupoid_conjugation_n{_n}",
        "conjugating the form by the transport product gives the companion form",
    )(lambda rng_seed, n=_n: _symbolic_groupoid(n)["BABt"] == _symbolic_groupoid(n)["Atilde"])

# exact random specializations tried by the size-four check
NUMERIC_POINTS = 3


@check("groupoid", "groupoid_numeric_n4", f"compatibility identities at {NUMERIC_POINTS} exact random specializations")
def numeric_groupoid(rng_seed):
    rng = random.Random(rng_seed)
    for _ in range(NUMERIC_POINTS):
        mats = transport_groupoid(4, rng)
        if mats is None:
            return (False, f"no nonsingular specialization in {NUMERIC_ATTEMPTS} attempts")
        if not mats["A"].is_upper_triangular():
            return (False, "A not upper-triangular at a random specialization")
        if not mats["Atilde"].is_upper_triangular():
            return (False, "Atilde not upper-triangular at a random specialization")
        if not mats["BABt"] == mats["Atilde"]:
            return (False, "B A B^T differs from the companion form")
    return True


@check("groupoid", "groupoid_s_matrix", "signed antidiagonal squares to (-1)^(n+1) Id and is orthogonal")
def s_matrix_structure(rng_seed):
    t = GeneratorTable([])
    for n in range(1, 6):
        s = antidiagonal_S(n)
        ident = MatrixRF.identity(n, RationalFn.constant(t, 1), RationalFn.constant(t, 0))
        sign = (-1) ** (n + 1)
        if s * s != ident.scale(sign):
            return (False, f"S^2 sign fails at n={n}")
        if s.transpose() * s != ident:
            return (False, f"S^T S fails at n={n}")
    return True


@check("groupoid", "groupoid_r_matrix", "classical r-matrix satisfies r + r^T = P")
def r_matrix(rng_seed):
    return all(RMatrix(n) is not None for n in (2, 3, 4))


@check(
    "groupoid",
    "groupoid_unique_unipotent",
    "twenty random admissible matrices: unique unipotent solution and minor-ratio diagonal",
)
def unipotent_solver(rng_seed):
    rng = random.Random(rng_seed + 1)
    for n in (3, 4):
        for _ in range(10):
            out = _solve_admissible(
                lambda: MatrixRF([[Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)])
            )
            if out is None:
                return (False, f"no admissible size-{n} matrix in {NUMERIC_ATTEMPTS} draws")
            if not out["A"].is_unipotent_upper():
                return (False, f"solution not unipotent at size {n}")
            if any(out["image"][i, j] != 0 for i in range(n) for j in range(i)):
                return (False, f"conjugated form has lower entries at size {n}")
            if not out["ratio_formula_holds"]:
                return (False, f"corner-minor diagonal formula fails at size {n}")
    return True


@check("groupoid", "groupoid_matched_minors_unipotent", "matched corner minors make the conjugated form unipotent")
def signed_stratum_solver(rng_seed):
    # matrices built to satisfy delta_k = delta~_k: the conjugated form is unipotent
    rng = random.Random(rng_seed + 2)

    def draw():
        b21, b22, b31, b32 = (Q(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(4))
        b23, b33 = (Q(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(2))
        b13 = b21 * b32 - b22 * b31
        b12 = (b31 + b13 * b22) / b23
        m11 = b22 * b33 - b23 * b32
        if m11 == 0:
            return None
        m12 = b21 * b33 - b23 * b31
        m13 = b21 * b32 - b22 * b31
        b11 = (1 + b12 * m12 - b13 * m13) / m11
        return MatrixRF([[b11, b12, b13], [b21, b22, b23], [b31, b32, b33]])

    for _ in range(5):
        out = _solve_admissible(draw)
        if out is None:
            return (False, f"no admissible matched-minor matrix in {NUMERIC_ATTEMPTS} draws")
        if not out["image"].is_unipotent_upper():
            return (False, "conjugated form not unipotent on the matched-minor stratum")
    return True


@check("groupoid", "groupoid_leaf_diagnostics", "inverse-transpose pencil characteristic polynomial is palindromic")
def diagnostics(rng_seed):
    ident5 = MatrixRF.identity(5, Q(1), Q(0))
    d = leaf_diagnostics(ident5)
    if d["rank_sym"] != 5 or not d["palindromic"]:
        return (False, "identity diagnostics broken")
    rng = random.Random(rng_seed + 3)
    for n in (4, 5, 6):
        d = leaf_diagnostics(_random_unipotent(rng, n))
        if not d["palindromic"]:
            return (False, f"palindromy fails for generic unipotent size {n}")
    return True


@check(
    "groupoid",
    "groupoid_pfaffian_pair",
    "separating-pair sum equals the skew pfaffian up to sign at a sample point",
)
def pfaffian_vs_pencil(rng_seed):
    # on a genus-three point the size-four separating pair matches the pencil data
    model = build_surface("genus3_original")
    u = chain_matrix(model.name, ("G_{1,2}", "G_{2,3}", "G_{3,4}"))
    rng = random.Random(rng_seed + 4)
    pt = _positive_point(model.seed.frame, rng, 1, 9)
    upper = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    signed = MatrixRF.identity(4, Q(1), Q(0))
    for (i, j), value in zip(upper, rational_evaluator([u[i, j] for i, j in upper])(pt)):
        signed[i, j] = ((-1) ** (i + j)) * value
    msum = separating_sum(signed)
    skew = signed - signed.transpose()
    pf = skew.pfaffian()
    if pf * pf != skew.det():
        return (False, "pfaffian square differs from the determinant")
    if msum != -pf and msum != pf:
        return (False, "separating sum is not the skew pfaffian up to sign")
    return True


@check("groupoid", "groupoid_spectrum_locus", "minus-one eigenvalue multiplicities appear exactly on reduced loci")
def spectrum_on_reduced_locus(rng_seed):
    rng = random.Random(rng_seed + 5)
    # size three on the vanishing-determinant locus via the chiral chart
    for _ in range(3):
        uu = Q(rng.randint(2, 9), rng.randint(1, 4))
        vv = Q(rng.randint(2, 9), rng.randint(1, 4))
        g12, g23, g13 = uu + 1 / uu, vv + 1 / vv, uu * vv + 1 / (uu * vv)
        a = MatrixRF([[Q(1), -g12, g13], [Q(0), Q(1), -g23], [Q(0), Q(0), Q(1)]])
        d = leaf_diagnostics(a)
        if d["minus_one_multiplicity"] < d["on_leaf_multiplicity"]:
            return (False, "missing -1 eigenvalues on the reduced size-3 locus")
        if d["rank_sym"] > 2:
            return (False, "rank too large on the reduced size-3 locus")
    # size eight at the minus-one Casimir locus, in its real form
    model = build_surface("genus3_extended")
    pt = _casimir_point(model, "at", rng)
    d = leaf_diagnostics(_real_rank_chain().evaluator()(pt))
    if d["minus_one_multiplicity"] < d["on_leaf_multiplicity"]:
        return (False, "missing -1 eigenvalues on the size-8 reduced locus")
    # negative control: the same chain at the same point with w:at back on
    # the real line, where the Casimir is +1, carries fewer
    d = leaf_diagnostics(chain_matrix(model.name, model.chains["rank"]).evaluator()(pt))
    if d["minus_one_multiplicity"] >= d["on_leaf_multiplicity"]:
        return (False, "off-locus control unexpectedly divisible")
    return True


# -- casimirs --------------------------------------------------------------------


def _published_monomials_n4() -> bool | tuple:
    q4 = square_quiver(4)
    amalg = amalgamated_quiver(4)
    monos = square4_pre_casimirs()
    for label in ("C0", "C1"):
        if not monomial_is_casimir(q4, monos[label]):
            return (False, f"{label} fails on the full lattice")
    for k in (2, 3, 4):
        prod = dict(monos[f"C{k}"])
        for v, e in monos[f"C{k}~"].items():
            prod[v] = prod.get(v, 0) + e
        if not monomial_is_casimir(q4, prod):
            return (False, f"C{k}*C{k}~ fails on the full lattice")
    for label, exps in monos.items():
        if not monomial_is_casimir(amalg, amalgamate_monomial(4, exps)):
            return (False, f"{label} fails on the amalgamated quiver")
    return True


def _casimir_entries(n: int) -> list:
    """(id, claim, check taking no argument) for the Casimir counts at size n."""
    entries = [
        (
            f"casimirs_square_corank_n{n}",
            f"full lattice quiver on ({n}+1)^2 vertices has corank {n + 1}",
            lambda: corank(square_quiver(n)) == n + 1,
        ),
        (
            f"casimirs_transport_corank_n{n}",
            f"unit-determinant transport quiver has corank {n - 1}",
            lambda: corank(transport_quiver(n)) - 1 == n - 1,
        ),
        (
            f"casimirs_amalgamated_corank_n{n}",
            f"Moebius-amalgamated quiver has corank {2 * n}",
            lambda: corank(amalgamated_quiver(n)) == 2 * n,
        ),
        (
            f"casimirs_det_transport_n{n}",
            "graded row-product monomial (the transport determinant) commutes with all parameters",
            lambda: monomial_is_casimir(transport_quiver(n), det_b_exponents(n)),
        ),
    ]
    if n == 4:
        entries.append(
            (
                "casimirs_published_monomials_n4",
                "published boundary/anti-diagonal/hook monomials are Casimirs",
                _published_monomials_n4,
            )
        )
    return entries


def casimir_checks(n: int) -> list:
    """The Casimir checks at the one size ``n`` (``verify casimirs -n N``)."""
    return [Check(check_id, claim, run) for check_id, claim, run in _casimir_entries(n)]


# the casimirs suite: sizes two to five
for _n in (2, 3, 4, 5):
    for _id, _claim, _run in _casimir_entries(_n):
        check("casimirs", _id, _claim)(lambda rng_seed, run=_run: run())


# -- reflection / network -------------------------------------------------------


@check("reflection", "network_term_counts_n4", "size-four entries have 5/6/17/7 terms")
def path_counts(rng_seed):
    net = square_network(4)
    want = {(1, 2): 5, (2, 3): 6, (2, 4): 17, (3, 4): 7}
    for (i, j), count in want.items():
        f = net.path_sum_entry(i, j)
        if f.num.term_count() != count:
            return (False, f"entry ({i},{j}) has {f.num.term_count()} terms")
        if unit_count(f) != count:
            return (False, f"entry ({i},{j}) unit count differs")
    return True


@check(
    "reflection",
    "network_long_entry_verbatim",
    "the seventeen-term entry matches its published grouping after expansion",
)
def a24_verbatim(rng_seed):
    net = square_network(4)
    t = net.table
    gen = lambda v, p=1: RationalFn.generator(t, wname(v), p)
    one = RationalFn.constant(t, 1)

    def root(*names):
        out = one
        for nm in names:
            out = out * gen(nm)
        return out

    f2q = root("f2", "q")
    f3p = root("f3", "p")
    inner1 = (
        root("f3", "p", "r", "s3", "b")
        + root("f3", "p", "r", "s3") / gen("b")
        + root("f3", "p", "r") / root("s3", "b")
        + root("f3", "p") / root("r", "s3", "b")
        + gen("f3") / root("p", "r", "s3", "b")
        + 1 / root("f3", "p", "r", "s3", "b")
    )
    inner2 = (
        root("f3", "p", "r", "s3")
        + root("f3", "p", "r") / gen("s3")
        + root("f3", "p") / root("r", "s3")
        + gen("f3") / root("p", "r", "s3")
        + 1 / root("f3", "p", "r", "s3")
    )
    inner3 = f3p + gen("f3") / gen("p") + 1 / f3p
    expected = (
        root("f2", "q", "s2", "a") * inner1
        + root("f2", "q", "s2") / root("a", "b") * inner2
        + f2q / root("s2", "a", "r", "s3", "b") * inner3
        + gen("f2") / root("q", "s2", "a", "p", "r", "s3", "b") * (gen("f3") + 1 / gen("f3"))
        + 1 / root("f2", "q", "s2", "a", "f3", "p", "r", "s3", "b")
    )
    return net.path_sum_entry(2, 4) == expected


@check(
    "reflection",
    "network_path_oracle",
    "entries match exhaustive path enumeration with unit coefficients (n = 3, 4, 5)",
)
def oracle_agreement(rng_seed):
    for n in (3, 4, 5):
        net = square_network(n)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                f = net.path_sum_entry(i, j)
                if f != path_sum_bruteforce(net, i, j):
                    return (False, f"n={n} entry ({i},{j}) differs from the path oracle")
                if f.num.term_count() != len(enumerate_paths_dfs(net, i, j)):
                    return (False, f"n={n} entry ({i},{j}) term count differs from path count")
                if any(c != 1 for c in f.num.terms.values()):
                    return (False, f"n={n} entry ({i},{j}) has a non-unit coefficient")
    return True


@check("reflection", "network_reciprocal_extremes", "each entry contains two mutually reciprocal extreme monomials")
def reciprocal_extremes(rng_seed):
    for n in (3, 4, 5):
        net = square_network(n)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                la = net.path_sum_entry(i, j).as_laurent()
                exps = sorted(la.terms, key=lambda e: sum(e))
                lo, hi = exps[0], exps[-1]
                if tuple(-x for x in lo) != hi:
                    return (False, f"n={n} entry ({i},{j}) extremes are not reciprocal")
    return True


@check("reflection", "reflection_twin_commutation_n3", "all nine pairs of mirror entries commute symbolically (n = 3)")
def twin_commutation_symbolic(rng_seed):
    net = square_network(3)
    for i in range(1, 3):
        for j in range(i + 1, 4):
            for k in range(1, 3):
                for l in range(k + 1, 4):
                    br = poisson_bracket(
                        net.path_sum_entry(i, j),
                        net.path_sum_entry(k, l, "Atilde"),
                        net.quiver,
                    )
                    if br:
                        return (False, f"pair ({i},{j}),({k},{l}) fails")
    return True


@check(
    "reflection",
    "reflection_equation_n3",
    "both unipotent forms satisfy the r-matrix reflection identity at five points",
)
def reflection_equation_n3(rng_seed):
    net = square_network(3)
    a, at = net.assemble_A()
    rng = random.Random(rng_seed)
    for rep in range(5):
        pt = _positive_point(net.table, rng, 1, 30)
        for m in (a, at):
            lhs, rhs = reflection_sides_at(m, net.quiver, pt)
            if lhs != rhs:
                return (False, f"rep {rep}: reflection identity fails")
    return True


@check(
    "reflection",
    "reflection_equation_n4",
    "both size-four forms satisfy the r-matrix reflection identity at two points",
)
def reflection_equation_n4_points(rng_seed):
    net = square_network(4)
    a, at = net.assemble_A()
    rng = random.Random(rng_seed + 4)
    n = 4
    for rep in range(2):
        pt = _positive_point(net.table, rng, 1, 12)
        for m in (a, at):
            lhs, rhs = reflection_sides_at(m, net.quiver, pt)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            if lhs[i * n + k, j * n + l] != rhs[i * n + k, j * n + l]:
                                return (False, f"rep {rep}: indices ({i + 1},{j + 1}),({k + 1},{l + 1})")
    return True


@check("reflection", "reflection_twin_commutation_n4", "mirror entries commute at random points (n = 4)")
def twin_commutation_n4_points(rng_seed):
    net = square_network(4)
    a, at = net.assemble_A()
    rng = random.Random(rng_seed + 1)
    entries = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for rep in range(2):
        # entry ((i,k),(j,l)) is {a_ij, at_kl}; the signs of assemble_A do not
        # change which brackets vanish
        tensor = bracket_tensor_at(a, at, net.quiver, _positive_point(net.table, rng, 1, 20))
        for (i, j) in entries:
            for (k, l) in entries:
                if tensor[i * 4 + k, j * 4 + l] != 0:
                    return (False, f"pair ({i + 1},{j + 1}),({k + 1},{l + 1}) fails at a point")
    return True


@check("reflection", "network_skein_consistency", "long entries satisfy the crossing resolution of consecutive entries")
def skein_consistency(rng_seed):
    for n in (3, 4):
        net = square_network(n)
        for side in ("A", "Atilde"):
            for i in range(1, n - 1):
                x = net.path_sum_entry(i, i + 1, side)
                y = net.path_sum_entry(i + 1, i + 2, side)
                z = net.path_sum_entry(i, i + 2, side)
                if skein_product(x, y, net.quiver) != z:
                    return (False, f"n={n} side {side} triple at {i}")
    return True


@check("reflection", "network_entry_bound", "normalized entries exceed two at a hundred positive points")
def entry_bound(rng_seed):
    rng = random.Random(rng_seed + 2)
    net = square_network(4)
    for _ in range(100):
        pt = _positive_point(net.table, rng, 1, 50)
        i = rng.randint(1, 3)
        j = rng.randint(i + 1, 4)
        side = rng.choice(("A", "Atilde"))
        if net.path_sum_entry(i, j, side).evaluate(pt) <= 2:
            return (False, f"entry ({i},{j}) not above 2")
    return True


# -- genus two -------------------------------------------------------------------


@check(
    "genus2",
    "genus2_markov_forms",
    "separating element: three equivalent forms; 46 and 50 monomials with multiplicity",
)
def markov_identities(rng_seed):
    for name, count in (("genus2_k33", 50), ("genus2_original", 50), ("genus2_x7", 46), ("genus2_papillon", 46)):
        model = build_surface(name)
        m1 = markov(model, "product_G")
        m2 = markov(model, "product_Gtilde")
        if m1 != m2:
            return (False, f"{name}: the two side products differ")
        if name in ("genus2_x7", "genus2_papillon"):
            if m1 != markov(model, "via_GB"):
                return (False, f"{name}: the dual-geodesic form differs")
        if unit_count(m1) != count:
            return (False, f"{name}: unit count {unit_count(m1)} != {count}")
    return True


@check(
    "genus2",
    "genus2_markov_commutation",
    "separating element commutes with all chart geodesics but not the dual one",
)
def markov_commutes(rng_seed):
    model = build_surface("genus2_x7")
    m = markov(model, "product_G")
    for lbl in ("G_{1,2}", "G_{2,3}", "G_{1,3}", "Gt_{1,2}", "Gt_{2,3}", "Gt_{1,3}"):
        if poisson_bracket(m, catalog_value(model, lbl), model.quiver):
            return (False, f"separating element does not commute with {lbl}")
    if not poisson_bracket(m, catalog_value(model, "G_B"), model.quiver):
        return (False, "separating element unexpectedly commutes with the dual geodesic")
    return True


@check(
    "genus2",
    "genus2_chart_network_match",
    "four-letter catalog equals the size-three network entries through the chart map",
)
def catalog_chart_consistency(rng_seed):
    # the telescopic catalog transports correctly along the chart chain
    orig = build_surface("genus2_original")
    net = square_network(3)
    latmap = {"s1": "b", "s2": "d", "f1": "e", "f2": "f", "R2_2": "c", "L1_1": "a"}
    bind = {wname(k): RationalFn.generator(orig.seed.frame, wname(v)) for k, v in latmap.items()}
    k33seed = mutate(orig.seed, "f")
    pairs = [("Gt_{1,2}", (1, 2)), ("Gt_{1,3}", (1, 3)), ("Gt_{2,3}", (2, 3))]
    for lbl, (i, j) in pairs:
        word = surfaces.GENUS2_K33_CATALOG[lbl]
        lhs = telescopic(word, k33seed)
        rhs = net.path_sum_entry(i, j).substitute(bind)
        if lhs != rhs:
            return (False, f"{lbl} does not match the network entry")
    for lbl, (i, j) in [("G_{1,2}", (1, 2)), ("G_{1,3}", (1, 3)), ("G_{2,3}", (2, 3))]:
        word = surfaces.GENUS2_K33_CATALOG[lbl]
        lhs = telescopic(word, k33seed)
        rhs = net.path_sum_entry(i, j, "Atilde").substitute(bind)
        if lhs != rhs:
            return (False, f"{lbl} does not match the mirror network entry")
    return True


def twist_leaves(model) -> tuple:
    """The six leaf geodesic functions of the genus-2 twist identities: the
    separating element m, G_{1,2}, G~_{1,2}, the dual G_B, G_{2,3} and G~_{2,3}."""
    labels = ("G_{1,2}", "Gt_{1,2}", "G_B", "G_{2,3}", "Gt_{2,3}")
    return (markov(model, "product_G"),) + tuple(catalog_value(model, lbl) for lbl in labels)


def twist_quantities(m, g12, gt12, gb, g23, gt23) -> tuple:
    """x = m + 2, y², t² and t~² from the six leaves of ``twist_leaves``; the
    check evaluates them on jets at a point."""
    x = m + 2
    y2 = (m * gb - 2 * g12 * gt12) ** 2 / ((m + g12 ** 2) * (m + gt12 ** 2))
    t2 = -4 + g23 ** 2 * (g12 ** 2 - 4) / (m + g12 ** 2)
    tt2 = -4 + gt23 ** 2 * (gt12 ** 2 - 4) / (m + gt12 ** 2)
    return x, y2, t2, tt2


@check("genus2", "genus2_twist_identities", "squared dual-twist bracket identity and twist commutations at ten points")
def twist_identities(rng_seed):
    model = build_surface("genus2_x7")
    t = model.seed.frame
    q = model.quiver
    leaves = twist_leaves(model)
    evaluate = rational_evaluator(leaves)
    rng = random.Random(rng_seed)
    for rep in range(10):
        pt = _positive_point(t, rng, 1, 25)
        x, y2, t2, tt2 = twist_quantities(*(Jet(*leaf) for leaf in evaluate(pt, gradient=True)))
        ((br, t2br, tt2br),) = brackets_at(q, t, [y2.grad], [x.grad, t2.grad, tt2.grad])
        if br * br != 4 * y2.value * (x.value ** 2 - 4) * (y2.value - 4):
            return (False, f"squared twist identity fails at rep {rep}")
        if t2br:
            return (False, f"first squared twist fails to commute at rep {rep}")
        if tt2br:
            return (False, f"second squared twist fails to commute at rep {rep}")
    m, g12 = leaves[:2]
    if poisson_bracket(m + 2, g12, q):
        return (False, "shifted separating element does not commute with the chart geodesic")
    return True


@check(
    "genus2",
    "genus2_extended_mutation",
    "wing mutation plus transposition preserves the quiver and Laurent catalogs",
)
def extended_mutation(rng_seed):
    model = build_surface("genus2_x7")
    seed = model.seed
    t = seed.frame
    gen = lambda v, p=1: RationalFn.generator(t, wname(v), p)
    s2 = apply_sequence(seed, ["g", ("f", "g")])
    if s2.quiver != model.quiver:
        return (False, "extended mutation changes the quiver")
    f2, g2, e2 = gen("f", 2), gen("g", 2), gen("e", 2)
    if s2.value("f") != g2.inverse():
        return (False, "first wing value wrong")
    if s2.value("g") != f2 * (1 + g2.inverse()) ** -2:
        return (False, "second wing value wrong")
    if s2.value("e") != e2 * (1 + g2):
        return (False, "center value wrong")
    # the relabeled form swaps the two wing letters in the expressions
    swap = {n: RationalFn.generator(t, n) for n in t.names}
    swap[wname("f")], swap[wname("g")] = gen("g"), gen("f")
    if s2.value("e").substitute(swap) != e2 * (1 + f2):
        return (False, "relabeled center value wrong")
    for lbl in ("G_{1,2}", "Gt_{1,2}", "G_B"):
        word = {"G_{1,2}": ["d", "a"], "Gt_{1,2}": ["b", "c"], "G_B": ["f", "g"]}[lbl]
        if not telescopic(word, s2).is_laurent():
            return (False, f"{lbl} loses Laurent form under the extended mutation")
    return True


@check(
    "genus2",
    "genus2_mutation_properties",
    "involutivity and bracket compatibility of mutations on the seven-vertex chart",
)
def mutation_properties(rng_seed):
    model = build_surface("genus2_x7")
    seed = model.seed
    for v in model.quiver.vertices:
        if mutate(mutate(seed, v), v) != seed:
            return (False, f"mutation at {v} is not involutive")
    for v in ("a", "e", "g"):
        m = mutate(seed, v)
        for u in model.quiver.vertices:
            for w in model.quiver.vertices:
                lhs = poisson_bracket(m.value(u), m.value(w), model.quiver)
                rhs = m.quiver.eps(u, w) * m.value(u) * m.value(w)
                if lhs != rhs:
                    return (False, f"mutation at {v} is not a bracket map at ({u},{w})")
    return True


@check(
    "genus2",
    "genus2_telescopic_positivity",
    "telescopic values are positive Laurent and exceed two at a hundred points",
)
def telescopic_positivity(rng_seed):
    rng = random.Random(rng_seed + 6)
    model = build_surface("genus3_original")
    words = list(surfaces.GENUS3_ORIGINAL_CATALOG.values())
    for _ in range(100):
        pt = _positive_point(model.seed.frame, rng, 1, 30)
        word = rng.choice(words)
        val = telescopic(word, model.seed)
        if any(c <= 0 for c in val.num.terms.values()):
            return (False, "telescopic value has a nonpositive coefficient")
        if val.evaluate(pt) <= 2:
            return (False, "telescopic value not above 2 at a positive point")
    return True


# -- genus three -------------------------------------------------------------------


@check("genus3", "genus3_mutation_images", "twelve published mutation images of the first chain function")
def mutation_catalog(rng_seed):
    model = build_surface("genus3_original")
    seed = model.seed
    g12 = telescopic(["b3", "a3", "d2", "c3"], seed)
    images = {
        "a1": ["b3", "a3", "d2", "c3"],
        "a2": ["b3", "a3", "a2", "d2", "c3"],
        "a3": ["b3", "d2", "c3"],
        "b1": ["b3", "a3", "d2", "c3"],
        "b2": ["b3", "b2", "a3", "d2", "c3"],
        "b3": ["a3", "d2", "c3", "b3"],
        "c1": ["b3", "a3", "d2", "c3"],
        "c2": ["b3", "a3", "d2", "c2", "c3"],
        "c3": ["c3", "b3", "a3", "d2"],
        "d1": ["b3", "a3", "d1", "d2", "c3"],
        "d2": ["b3", "a3", "c3"],
        "d3": ["b3", "a3", "d2", "d3", "c3"],
    }
    for k, word in images.items():
        if telescopic(word, mutate(seed, k)) != g12:
            return (False, f"image under mutation at {k} differs")
    return True


@check("genus3", "genus3_word_sizes", "chain functions have sizes 5/6/7 (base chart) and all 7 (symmetric chart)")
def word_lengths(rng_seed):
    orig = build_surface("genus3_original")
    lens = {"G_{1,2}": 5, "G_{2,3}": 6, "G_{3,4}": 7}
    for lbl, n in lens.items():
        if unit_count(telescopic(orig.catalog[lbl], orig.seed)) != n:
            return (False, f"{lbl} has the wrong size in the base chart")
    sym = build_surface("genus3_symmetric")
    for lbl in surfaces.GENUS3_SYMMETRIC_CATALOG:
        if unit_count(telescopic(sym.catalog[lbl], sym.seed)) != 7:
            return (False, f"{lbl} has the wrong size in the symmetric chart")
    return True


def _symmetrizes(base: Quiver, sequence) -> bool | tuple:
    """Whether mutation at the vertices of ``sequence``, in any order, carries
    ``base`` to the symmetric genus-three chart: no arrow joins two of them,
    so the mutations commute, and every order gives that chart."""
    for j, k in itertools.combinations(sequence, 2):
        if base.b(j, k):
            return (False, f"{j} and {k} are joined by an arrow")
    target = build_surface("genus3_symmetric").quiver
    for order in itertools.permutations(sequence):
        if functools.reduce(Quiver.mutate_matrix, order, base) != target:
            return (False, f"the order {', '.join(order)} misses the symmetric chart")
    return True


@check("genus3", "genus3_symmetrizing_sequence", "four commuting mutations carry the base chart to the symmetric one")
def symmetrizing_sequence(rng_seed):
    return _symmetrizes(build_surface("genus3_original").quiver, surfaces.SYMMETRIZING_SEQUENCE)


@check(
    "genus3",
    "genus3_braid_lemma",
    "palindromic mutation twist equals the closed product formula with the braid action",
)
def braid_lemma(rng_seed):
    model = build_surface("genus3_symmetric")
    seed = model.seed
    q = model.quiver
    w12 = surfaces.GENUS3_SYMMETRIC_CATALOG["G_{1,2}"]
    w23 = surfaces.GENUS3_SYMMETRIC_CATALOG["G_{2,3}"]
    w34 = surfaces.GENUS3_SYMMETRIC_CATALOG["G_{3,4}"]
    chain = list(w23)
    sm = braid_twist(seed, chain, "mutation_sequence")
    sc = braid_twist(seed, chain, "closed_form")
    if sm.quiver != seed.quiver:
        return (False, "twist changes the exchange matrix")
    for v in q.vertices:
        if sm.values[v].as_rational() != sc.values[v].as_rational():
            return (False, f"modes disagree at {v}")
    g12, g23, g34 = (telescopic(w, seed) for w in (w12, w23, w34))
    if telescopic(w23, sm) != g23:
        return (False, "twisted chain function is not invariant")
    if telescopic(w12, sm) != skein_product(g12, g23, q):
        return (False, "left neighbor transformation law fails")
    if telescopic(w34, sm) != skein_product(g34, g23, q):
        return (False, "right neighbor transformation law fails")
    for lbl in ("Gt_{1,2}", "Gt_{2,3}", "Gt_{3,4}"):
        w = surfaces.GENUS3_SYMMETRIC_CATALOG[lbl]
        if telescopic(w, sm) != telescopic(w, seed):
            return (False, f"{lbl} not invariant under the twist")
    return True


@check("genus3", "genus3_markov_pair", "separating pair: 62 and 417 monomials, mirror-invariant, central")
def markov_pair(rng_seed):
    model = build_surface("genus3_original")
    q = model.quiver
    u = chain_matrix(model.name, ("G_{1,2}", "G_{2,3}", "G_{3,4}"))
    check_split_points(u, q)
    g12, g23, g34 = u[0, 1], u[1, 2], u[2, 3]
    g13, g24, g14 = u[0, 2], u[1, 3], u[0, 3]
    msum = separating_sum(u)
    sq = g12 ** 2 + g13 ** 2 + g14 ** 2 + g23 ** 2 + g24 ** 2 + g34 ** 2
    mprod = (
        g12 * g23 * g34 * g14
        - g12 * g23 * g13
        - g23 * g34 * g24
        - g12 * g14 * g24
        - g34 * g14 * g13
        + sq
        - 4
    )
    if unit_count(msum) != 62:
        return (False, f"separating sum counts {unit_count(msum)}")
    if unit_count(mprod) != 417:
        return (False, f"separating product counts {unit_count(mprod)}")
    ut = chain_matrix(model.name, ("Gt_{1,2}", "Gt_{2,3}", "Gt_{3,4}"))
    if msum != separating_sum(ut):
        return (False, "separating sum differs between the two sides")
    for g in (g12, g23, g34, ut[0, 1], ut[1, 2], ut[2, 3]):
        if poisson_bracket(msum, g, q):
            return (False, "separating sum fails to commute")
    return True


@check("genus3", "genus3_rank_locus", "rank of the symmetrized chain matrix drops to four exactly at Casimir -1")
def rank_locus(rng_seed):
    model = build_surface("genus3_extended")
    u = chain_matrix(model.name, model.chains["rank"])
    rng = random.Random(rng_seed)
    # at Casimir -1 the rank is that of the real form's B + B^T
    for m, expect_low in ((_real_rank_chain(), True), (u, False)):
        evaluate = m.evaluator()
        for rep in range(5):
            upt = evaluate(_casimir_point(model, "at", rng))
            rank = (upt + upt.transpose()).rank()
            if expect_low and rank > 4:
                return (False, f"rank {rank} on the locus")
            if not expect_low and rank <= 4:
                return (False, f"rank {rank} off the locus")
    return True


@check("genus3", "genus3_skein_k_independence", "the eight-by-eight chain completion is split-point independent")
def k_independence(rng_seed):
    model = build_surface("genus3_extended")
    check_split_points(chain_matrix(model.name, model.chains["rank"]), model.quiver)
    return True


@check(
    "genus3",
    "genus3_dual_geodesic_transport",
    "two-letter dual geodesic becomes the four-letter one through the chart chain",
)
def dual_geodesic_transport(rng_seed):
    q2 = surfaces.genus3_wing_quiver()
    seed2 = Seed.initial(q2)
    gb2 = telescopic(["a1", "at"], seed2)
    s3 = apply_sequence(seed2, ["a2", "a3"])
    if telescopic(["a1", "a2", "a3", "at"], s3) != gb2:
        return (False, "dual geodesic does not transport along the chart chain")
    extended = build_surface("genus3_extended")
    if s3.quiver != extended.quiver:
        return (False, "transported quiver differs from the extended chart")
    # unit-Casimir of the extended chart has all exponents one
    if not monomial_is_casimir(extended.quiver, extended.casimir_constraint[0]):
        return (False, "product of all extended-chart variables is not a Casimir")
    return True


@check(
    "genus3",
    "genus3_grouped_dual_word",
    "symmetric-chart dual geodesic: eight monomials, transports to the base chart",
)
def grouped_word(rng_seed):
    # the symmetric-chart dual geodesic uses a grouped slot; as a word on
    # that chart it has eight monomials and it transports to the
    # four-letter dual geodesic of the base chart
    seed = build_surface("genus3_extended").seed
    word = ["a2", "a3", ("d1", "b3"), "at", "a1"]
    s = apply_sequence(seed, ["d1", "c2", "b3", "a1"])
    if unit_count(telescopic(word, Seed.initial(s.quiver))) != 8:
        return (False, "grouped word does not have eight monomials on its own chart")
    if telescopic(word, s) != telescopic(["a1", "a2", "a3", "at"], seed):
        return (False, "grouped word does not transport to the base-chart dual geodesic")
    return True


# -- genus four ---------------------------------------------------------------------


@check("genus4", "genus4_chiral_toy", "two-variable chiral parametrization solves the size-three reduction identities")
def chiral_toy(rng_seed):
    table = GeneratorTable([wname(x) for x in ("u", "v", "ut", "vt")])
    q = Quiver.from_arrows(
        ["u", "v", "ut", "vt"], [("u", "v", 4), ("ut", "vt", 4)]
    )
    gen = lambda v: RationalFn.generator(table, wname(v))

    def gfun(x):
        return x + x.inverse()

    u, v, ut, vt = gen("u"), gen("v"), gen("ut"), gen("vt")
    g12, g23, g13 = gfun(u), gfun(v), gfun(u * v)
    gt12, gt23, gt13 = gfun(ut), gfun(vt), gfun(ut * vt)
    if trace_cubic(g12, g13, g23) + 4:
        return (False, "chiral trace identity fails")
    if trace_cubic(gt12, gt13, gt23) + 4:
        return (False, "anti-chiral trace identity fails")
    gb = -(u * ut) - (u * ut).inverse()
    rel = g12 * gt12 * gb + g12 ** 2 + gt12 ** 2 + gb ** 2 - 4
    if rel:
        return (False, "dual-geodesic constraint fails")
    # the bracket normalization {log u^2, log v^2} = 2
    zu, zv = u ** 2, v ** 2
    if poisson_bracket(zu, zv, q) != 2 * zu * zv:
        return (False, "chiral bracket normalization wrong")
    if poisson_bracket(zu, ut ** 2, q):
        return (False, "chiral and anti-chiral halves do not commute")
    return True


@check("genus4", "genus4_chart_structure", "size-five chart: stated Casimir, single center, dual-geodesic commutations")
def n5_structure(rng_seed):
    model = build_surface("genus4_n5")
    exps, _ = model.casimir_constraint
    if not monomial_is_casimir(model.quiver, exps):
        return (False, "stated Casimir is not in the kernel")
    if corank(model.quiver) != 1:
        return (False, "extended chart should have exactly one Casimir")
    gb = catalog_value(model, "G_B")
    for lbl in ("G_{1,2}", "G_{2,3}", "G_{3,4}"):
        if poisson_bracket(gb, catalog_value(model, lbl), model.quiver):
            return (False, f"dual geodesic fails to commute with {lbl}")
    return True


@check("genus4", "genus4_twist_realization", "dual twist acts on the long entry by the wing substitution")
def twist_realization(rng_seed):
    model = build_surface("genus4_n5")
    seed = model.seed
    t = seed.frame
    q = model.quiver
    gb = catalog_value(model, "G_B")
    g45 = catalog_value(model, "G_{4,5}")
    lhs = skein_product(g45, gb, q)
    zat = RationalFn.generator(t, wname("at"), 2)
    wbind = {n: RationalFn.generator(t, n) for n in t.names}
    wbind[wname("a1")] = RationalFn.generator(t, wname("at")).inverse()
    del wbind[wname("a2")]
    zbind = {wname("a2"): RationalFn.generator(t, wname("a2"), 2) * (1 + zat)}
    return lhs == g45.substitute(wbind, zbind)


@check("genus4", "genus4_skein_k_independence", "the size-five chain completion is split-point independent")
def chain_split_independence(rng_seed):
    model = build_surface("genus4_n5")
    check_split_points(chain_matrix(model.name, model.chains["rank"]), model.quiver)
    return True


@check(
    "genus4",
    "genus4_det_ansatz",
    "interpolated symmetrized determinant matches the six-coefficient ansatz at three base points",
)
def det_ansatz(rng_seed):
    model = build_surface("genus4_n5")
    seed = model.seed
    t = seed.frame
    u = chain_matrix(model.name, model.chains["rank"])
    rng = random.Random(rng_seed)
    small = GeneratorTable([wname("a1"), wname("a2")])
    for rep in range(3):
        base = {
            n: Fraction(rng.randint(2, 6), rng.randint(1, 3))
            for n in t.names
            if n not in (wname("a1"), wname("a2"))
        }
        bind = {n: RationalFn.constant(small, v) for n, v in base.items()}
        bind[wname("a1")] = RationalFn.generator(small, wname("a1"))
        bind[wname("a2")] = RationalFn.generator(small, wname("a2"))
        m = MatrixRF([[u[i, j].substitute(bind) for j in range(5)] for i in range(5)])
        det = (m + m.transpose()).det()
        mono = {(e1 // 2, e2 // 2): c for (e1, e2), c in det.as_laurent().terms.items()}
        support = set(mono)
        expected_support = {
            (1, 2), (1, 0), (1, 1), (0, -1), (1, -1), (-1, -2), (0, -2), (1, -2), (0, 0),
        }
        if support != expected_support:
            return (False, f"rep {rep}: unexpected monomial support {sorted(support)}")
        xi_sqrt = Fraction(1)
        for v in ("a3", "a4"):
            xi_sqrt *= base[wname(v)] ** 2
        for row in "bcde":
            for k in (1, 2, 3, 4):
                xi_sqrt *= base[wname(f"{row}{k}")]
        xi = xi_sqrt ** 2
        alpha = mono[(1, 2)] / xi
        rho = mono[(-1, -2)] / xi
        gamma = mono[(1, 1)] / xi_sqrt
        delta = mono[(0, -1)] / xi_sqrt
        beta = mono[(1, 0)]
        omega = mono[(0, 0)]
        if mono[(0, -1)] != mono[(1, -1)]:
            return (False, f"rep {rep}: unbalanced linear pair")
        if mono[(0, -2)] != 2 * rho * xi or mono[(1, -2)] != rho * xi:
            return (False, f"rep {rep}: unbalanced quadratic triple")
        if alpha != xi ** 2 * rho:
            return (False, f"rep {rep}: alpha != xi^2 rho")
        if gamma != xi * delta:
            return (False, f"rep {rep}: gamma != xi delta")
        if omega != 2 * xi * (xi * rho):
            return (False, f"rep {rep}: omega != 2 xi (xi rho)")
        # factorization through the dual geodesic
        za1 = RationalFn.generator(small, wname("a1"), 2)
        za2 = RationalFn.generator(small, wname("a2"), 2)
        u_inv = za2 * xi_sqrt
        gbv = u_inv.inverse() * (1 + za1.inverse()) + u_inv
        fact = za1 * (alpha * gbv ** 2 + gamma * gbv + (beta - 2 * alpha))
        if det != fact:
            return (False, f"rep {rep}: pencil determinant does not factor through the dual geodesic")
    return True


# -- braid ------------------------------------------------------------------------


@check(
    "braid",
    "braid_modular_relations",
    "five-generator relations with the hyperelliptic and sixth-power words at five points",
)
def relations(rng_seed):
    model = build_surface("genus2_x7")
    u = chain_matrix(model.name, model.chains["braid"])
    rng = random.Random(rng_seed)

    def word(seq):
        # the image of every prefix of a word at the current point is kept,
        # so each distinct braid word is applied once
        seq = tuple(seq)
        k = len(seq)
        while seq[:k] not in images:
            k -= 1
        m = images[seq[:k]]
        for j in range(k, len(seq)):
            m = images[seq[: j + 1]] = matrix_braid(m, seq[j])
        return m

    evaluate = u.evaluator()
    for rep in range(5):
        pt = _positive_point(model.seed.frame, rng, 1, 12)
        upt = evaluate(pt)
        images = {(): upt}
        if not word([5, 4, 3, 2, 1, 1, 2, 3, 4, 5]) == upt:
            return (False, f"rep {rep}: hyperelliptic composition differs from identity")
        if not word([1, 2, 3] * 4) == word([5, 5]):
            return (False, f"rep {rep}: chain relation fails")
        if not word([1, 2, 3, 4, 5] * 6) == upt:
            return (False, f"rep {rep}: sixth power relation fails")
        if word([1, 2, 3, 4, 5] * 2) == upt:
            return (False, f"rep {rep}: square unexpectedly trivial")
        for i in range(1, 5):
            if not word([i, i + 1, i]) == word([i + 1, i, i + 1]):
                return (False, f"rep {rep}: braid relation fails at {i}")
        for i in range(1, 6):
            for j in range(i + 2, 6):
                if not word([i, j]) == word([j, i]):
                    return (False, f"rep {rep}: commuting relation fails at ({i},{j})")
    return True


@check("braid", "braid_generator_basics", "matrix twists preserve the unipotent shape and invert exactly")
def braid_basics(rng_seed):
    model = build_surface("genus2_x7")
    u = chain_matrix(model.name, model.chains["braid"])
    rng = random.Random(rng_seed + 1)
    pt = _positive_point(model.seed.frame, rng, 1, 9)
    upt = u.evaluator()(pt)
    for i in range(1, 6):
        b = matrix_braid(upt, i)
        if not b.is_unipotent_upper():
            return (False, f"twist {i} breaks the unipotent shape")
        if not matrix_braid(b, i, "-") == upt:
            return (False, f"twist {i} inverse fails")
    return True


@check("braid", "braid_symbolic_relation", "braid relation holds on the generic symbolic unipotent form")
def symbolic_braid_relation(rng_seed):
    # generic symbolic 4x4 unipotent matrix
    names = [f"x{i}{j}" for i in range(1, 5) for j in range(i + 1, 5)]
    table = GeneratorTable(names)
    one = RationalFn.constant(table, 1)
    zero = RationalFn.constant(table, 0)
    u = MatrixRF(
        [
            [
                one if i == j else (RationalFn.generator(table, f"x{i}{j}") if j > i else zero)
                for j in range(1, 5)
            ]
            for i in range(1, 5)
        ]
    )
    lhs = matrix_braid(matrix_braid(matrix_braid(u, 1), 2), 1)
    rhs = matrix_braid(matrix_braid(matrix_braid(u, 2), 1), 2)
    if not lhs == rhs:
        return (False, "generic braid relation fails")
    if not matrix_braid(u, 2).is_unipotent_upper():
        return (False, "generic twist breaks the unipotent shape")
    return True


@check("braid", "braid_markov_invariance", "chart twists fix the separating element; the dual twist moves it")
def markov_twist_invariance(rng_seed):
    model = build_surface("genus2_x7")
    u = chain_matrix(model.name, model.chains["braid"])

    def markov_of(m):
        return trace_cubic(m[0, 1], m[1, 2], m[0, 2])

    # the negative control is symbolic: a random point can fall on a locus
    # where the dual twist happens to fix the separating element
    if markov_of(matrix_braid(u, 3)) == markov_of(u):
        return (False, "dual twist unexpectedly fixes the separating element")
    rng = random.Random(rng_seed + 3)
    for rep in range(3):
        pt = _positive_point(model.seed.frame, rng, 1, 9)
        upt = u.evaluator()(pt)
        base = markov_of(upt)
        for i in (1, 2, 4, 5):
            if markov_of(matrix_braid(upt, i)) != base:
                return (False, f"rep {rep}: twist {i} moves the separating element")
    return True


@check("braid", "braid_bracket_compatibility", "matrix twist preserves the reflection bracket structure at a point")
def twist_preserves_brackets(rng_seed):
    model = build_surface("genus2_x7")
    q = model.quiver
    u = chain_matrix(model.name, model.chains["braid"])
    # apply a matrix twist symbolically and re-check the reflection bracket
    tw = matrix_braid(u, 3)
    rng = random.Random(rng_seed + 2)
    pt = _positive_point(model.seed.frame, rng, 1, 9)

    def theta_form(m):
        lhs, rhs = reflection_sides_at(m, q, pt)
        return lhs == rhs

    if not theta_form(u):
        return (False, "chain matrix fails the reflection identity")
    if not theta_form(tw):
        return (False, "twisted matrix fails the reflection identity")
    return True


# -- sl2 -------------------------------------------------------------------------


@check(
    "sl2",
    "sl2_reconstruction",
    "ten chain-seeded inputs reconstruct with residuals below tolerance; controls exceed 1e-3",
)
def reconstruction_roundtrip(rng_seed):
    model = build_surface("genus2_x7")
    rng = random.Random(rng_seed)
    for rep in range(10):
        g = cluster_to_lengths(model, _casimir_point(model, "g", rng))
        rec = reconstruct(g)
        dets = determinant_residuals(rec.matrices)
        if max(float(x) for x in dets) > DEFAULT_TOL:
            return (False, f"rep {rep}: determinant residual too large")
        res = consistency_residuals(g, rec)
        if res["trace_consistency"] > DEFAULT_TOL or res["monodromy"] > DEFAULT_TOL:
            return (False, f"rep {rep}: residuals {res}")
        tt = trace_table(rec.matrices)
        for k, v in g.items():
            if abs(float(tt[k] - to_decimal(v))) > DEFAULT_TOL * max(1.0, abs(float(v))):
                return (False, f"rep {rep}: trace {k} does not round-trip")
        g2 = dict(g)
        g2[(4, 5)] = g2[(4, 5)] + Fraction(1, 10)
        res2 = consistency_residuals(g2, reconstruct(g2))
        if res2["trace_consistency"] <= 1e-3 and res2["monodromy"] <= 1e-3:
            return (False, f"rep {rep}: perturbed control not detected")
    return True


@check("sl2", "sl2_degenerate_boundary", "non-hyperbolic first trace is rejected with a structured error")
def degenerate_input(rng_seed):
    g = {(i, j): 3.0 for i in range(1, 6) for j in range(i + 1, 6)}
    g[(1, 2)] = 2.0
    try:
        reconstruct(g)
    except ReconstructionError as exc:
        if exc.quantity == "G_{1,2}":
            return True
        return (False, f"rejected on {exc.quantity}, not on G_{{1,2}}")
    return (False, "degenerate boundary input not rejected")

