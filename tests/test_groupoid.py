"""Groupoid compatibility identities, the unipotent solver, leaf diagnostics."""

import operator
import random
from fractions import Fraction

import pytest

from symgroupoid import groupoid, suites
from symgroupoid.groupoid import (
    InadmissibleMatrixError,
    RMatrix,
    _reflection_form,
    antidiagonal_S,
    bracket_tensor_at,
    corner_minor_ratios,
    generic_transport_pair,
    groupoid_matrices,
    leaf_diagnostics,
    reflection_rhs,
    reflection_sides_at,
    solve_unipotent_A,
    theta,
)
from symgroupoid.intlinalg import IntMatrix
from symgroupoid.laurent import GeneratorTable, RationalFn
from symgroupoid.matrices import MatrixRF, charpoly_is_palindromic
from symgroupoid.network import SquareNetwork
from symgroupoid.quiver import Quiver, _poly_bracket, exchange_rows, poisson_bracket
from symgroupoid.report import run_suite_checks
from symgroupoid.suites import build_suite
from symgroupoid.teich import matrix_braid

T0 = GeneratorTable([])


def wrap(x):
    return RationalFn.constant(T0, x)


def rational_matrix(rows):
    return MatrixRF([[wrap(Fraction(x)) for x in row] for row in rows])


def test_antidiagonal_matrix_values():
    s1 = antidiagonal_S(1)
    assert s1[0, 0] == wrap(-1)
    s2 = antidiagonal_S(2)
    assert [[int(s2[i, j].evaluate({})) for j in range(2)] for i in range(2)] == [[0, -1], [1, 0]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_antidiagonal_square_and_orthogonality(n):
    s = antidiagonal_S(n)
    ident = MatrixRF.identity(n, wrap(1), wrap(0))
    assert s * s == ident.scale(wrap((-1) ** (n + 1)))
    assert s.transpose() * s == ident
    assert s.transpose() == s.scale(wrap((-1) ** (n + 1)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_r_matrix_structure(n):
    RMatrix(n)  # construction asserts r + r^T = P


@pytest.mark.parametrize("n", [2, 3])
def test_groupoid_identities_symbolic(n, check_results):
    # A and Atilde upper-triangular, B A B^T == Atilde: the groupoid suite's
    # three checks of this size, read from the session's run of that suite
    results = check_results("groupoid")
    for cid in (f"groupoid_upper_A_n{n}", f"groupoid_upper_At_n{n}", f"groupoid_conjugation_n{n}"):
        assert results[cid].status == "pass", (cid, results[cid].witness)


def test_groupoid_build_is_lazy_and_build_errors_fail_one_check(monkeypatch):
    def singular(n, specialize=None):
        raise ZeroDivisionError("singular linear system")

    monkeypatch.setattr(groupoid, "generic_transport_pair", singular)
    suites._symbolic_groupoid.cache_clear()  # the symbolic build is kept once per process
    checks = {c.id: c for c in build_suite("groupoid", 42)}  # builds nothing yet
    report = run_suite_checks("groupoid", [checks["groupoid_upper_A_n2"], checks["groupoid_numeric_n4"]], 42)
    assert [(c.status, c.witness) for c in report.checks] == [
        ("fail", "ZeroDivisionError: singular linear system"),
        ("fail", f"no nonsingular specialization in {groupoid.NUMERIC_ATTEMPTS} attempts"),
    ]


def test_matched_minors_check_passes_at_every_seed():
    # seeds 2, 7, 8 and 21 drew matrices off the admissible stratum
    # (b13 = delta_2 = delta~_2 = 0) and failed before such draws were skipped
    for seed in range(30):
        (check,) = [c for c in build_suite("groupoid", seed) if c.id == "groupoid_matched_minors_unipotent"]
        assert check.run() is True, seed


def test_admissible_draws_are_capped(monkeypatch):
    # both checks once drew until a draw was admissible, with no cap; the
    # RuntimeError past 10 000 draws stands in for a hang
    calls = 0

    def never_admissible(b):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise RuntimeError("draws are not capped")
        raise InadmissibleMatrixError("delta_1")

    monkeypatch.setattr(suites, "solve_unipotent_A", never_admissible)
    checks = {c.id: c for c in build_suite("groupoid", 42)}
    ids = ["groupoid_unique_unipotent", "groupoid_matched_minors_unipotent"]
    report = run_suite_checks("groupoid", [checks[cid] for cid in ids], 42)
    cap = groupoid.NUMERIC_ATTEMPTS
    assert [(c.status, c.witness) for c in report.checks] == [
        ("fail", f"no admissible size-3 matrix in {cap} draws"),
        ("fail", f"no admissible matched-minor matrix in {cap} draws"),
    ]
    assert calls <= 2 * cap  # a matched-minor draw with m11 = 0 is skipped before solving


def test_groupoid_identities_numeric_n4():
    rng = random.Random(5)
    parts = generic_transport_pair(4, specialize=lambda _n: Fraction(rng.randint(1, 20), rng.randint(1, 5)))
    mats = groupoid_matrices(parts)
    assert mats["A"].is_upper_triangular()
    assert mats["Atilde"].is_upper_triangular()
    assert mats["BABt"] == mats["Atilde"]


def test_unique_unipotent_on_random_matrices():
    rng = random.Random(3)
    for n in (3, 4):
        done = 0
        while done < 6:
            b = rational_matrix(
                [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
            )
            try:
                out = solve_unipotent_A(b)
            except InadmissibleMatrixError:
                continue
            done += 1
            assert out["A"].is_unipotent_upper()
            assert not any(out["image"][i, j] for i in range(n) for j in range(i))
            assert out["ratio_formula_holds"] is True


def test_identity_matrix_is_inadmissible():
    # delta_1 and delta_2 vanish: every upper-triangular A makes Id A Id^T
    # lower-free, so no unipotent solution is unique
    ident = MatrixRF.identity(3, wrap(1), wrap(0))
    deltas, _ = corner_minor_ratios(ident)
    assert not any(deltas[1:3])
    with pytest.raises(InadmissibleMatrixError) as err:
        solve_unipotent_A(ident)
    assert err.value.minor == "delta_1"


def test_first_vanishing_interior_minor_is_named():
    # delta_1 = 6, delta_2 = -3 and delta~_1 = 10, but delta~_2, the top-right
    # entry, is 0
    b = rational_matrix([[1, 2, 0], [3, 4, 5], [6, 7, 8]])
    with pytest.raises(InadmissibleMatrixError) as err:
        solve_unipotent_A(b)
    assert err.value.minor == "delta~_2"


def test_size_one_has_no_unknowns():
    # A = (1) is the unique unipotent matrix, and B A B^T = (b^2) is the ratio
    out = solve_unipotent_A(rational_matrix([[3]]))
    assert out["A"] == rational_matrix([[1]])
    assert out["diag"] == [wrap(9)] and out["ratio_formula_holds"] is True


def test_corner_minor_conventions():
    b = rational_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    deltas, tildes = corner_minor_ratios(b)
    det = b.det()
    assert deltas[0] == wrap(1) and tildes[3] == wrap(1)
    assert deltas[3] == det and tildes[0] == det
    # delta_1 is the bottom-left entry; delta~_1 the top-right complementary block
    assert deltas[1] == b[2, 0]
    assert tildes[2] == b[0, 2]


def test_matched_minor_stratum_gives_unipotent_image():
    rng = random.Random(11)
    built = 0
    while built < 3:
        b21, b22, b31, b32, b23, b33 = (Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(6))
        b13 = b21 * b32 - b22 * b31
        if b23 == 0:
            continue
        b12 = (b31 + b13 * b22) / b23
        m11 = b22 * b33 - b23 * b32
        if m11 == 0:
            continue
        m12 = b21 * b33 - b23 * b31
        m13 = b21 * b32 - b22 * b31
        b11 = (1 + b12 * m12 - b13 * m13) / m11
        b = rational_matrix([[b11, b12, b13], [b21, b22, b23], [b31, b32, b33]])
        try:
            out = solve_unipotent_A(b)
        except (InadmissibleMatrixError, ZeroDivisionError):
            continue
        built += 1
        assert b.det() == wrap(1)
        assert out["image"].is_unipotent_upper()


def test_leaf_diagnostics_identity():
    ident = MatrixRF.identity(5, wrap(1), wrap(0))
    d = leaf_diagnostics(ident)
    assert d["rank_sym"] == 5
    assert d["palindromic"]
    # char poly of Id^-T Id is (x-1)^5: no root at -1
    assert d["minus_one_multiplicity"] == 0


def test_leaf_diagnostics_generic_palindromy():
    rng = random.Random(7)
    for n in (4, 5, 6):
        a = MatrixRF(
            [
                [wrap(1) if i == j else (wrap(Fraction(rng.randint(1, 9), rng.randint(1, 4))) if j > i else wrap(0)) for j in range(n)]
                for i in range(n)
            ]
        )
        d = leaf_diagnostics(a)
        assert d["palindromic"]
        assert charpoly_is_palindromic(d["charpoly"])


def test_leaf_diagnostics_requires_unipotent():
    b = rational_matrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        leaf_diagnostics(b)
    # upper-triangular, but a diagonal entry is neither 1 nor -1
    for diag in ([2, 1], [1, -2], [0, 1]):
        with pytest.raises(ValueError, match="diagonal entries 1 or -1"):
            leaf_diagnostics(rational_matrix([[diag[0], 3], [0, diag[1]]]))
    # an empty, a wide and a tall matrix
    for rows in ([], [[1, 2, 3], [0, 1, 4]], [[1, 2], [0, 1], [0, 0]]):
        with pytest.raises(ValueError, match="square"):
            leaf_diagnostics(rational_matrix(rows))


def test_leaf_diagnostics_takes_a_diagonal_of_signs():
    # the congruence D A D by D = i Id is -A: the same rank of A + A^T and the
    # same characteristic polynomial of A^-T A
    rng = random.Random(11)
    for n in (4, 5, 6):
        a = rational_matrix(
            [[1 if i == j else (rng.randint(-9, 9) if j > i else 0) for j in range(n)] for i in range(n)]
        )
        assert leaf_diagnostics(a.scale(-1)) == leaf_diagnostics(a)
    # mixed signs: B = [[-1, 2], [0, 1]] is its own inverse, B^T B is
    # [[1, -2], [-2, 5]], and B + B^T = [[-2, 2], [2, 2]] has rank 2
    d = leaf_diagnostics(rational_matrix([[-1, 2], [0, 1]]))
    assert d["rank_sym"] == 2
    assert d["charpoly"] == [1, -6, 1] and d["palindromic"]
    assert d["minus_one_multiplicity"] == 0


def test_bracket_tensor_at_matches_entrywise_brackets():
    net = SquareNetwork(3)
    a, at = net.assemble_A()
    rng = random.Random(5)
    pt = {name: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for name in net.table.names}
    n = a.rows
    for m1, m2 in ((a, a), (a, at)):
        symbolic = {
            (i, j, k, l): poisson_bracket(m1[i, j], m2[k, l], net.quiver)
            for i in range(n)
            for j in range(n)
            for k in range(n)
            for l in range(n)
        }
        tensor = bracket_tensor_at(m1, m2, net.quiver, pt)
        for (i, j, k, l), br in symbolic.items():
            assert tensor[i * n + k, j * n + l] == br.evaluate(pt)


def test_twin_brackets_vanish_and_self_brackets_do_not():
    # negative control for reflection_twin_commutation_n4: at the same point,
    # {A (x) Atilde} is the zero tensor while {A (x) A} is not
    net = SquareNetwork(4)
    a, at = net.assemble_A()
    rng = random.Random(3)
    pt = {name: Fraction(rng.randint(1, 20), rng.randint(1, 20)) for name in net.table.names}
    twin = bracket_tensor_at(a, at, net.quiver, pt)
    assert all(x == 0 for row in twin.entries for x in row)
    self_tensor = bracket_tensor_at(a, a, net.quiver, pt)
    assert any(x != 0 for row in self_tensor.entries for x in row)


def _dense_rhs(m, r, rt2):
    """r M1M2 - M1M2 r - M1 rt2 M2 + M2 rt2 M1 as dense Fraction products, with
    M1 = M (x) 1 and M2 = 1 (x) M on the doubled index (i, k) -> i n + k."""
    n = len(m)
    size = n * n
    m1 = MatrixRF([[m[a // n][b // n] if a % n == b % n else Fraction(0) for b in range(size)] for a in range(size)])
    m2 = MatrixRF([[m[a % n][b % n] if a // n == b // n else Fraction(0) for b in range(size)] for a in range(size)])
    r, rt2 = MatrixRF(r), MatrixRF(rt2)
    return (r * m1 * m2 - m1 * m2 * r - m1 * rt2 * m2 + m2 * rt2 * m1).entries


def _partial_transpose_2(r, n):
    """Swap the second-leg indices: out[(i,k),(j,l)] = r[(i,l),(j,k)]."""
    return [
        [r[i * n + l][j * n + k] for j in range(n) for l in range(n)] for i in range(n) for k in range(n)
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reflection_rhs_matches_dense_r_matrix_products(n):
    rng = random.Random(n)
    ref = RMatrix(n)
    rt2 = _partial_transpose_2(ref.r, n)
    for _ in range(3):
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        assert reflection_rhs(MatrixRF(m)).entries == _dense_rhs(m, ref.r, rt2)


def test_reflection_identity_fails_with_transposed_r_matrix():
    # negative control: the size-3 network form satisfies the identity with r
    # and not with r^T, so the check cannot pass whatever the bracket
    net = SquareNetwork(3)
    a, _ = net.assemble_A()
    rng = random.Random(9)
    pt = {name: Fraction(rng.randint(1, 30), rng.randint(1, 30)) for name in net.table.names}
    lhs = bracket_tensor_at(a, a, net.quiver, pt).entries
    mv = [[a[i, j].evaluate(pt) for j in range(3)] for i in range(3)]
    ref = RMatrix(3)
    rt = [list(col) for col in zip(*ref.r)]
    assert lhs == _dense_rhs(mv, ref.r, _partial_transpose_2(ref.r, 3))
    assert lhs != _dense_rhs(mv, rt, _partial_transpose_2(rt, 3))


def test_theta_has_one_definition(monkeypatch):
    # RMatrix and reflection_rhs both read twice_theta; the right side once
    # built its own half-unit table, so a θ mutant reached RMatrix alone
    m = MatrixRF([[1, 2, 0], [3, Fraction(1, 2), Fraction(7, 2)], [4, -5, 1]])
    before_r, before_rhs = RMatrix(3).r, reflection_rhs(m).entries
    monkeypatch.setattr(groupoid, "twice_theta", lambda x: (x < 0) + (x <= 0))
    after = RMatrix(3)
    assert after.r != before_r
    assert reflection_rhs(m).entries != before_rhs
    # and they still agree with each other: the right side is the dense
    # product of the patched r
    assert reflection_rhs(m).entries == _dense_rhs(m.entries, after.r, _partial_transpose_2(after.r, 3))


def test_integer_matrix_stays_exact():
    # int entries used to give the unit 1 / 1 == 1.0, so these came back as floats
    m = MatrixRF([[2, 1], [1, 1]])
    inv = m.solve(MatrixRF.identity(2, 1, 0))
    assert inv == MatrixRF([[1, -1], [-1, 2]])
    assert m.rank() == 2
    assert m.charpoly() == [1, -3, 1]
    values = [x for row in inv.entries for x in row] + m.charpoly()
    assert not any(isinstance(x, float) for x in values)
    assert MatrixRF([[1, 5], [0, 1]]).is_unipotent_upper()


# -- reference oracles for the pointwise reflection identity -------------------


def reference_reflection_rhs(m) -> list:
    """Reference: the right side entrywise in field arithmetic, with theta as
    the Fractions 1, 1/2 and 0 (the formula ``reflection_rhs`` computes in
    integers over one scale)."""
    n = len(m)
    return [
        [
            (theta(k - i) - theta(j - l)) * m[k][j] * m[i][l]
            - theta(j - k) * m[i][k] * m[j][l]
            + theta(l - i) * m[k][i] * m[l][j]
            for j in range(n)
            for l in range(n)
        ]
        for i in range(n)
        for k in range(n)
    ]


def reference_partials(h, point) -> list:
    """Reference: the partials dh/dw_i at a point, by the quotient rule in field
    arithmetic over the values of ``LaurentPoly.derivative`` of the numerator
    and the denominator."""
    def at(x):
        return RationalFn.from_poly(x).evaluate(point)

    p, q = h.num, h.den
    pv, qv = at(p), at(q)
    return [(at(p.derivative(n)) * qv - pv * at(q.derivative(n))) / (qv * qv) for n in h.table.names]


def reference_bracket_tensor(m1, m2, quiver, point) -> list:
    """Reference: {M1 tensor, M2} with the true partials, the bivector
    Pi_ij = b_ij w_i w_j / 8 and every contraction in field arithmetic (what
    ``bracket_tensor_at`` computes from Euler gradients in integers)."""
    n = m1.rows
    table = m1[0, 0].table
    wv = [point[name] for name in table.names]
    rows = exchange_rows(quiver, table)
    pi = [[(j, Fraction(bij, 8) * wv[i] * wv[j]) for j, bij in row] for i, row in enumerate(rows)]

    def gradients(m):
        return [[reference_partials(m[i, j], point) for j in range(n)] for i in range(n)]

    def field_sum(values):
        return sum(values, Fraction(0))

    g1 = gradients(m1)
    g2 = g1 if m2 is m1 else gradients(m2)
    h2 = [[[field_sum(p * g[j] for j, p in row) for row in pi] for g in grow] for grow in g2]
    return [
        [field_sum(x * y for x, y in zip(g1[i][j], h2[k][l])) for j in range(n) for l in range(n)]
        for i in range(n)
        for k in range(n)
    ]


def _random_field_matrix(rng, n, offset):
    """A seeded matrix whose entries run through zero, a nonzero int and a
    nonzero Fraction in turn, starting at ``offset``.  Entries are set after
    construction, so ints stay ints."""

    def entry(kind):
        if kind == 0:
            return 0
        x = rng.choice([-1, 1]) * rng.randint(1, 9)
        if kind == 2:
            x = Fraction(x, rng.randint(2, 7))
        return x

    m = MatrixRF([[0] * n for _ in range(n)])
    for i in range(n):
        for j in range(n):
            m[i, j] = entry((offset + i * n + j) % 3)
    return m


@pytest.mark.parametrize("n", range(1, 7))
def test_reflection_rhs_matches_reference_on_random_matrices(n):
    rng = random.Random(700 + n)
    for offset in range(4):
        m = _random_field_matrix(rng, n, offset)
        got = reflection_rhs(m).entries
        assert got == reference_reflection_rhs(m.entries)
        assert all(type(x) is Fraction for row in got for x in row)


def test_pointwise_tensors_of_the_zero_matrix():
    for n in (1, 3):
        rhs = reflection_rhs(MatrixRF([[0] * n for _ in range(n)])).entries
        assert rhs == reference_reflection_rhs([[Fraction(0)] * n for _ in range(n)])
        assert all(type(x) is Fraction and x == 0 for row in rhs for x in row)
    # constant entries have zero gradients, so their bracket tensor vanishes
    model = suites.build_surface("genus2_x7")
    t = model.seed.frame
    zero = MatrixRF([[RationalFn.constant(t, 0)] * 2 for _ in range(2)])
    pt = suites._positive_point(t, random.Random(1), 1, 9)
    tensor = bracket_tensor_at(zero, zero, model.quiver, pt).entries
    assert all(type(x) is Fraction and x == 0 for row in tensor for x in row)


def _genus2_chain_pair():
    model = suites.build_surface("genus2_x7")
    u = suites.chain_matrix(model.name, model.chains["braid"])
    return model, u, matrix_braid(u, 3)


def _two_points(table, seed):
    rng = random.Random(seed)
    return [suites._positive_point(table, rng, 1, 9) for _ in range(2)]


def test_genus2_chain_tensors_match_the_references():
    # the 6x6 braid chain matrix and its dual twist, at two points, with M1 is
    # M2 and M1 is not M2
    model, u, tw = _genus2_chain_pair()
    for pt in _two_points(model.seed.frame, 11):
        for m1, m2 in ((u, u), (u, tw)):
            tensor = bracket_tensor_at(m1, m2, model.quiver, pt).entries
            assert tensor == reference_bracket_tensor(m1, m2, model.quiver, pt)
            assert all(type(x) is Fraction for row in tensor for x in row)
        mv = u.evaluator()(pt)
        rhs = reflection_rhs(mv).entries
        assert rhs == reference_reflection_rhs(mv.entries)
        assert all(type(x) is Fraction for row in rhs for x in row)
        assert bracket_tensor_at(u, u, model.quiver, pt).entries == rhs


def test_reflection_sides_match_the_tensor_and_the_evaluated_right_side():
    # both sides from one gradient pass equal the separate tensor and the
    # right side of the separately evaluated matrix, at two points, for a
    # matrix that satisfies the identity and one that does not
    model, u, tw = _genus2_chain_pair()
    reversed_u = MatrixRF([list(reversed(row)) for row in u.entries])
    for pt in _two_points(model.seed.frame, 17):
        for m in (u, tw, reversed_u):
            lhs, rhs = reflection_sides_at(m, model.quiver, pt)
            assert lhs.entries == bracket_tensor_at(m, m, model.quiver, pt).entries
            assert rhs.entries == reflection_rhs(m.evaluator()(pt)).entries
        assert operator.eq(*reflection_sides_at(u, model.quiver, pt))
        lhs, rhs = reflection_sides_at(reversed_u, model.quiver, pt)
        assert lhs != rhs


def test_pointwise_tensors_make_one_point_pass_per_matrix(point_plans):
    # the entries of a matrix, numerators and denominators, share one plan, run
    # once; the per-entry gradients made two passes per entry
    model, u, tw = _genus2_chain_pair()
    pt = suites._positive_point(model.seed.frame, random.Random(19), 1, 9)
    reflection_sides_at(u, model.quiver, pt)
    assert [(len(polys), runs) for polys, runs in point_plans] == [(2 * u.rows * u.cols, 1)]
    point_plans.clear()
    bracket_tensor_at(u, tw, model.quiver, pt)
    assert [(len(polys), runs) for polys, runs in point_plans] == [(2 * u.rows * u.cols, 1)] * 2


def _reversed_a_to_d(q: Quiver) -> Quiver:
    """The quiver with the weight-4 arrow a -> d of genus2_x7 reversed."""
    assert q.b("a", "d") == 4
    doubled = [list(row) for row in q.doubled.entries]
    ia, id_ = q.index("a"), q.index("d")
    doubled[ia][id_], doubled[id_][ia] = -4, 4
    return Quiver(q.vertices, IntMatrix(doubled), q.frozen)


def test_reflection_form_over_laurent_entries_is_the_symbolic_bracket():
    # the reflection identity proved symbolically on the genus2_x7 braid chain:
    # over its Laurent entries 4·_reflection_form is 8·{a_ij, a_kl} on all
    # 1296 ordered quadruples; with the arrow a -> d reversed, 136 differ
    model, u, _ = _genus2_chain_pair()
    m = [[x.as_laurent() for x in row] for row in u.entries]
    n = len(m)
    form = [4 * x for row in _reflection_form(m) for x in row]
    cells = [(i, k, j, l) for i in range(n) for k in range(n) for j in range(n) for l in range(n)]
    assert len(form) == len(cells) == 1296

    def doubled_brackets(quiver):
        rows = exchange_rows(quiver, model.seed.frame)
        return [_poly_bracket(m[i][j], m[k][l], rows) for i, k, j, l in cells]

    assert doubled_brackets(model.quiver) == form
    wrong = doubled_brackets(_reversed_a_to_d(model.quiver))
    assert sum(x != y for x, y in zip(wrong, form)) == 136


def test_reversed_arrow_breaks_the_genus2_reflection_identity():
    # negative control: reversing the weight-4 arrow a -> d of genus2_x7
    # changes 68 brackets of chain entries, and the identity then fails on
    # exactly those, in both orders: 136 of the 1296 entries
    model, u, _ = _genus2_chain_pair()
    q = model.quiver
    reversed_q = _reversed_a_to_d(q)
    pt = suites._positive_point(model.seed.frame, random.Random(13), 1, 9)
    rhs = reflection_rhs(u.evaluator()(pt)).entries
    true_tensor = bracket_tensor_at(u, u, q, pt).entries
    wrong_tensor = bracket_tensor_at(u, u, reversed_q, pt).entries
    assert true_tensor == rhs
    cells = [(r, c) for r in range(36) for c in range(36)]
    failing = {(r, c) for r, c in cells if wrong_tensor[r][c] != rhs[r][c]}
    changed = {(r, c) for r, c in cells if wrong_tensor[r][c] != true_tensor[r][c]}
    assert len(failing) == 136
    assert failing == changed
    # entry ((i,k),(j,l)) is {u_ij, u_kl}, so each changed bracket shows twice
    swap = {(r % 6 * 6 + r // 6, c % 6 * 6 + c // 6) for r, c in failing}
    assert swap == failing
    assert wrong_tensor == reference_bracket_tensor(u, u, reversed_q, pt)
