"""Mutation mechanics, log-canonical brackets, and their compatibility."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgroupoid.groupoid import bracket_tensor_at
from symgroupoid.intlinalg import IntMatrix
from symgroupoid.laurent import GeneratorTable, LaurentPoly, Q, RationalFn, rational_evaluator
from symgroupoid.matrices import MatrixRF
from symgroupoid.quiver import (
    ClusterValue,
    FrozenVertexError,
    HalfIntegerMutationError,
    Jet,
    Quiver,
    Seed,
    _poly_bracket,
    apply_sequence,
    corank,
    cv_sum,
    brackets_at,
    exchange_rows,
    initial_table,
    monomial_casimirs,
    mutate,
    poisson_bracket,
    wname,
)

# the five-vertex exchange pattern: single arrow out, double out, single in, double in
PATTERN = Quiver.from_arrows(
    ["f", "a", "b", "c", "d"],
    [("f", "a", 2), ("f", "b", 4), ("c", "f", 2), ("d", "f", 4)],
)


def test_mutation_value_rule():
    seed = Seed.initial(PATTERN)
    mutated = mutate(seed, "f")
    t = seed.frame
    f = RationalFn.generator(t, wname("f"), 2)
    a = RationalFn.generator(t, wname("a"), 2)
    b = RationalFn.generator(t, wname("b"), 2)
    c = RationalFn.generator(t, wname("c"), 2)
    d = RationalFn.generator(t, wname("d"), 2)
    one = RationalFn.constant(t, 1)
    assert mutated.value("f") == f.inverse()
    assert mutated.value("a") == a * (one + f.inverse()).inverse()
    assert mutated.value("b") == b * (one + f.inverse()).inverse() ** 2
    assert mutated.value("c") == c * (one + f)
    assert mutated.value("d") == d * (one + f) ** 2


def test_mutation_involution():
    seed = Seed.initial(PATTERN)
    back = mutate(mutate(seed, "f"), "f")
    assert back == seed


def test_mutation_matrix_rule():
    q = Quiver.from_arrows(["x", "y", "z"], [("x", "y", 2), ("y", "z", 2)])
    m = q.mutate_matrix("y")
    # arrows reverse at y and the composite x->z appears
    assert m.b("y", "x") == 2
    assert m.b("z", "y") == 2
    assert m.b("x", "z") == 2
    assert q.mutate_matrix("y").mutate_matrix("y") == q


def _entrywise_mutation(b, k):
    """The doubled exchange matrix mutated at k, entry by entry, or None where
    an entry of row k is odd or a new entry is not an integer."""
    if any(x % 2 for x in b[k]):
        return None
    n = len(b)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if k in (i, j):
                out[i][j] = -b[i][j]
                continue
            gain4 = abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])
            if gain4 % 4:
                return None
            out[i][j] = b[i][j] + gain4 // 4
    return out


@pytest.mark.parametrize("seed", range(8))
def test_mutation_matches_the_entrywise_rule_on_random_matrices(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    names = [f"v{i}" for i in range(n)]
    # even entries, then a few odd ones on half of the matrices
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.choice([0, 0, 2, -2, 4, -4, 6])
            b[i][j], b[j][i] = x, -x
    if seed % 2:
        for _ in range(rng.randint(1, 2)):
            i, j = rng.sample(range(n), 2)
            b[i][j] += 1
            b[j][i] -= 1
    q = Quiver(names, IntMatrix(b))
    raised = []
    for k, name in enumerate(names):
        expected = _entrywise_mutation(b, k)
        try:
            m = q.mutate_matrix(name)
        except HalfIntegerMutationError:
            raised.append(k)
            assert expected is None
            continue
        assert expected is not None and m.doubled.entries == expected
        assert m.vertices == q.vertices and m.mutate_matrix(name) == q
    assert bool(raised) == bool(seed % 2)
    assert q.doubled.entries == b  # the quiver mutated is left as it was


def test_swap_and_from_arrows_match_entrywise_reads():
    rng = random.Random(5)
    names = ["p", "q", "r", "s", "t"]
    arrows = [(u, v, rng.choice([1, 2, 4])) for u in names for v in names if u < v and rng.random() < 0.6]
    arrows += [("s", "p", 2), ("p", "s", 1)]  # weights add up
    quiver = Quiver.from_arrows(names, arrows, frozen={"r"})
    expected = {(u, v): 0 for u in names for v in names}
    for u, v, w in arrows:
        expected[u, v] += w
        expected[v, u] -= w
    assert all(quiver.b(u, v) == x for (u, v), x in expected.items())
    assert all(type(x) is int for row in quiver.doubled.entries for x in row)
    swapped = quiver.swap("p", "r")
    label = {"p": "r", "r": "p"}
    assert all(swapped.b(label.get(u, u), label.get(v, v)) == x for (u, v), x in expected.items())
    assert swapped.frozen == {"p"} and swapped.swap("p", "r") == quiver


def test_frozen_vertex_rejected():
    q = Quiver.from_arrows(["x", "y"], [("x", "y", 2)], frozen={"y"})
    with pytest.raises(FrozenVertexError):
        mutate(Seed.initial(q), "y")


def test_half_integer_vertex_rejected():
    q = Quiver.from_arrows(["x", "y"], [("x", "y", 1)])
    with pytest.raises(HalfIntegerMutationError):
        mutate(Seed.initial(q), "x")


def test_apply_sequence_empty_and_swap():
    seed = Seed.initial(PATTERN)
    assert apply_sequence(seed, []) == seed
    swapped = apply_sequence(seed, [("a", "b")])
    assert swapped.quiver.b("f", "a") == 4
    assert swapped.quiver.b("f", "b") == 2
    assert swapped.value("a") == RationalFn.generator(seed.frame, wname("b"), 2)
    assert apply_sequence(swapped, [("a", "b")]) == seed


def test_swap_moves_frozen_with_the_vertex():
    # frozen stayed with the label: after x~y the vertex named y carried x's
    # arrows and value but could be mutated, and x raised FrozenVertexError
    q = Quiver.from_arrows(["x", "y", "z"], [("x", "z", 2), ("y", "z", 4)], frozen={"x"})
    swapped = apply_sequence(Seed.initial(q), [("x", "y")])
    assert swapped.quiver.b("y", "z") == 2
    assert swapped.quiver.frozen == {"y"}
    mutate(swapped, "x")
    with pytest.raises(FrozenVertexError):
        mutate(swapped, "y")


def test_bracket_base_case():
    seed = Seed.initial(PATTERN)
    t = seed.frame
    f = RationalFn.generator(t, wname("f"), 2)
    b = RationalFn.generator(t, wname("b"), 2)
    br = poisson_bracket(f, b, PATTERN)
    assert br == Fraction(2) * f * b  # eps(f, b) = 2 for a double arrow


def test_bracket_antisymmetry_and_leibniz():
    rng = random.Random(3)
    seed = Seed.initial(PATTERN)
    t = seed.frame

    def rand_fn():
        terms = {}
        for _ in range(3):
            exps = tuple(rng.randint(-2, 2) for _ in range(len(t)))
            terms[exps] = Fraction(rng.randint(1, 5))
        return RationalFn.from_poly(LaurentPoly(t, terms))

    for _ in range(4):
        x, y, z = rand_fn(), rand_fn(), rand_fn()
        assert poisson_bracket(x, y, PATTERN) == -poisson_bracket(y, x, PATTERN)
        lhs = poisson_bracket(x, y * z, PATTERN)
        rhs = poisson_bracket(x, y, PATTERN) * z + y * poisson_bracket(x, z, PATTERN)
        assert lhs == rhs


@given(
    st.lists(st.integers(min_value=-2, max_value=2), min_size=5, max_size=5),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=5, max_size=5),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=5, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_jacobi_identity_on_monomials(e1, e2, e3):
    t = initial_table(PATTERN.vertices)
    ms = [RationalFn.from_poly(LaurentPoly(t, {tuple(e): Q(1)})) for e in (e1, e2, e3)]
    x, y, z = ms

    def br(a, b):
        return poisson_bracket(a, b, PATTERN)

    jac = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
    assert not jac


def _dense_doubled(quiver, table):
    """The doubled exchange matrix in table positions, read entry by entry
    from ``Quiver.b``; 0 on a row or column of a generator outside the quiver."""
    vertex = {wname(v): v for v in quiver.vertices}
    return [
        [quiver.b(vertex[a], vertex[b]) if a in vertex and b in vertex else 0 for b in table.names]
        for a in table.names
    ]


def _monomial_bracket_sum(p, r, b_rows):
    """8·{p, r} summed one term pair at a time: ca·cb·(a·B·b) at a + b, with
    B the dense ``b_rows``."""
    terms = {}
    for a, ca in p.terms.items():
        for b, cb in r.terms.items():
            aBb = sum(a[i] * b_rows[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))
            key = tuple(x + y for x, y in zip(a, b))
            terms[key] = terms.get(key, 0) + ca * cb * aBb
    return LaurentPoly(p.table, terms)


def _random_poly(rng, t, size):
    terms = {}
    while len(terms) < size:
        exps = tuple(rng.randint(-2, 2) for _ in range(len(t)))
        terms[exps] = rng.choice([1, -3, 7, Fraction(2, 3), Fraction(-5, 4)])
    return LaurentPoly(t, terms)


def test_poly_bracket_matches_pairwise_monomial_brackets():
    # _poly_bracket forms B·e over the operand with fewer terms and reads
    # a·B·b = −b·B·a when that is the first one: both orders, both sides smaller
    rng = random.Random(11)
    for q in (PATTERN, Quiver.from_arrows(["u", "v", "x"], [("u", "v", 1), ("v", "x", 3), ("x", "u", 2)])):
        t = initial_table(q.vertices)
        rows = exchange_rows(q, t)
        for sizes in ((2, 9), (9, 2), (1, 6), (5, 5)):
            p, r = (_random_poly(rng, t, n) for n in sizes)
            expected = _monomial_bracket_sum(p, r, _dense_doubled(q, t))
            assert expected
            assert _poly_bracket(p, r, rows) == expected
            assert _poly_bracket(r, p, rows) == -expected
            # the skein weight 4 + a·B·b: the swap negates B·e, never the unit
            assert _poly_bracket(p, r, rows, 4) == (p * r).scale(4) + expected
            assert _poly_bracket(r, p, rows, 4) == (r * p).scale(4) - expected


def _bracket_by_derivatives(f, g, quiver):
    """{f, g} = sum over i, j of b_ij·w_i·w_j/8 · df/dw_i · dg/dw_j, from
    generic RationalFn operations."""
    t = f.table
    b_rows = _dense_doubled(quiver, t)
    gens = [RationalFn.generator(t, n) for n in t.names]
    df = [f.derivative(n) for n in t.names]
    dg = [g.derivative(n) for n in t.names]
    total = RationalFn.constant(t, 0)
    for i, row in enumerate(b_rows):
        for j, bij in enumerate(row):
            if bij and df[i] and dg[j]:
                total = total + Fraction(bij, 8) * gens[i] * gens[j] * df[i] * dg[j]
    return total


def test_exchange_rows_match_b_in_table_positions():
    # a generator outside the quiver and the vertices in reverse table order
    t = GeneratorTable(["x", *(wname(v) for v in reversed(PATTERN.vertices))])
    rows = exchange_rows(PATTERN, t)
    assert len(rows) == len(t) and rows[0] == ()
    for i, a in enumerate(PATTERN.vertices[::-1], 1):
        assert all(bij for _, bij in rows[i])
        entries = dict(rows[i])
        assert len(entries) == len(rows[i]) and 0 not in entries
        for j, b in enumerate(PATTERN.vertices[::-1], 1):
            assert entries.get(j, 0) == PATTERN.b(a, b)


def test_exchange_rows_are_kept_per_table_and_cannot_change():
    t = initial_table(PATTERN.vertices)
    rows = exchange_rows(PATTERN, t)
    assert exchange_rows(PATTERN, t) is rows
    assert exchange_rows(PATTERN, GeneratorTable(t.names)) is rows
    # another table gets its own rows: every position moves up by one
    wide = exchange_rows(PATTERN, GeneratorTable(["x", *t.names]))
    assert wide != rows
    assert wide == ((), *(tuple((j + 1, b) for j, b in row) for row in rows))
    # a mutated quiver is a new quiver, with rows of its own
    assert exchange_rows(PATTERN.mutate_matrix("f"), t) != rows
    assert all(isinstance(row, tuple) for row in rows) and rows[0]
    with pytest.raises(TypeError):
        rows[0] = ()
    with pytest.raises(TypeError):
        rows[0][0] = (0, 0)


def test_seed_value_is_built_once_per_value():
    seed = mutate(mutate(Seed.initial(PATTERN), "f"), "a")
    for v in PATTERN.vertices:
        first = seed.value(v)
        assert seed.value(v) is first
        fresh = RationalFn(*seed.values[v].split())
        assert first == fresh
        assert (first.num, first.den) == (fresh.num, fresh.den)


def test_sqrt_of_a_negative_coefficient_is_an_arithmetic_error():
    # the sign was checked after isqrt, which raised ValueError first
    t = initial_table(["u", "v"])
    for coeff in (-4, Q(-9, 4), -1):
        with pytest.raises(ArithmeticError, match="perfect rational square"):
            ClusterValue(t, coeff).sqrt()
    assert ClusterValue(t, Q(9, 4), (2, -4)).sqrt() == ClusterValue(t, Q(3, 2), (1, -2))


def test_cv_sum_merges_known_factors_and_refuses_zero():
    t = initial_table(["a", "b"])
    wa, wb = (LaurentPoly.generator(t, wname(v)) for v in "ab")
    one = LaurentPoly.one(t)
    p, q, s = one + wa, one + wb, one + wa * wb
    monos = [(0, 0), (1, 0), (0, 1), (1, 1)]  # the terms of p·q
    # Σ w^m·q/s = p·q²/s: the known q divides twice and its exponent merges
    # to 2; the rest, p, is a fresh factor
    values = [ClusterValue(t, 1, m, {q: 1, s: -1}) for m in monos]
    total = cv_sum(values, known=[q])
    assert total.factors == {q: 2, p: 1, s: -1}
    plain = sum((v.as_rational() for v in values), RationalFn.constant(t, 0))
    assert total.as_rational() == plain
    # Σ w^m/q = p·q/q: the denominator's q divides the numerator, and the
    # exponents -1 and +1 merge away
    values = [ClusterValue(t, 1, m, {q: -1}) for m in monos]
    total = cv_sum(values)
    assert total.factors == {p: 1}
    assert total.as_rational() == RationalFn.from_poly(p)
    x = ClusterValue(t, 3, (1, 0), {s: -1})
    with pytest.raises(ValueError):
        cv_sum([x, x * ClusterValue(t, -1)])


def test_split_and_cv_sum_build_one_term_maps_without_validation(monkeypatch):
    # a value's monomial and coefficient make a one-term map the trusted
    # LaurentPoly._of takes as it is; through the validating constructor
    # these two made most of its calls in the genus3 suite
    t = initial_table(["a", "b"])
    wa, wb = (LaurentPoly.generator(t, wname(v)) for v in "ab")
    one = LaurentPoly.one(t)
    p, q = one + wa, one + wb
    values = [ClusterValue(t, Q(3, 2), (1, -2), {p: 2, q: -1}), ClusterValue(t, -4, (0, 1), {q: -2})]
    validated = []
    original = LaurentPoly.__init__

    def counted(self, table, terms=None):
        if terms:
            validated.append(dict(terms))
        original(self, table, terms)

    monkeypatch.setattr(LaurentPoly, "__init__", counted)
    splits = [v.split() for v in values]
    total = cv_sum(values)
    monkeypatch.undo()
    assert validated == []
    mono = [LaurentPoly(t, {v.mono: v.coeff}) for v in values]
    assert splits == [(mono[0] * p ** 2, q), (mono[1], q ** 2)]
    assert total.as_rational() == values[0].as_rational() + values[1].as_rational()


def _bracket_operands(t):
    """Pairs with a monomial, a non-monomial, and a non-unit-constant
    denominator, on int and on Fraction coefficients."""
    gen = {v: RationalFn.generator(t, wname(v)) for v in "fabcd"}
    one = RationalFn.constant(t, 1)
    x = (gen["f"] ** 2 + gen["a"]) / (one + gen["f"] * gen["a"] ** 3)
    y = gen["a"] ** 2 - gen["f"] ** -2 + gen["b"] * gen["d"] ** -1
    u = RationalFn(
        LaurentPoly(t, {(1, 0, 2, 0, 0): Fraction(3, 2), (0, -1, 0, 1, 0): -5}),
        LaurentPoly(t, {(0, 0, 0, 0, 2): 3}),
    )
    v = RationalFn(
        LaurentPoly(t, {(2, 1, 0, 0, 0): Fraction(-7, 3), (0, 0, 0, 0, 1): 4}),
        LaurentPoly(t, {(0, 0, 0, 0, 0): 2, (1, 0, 0, 1, 0): Fraction(5, 3)}),
    )
    return [(x, y), (y, x), (u, v), (u, y), (x, v), (y, u)]


def test_poisson_bracket_matches_derivative_oracle():
    t = initial_table(PATTERN.vertices)
    for f, g in _bracket_operands(t):
        expected = _bracket_by_derivatives(f, g, PATTERN)
        assert expected
        assert poisson_bracket(f, g, PATTERN) == expected


def test_poisson_bracket_on_chain_entries_matches_derivative_oracle():
    from symgroupoid.teich import build_surface, chain_matrix

    model = build_surface("genus2_x7")
    u = chain_matrix(model.name, model.chains["braid"])
    for (i, j), (k, l) in (((0, 1), (1, 2)), ((0, 2), (2, 4)), ((0, 2), (1, 3)), ((1, 4), (2, 5))):
        f, g = u[i, j], u[k, l]
        expected = _bracket_by_derivatives(f, g, model.quiver)
        assert expected
        assert poisson_bracket(f, g, model.quiver) == expected


def test_bracket_value_at_matches_symbolic():
    seed = Seed.initial(PATTERN)
    t = seed.frame
    f = RationalFn.generator(t, wname("f"), 2)
    a = RationalFn.generator(t, wname("a"), 2)
    one = RationalFn.constant(t, 1)
    x = (f + a) / (one + f * a)
    y = a ** 2 - f.inverse()
    point = {name: Fraction(k + 2, 3) for k, name in enumerate(t.names)}
    sym = poisson_bracket(x, y, PATTERN).evaluate(point)
    # the 1x1 bracket tensor of [[x]] and [[y]] is the single value {x, y}
    assert bracket_tensor_at(MatrixRF([[x]]), MatrixRF([[y]]), PATTERN, point)[0, 0] == sym


def test_brackets_at_on_generators_is_the_log_canonical_matrix():
    # the Euler gradient of w_j is w_j·e_j, so {w_i, w_j} = b_ij·w_i·w_j/8
    t = initial_table(PATTERN.vertices)
    w = [Fraction(k + 2, k + 1) for k in range(len(t))]
    grads = [[w[i] if i == j else 0 for i in range(len(t))] for j in range(len(t))]
    expected = [[Fraction(PATTERN.doubled[i, j], 8) * w[i] * w[j] for j in range(len(t))] for i in range(len(t))]
    assert brackets_at(PATTERN, t, grads, grads) == expected
    assert brackets_at(PATTERN, t, grads[:2], grads[3:]) == [row[3:] for row in expected[:2]]


def _genus2_twist_forms():
    """The genus2_x7 twist leaves and the symbolic x, y², t², t~² over them:
    the oracle for the jets that ``genus2_twist_identities`` evaluates."""
    from symgroupoid.suites import twist_leaves
    from symgroupoid.teich import build_surface

    model = build_surface("genus2_x7")
    leaves = twist_leaves(model)
    m, g12, gt12, gb, g23, gt23 = leaves
    x = m + 2
    y2 = (m * gb - 2 * g12 * gt12) ** 2 / ((m + g12 ** 2) * (m + gt12 ** 2))
    t2 = -4 + g23 ** 2 * (g12 ** 2 - 4) / (m + g12 ** 2)
    tt2 = -4 + gt23 ** 2 * (gt12 ** 2 - 4) / (m + gt12 ** 2)
    return model, leaves, (x, y2, t2, tt2)


def _euler_gradient(h, point):
    """Oracle for a jet: the value of h and w_i·∂h/∂w_i at a point, by the
    quotient rule in field arithmetic over the values of ``LaurentPoly.derivative``
    of its numerator and denominator."""
    def at(x):
        return RationalFn.from_poly(x).evaluate(point)

    p, q = h.num, h.den
    pv, qv = at(p), at(q)
    return pv / qv, [
        point[n] * (at(p.derivative(n)) * qv - pv * at(q.derivative(n))) / (qv * qv) for n in h.table.names
    ]


def test_twist_jets_match_gradients_of_the_symbolic_forms():
    from symgroupoid.suites import _positive_point, twist_quantities

    model, leaves, forms = _genus2_twist_forms()
    assert len(forms[1].num.terms) > 1000  # y² is large expanded; its leaves are not
    assert all(len(h.num.terms) <= 43 and len(h.den.terms) <= 43 for h in leaves)
    evaluate = rational_evaluator(leaves)
    rng = random.Random(5)
    for _ in range(4):
        pt = _positive_point(model.seed.frame, rng, 1, 25)
        jets = twist_quantities(*(Jet(*leaf) for leaf in evaluate(pt, gradient=True)))
        for jet, form in zip(jets, forms):
            assert (jet.value, jet.grad) == _euler_gradient(form, pt)


def test_jet_arithmetic_matches_the_derivative_oracle():
    # every operation, an int or a Fraction on either side, a negative power,
    # at a point with a negative coordinate
    from symgroupoid.suites import _positive_point
    from symgroupoid.teich import build_surface, catalog_value

    model = build_surface("genus2_x7")
    t = model.seed.frame
    f, g = catalog_value(model, "G_{1,2}"), catalog_value(model, "G_{2,3}")
    pt = _positive_point(t, random.Random(3), 1, 9)
    # both leaves depend on w:a
    pt["w:a"] = -pt["w:a"] / 3

    def expression(f, g):
        return (
            (2 - f) * g / (3 + f ** 2)
            - 5 / g
            + f * 2
            - g / 7
            + Fraction(1, 3) * (-f) ** 3
            + g ** -2
            + (f + Fraction(1, 2)) / f
            + (g - 1) ** 0
        )

    evaluate = rational_evaluator([f, g])
    jf, jg = (Jet(*leaf) for leaf in evaluate(pt, gradient=True))
    jet = expression(jf, jg)
    value, grad = _euler_gradient(expression(f, g), pt)
    assert jet.value == value
    assert jet.grad == grad
    # a jet is taken at an exact rational point: a complex w:a is refused
    with pytest.raises(TypeError, match="not an exact rational"):
        evaluate(dict(pt, **{"w:a": 2j}), gradient=True)
    with pytest.raises(TypeError):
        jf + 1.5
    with pytest.raises(TypeError):
        jf ** Fraction(1, 2)


def test_poisson_compatibility_of_mutation():
    # brackets of mutated variables reproduce the mutated exchange matrix
    seed = Seed.initial(PATTERN)
    mutated = mutate(seed, "f")
    for u in PATTERN.vertices:
        for v in PATTERN.vertices:
            lhs = poisson_bracket(mutated.value(u), mutated.value(v), PATTERN)
            rhs = mutated.quiver.eps(u, v) * mutated.value(u) * mutated.value(v)
            assert lhs == rhs


def test_mutation_sequence_on_lattice_quiver():
    # mutating any interior vertex of the amalgamated n=3 quiver twice returns the seed
    from symgroupoid.squares import amalgamated_quiver

    q = amalgamated_quiver(3)
    seed = Seed.initial(q)
    for v in q.vertices:
        if v in q.frozen:
            continue
        assert mutate(mutate(seed, v), v) == seed


def test_seed_json_round_trip_after_mutations():
    seed = Seed.initial(PATTERN)
    s = mutate(mutate(seed, "f"), "a")
    back = Seed.from_json(s.to_json())
    assert back == s
    # omitting values yields the initial seed
    data = s.quiver.to_json()
    assert Seed.from_json(data) == Seed.initial(s.quiver)


def test_casimirs_commute_with_all_variables():
    q = Quiver.from_arrows(["x", "y", "z"], [("x", "y", 2), ("y", "z", 2)])
    monos = monomial_casimirs(q)
    assert len(monos) == corank(q) == 1
    t = initial_table(q.vertices)
    for mono in monos:
        f = RationalFn.from_poly(mono)
        for v in q.vertices:
            zv = RationalFn.generator(t, wname(v), 2)
            assert not poisson_bracket(f, zv, q)


def _plain_mutation(quiver, values, k):
    """The mutation rule on plain rational functions, with no factored form."""
    zk = values[k]
    one = RationalFn.constant(zk.table, 1)
    out = dict(values)
    out[k] = zk.inverse()
    for v in quiver.vertices:
        m = quiver.b(k, v) // 2
        if v == k or m == 0:
            continue
        out[v] = values[v] * ((one + zk.inverse()) if m > 0 else (one + zk)) ** (-m)
    return quiver.mutate_matrix(k), out


@pytest.mark.parametrize("name", ["genus2_x7", "genus3_original"])
def test_mutation_sequence_matches_plain_rule(name):
    from symgroupoid.teich import build_surface

    seed = build_surface(name).seed
    quiver, values = seed.quiver, {v: seed.value(v) for v in seed.quiver.vertices}
    # at this rng seed both sequences split a new factor over a known one
    rng = random.Random(11)
    last = None
    for _ in range(4):
        k = rng.choice(
            [
                v
                for v in quiver.vertices
                if v != last and not any(quiver.b(v, u) % 2 for u in quiver.vertices)
            ]
        )
        seed = mutate(seed, k)
        quiver, values = _plain_mutation(quiver, values, k)
        assert seed.quiver == quiver
        for v in quiver.vertices:
            assert seed.value(v) == values[v], (k, v)
        last = k


def test_cluster_value_rejects_inexact_coefficients():
    t = initial_table(["a"])
    for bad in (0.1, True, 1.0):
        with pytest.raises(TypeError):
            ClusterValue(t, bad)
    assert ClusterValue(t, Fraction(4, 2)).coeff == 2


def test_from_rational_takes_an_exact_reciprocal_of_the_leading_coefficient():
    # the factor 3 w_a + 4 w_b is made monic by its leading coefficient 3, which
    # the value keeps as 3**-1: an exact 1/3, not the float 0.333...
    t = initial_table(["a", "b"])
    den = LaurentPoly.monomial(t, 3, {wname("a"): 1}) + LaurentPoly.monomial(t, 4, {wname("b"): 1})
    value = ClusterValue.from_rational(RationalFn(LaurentPoly.one(t), den))
    assert value.coeff == Fraction(1, 3)
    assert isinstance(value.coeff, Fraction)
    assert value.as_rational() == RationalFn(LaurentPoly.one(t), den)
    assert (value ** -1).coeff == 3 and type((value ** -1).coeff) is int


def test_bracket_on_a_half_weight_arrow():
    # a doubled weight 1 is eps = 1/2: {z_u, z_v} = z_u z_v / 2 and {w_u, w_v} = w_u w_v / 8
    q = Quiver.from_arrows(["u", "v"], [("u", "v", 1)])
    t = initial_table(q.vertices)
    wu, wv = (RationalFn.generator(t, wname(x)) for x in ("u", "v"))
    br = poisson_bracket(wu, wv, q)
    assert br.num.terms == {(1, 1): Fraction(1, 8)}
    assert br.den == LaurentPoly.one(t)
    zu, zv = wu ** 2, wv ** 2
    assert poisson_bracket(zu, zv, q) == Fraction(1, 2) * zu * zv
    # 4 * 2 / 8 = 1: an integral bracket coefficient is an int
    br = poisson_bracket(wu ** 4, zv, q)
    assert br.num.terms == {(4, 2): 1} and type(br.num.terms[(4, 2)]) is int
