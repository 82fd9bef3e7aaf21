"""Surface charts: telescopic values, twists, skein completion, braid action."""

import hashlib
import json
import random

import pytest

from symgroupoid import surfaces
from symgroupoid.laurent import GeneratorTable, Q, RationalFn
from symgroupoid.matrices import MatrixRF
from symgroupoid.quiver import Seed, apply_sequence, mutate, poisson_bracket, wname
from symgroupoid.suites import unit_count
from symgroupoid.teich import (
    ChainPatternError,
    SkeinInconsistency,
    braid_twist,
    build_surface,
    catalog_value,
    chain_matrix,
    check_split_points,
    locate_flanking,
    markov,
    matrix_braid,
    separating_sum,
    skein_complete,
    skein_product,
    telescopic,
    trace_cubic,
)


def ones(table):
    return {name: Q(1) for name in table.names}


def test_telescopic_four_letter_example():
    model = build_surface("genus2_k33")
    val = telescopic(["d", "e", "f", "a"], model.seed)
    assert val.num.term_count() == 5
    assert val.evaluate(ones(model.seed.frame)) == 5


def test_telescopic_single_letter_at_one():
    model = build_surface("genus2_k33")
    val = telescopic(["a"], model.seed)
    assert val.evaluate(ones(model.seed.frame)) == 2


def test_telescopic_unbound_name():
    # an error is not kept: the word raises on every call
    model = build_surface("genus2_k33")
    for _ in range(2):
        with pytest.raises(KeyError):
            telescopic(["nope"], model.seed)
    assert ("nope",) not in model.seed.word_values


def test_telescopic_keeps_each_word_on_its_seed():
    seed = build_surface("genus3_extended").seed
    word = ["a1", ("a2", "a3"), "at"]
    val = telescopic(word, seed)
    assert telescopic(("a1", ["a2", "a3"], "at"), seed) is val
    assert telescopic(tuple(word), seed) == val
    assert ("a1", ("a2", "a3"), "at") in seed.word_values
    k33 = build_surface("genus2_k33").seed
    flat = ["d", "e", "f", "a"]
    before = telescopic(flat, k33)
    # a mutated seed is a new seed with entries of its own
    mutated = mutate(k33, "f")
    after = telescopic(flat, mutated)
    assert mutated.word_values is not k33.word_values
    assert after != before and telescopic(flat, k33) is before
    fresh = Seed(mutated.quiver, mutated.values, mutated.frame)
    assert not fresh.word_values and telescopic(flat, fresh) == after


def test_grouped_slot_semantics():
    model = build_surface("genus3_extended")
    word = ["a1", ("a2", "a3"), "at"]
    val = telescopic(word, model.seed)
    # 1, 1/a1, then three group terms, then the full reciprocal
    assert val.num.term_count() == 6


def test_quiver_chain_genus2():
    orig = surfaces.genus2_original_quiver()
    assert surfaces.genus2_k33_quiver() == orig.mutate_matrix("f")
    assert surfaces.genus2_papillon_quiver() == orig.mutate_matrix("e")
    x7 = surfaces.genus2_x7_quiver()
    assert len(x7.vertices) == 7
    # the two-wing pattern plus the new wing through g
    assert x7.b("g", "f") == 4 and x7.b("e", "g") == 2


def test_x7_casimir_and_model():
    model = build_surface("genus2_x7")
    from symgroupoid.quiver import corank, monomial_is_casimir

    exps, value = model.casimir_constraint
    assert value == 1
    assert monomial_is_casimir(model.quiver, exps)
    assert corank(model.quiver) == 1


def test_markov_unit_counts_and_forms():
    k33 = build_surface("genus2_k33")
    m = markov(k33, "product_G")
    assert m == markov(k33, "product_Gtilde")
    assert unit_count(m) == 50
    x7 = build_surface("genus2_x7")
    mx = markov(x7, "product_G")
    assert mx == markov(x7, "product_Gtilde") == markov(x7, "via_GB")
    assert unit_count(mx) == 46


def test_trace_cubic_and_separating_sum_on_numbers():
    # the chiral traces u + 1/u, v + 1/v, uv + 1/(uv) put the cubic at -4
    u, v = Q(3), Q(2, 5)
    assert trace_cubic(u + 1 / u, u * v + 1 / (u * v), v + 1 / v) == -4
    # the signs (-1)^(i+j) of a signed matrix cancel in each product
    rng = random.Random(0)
    m = MatrixRF([[Q(rng.randint(-9, 9)) for _ in range(4)] for _ in range(4)])
    signed = MatrixRF([[(-1) ** (i + j) * m[i, j] for j in range(4)] for i in range(4)])
    assert separating_sum(m) == m[0, 2] * m[1, 3] - m[0, 1] * m[2, 3] - m[1, 2] * m[0, 3]
    assert separating_sum(signed) == separating_sum(m)


def test_markov_needs_dual_for_gb_form():
    k33 = build_surface("genus2_k33")
    with pytest.raises(ValueError):
        markov(k33, "via_GB")


def test_genus3_mutation_image_example():
    model = build_surface("genus3_original")
    seed = model.seed
    g12 = telescopic(["b3", "a3", "d2", "c3"], seed)
    assert telescopic(["b3", "d2", "c3"], mutate(seed, "a3")) == g12


def test_skein_complete_chain_and_k_independence():
    model = build_surface("genus2_x7")
    chain = [catalog_value(model, lbl) for lbl in model.chains["braid"]]
    u = skein_complete(chain, model.quiver)
    check_split_points(u, model.quiver)  # raises on split dependence
    assert u.rows == 6
    assert u.is_unipotent_upper()
    # base case: length-two chain gives a single derived entry
    small = skein_complete(chain[:2], model.quiver)
    assert small.rows == 3
    assert small[0, 2] == skein_product(chain[0], chain[1], model.quiver)


def test_skein_product_matches_generic_operations():
    x7 = build_surface("genus2_x7")
    u = chain_matrix(x7.name, x7.chains["braid"])
    g3 = build_surface("genus3_extended")
    v = chain_matrix(g3.name, g3.chains["rank"])
    pairs = [
        (x7, u[0, 1], u[1, 2]),
        (x7, u[0, 2], u[2, 5]),
        (x7, u[1, 4], u[0, 3]),
        (g3, v[0, 2], v[2, 5]),
        (g3, v[3, 4], v[1, 3]),
    ]
    t = x7.seed.frame
    gen = {n: RationalFn.generator(t, wname(n)) for n in x7.quiver.vertices}
    # Fraction coefficients over a monomial denominator whose constant is not 1
    w = RationalFn(
        (gen["a"] * gen["d"] ** 2).num.scale(Q(3, 2)) - gen["g"].num.scale(5),
        (gen["f"] ** 2).num.scale(3),
    )
    pairs += [(x7, w, u[0, 2]), (x7, u[1, 4], w)]
    for model, f, g in pairs:
        bracket = poisson_bracket(f, g, model.quiver)
        assert bracket
        assert skein_product(f, g, model.quiver) == RationalFn.constant(f.table, Q(1, 2)) * f * g + bracket


def test_skein_product_rejects_a_non_monomial_denominator():
    model = build_surface("genus2_x7")
    t = model.seed.frame
    a, g = (RationalFn.generator(t, wname(v)) for v in "ag")
    x = (a ** 2 + g) / (RationalFn.constant(t, 1) + a * g ** 3)
    for f, h in ((x, a), (a, x)):
        with pytest.raises(ArithmeticError, match="not in Laurent form"):
            skein_product(f, h, model.quiver)


def test_skein_inconsistency_detected():
    # a scrambled chain fails the split-independence check
    model = build_surface("genus2_x7")
    bogus = [catalog_value(model, l) for l in ("G_B", "G_{1,2}", "G_{2,3}")]
    u = skein_complete(bogus, model.quiver)
    with pytest.raises(SkeinInconsistency, match=r"entry \(1,4\) depends on the split point"):
        check_split_points(u, model.quiver)


def test_chain_matrix_is_built_once_and_not_shared():
    model = build_surface("genus2_x7")
    labels = model.chains["braid"]
    first = chain_matrix(model.name, labels)
    second = chain_matrix(model.name, list(labels))
    assert first == second and first is not second
    assert all(r1 is not r2 for r1, r2 in zip(first.entries, second.entries))
    first[0, 1] = first[0, 2]
    third = chain_matrix(model.name, labels)
    assert third == second != first
    chain = [catalog_value(model, lbl) for lbl in labels]
    assert third == skein_complete(chain, model.quiver)


def test_matrix_braid_involution_and_shape():
    model = build_surface("genus2_x7")
    u = chain_matrix(model.name, model.chains["braid"])
    pt = {name: Q(k + 2, k + 1) for k, name in enumerate(model.seed.frame.names)}
    upt = u.evaluator()(pt)
    for i in (1, 3, 5):
        tw = matrix_braid(upt, i)
        assert tw.is_unipotent_upper()
        assert matrix_braid(tw, i, "-") == upt
    with pytest.raises(IndexError):
        matrix_braid(upt, 6)


def _dense_braid(u, i, direction):
    """Bᵀ·U·B, or B⁻ᵀ·U·B⁻¹ for "-", with B the identity but for the block
    [[a, 1], [-1, 0]] on lines i-1, i (a = u[i-1][i]), by dense products."""
    a = u[i - 1, i]
    one, zero = a / a, a - a
    ident = MatrixRF.identity(u.rows, one, zero)
    b = MatrixRF.identity(u.rows, one, zero)
    b[i - 1, i - 1], b[i - 1, i], b[i, i - 1], b[i, i] = a, one, zero - one, zero
    if direction == "-":
        b = b.solve(ident)
    return b.transpose() * u * b


def _generic_unipotent(n):
    table = GeneratorTable([f"u{i}{j}" for i in range(n) for j in range(i + 1, n)])
    one, zero = RationalFn.constant(table, 1), RationalFn.constant(table, 0)
    return MatrixRF(
        [
            [RationalFn.generator(table, f"u{i}{j}") if j > i else one if j == i else zero for j in range(n)]
            for i in range(n)
        ]
    )


def _fraction_matrix(n, rng):
    """A dense n x n Fraction matrix, neither triangular nor with a zero entry."""
    return MatrixRF([[Q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)])


def _with_zeros_on_lines(m, i, shift):
    """A copy of ``m`` with entries of lines i-1 and i set to zero: per line
    crossing them, both entries, the first, the second or none, in turn from
    ``shift``.  The entry (i-1, i) is kept."""
    rows = [list(row) for row in m.entries]
    p, q = i - 1, i
    for k in range(m.rows):
        for pair, turn in ((((k, p), (k, q)), k + shift), (((p, k), (q, k)), k + shift + 2)):
            for a, b in (pair, pair[:1], pair[1:], ())[turn % 4]:
                rows[a][b] = Q(0)
    rows[p][q] = m[p, q]
    return MatrixRF(rows)


def test_matrix_braid_matches_dense_conjugation():
    model = build_surface("genus2_x7")
    u = chain_matrix(model.name, model.chains["braid"])
    pt = {name: Q(k + 2, k + 1) for k, name in enumerate(model.seed.frame.names)}
    rng = random.Random(30)
    dense = _fraction_matrix(5, rng)
    for m in (u.evaluator()(pt), _generic_unipotent(4), dense):
        for i in range(1, m.rows):
            for direction in ("+", "-"):
                assert matrix_braid(m, i, direction) == _dense_braid(m, i, direction)
    for m in (dense, u.evaluator()(pt)):
        for i in range(1, m.rows):
            for shift in range(4):
                z = _with_zeros_on_lines(m, i, shift)
                lines = [(z[k, i - 1], z[k, i]) for k in range(m.rows)] + list(zip(z.entries[i - 1], z.entries[i]))
                assert any(not x and not y for x, y in lines)
                for direction in ("+", "-"):
                    assert matrix_braid(z, i, direction) == _dense_braid(z, i, direction)


def test_matrix_braid_rejects_bad_index_and_zero_superdiagonal():
    m = _generic_unipotent(4)
    for i in (0, 4):
        for direction in ("+", "-"):
            with pytest.raises(IndexError):
                matrix_braid(m, i, direction)
    m[1, 2] = m[1, 2] - m[1, 2]
    for direction in ("+", "-"):
        with pytest.raises(ArithmeticError):
            matrix_braid(m, 2, direction)
    assert matrix_braid(m, 1).is_unipotent_upper()


def test_matrix_braid_rejects_unknown_direction():
    # any direction but "+" used to act as "-"
    u = chain_matrix("genus2_x7", build_surface("genus2_x7").chains["braid"])
    for direction in ("x", "", "plus", None):
        with pytest.raises(ValueError, match="unknown direction"):
            matrix_braid(u, 1, direction)


def test_braid_twist_modes_small():
    model = build_surface("genus2_k33")
    chain = ["d", "e", "f", "a"]
    flank = locate_flanking(model.seed, chain)
    assert flank[1] == "c" and flank[2] == "b" and flank["twist"] is None
    sm = braid_twist(model.seed, chain, "mutation_sequence")
    sc = braid_twist(model.seed, chain, "closed_form")
    assert sm.quiver == model.seed.quiver
    for v in model.quiver.vertices:
        assert sm.values[v].as_rational() == sc.values[v].as_rational()
    g = telescopic(chain, model.seed)
    assert telescopic(chain, sm) == g


def test_closed_form_twist_refuses_a_twist_vertex():
    # the G_B chain a1, at of the size-five chart has the twist vertex a2, where
    # the closed form gave w:a2²·(1 + w:at²)²/(w:a1²·w:at²) against the mutation
    # sequence's w:a2² + w:a2²·w:at² (the image genus4_twist_realization uses)
    model = build_surface("genus4_n5")
    chain = list(surfaces.GENUS4_N5_CATALOG["G_B"])
    assert locate_flanking(model.seed, chain)["twist"] == "a2"
    za2 = RationalFn.generator(model.seed.frame, wname("a2"), 2)
    zat = RationalFn.generator(model.seed.frame, wname("at"), 2)
    sm = braid_twist(model.seed, chain, "mutation_sequence")
    assert sm.value("a2") == za2 + za2 * zat
    with pytest.raises(ChainPatternError, match="twist vertex a2"):
        braid_twist(model.seed, chain, "closed_form")


def test_extended_mutation_values():
    model = build_surface("genus2_x7")
    seed = model.seed
    t = seed.frame
    gen = lambda v, p=1: RationalFn.generator(t, wname(v), p)
    one = RationalFn.constant(t, 1)
    s2 = apply_sequence(seed, ["g", ("f", "g")])
    assert s2.quiver == model.quiver
    assert s2.value("f") == gen("g", 2).inverse()
    assert s2.value("g") == gen("f", 2) * (one + gen("g", 2).inverse()) ** -2
    assert s2.value("e") == gen("e", 2) * (one + gen("g", 2))


def test_genus4_model_g45():
    model = build_surface("genus4_n5")
    g45 = catalog_value(model, "G_{4,5}")
    assert g45.is_laurent()
    assert unit_count(g45) == 16
    gb = catalog_value(model, "G_B")
    assert not poisson_bracket(gb, catalog_value(model, "G_{1,2}"), model.quiver)


def test_build_surface_unknown():
    with pytest.raises(ValueError):
        build_surface("genus9_mystery")


def test_twisted_seed_values_in_lowest_terms():
    # every mutation-twist value has the closed form's term counts, so the
    # twisted chain function comes back Laurent
    model = build_surface("genus3_symmetric")
    word = surfaces.GENUS3_SYMMETRIC_CATALOG["G_{2,3}"]
    sm = braid_twist(model.seed, list(word), "mutation_sequence")
    sc = braid_twist(model.seed, list(word), "closed_form")
    for v in model.quiver.vertices:
        a, b = sm.value(v), sc.value(v)
        assert (a.num.term_count(), a.den.term_count()) == (
            b.num.term_count(),
            b.den.term_count(),
        ), v
    assert telescopic(word, sm).is_laurent()


# sha256 of the serialized catalog values of every surface and of three chain
# matrices, as the exact arithmetic stores them; ``geodesic --label`` prints
# the stored form (a Laurent value as one Laurent polynomial), so a value that
# stays equal but is stored differently would change that output without
# changing any verdict.  The second digest is of the same values in the form
# the earlier joint-content normalization stored: both rules keep the values
# and their rational content alike
STORED_VALUES_SHA256 = "d33bd9087d4012dcd78b16f4cdba114149bed19c4c1d022b999679735272eef5"
JOINT_CONTENT_STORED_VALUES_SHA256 = "b5b4e11a104a0e58c344b740008657426cec53fb13bed6f77298e542d03b7d47"


def test_stored_representation_is_pinned(joint_content_json):
    values = {}
    for name in surfaces.MODEL_NAMES:
        model = build_surface(name)
        for label in model.catalog:
            values[f"{name}/{label}"] = catalog_value(model, label)
    assert len(values) == 51
    entries = list(values.values())
    for name, chain in (("genus3_extended", "rank"), ("genus4_n5", "rank"), ("genus2_x7", "braid")):
        u = chain_matrix(name, build_surface(name).chains[chain])
        values[f"chain/{name}"] = [[u[i, j] for j in range(u.cols)] for i in range(u.rows)]
        entries += [x for row in values[f"chain/{name}"] for x in row]
    # every one is a Laurent polynomial, so it is stored over 1
    assert all(f.to_json()["den"] == [{"coeff": "1/1", "exps": {}}] for f in entries)
    for serialize, pinned in (
        (lambda f: f.to_json(), STORED_VALUES_SHA256),
        (joint_content_json, JOINT_CONTENT_STORED_VALUES_SHA256),
    ):
        doc = {
            k: [[serialize(f) for f in row] for row in v] if isinstance(v, list) else serialize(v)
            for k, v in values.items()
        }
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == pinned


def test_build_surface_is_built_once_and_callers_own_their_catalogs():
    first = build_surface("genus2_x7")
    second = build_surface("genus2_x7")
    assert first.seed is second.seed
    assert first.catalog["G_B"] is second.catalog["G_B"]
    # mutating a returned catalog, chain or Casimir map leaks into no later call
    first.catalog["G_B"] = first.catalog.pop("G_{1,2}")
    first.chains["braid"] = ()
    first.casimir_constraint[0]["e"] = 0
    words = build_surface("genus3_original")
    words.catalog["G_{1,2}"].append("a1")
    third = build_surface("genus2_x7")
    assert "G_{1,2}" in third.catalog and third.catalog["G_B"] is second.catalog["G_B"]
    assert third.chains["braid"] == second.chains["braid"] != ()
    assert third.casimir_constraint[0]["e"] == 2
    assert build_surface("genus3_original").catalog["G_{1,2}"] == surfaces.GENUS3_ORIGINAL_CATALOG["G_{1,2}"]
