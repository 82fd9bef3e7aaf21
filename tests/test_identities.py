"""Cross-module identities: equality, constraint elimination, chart glue."""

import random
from fractions import Fraction

from symgroupoid import surfaces
from symgroupoid.laurent import LaurentPoly, RationalFn
from symgroupoid.quiver import Seed, mutate, wname
from symgroupoid.teich import (
    build_surface,
    catalog_value,
    markov,
    telescopic,
)


def test_markov_forms_are_equal():
    x7 = build_surface("genus2_x7")
    m1 = markov(x7, "product_G")
    m3 = markov(x7, "via_GB")
    assert m1 == m3
    # the negative control: adding a chain function breaks the equality
    assert m1 != m1 + catalog_value(x7, "G_{1,2}")


def _eliminate_g(model, f):
    """``f`` with w:g bound to the monomial the unit Casimir constraint
    z_e^2 z_a z_b z_c z_d z_f z_g = 1 solves it for (positive branch)."""
    exps, value = model.casimir_constraint
    assert value == 1 and exps["g"] == 1
    table = f.table
    root = LaurentPoly.monomial(table, 1, {wname(v): -e for v, e in exps.items() if v != "g"})
    bindings = {name: RationalFn.generator(table, name) for name in table.names}
    bindings[wname("g")] = RationalFn.from_poly(root)
    return f.substitute(bindings)


def test_eliminate_constraint_x7():
    x7 = build_surface("genus2_x7")
    m = markov(x7, "product_G")
    reduced = _eliminate_g(x7, m)
    assert wname("g") not in reduced.support()
    # evaluation agreement on the constraint locus
    rng = random.Random(2)
    for _ in range(3):
        pt = {wname(v): Fraction(rng.randint(2, 7), rng.randint(1, 4)) for v in "abcdef"}
        pt[wname("g")] = 1 / (
            pt[wname("e")] ** 2
            * pt[wname("a")]
            * pt[wname("b")]
            * pt[wname("c")]
            * pt[wname("d")]
            * pt[wname("f")]
        )
        assert reduced.evaluate(pt) == m.evaluate(pt)


def test_papillon_and_extended_charts_agree_on_dual_geodesic():
    # the two-wing chart's dual geodesic equals the extended chart's after
    # eliminating the added vertex through the unit constraint
    x7 = build_surface("genus2_x7")
    pap = build_surface("genus2_papillon")
    gb_x7 = _eliminate_g(x7, catalog_value(x7, "G_B"))
    gb_pap = catalog_value(pap, "G_B")
    # same generators (a..f) in both frames; compare by name
    bind = {n: RationalFn.generator(pap.seed.frame, n) for n in pap.seed.frame.names}
    assert gb_x7.substitute(bind) == gb_pap


def test_mutation_involutivity_on_all_shipped_charts():
    for name in surfaces.MODEL_NAMES:
        model = build_surface(name)
        seed = model.seed
        for v in model.quiver.vertices:
            if v in model.quiver.frozen:
                continue
            assert mutate(mutate(seed, v), v) == seed, (name, v)


def test_constraint_monomials_are_central_for_catalogs():
    from symgroupoid.quiver import monomial_is_casimir, poisson_bracket

    for name in ("genus2_x7", "genus3_extended", "genus4_n5"):
        model = build_surface(name)
        exps, _ = model.casimir_constraint
        assert monomial_is_casimir(model.quiver, exps), name
        mono = RationalFn.constant(model.seed.frame, 1)
        for v, e in exps.items():
            mono = mono * RationalFn.generator(model.seed.frame, wname(v), int(2 * e))
        for label in list(model.catalog)[:3]:
            g = catalog_value(model, label)
            assert not poisson_bracket(mono, g, model.quiver), (name, label)


def test_symmetrizing_sequence_spec_example():
    base = surfaces.genus3_original_quiver()
    seq = base
    for k in ("a1", "d1", "c2", "b3"):
        seq = seq.mutate_matrix(k)
    assert seq == surfaces.genus3_symmetric_quiver()
    # order irrelevant: the four mutations commute
    other = base
    for k in ("b3", "c2", "d1", "a1"):
        other = other.mutate_matrix(k)
    assert other == seq
