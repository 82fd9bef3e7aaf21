"""Acceptance gate: the thirteen exit criteria, one test each.

Every test prints a pass/fail line per check; tolerances and counts are pinned
here and never loosened.  Verdicts come from the session's single run of each
suite (``suite_report`` in conftest.py).  The shared sampling seed keeps runs
reproducible.
"""

import random
from fractions import Fraction

import pytest

RNG_SEED = 42


@pytest.fixture
def run(check_results):
    """``run(suite, *ids, label=...)``: print and assert the session's verdicts
    for the given check ids, or for every check of the suite when none are given."""

    def run_(suite: str, *ids, label: str):
        results = check_results(suite)
        for cid in ids or results:
            result = results[cid]
            ok = result.status == "pass"
            status = "PASS" if ok else "FAIL"
            witness = result.witness
            print(f"[acceptance] {label} :: {cid}: {status}" + (f" ({witness})" if witness else ""))
            assert ok, f"{label}: {cid} failed: {witness}"

    return run_


def test_criterion_01_path_sum_term_counts(run):
    run(
        "reflection",
        "network_term_counts_n4",
        "network_long_entry_verbatim",
        label="1 path-sum term counts",
    )


def test_criterion_02_casimir_counts(run):
    run("casimirs", label="2 casimir counts")


def test_criterion_03_groupoid_theorem(run):
    run(
        "groupoid",
        "groupoid_upper_A_n2",
        "groupoid_upper_At_n2",
        "groupoid_conjugation_n2",
        "groupoid_upper_A_n3",
        "groupoid_upper_At_n3",
        "groupoid_conjugation_n3",
        "groupoid_numeric_n4",
        label="3 groupoid compatibility",
    )


def test_criterion_04_unique_unipotent(run):
    run("groupoid", "groupoid_unique_unipotent", label="4 unique unipotent solution")


def test_criterion_05_reflection_structure(run):
    run(
        "reflection",
        "reflection_twin_commutation_n3",
        "reflection_equation_n3",
        "reflection_equation_n4",
        "reflection_twin_commutation_n4",
        label="5 reflection structure",
    )


def test_criterion_06_markov_element(run):
    run("genus2", "genus2_markov_forms", label="6 separating element")


def test_criterion_07_twist_identities(run):
    run("genus2", "genus2_twist_identities", label="7 twist identities")


def test_criterion_08_modular_relations(run):
    run("braid", "braid_modular_relations", "braid_generator_basics", label="8 modular relations")


def test_criterion_09_braid_lemma(run):
    run("genus3", "genus3_braid_lemma", label="9 mutation twist lemma")


def test_criterion_10_genus3_pair_and_rank(run):
    run(
        "genus3",
        "genus3_markov_pair",
        "genus3_rank_locus",
        label="10 genus-three pair and rank locus",
    )


def test_criterion_11_genus4_reduction(run):
    run(
        "genus4",
        "genus4_chiral_toy",
        "genus4_det_ansatz",
        "genus4_twist_realization",
        label="11 genus-four reduction",
    )


def test_criterion_12_sl2_reconstruction(run):
    run("sl2", "sl2_reconstruction", label="12 transport reconstruction")


def test_criterion_13_property_suites(run):
    run(
        "genus2",
        "genus2_mutation_properties",
        "genus2_telescopic_positivity",
        label="13 property suites",
    )
    run("reflection", "network_entry_bound", label="13 property suites")

    # bracket antisymmetry and the Jacobi identity on sampled data
    from symgroupoid.laurent import LaurentPoly, RationalFn
    from symgroupoid.quiver import poisson_bracket
    from symgroupoid import surfaces

    q = surfaces.genus2_x7_quiver()
    from symgroupoid.quiver import initial_table

    t = initial_table(q.vertices)
    rng = random.Random(RNG_SEED)

    def rand_fn():
        terms = {}
        for _ in range(3):
            exps = tuple(rng.randint(-2, 2) for _ in range(len(t)))
            terms[exps] = Fraction(rng.randint(1, 5))
        return RationalFn.from_poly(LaurentPoly(t, terms))

    for _ in range(5):
        x, y = rand_fn(), rand_fn()
        assert poisson_bracket(x, y, q) == -poisson_bracket(y, x, q)
    for _ in range(8):
        monos = [
            RationalFn.from_poly(
                LaurentPoly(t, {tuple(rng.randint(-2, 2) for _ in range(len(t))): Fraction(1)})
            )
            for _ in range(3)
        ]
        x, y, z = monos
        jac = (
            poisson_bracket(x, poisson_bracket(y, z, q), q)
            + poisson_bracket(y, poisson_bracket(z, x, q), q)
            + poisson_bracket(z, poisson_bracket(x, y, q), q)
        )
        assert not jac
    print("[acceptance] 13 property suites :: bracket antisymmetry and Jacobi: PASS")
