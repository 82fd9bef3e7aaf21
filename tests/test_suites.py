"""Every named verification suite must be fully green under pytest too."""

import importlib.util
import io
import math
import random
import sys
from pathlib import Path

from fractions import Fraction

import pytest

from symgroupoid.laurent import RationalFn, rational_evaluator
from symgroupoid.matrices import MatrixRF
from symgroupoid import surfaces
from symgroupoid.quiver import Jet, brackets_at, wname
from symgroupoid.report import Check, all_report, run_suite_checks, write_report
from symgroupoid.suites import (
    SUITE_NAMES,
    _casimir_point,
    _positive_point,
    _real_congruence,
    _real_rank_chain,
    _symmetrizes,
    build_suite,
    check,
    twist_leaves,
    twist_quantities,
)
from symgroupoid.teich import build_surface, chain_matrix

# written by `symgroupoid verify all --rng 42 --json`; the report must stay
# byte-identical, so a change to any verdict, witness, claim or check id shows here
GOLDEN = Path(__file__).parent / "golden" / "verify_all_rng42.json"


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_green(name, suite_report):
    report = suite_report(name)
    bad = [(c.id, c.witness) for c in report.checks if c.status != "pass"]
    assert not bad, bad


def test_reports_match_golden(suite_report):
    reports = [suite_report(name) for name in SUITE_NAMES]
    out = io.StringIO()
    write_report(all_report(reports, 42), out)
    assert out.getvalue() == GOLDEN.read_text()


@pytest.mark.parametrize("rng_seed", [105, 126, 133])
def test_markov_invariance_holds_where_a_random_point_fixes_the_markov_element(rng_seed):
    # at these seeds one random point has w_f = 1 and w_g = 1/2, where the
    # dual twist fixes the separating element; the negative control that it
    # moves it is symbolic, so no point can make it fail
    (markov,) = [c for c in build_suite("braid", rng_seed) if c.id == "braid_markov_invariance"]
    assert markov.run() is True


@pytest.mark.parametrize("rng_seed", [68, 328])
def test_spectrum_locus_control_is_drawn_off_the_locus(rng_seed):
    # at these seeds a random unipotent 5x5 control had det(A + A^T) = 0, so
    # -1 was an eigenvalue of A^-T A; the control is now the rank chain at
    # Casimir +1, which does not depend on such a draw
    (spectrum,) = [c for c in build_suite("groupoid", rng_seed) if c.id == "groupoid_spectrum_locus"]
    assert spectrum.run() is True


# the powers of i as (re, im) pairs
I_POWERS = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def _value_at_imaginary(f: RationalFn, point: dict, name: str) -> tuple:
    """A Laurent polynomial at ``point`` with ``name`` moved from r to i*r,
    term by term, as a pair (re, im) of Fractions."""
    re = im = Fraction(0)
    for exps, c in f.as_laurent().terms.items():
        term = Fraction(c)
        for n, e in zip(f.table.names, exps):
            term *= Fraction(point[n]) ** e
        x, y = I_POWERS[exps[f.table.index(name)] % 4]
        re, im = re + x * term, im + y * term
    return re, im


def test_real_form_is_the_rank_chain_at_casimir_minus_one():
    # with p_j = 1 on the rows above G_B (0-3) and 0 below, the chain U at
    # w:at = i*r has u_jk = i^-(p_j + p_k) * B_jk(r) for the real form B
    model = build_surface("genus3_extended")
    u = chain_matrix(model.name, model.chains["rank"])
    p = [1, 1, 1, 1, 0, 0, 0, 0]
    rng = random.Random(3)
    for _ in range(2):
        point = _casimir_point(model, "at", rng)
        b = _real_rank_chain().evaluator()(point)
        for j in range(8):
            for k in range(8):
                x, y = I_POWERS[-(p[j] + p[k]) % 4]
                assert _value_at_imaginary(u[j, k], point, "w:at") == (x * b[j, k], y * b[j, k]), (j, k)
    assert [b[j, j] for j in range(8)] == [-1] * 4 + [1] * 4


def test_real_form_refuses_an_entry_of_mixed_parity():
    # an entry of odd parity in w:at plus 1 has both parities: in the last
    # column, where the parities are read, and beside it
    model = build_surface("genus3_extended")
    u = chain_matrix(model.name, model.chains["rank"])
    one = RationalFn.constant(u[0, 0].table, 1)
    for j, k in ((0, 7), (0, 4)):
        bad = MatrixRF(u.entries)
        bad[j, k] = u[j, k] + one
        with pytest.raises(ArithmeticError, match=f"entry \\({j}, {k}\\)"):
            _real_congruence(bad, "w:at")
    # an entry that is not a Laurent polynomial has no real form either
    bad = MatrixRF(u.entries)
    bad[2, 5] = u[2, 5] / (u[0, 1] + one)
    with pytest.raises(ArithmeticError, match="not in Laurent form"):
        _real_congruence(bad, "w:at")


def _squared_twist_identity_holds(x, y2, model, pt):
    """{y², x}² = 4y²(x² - 4)(y² - 4) at pt for jets x and y², contracted as
    ``genus2_twist_identities`` contracts them."""
    ((br,),) = brackets_at(model.quiver, model.seed.frame, [y2.grad], [x.grad])
    return br * br == 4 * y2.value * (x.value ** 2 - 4) * (y2.value - 4)


def test_squared_twist_identity_fails_without_the_outer_square():
    # negative control: y² = N²/(PQ) passes at the check's first point at rng
    # 42, and N/(PQ), the outer square dropped, fails there
    model = build_surface("genus2_x7")
    pt = _positive_point(model.seed.frame, random.Random(42), 1, 25)
    m, g12, gt12, gb, g23, gt23 = (Jet(*leaf) for leaf in rational_evaluator(twist_leaves(model))(pt, gradient=True))
    x, y2 = twist_quantities(m, g12, gt12, gb, g23, gt23)[:2]
    n, p, q = m * gb - 2 * g12 * gt12, m + g12 ** 2, m + gt12 ** 2
    assert y2.value == (n ** 2 / (p * q)).value
    assert _squared_twist_identity_holds(x, y2, model, pt)
    assert not _squared_twist_identity_holds(x, n / (p * q), model, pt)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        build_suite("nope", 42)


def test_registry_rejects_unknown_suite_and_taken_id():
    with pytest.raises(ValueError, match="unknown suite"):
        check("nope", "nope_check", "a claim")
    with pytest.raises(ValueError, match="declared twice"):
        check("genus4", "groupoid_s_matrix", "a claim")


def test_a_check_that_raises_not_implemented_fails_with_its_witness():
    # it was reported as skipped, so a run of such checks passed having
    # tested nothing
    def unfinished():
        raise NotImplementedError("no identity yet")

    report = run_suite_checks("groupoid", [Check("unfinished", "a claim", unfinished)], 42)
    assert [(c.status, c.witness) for c in report.checks] == [("fail", "NotImplementedError: no identity yet")]
    assert report.to_json()["summary"] == {"pass": 0, "fail": 1, "skipped": 0}
    assert report.render_table().endswith("total: 0 passed, 1 failed")


def test_symmetrizing_check_refuses_two_linked_vertices():
    # the four mutations commute because no arrow joins two of their
    # vertices; a sequence with a neighbor of a1 in place of b3 breaks that
    base = build_surface("genus3_original").quiver
    sequence = surfaces.SYMMETRIZING_SEQUENCE
    assert _symmetrizes(base, sequence) is True
    linked = next(v for v in base.vertices if base.b("a1", v) and v not in sequence)
    assert _symmetrizes(base, ["a1", "d1", "c2", linked]) == (False, f"a1 and {linked} are joined by an arrow")


@pytest.mark.parametrize("name, vertex", [("genus2_x7", "g"), ("genus3_extended", "at")])
def test_casimir_point_lies_on_the_unit_level_set(name, vertex):
    model = build_surface(name)
    exps, _ = model.casimir_constraint
    for seed in range(3):
        pt = _casimir_point(model, vertex, random.Random(seed))
        assert set(pt) == set(model.seed.frame.names)
        assert math.prod(pt[wname(v)] ** (2 * e) for v, e in exps.items()) == 1


def _benchmark_worker():
    """perfbench/worker.py, imported read-only and leaving sys.path as it was."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(worker)
    finally:
        sys.path[:] = saved
    return worker


def test_benchmark_contract():
    # the benchmark runs every suite through its workloads, and reruns one
    # check at another seed by rebinding the rng_seed cell of its closure
    worker = _benchmark_worker()
    assert sorted(name for names in worker.WORKLOADS.values() for name in names) == sorted(SUITE_NAMES)
    (original,) = [c for c in build_suite("groupoid", 42) if c.id == worker.KNOWN_FAILURE]
    rebound = worker.at_seed(original, worker.KNOWN_FAILURE_SEED)
    assert rebound.run() is True
