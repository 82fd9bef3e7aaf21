"""Trace reconstruction of the five transport matrices."""

import math
import random
from decimal import getcontext, localcontext
from fractions import Fraction

import pytest

from symgroupoid.sl2rep import (
    ReconstructionError,
    cluster_to_lengths,
    consistency_residuals,
    determinant_residuals,
    monodromy_residual,
    reconstruct,
    to_decimal,
    trace_table,
)
from symgroupoid.teich import build_surface

TOL = 1e-9


def sample_point(rng):
    pt = {}
    for v in "abcdef":
        pt[f"w:{v}"] = Fraction(rng.randint(2, 9), rng.randint(2, 9))
    pt["w:g"] = 1 / (
        pt["w:e"] ** 2 * pt["w:a"] * pt["w:b"] * pt["w:c"] * pt["w:d"] * pt["w:f"]
    )
    return pt


def test_forward_model_round_trip():
    rng = random.Random(4)

    def rnd_sl2():
        a = [[rng.uniform(0.5, 2), rng.uniform(0.1, 1)], [rng.uniform(0.1, 1), 0.0]]
        a[1][1] = (1 + a[0][1] * a[1][0]) / a[0][0]
        return a

    m1 = [[1.0, 0.0], [0.0, 1.0]]
    m2 = [[math.exp(1.3), 0.0], [0.0, math.exp(-1.3)]]
    b = 0.7
    a3 = 1.9
    m3 = [[a3, b], [b, (1 + b * b) / a3]]
    for _ in range(3):
        mats = [m1, m2, m3, rnd_sl2(), rnd_sl2()]
        g = trace_table(mats)
        rec = reconstruct(g)
        tt = trace_table(rec.matrices)
        assert max(abs(float(tt[k] - g[k])) for k in g) < 1e-12


def test_cluster_seeded_residuals():
    model = build_surface("genus2_x7")
    rng = random.Random(12)
    for _ in range(3):
        pt = sample_point(rng)
        g = cluster_to_lengths(model, pt)
        assert all(v > 2 for v in g.values())
        rec = reconstruct(g)
        assert max(float(x) for x in determinant_residuals(rec.matrices)) < TOL
        res = consistency_residuals(g, rec)
        assert res["trace_consistency"] < TOL
        assert res["monodromy"] < TOL
        tt = trace_table(rec.matrices)
        for k, v in g.items():
            assert abs(float(tt[k] - to_decimal(v))) < TOL * max(1.0, abs(float(v)))


def test_perturbed_controls_detected():
    model = build_surface("genus2_x7")
    rng = random.Random(13)
    pt = sample_point(rng)
    g = cluster_to_lengths(model, pt)
    g2 = dict(g)
    g2[(4, 5)] = g2[(4, 5)] + Fraction(1, 10)
    res = consistency_residuals(g2, reconstruct(g2))
    assert res["trace_consistency"] > 1e-3
    # the residual is linear in the perturbed entry
    assert abs(res["trace_consistency"] - 0.1) < 1e-6


def test_degenerate_boundary_rejected():
    g = {(i, j): 3.0 for i in range(1, 6) for j in range(i + 1, 6)}
    g[(1, 2)] = 2.0
    with pytest.raises(ReconstructionError):
        reconstruct(g)


def test_degenerate_boundary_check_passes_only_on_the_structured_error(monkeypatch):
    # sl2_degenerate_boundary must not pass on an unrelated exception, nor on a
    # rejection of some quantity other than the first trace
    from symgroupoid import suites
    from symgroupoid.report import run_suite_checks

    (check,) = [c for c in suites.build_suite("sl2", 42) if c.id == "sl2_degenerate_boundary"]
    assert check.run() is True

    def crash(g):
        raise TypeError("unrelated failure")

    monkeypatch.setattr(suites, "reconstruct", crash)
    (result,) = run_suite_checks("sl2", [check], 42).checks
    assert (result.status, result.witness) == ("fail", "TypeError: unrelated failure")

    def wrong_quantity(g):
        raise ReconstructionError("b^2", "trace identity a c - 1 violated")

    monkeypatch.setattr(suites, "reconstruct", wrong_quantity)
    assert check.run() == (False, "rejected on b^2, not on G_{1,2}")


def test_identity_matrices_have_zero_monodromy():
    ident = [[1.0, 0.0], [0.0, 1.0]]
    assert float(monodromy_residual([ident] * 5)) == 0.0


def test_constraint_violation_rejected():
    model = build_surface("genus2_x7")
    pt = {f"w:{v}": Fraction(1) for v in "abcdef"}
    pt["w:g"] = Fraction(2)  # breaks the unit constraint
    with pytest.raises(ValueError):
        cluster_to_lengths(model, pt)


def test_reconstruct_keeps_the_callers_decimal_precision():
    m1 = [[1.0, 0.0], [0.0, 1.0]]
    m2 = [[math.exp(0.9), 0.0], [0.0, math.exp(-0.9)]]
    m3 = [[1.5, 0.6], [0.6, (1 + 0.36) / 1.5]]
    m4 = [[1.2, 0.4], [0.3, (1 + 0.12) / 1.2]]
    m5 = [[0.8, 0.5], [0.2, (1 + 0.1) / 0.8]]
    g = trace_table([m1, m2, m3, m4, m5])
    reference = reconstruct(g)
    with localcontext() as ctx:
        ctx.prec = 12
        rec = reconstruct(g)
        trace_table(rec.matrices)
        determinant_residuals(rec.matrices)
        monodromy_residual(rec.matrices)
        consistency_residuals(g, rec)
        assert getcontext().prec == 12
    # the solve runs at its own precision whatever the caller's
    assert rec.matrices == reference.matrices
