"""Shared fixtures: every verification suite is built and run at most once per
test session, and its verdicts are read by every test that asserts them."""

import pytest

from symgroupoid.report import run_suite_checks
from symgroupoid.suites import build_suite

SUITE_SEED = 42


@pytest.fixture(scope="session")
def suite_report():
    """``suite_report(name)``: the suite's report at rng seed 42, computed on
    first use and reused for the rest of the session."""
    reports = {}

    def get(name: str):
        if name not in reports:
            reports[name] = run_suite_checks(name, build_suite(name, SUITE_SEED), SUITE_SEED)
        return reports[name]

    return get


@pytest.fixture(scope="session")
def check_results(suite_report):
    """``check_results(name)``: the suite's results keyed by check id."""
    return lambda name: {c.id: c for c in suite_report(name).checks}


@pytest.fixture(scope="session")
def joint_content_json():
    """``joint_content_json(f)``: ``f.to_json()`` in the stored form of the
    earlier normalization, which shifted num and den by their joint monomial
    content instead of the denominator's alone; the rational content and the
    sign rule are the same under both."""

    def old_form(f) -> dict:
        joint = tuple(map(min, f.num.content_exponents(), f.den.content_exponents()))
        back = tuple(-e for e in joint)
        return {"num": f.num.shift(back).to_json(), "den": f.den.shift(back).to_json()}

    return old_form


@pytest.fixture
def point_plans(monkeypatch):
    """The evaluation plans built while a test runs: ``laurent.point_plan`` is
    wrapped so that each build appends ``[polys, runs]`` here, ``runs``
    counting the points at which that plan was run."""
    from symgroupoid import laurent

    plans = []
    original = laurent.point_plan

    def build(polys):
        record = [list(polys), 0]
        plans.append(record)
        run = original(polys)

        def counted(*args, **kwargs):
            record[1] += 1
            return run(*args, **kwargs)

        return counted

    monkeypatch.setattr(laurent, "point_plan", build)
    return plans
