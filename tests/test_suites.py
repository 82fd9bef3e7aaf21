"""Every named verification suite must be fully green under pytest too."""

import json
from pathlib import Path

import pytest

from symgroupoid.suites import SUITE_NAMES, build_suite

# written by `symgroupoid verify all --rng 42 --json`; the report must stay
# byte-identical, so a change to any verdict, witness, claim or check id shows here
GOLDEN = Path(__file__).parent / "golden" / "verify_all_rng42.json"


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_green(name, suite_report):
    report = suite_report(name)
    bad = [(c.id, c.witness) for c in report.checks if c.status != "pass"]
    assert not bad, bad


def test_reports_match_golden(suite_report):
    golden = json.loads(GOLDEN.read_text())
    reports = [suite_report(name) for name in SUITE_NAMES]
    assert [r.suite for r in reports] == [g["suite"] for g in golden["suites"]]
    for report, want in zip(reports, golden["suites"]):
        assert report.to_json() == want, report.suite
    summary = {
        "pass": sum(r.passed for r in reports),
        "fail": sum(r.failed for r in reports),
        "skipped": sum(r.skipped for r in reports),
    }
    assert summary == golden["summary"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        build_suite("nope", 42)
