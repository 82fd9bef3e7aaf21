"""Every named verification suite must be fully green under pytest too."""

import io
from pathlib import Path

import pytest

from symgroupoid.report import all_report, write_report
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
    reports = [suite_report(name) for name in SUITE_NAMES]
    out = io.StringIO()
    write_report(all_report(reports, 42), out)
    assert out.getvalue() == GOLDEN.read_text()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        build_suite("nope", 42)
