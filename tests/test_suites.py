"""Every named verification suite must be fully green under pytest too."""

import pytest

from symgroupoid.suites import SUITE_NAMES, build_suite


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_green(name, suite_report):
    report = suite_report(name)
    bad = [(c.id, c.witness) for c in report.checks if c.status != "pass"]
    assert not bad, bad


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        build_suite("nope", 42)
