"""Check/report structures shared by every verification suite."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

ENGINE_VERSION = "0.1.0"


@dataclass
class Check:
    """One verifiable claim: a callable returning True, or (False, witness)."""

    id: str
    claim: str
    run: object  # zero-argument callable


@dataclass
class CheckResult:
    id: str
    claim: str
    status: str  # pass | fail
    wall_time_ms: int
    witness: str | None = None

    def to_json(self) -> dict:
        # timings are shown in the human table only, keeping reports
        # byte-identical under a fixed rng seed
        out = {"id": self.id, "claim": self.claim, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class SuiteReport:
    suite: str
    rng_seed: int
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "engine_version": ENGINE_VERSION,
            "rng_seed": self.rng_seed,
            "checks": [c.to_json() for c in sorted(self.checks, key=lambda c: c.id)],
            # no check is skipped; the key stays so the report's bytes do not change
            "summary": {"pass": self.passed, "fail": self.failed, "skipped": 0},
        }

    def render_table(self) -> str:
        lines = [f"suite {self.suite}  (rng seed {self.rng_seed})"]
        width = max((len(c.id) for c in self.checks), default=4)
        for c in sorted(self.checks, key=lambda c: c.id):
            mark = {"pass": "ok", "fail": "FAIL"}[c.status]
            line = f"  {c.id:<{width}}  {mark:<4}  {c.wall_time_ms:>6} ms  {c.claim}"
            if c.witness:
                line += f"  [{c.witness}]"
            lines.append(line)
        lines.append(f"  total: {self.passed} passed, {self.failed} failed")
        return "\n".join(lines)


def _execute(check: Check) -> CheckResult:
    start = time.monotonic()
    witness = None
    try:
        outcome = check.run()
        if isinstance(outcome, tuple):
            ok, witness = outcome
        else:
            ok = bool(outcome)
        status = "pass" if ok else "fail"
    except Exception as exc:  # a crashed check is a failed check with a witness
        status = "fail"
        witness = f"{type(exc).__name__}: {exc}"
    ms = int((time.monotonic() - start) * 1000)
    return CheckResult(check.id, check.claim, status, ms, witness)


def run_suite_checks(suite: str, checks: list, rng_seed: int) -> SuiteReport:
    """Execute the checks one after another, in the given order."""
    return SuiteReport(suite=suite, rng_seed=rng_seed, checks=[_execute(c) for c in checks])


def all_report(reports: list, rng_seed: int) -> dict:
    """The ``verify all`` document: every suite's report and their summed summary."""
    return {
        "suite": "all",
        "rng_seed": rng_seed,
        "suites": [r.to_json() for r in reports],
        "summary": {
            "pass": sum(r.passed for r in reports),
            "fail": sum(r.failed for r in reports),
            "skipped": 0,
        },
    }


def write_report(document: dict, fh) -> None:
    """Write a JSON document (a report, a seed, a network) to an open text
    file, as sorted, indented JSON."""
    json.dump(document, fh, indent=2, sort_keys=True)
    fh.write("\n")
