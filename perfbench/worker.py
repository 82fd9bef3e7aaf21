"""One round of a workload in a fresh, single-threaded process.

``run.py`` starts this script; it can also be run by hand from the root of a
checkout:

    PYTHONPATH=src python3 perfbench/worker.py --workload structural --seed 42

It starts the calibrated clock, imports the package, builds the workload's
checks with ``suites.build_suite(name, seed)`` and, in ``--mode full``, runs
them with ``report.run_suite_checks(name, checks, seed)`` -- the two calls
``symgroupoid verify`` makes; one check runs at a fixed rng seed (see
``KNOWN_FAILURE``).  Then, outside every timed interval, it checks
the verdicts and runs the independent recomputations.  The last line of its
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calclock import CalibratedClock  # noqa: E402

# The three workloads together are exactly the suites of ``verify all``.
WORKLOADS = {
    "symbolic": ("genus3",),
    "pointwise": ("genus2", "braid"),
    "structural": ("groupoid", "casimirs", "reflection", "genus4", "sl2"),
}

# groupoid_matched_minors_unipotent fails on about one rng seed in five (2, 7,
# 8, 21, ...), a fault in the program.  A failure count that depends on the
# seed would make runs with different seeds incomparable, so this check runs
# in every round at rng seed KNOWN_FAILURE_SEED, where it fails every time,
# and its failure, with exactly this witness, is the one failure a correct
# round may have.  Should the program be mended, the check passes there and
# the round has none.
KNOWN_FAILURE = "groupoid_matched_minors_unipotent"
KNOWN_FAILURE_SEED = 2
KNOWN_WITNESS = "conjugated form not unipotent on the matched-minor stratum"


def at_seed(check, seed: int):
    """The check with the ``rng_seed`` its closure captured replaced by ``seed``.

    Building the groupoid suite a second time at ``seed`` would repeat its
    eager symbolic build of about ten seconds.
    """
    # imported here, after the package has imported it, so that importing
    # dataclasses stays part of the package's measured import
    import dataclasses

    fn = check.run
    names = fn.__code__.co_freevars
    if "rng_seed" not in names:
        raise RuntimeError(f"{check.id} no longer captures rng_seed")
    cells = tuple(
        types.CellType(seed) if name == "rng_seed" else cell for name, cell in zip(names, fn.__closure__)
    )
    run = types.FunctionType(fn.__code__, fn.__globals__, fn.__name__, fn.__defaults__, cells)
    return dataclasses.replace(check, run=run)


def build(suites, name: str, seed: int) -> list:
    """``build_suite(name, seed)``, with the known failure moved to its fixed seed."""
    return [at_seed(c, KNOWN_FAILURE_SEED) if c.id == KNOWN_FAILURE else c for c in suites.build_suite(name, seed)]


def report_digest(reports: list) -> str:
    """sha256 of the suites' JSON reports, serialized as ``write_report`` does."""
    h = hashlib.sha256()
    for rep in reports:
        h.update((json.dumps(rep.to_json(), indent=2, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def run(workload: str, seed: int, mode: str, trace: bool, spans_path: str | None) -> dict:
    clock = CalibratedClock()
    clock.start()
    try:
        t0 = clock.read()
        suites = importlib.import_module("symgroupoid.suites")
        report = importlib.import_module("symgroupoid.report")
        tracer = None
        if trace:
            from layers import Tracer

            tracer = Tracer(clock.now)
            tracer.install()
        built = [(name, build(suites, name, seed)) for name in WORKLOADS[workload]]
        t1 = clock.read()
        reports = []
        if mode == "full":
            reports = [report.run_suite_checks(name, checks, seed) for name, checks in built]
        t2 = clock.read()
    finally:
        clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "package": os.path.dirname(suites.__file__),
        "setup_s": t1[0] - t0[0],
        "setup_raw_s": t1[2] - t0[2],
        "unit_s": clock.median_unit_s(),
        "ref_unit_s": clock.ref_unit_s,
    }
    if mode == "setup":
        return out
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics(t2[0] - t0[0])
        out["spans"] = len(tracer.span_id)
        out["missing_targets"] = tracer.missing
        if spans_path:
            tracer.write(spans_path)
    # verdicts and recomputations run after the clock has stopped
    problems, known = [], []
    attempted = failed = 0
    for (name, checks), rep in zip(built, reports):
        attempted += len(checks)
        failed += rep.failed
        if len(rep.checks) != len(checks):
            problems.append(f"{name}: {len(rep.checks)} results for {len(checks)} checks")
        for c in rep.checks:
            if c.status == "fail" and c.id == KNOWN_FAILURE and c.witness == KNOWN_WITNESS:
                known.append(f"{name}: {c.id} at rng seed {KNOWN_FAILURE_SEED}: {c.witness}")
            elif c.status != "pass":
                problems.append(f"{name}: {c.id} {c.status} {c.witness or ''}".strip())
    from recompute import RECOMPUTE

    problems += RECOMPUTE[workload](seed)
    out.update(
        {
            "wall_s": t2[0] - t0[0],
            "cpu_s": t2[1] - t0[1],
            "raw_wall_s": t2[2] - t0[2],
            "raw_cpu_s": t2[3] - t0[3],
            "peak_rss_mb": peak_rss_mb,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "known_failures": known,
            "report_sha256": report_digest(reports),
            "check_s": {c.id: c.wall_time_ms / 1000 for rep in reports for c in rep.checks},
        }
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("full", "setup"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced run's spans to this gzip file")
    args = ap.parse_args(argv)
    out = run(args.workload, args.seed, args.mode, bool(args.trace), args.spans)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
