"""Run ``verify all`` over a range of rng seeds in one process and print
every check that fails at some seed, with the seed and the witness.

    python3 probes/seed_sweep.py --start 0 --stop 100

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src``.  A verdict that depends on the seed is a defect of the
check (a random draw that can land where its claim does not hold), so a
clean sweep prints only its summary line.  Each failure is one line
``seed <n>  <suite>/<check id>  <witness>``; the last line counts the seeds,
checks run and failures.  Exit status is 1 when some check failed, else 0.
The sweep is slow (about a third of a second per seed), so it
is kept out of the test suite.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from symgroupoid.report import run_suite_checks  # noqa: E402
from symgroupoid.suites import SUITE_NAMES, build_suite  # noqa: E402


def sweep(seeds: range) -> tuple:
    """The failures ``(seed, suite, check id, witness)`` of every suite over
    ``seeds``, in seed order, and the number of checks run."""
    failures, runs = [], 0
    for seed in seeds:
        for name in SUITE_NAMES:
            report = run_suite_checks(name, build_suite(name, seed), seed)
            runs += len(report.checks)
            failures += [(seed, name, c.id, c.witness) for c in report.checks if c.status == "fail"]
    return failures, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--start", type=int, default=0, help="first rng seed (default 0)")
    parser.add_argument("--stop", type=int, default=100, help="one past the last rng seed (default 100)")
    args = parser.parse_args(argv)
    if args.stop <= args.start:
        parser.error(f"--stop must be larger than --start, got {args.start}..{args.stop}")
    seeds = range(args.start, args.stop)
    begin = time.perf_counter()
    failures, runs = sweep(seeds)
    for seed, name, check_id, witness in failures:
        print(f"seed {seed}  {name}/{check_id}  {witness}")
    print(
        f"all at rng {args.start}..{args.stop - 1}: {len(seeds)} seeds, {runs} checks run, "
        f"{len(failures)} failed, {time.perf_counter() - begin:.0f} s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
