"""Calibrated benchmark of the ``symgroupoid verify`` suites.

    python3 perfbench/run.py --workload symbolic --seed 42 --seconds 10 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src``.  One run measures whole rounds of the workload until
``--seconds`` have passed (at least one round).  Each round is a fresh,
single-threaded worker process (``worker.py``) that imports the package,
builds the checks and runs them; set-up is also measured in extra set-up-only
workers, or in extra rounds where set-up is most of a round, so every run has
at least ``SETUP_SAMPLES`` set-up times.  Metrics
are medians over a run's rounds (set-up: over its set-up samples), in
calibrated seconds (see ``calclock.py``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (``layers.py``).  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  Exit status is 0
when a result was printed, 2 when the checkout holds no program, 1 when a
worker failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)

from worker import WORKLOADS  # noqa: E402

# Set-up is sampled at least SETUP_SAMPLES times per run, and while the
# samples so far add up to less than SETUP_TOTAL_S (raw) up to
# SETUP_MAX_SAMPLES times: an import of a few tens of milliseconds needs many
# samples for a steady median, a set-up of seconds needs few.  Where set-up is
# over half of a round, a whole round costs little more than a set-up-only
# worker and adds a sample of every metric, so the run takes whole rounds.
SETUP_SAMPLES = 2
SETUP_MAX_SAMPLES = 15
SETUP_TOTAL_S = 2.0
# every worker must end before this many seconds after the run started
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


class RunError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # fixed string hashing: set iteration order, and with it the order of
    # exact operations and every counter, repeats from run to run
    env["PYTHONHASHSEED"] = "0"
    # the program's default (sequential) check runner, whatever the caller set
    env.pop("GC_NUM_THREADS", None)
    return env


def run_worker(args: list, deadline: float) -> dict:
    cmd = [sys.executable, WORKER] + args
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker exceeded the run's time limit: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    if os.path.realpath(out["package"]) != os.path.realpath(os.path.join(SRC, "symgroupoid")):
        raise RunError(f"worker imported the program from {out['package']}, not from {SRC}")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the printed result, plus ``detail`` (raw times, report digests)."""
    # byte-compile once, unmeasured, so no measured import pays for it
    compileall.compile_dir(os.path.join(SRC, "symgroupoid"), quiet=1)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    rounds, setups = [], []

    def add_round() -> None:
        extra = []
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-round{len(rounds) + 1}.tsv.gz")
            extra = ["--spans", spans]
        r = run_worker(base + extra, deadline)
        rounds.append(r)
        setups.append(r)
        print(
            f"round {len(rounds)}: wall {r['wall_s']:.3f} s calibrated, {r['raw_wall_s']:.3f} s raw; "
            f"set-up {r['setup_s']:.3f} s ({r['setup_raw_s']:.3f} s raw); cpu {r['cpu_s']:.3f} s; "
            f"peak rss {r['peak_rss_mb']:.1f} MiB; unit {r['unit_s'] * 1e3:.4f} ms "
            f"(reference {r['ref_unit_s'] * 1e3:.4f} ms); checks {r['attempted']} attempted, "
            f"{r['failed']} failed",
            flush=True,
        )
        for problem in r["problems"]:
            print(f"  problem: {problem}", flush=True)
        for known in r["known_failures"]:
            print(f"  known failure: {known}", flush=True)

    add_round()
    while time.monotonic() - start < seconds:
        add_round()
    while not trace and (
        len(setups) < SETUP_SAMPLES
        or (len(setups) < SETUP_MAX_SAMPLES and sum(s["setup_raw_s"] for s in setups) < SETUP_TOTAL_S)
    ):
        if 2 * rounds[0]["setup_raw_s"] > rounds[0]["raw_wall_s"]:
            add_round()
            continue
        s = run_worker(base + ["--mode", "setup"], deadline)
        setups.append(s)
        print(
            f"set-up {len(setups)}: {s['setup_s']:.3f} s calibrated, {s['setup_raw_s']:.3f} s raw; "
            f"unit {s['unit_s'] * 1e3:.4f} ms",
            flush=True,
        )

    def med(key, items=rounds):
        return statistics.median(x[key] for x in items)

    digests = {r["report_sha256"] for r in rounds}
    if len(digests) > 1:
        print(f"  problem: suite reports differ between rounds of seed {seed}", flush=True)
    correct = all(not r["problems"] for r in rounds) and len(digests) == 1
    if trace:
        metrics = {}
        for name in rounds[0]["layers"]:
            values = [r["layers"][name] for r in rounds]
            unit = layer_unit(name)
            if unit == "count" and len(set(values)) > 1:
                print(f"  note: {name} differs between rounds: {values}", flush=True)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"spans per round: {[r['spans'] for r in rounds]}", flush=True)
        for target in rounds[0]["missing_targets"]:
            print(f"  note: traced function {target} not found in the program", flush=True)
    else:
        metrics = {
            "wall_s": med("wall_s"),
            "setup_s": med("setup_s", setups),
            "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    detail = {
        "raw_wall_s": med("raw_wall_s"),
        "raw_cpu_s": med("raw_cpu_s"),
        "raw_setup_s": med("setup_raw_s", setups),
        "unit_s": med("unit_s", setups),
        "report_sha256": sorted(digests),
        "rounds": len(rounds),
        "setup_samples": len(setups),
        "check_s": rounds[0]["check_s"],
    }
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Calibrated benchmark of the symgroupoid verify suites.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symgroupoid", "__init__.py")):
        print(f"error: no program at {SRC}/symgroupoid; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail = result.pop("detail")
    print(
        f"{args.workload} seed {args.seed}: {detail['rounds']} round(s), {detail['setup_samples']} set-up "
        f"sample(s); raw wall {detail['raw_wall_s']:.3f} s, raw set-up {detail['raw_setup_s']:.3f} s, "
        f"calibration unit {detail['unit_s'] * 1e3:.4f} ms"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
