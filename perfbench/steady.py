"""Steadiness check: run every workload repeatedly and report the spread.

    python3 perfbench/steady.py --seeds 1,2,3,4,5,6,7,8,9,10
    python3 perfbench/steady.py --seeds 42 --trace

Every run lasts ``run_seconds`` of ``BENCHMARK.json``, as the benchmark's
own runs do.  Untraced mode makes one run (``run.measure``) per seed and
workload (seeds outermost, so drift of the machine spreads over all
workloads), then repeats the first seed once more.  For each end-to-end metric it prints the median, the quartiles
and the spread (quartile distance over median) of the calibrated values, with
the raw ones beside them, and checks that runs with the same seed produced
byte-identical suite reports.

``--trace`` makes one untraced and two traced runs per workload with the
first seed, checks that every count repeats exactly, and states the tracing
overhead (median traced ``wall_s`` over the untraced one) and the share of
``wall_s`` no layer span covers.

Summaries go to ``.perfbench_out/steady-*.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from run import OUT_DIR, ROOT, measure
from worker import WORKLOADS

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SECONDS = json.load(_fh)["run_seconds"]

# end-to-end metric -> the raw figure printed beside it
PAIRS = (
    ("wall_s", "raw_wall_s"),
    ("setup_s", "raw_setup_s"),
    ("cpu_s", "raw_cpu_s"),
    ("peak_rss_mb", None),
)


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def fmt(stats: tuple) -> str:
    med, q1, q3, rel = stats
    return f"{med:9.3f} [{q1:9.3f}, {q3:9.3f}] {100 * rel:5.1f}%"


def untraced(seeds: list) -> dict:
    runs = {w: [] for w in WORKLOADS}
    for seed in seeds + seeds[:1]:
        for w in WORKLOADS:
            r = measure(w, seed, SECONDS, False)
            r["seed"] = seed
            runs[w].append(r)
            m = r["metrics"]
            print(
                f"{w:10s} seed {seed:6d}: wall {m['wall_s']['value']:.3f} s "
                f"(raw {r['detail']['raw_wall_s']:.3f}), set-up {m['setup_s']['value']:.3f} s, "
                f"correct {r['correct']}, {r['attempted']} attempted, {r['failed']} failed",
                flush=True,
            )
    summary = {"seeds": seeds, "seconds": SECONDS, "workloads": {}, "when": time.strftime("%Y-%m-%d %H:%M:%S")}
    ok = True
    for w in WORKLOADS:
        first, *rest = runs[w]
        repeat = rest.pop()  # the extra run of the first seed
        if first["detail"]["report_sha256"] != repeat["detail"]["report_sha256"]:
            print(f"{w}: suite reports for seed {seeds[0]} differ between runs")
            ok = False
        measured = [first] + rest
        ok &= all(r["correct"] for r in runs[w])
        table = {}
        print(f"\n{w}: {len(measured)} runs, seeds {seeds}")
        print(f"  {'metric':12s} {'calibrated median [q1, q3] spread':>44s}   {'raw median [q1, q3] spread':>44s}")
        for metric, raw_key in PAIRS:
            cal = spread([r["metrics"][metric]["value"] for r in measured])
            raw = spread([r["detail"][raw_key] for r in measured]) if raw_key else None
            table[metric] = {"calibrated": cal, "raw": raw}
            print(f"  {metric:12s} {fmt(cal):>44s}   {fmt(raw) if raw else '':>44s}")
        unit = spread([r["detail"]["unit_s"] * 1e3 for r in measured])
        print(f"  {'unit_ms':12s} {fmt(unit):>44s}")
        table["unit_ms"] = {"raw": unit}
        summary["workloads"][w] = table
    summary["identical_reports_and_correct"] = ok
    return summary


def traced(seed: int) -> dict:
    summary = {"seed": seed, "workloads": {}}
    for w in WORKLOADS:
        untraced_wall = measure(w, seed, SECONDS, False)["metrics"]["wall_s"]["value"]
        a, b = (measure(w, seed, SECONDS, True) for _ in range(2))
        ma, mb = a["metrics"], b["metrics"]
        differ = [k for k in ma if ma[k]["unit"] == "count" and ma[k]["value"] != mb[k]["value"]]
        wall = statistics.median([ma["trace.wall_s"]["value"], mb["trace.wall_s"]["value"]])
        entry = {
            "counts_repeat": not differ,
            "differing_counts": differ,
            "traced_wall_s": wall,
            "untraced_wall_s": untraced_wall,
            "overhead": wall / untraced_wall,
            "uncovered_share": statistics.median(
                [ma["trace.uncovered_share"]["value"], mb["trace.uncovered_share"]["value"]]
            ),
            "metrics": {k: [ma[k]["value"], mb[k]["value"]] for k in ma},
        }
        summary["workloads"][w] = entry
        print(
            f"{w}: counts repeat {not differ} {differ or ''}; traced wall {wall:.3f} s, untraced "
            f"{untraced_wall:.3f} s, overhead {entry['overhead']:.3f}x; uncovered {100 * entry['uncovered_share']:.2f}%",
            flush=True,
        )
        for k in sorted(ma):
            print(f"    {k:32s} {ma[k]['value']:>16.6g} {mb[k]['value']:>16.6g} {ma[k]['unit']}")
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run every workload repeatedly and report the spread.")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    os.makedirs(OUT_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    if args.trace:
        summary = traced(seeds[0])
        name = f"steady-traced-{stamp}.json"
        ok = all(e["counts_repeat"] for e in summary["workloads"].values())
    else:
        summary = untraced(seeds)
        name = f"steady-untraced-{stamp}.json"
        ok = summary["identical_reports_and_correct"]
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nsummary written to .perfbench_out/{name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
