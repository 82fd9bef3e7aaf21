"""Batch verification front-end.

Subcommands: ``verify`` runs named suites and emits human and JSON reports;
``mutate``, ``casimirs``, ``geodesic`` and ``evaluate`` are small file-based
tools over the documented JSON schemas.  Exit status: 0 all checks passed,
1 any check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .laurent import RationalFn, SingularPointError, exact_rational
from .quiver import Seed, apply_sequence, monomial_casimirs
from .report import all_report, run_suite_checks, write_report
from .suites import SUITE_NAMES, build_suite, casimir_checks, unit_count
from .teich import build_surface, catalog_value
from . import surfaces

DEFAULT_SEED = 42


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError (subparsers inherit it),
    so that bad usage, like bad input, is one ``error:`` line and exit 2."""

    def error(self, message):
        raise UsageError(message)


def cmd_verify(args) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    if args.suite not in SUITE_NAMES + ("all",):
        raise UsageError(f"unknown suite {args.suite!r}; expected one of {SUITE_NAMES + ('all',)}")
    if args.size is not None and args.suite not in ("casimirs", "all"):
        raise UsageError(f"-n/--size applies only to the casimirs suite, not {args.suite!r}")
    if args.size is not None and args.size < 1:
        raise UsageError(f"-n/--size must be at least 1, got {args.size}")
    failed = 0
    reports = []
    # opened first, so that a bad path fails before any suite runs
    with open(args.json, "w") if args.json else contextlib.nullcontext() as out:
        for name in names:
            if name == "casimirs" and args.size is not None:
                checks = casimir_checks(args.size)
            else:
                checks = build_suite(name, args.rng)
            report = run_suite_checks(name, checks, args.rng)
            reports.append(report)
            print(report.render_table())
            failed += report.failed
        if out is not None:
            write_report(all_report(reports, args.rng) if args.suite == "all" else reports[0].to_json(), out)
    return 1 if failed else 0


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: malformed JSON: {exc}") from exc


def _write_json(document: dict, path: str | None) -> None:
    """Write a JSON document to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            write_report(document, fh)
    else:
        write_report(document, sys.stdout)


def _surface(name: str):
    if name not in surfaces.MODEL_NAMES:
        raise UsageError(f"unknown surface {name!r}; expected one of {surfaces.MODEL_NAMES}")
    return build_surface(name)


def _load_seed(path: str) -> Seed:
    data = _load_json(path)
    try:
        return Seed.from_json(data)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"{path}: bad quiver/seed schema: {exc}") from exc


def cmd_mutate(args) -> int:
    seed = _load_seed(args.quiver)
    seq = []
    if args.seq:
        for item in args.seq.split(","):
            item = item.strip()
            if not item:
                continue
            if "~" in item:
                pair = [name.strip() for name in item.split("~")]
                if len(pair) != 2:
                    raise UsageError(f"--seq item {item!r}: u~v swaps exactly two labels")
                seq.append(tuple(pair))
            else:
                seq.append(item)
    try:
        out = apply_sequence(seed, seq)
    except (KeyError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"mutation failed: {exc}") from exc
    _write_json(out.to_json(), args.json)
    return 0


def cmd_casimirs(args) -> int:
    quiver = _load_seed(args.quiver).quiver if args.quiver is not None else _surface(args.surface).quiver
    basis = monomial_casimirs(quiver)
    print(f"corank {len(basis)}; kernel basis:")
    for mono in basis:
        print(" ", mono.to_text())
    return 0


def cmd_geodesic(args) -> int:
    if args.network is not None:
        from .network import square_network

        try:
            net = square_network(args.network)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        _write_json(net.to_json(), args.json)
        return 0
    if not args.surface:
        raise UsageError("geodesic needs --surface NAME or --network N")
    model = _surface(args.surface)
    if args.label is None:
        print("labels:", ", ".join(sorted(model.catalog)))
        return 0
    if args.label not in model.catalog:
        raise UsageError(f"unknown label {args.label!r}; available: {sorted(model.catalog)}")
    value = catalog_value(model, args.label)
    count = unit_count(value)
    print(value.to_text())
    print(f"monomials (with multiplicity): {count}")
    if args.json:
        _write_json(
            {"surface": args.surface, "label": args.label, "value": value.to_json(), "count": str(count)}, args.json
        )
    return 0


def cmd_evaluate(args) -> int:
    raw = _load_json(args.point)
    if not isinstance(raw, dict):
        raise UsageError(f"{args.point}: the point must be a JSON object of generator values")
    try:
        point = {k: exact_rational(v, f"the value of {k}") for k, v in raw.items()}
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"{args.point}: point values must be exact rationals: {exc}") from exc
    if args.surface and args.label:
        model = _surface(args.surface)
        if args.label not in model.catalog:
            raise UsageError(f"unknown label {args.label!r}")
        fn = catalog_value(model, args.label)
    elif args.fn:
        data = _load_json(args.fn)
        if not isinstance(data, dict):
            raise UsageError(f"{args.fn}: a serialized rational function is a JSON object")
        if "vertices" in data:
            raise UsageError(f"{args.fn}: --fn expects a serialized rational function, not a seed")
        from .laurent import GeneratorTable

        try:
            names = sorted(
                {k for part in ("num", "den") for entry in data[part] for k in entry["exps"]}
            )
            fn = RationalFn.from_json(GeneratorTable(names), data)
        except (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
            raise UsageError(
                f"{args.fn}: not a rational function with 'num' and 'den' term lists: {exc!r}"
            ) from exc
    else:
        raise UsageError("evaluate needs --surface NAME --label LBL or --fn FILE")
    missing = [n for n in fn.table.names if n not in point]
    if missing:
        raise UsageError(f"point is missing generators: {missing}")
    try:
        value = fn.evaluate(point)
    except SingularPointError as exc:
        print(f"singular point: denominator {exc.denominator.to_text()} vanishes", file=sys.stderr)
        return 1
    print(f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator))
    return 0


def make_parser() -> _Parser:
    parser = _Parser(prog="symgroupoid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help=f"one of {', '.join(SUITE_NAMES)} or 'all'")
    p.add_argument("--json", metavar="PATH", help="write the machine-readable report here")
    p.add_argument("--rng", type=int, default=DEFAULT_SEED, help="seed for randomized sampling")
    p.add_argument(
        "-n",
        "--size",
        type=int,
        help="restrict the casimirs suite to one size (at least 1; the cost grows steeply: "
        "about 1 s at n = 12, 4 s at 16, 11 s at 20)",
    )
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("mutate", help="apply a mutation sequence to a quiver/seed file")
    p.add_argument("--quiver", required=True, metavar="FILE")
    p.add_argument("--seq", default="", help="comma list of vertices; u~v swaps two labels")
    p.add_argument("--json", metavar="PATH", help="write the mutated seed here instead of stdout")
    p.set_defaults(handler=cmd_mutate)

    p = sub.add_parser("casimirs", help="print the Casimir monomial basis of a quiver")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--quiver", metavar="FILE")
    source.add_argument("--surface", metavar="NAME")
    p.set_defaults(handler=cmd_casimirs)

    p = sub.add_parser("geodesic", help="print a surface-model geodesic function")
    p.add_argument("--surface", metavar="NAME")
    p.add_argument("--label", metavar="LBL")
    p.add_argument("--network", type=int, metavar="N", help="dump the wire network instead")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(handler=cmd_geodesic)

    p = sub.add_parser("evaluate", help="exact evaluation at a rational point")
    p.add_argument("--point", required=True, metavar="FILE")
    p.add_argument("--surface", metavar="NAME")
    p.add_argument("--label", metavar="LBL")
    p.add_argument("--fn", metavar="FILE", help="serialized rational function")
    p.set_defaults(handler=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    # exact values are read and written in full, whatever their number of
    # digits (Python 3.11 and 3.10.7 on cap int <-> str conversion)
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is not None:
        lift(0)
    try:
        args = make_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help; bad usage raises UsageError instead
        return 2 if exc.code not in (0, None) else 0
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
