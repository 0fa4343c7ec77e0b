"""Command-line front end: check suites, compute limits, verify
isomorphisms, and emit machine-readable reports.

Exit code 0 means no failing law (skips allowed); 1 means failures; 2 means
the document or the invocation itself was rejected.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .dsl import DslError, elaborate, parse
from .families import COVARIANT
from .limits import Limits, cofinal_direct_iso, cofinal_inverse_iso
from .report import KernelError, Report, emit_report
from .runner import ConfigError, RunConfig, check_duality, resolve_check, run_suite


def _add_common(p):
    p.add_argument("file", help="document to load")
    p.add_argument("--json", metavar="PATH",
                   help="also write the report as JSON to PATH ('-' for stdout)")


def _add_suite(p):
    _add_common(p)
    p.add_argument("--uniq-bound", type=int, default=1_000_000)
    p.add_argument("--suite", help="suite block to run (default: all)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bspec",
        description="verify finite spectra: limits, cofinality, duality")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_suite(sub.add_parser("check", help="run a suite of checks"))

    p_limit = sub.add_parser("limit", help="compute a limit and export it")
    _add_common(p_limit)
    group = p_limit.add_mutually_exclusive_group(required=True)
    group.add_argument("--direct", metavar="SPECTRUM")
    group.add_argument("--inverse", metavar="SPECTRUM")

    p_iso = sub.add_parser("iso", help="verify a cofinality or duality isomorphism")
    _add_common(p_iso)
    group = p_iso.add_mutually_exclusive_group(required=True)
    group.add_argument("--cofinal", metavar="COFINAL")
    group.add_argument("--duality", metavar="POOL")
    p_iso.add_argument("--spectrum", help="spectrum name (with --cofinal)")

    _add_suite(sub.add_parser("report", help="run a suite and write JSON"))
    return parser


def _config(args):
    return RunConfig(uniq_bound=args.uniq_bound)


def _emit(report, args):
    color = os.environ.get("BSPEC_COLOR", "") not in ("", "0", "never")
    text = emit_report(report, "human", color=color)
    sys.stdout.write(text)
    if args.json:
        payload = emit_report(report, "json")
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            Path(args.json).write_text(payload, encoding="utf-8")
    return 1 if report.failed else 0


def _load(args):
    text = Path(args.file).read_text(encoding="utf-8")
    return parse(text)


def cmd_check(args):
    doc = _load(args)
    report = run_suite(doc, args.suite, _config(args))
    return _emit(report, args)


def limit_export_text(name, lim, inverse=False):
    lines = [f"limit-export {name} {{"]
    classes = lim.carrier.classes()
    if inverse:
        lines.append(f"  choices: {lim.class_count()}")
        for n, cls in enumerate(classes):
            parts = ", ".join(
                f"{i} => {x}" for i, x in lim.assignments[cls[0]].items())
            lines.append(f"  choice c{n}: {parts}")
    else:
        lines.append(f"  classes: {lim.class_count()}")
        for n, cls in enumerate(classes):
            i, x = lim.canonical(cls[0])
            lines.append(f"  class c{n}: {i} @ {x}")
            lines.append(f"  members c{n}: " + ", ".join(map(str, cls)))
    for name_k, g in zip(lim.space.names, lim.space.gens):
        parts = []
        for n, cls in enumerate(classes):
            parts.append(f"c{n} => {g(cls[0])}")
        lines.append(f"  gen {name_k}: " + ", ".join(parts))
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_limit(args):
    doc = _load(args)
    env = elaborate(doc)
    report = Report()
    name = args.direct or args.inverse
    t0 = time.perf_counter()
    s, = resolve_check(env, "limit-direct" if args.direct else "limit-inverse", (name,))
    lims = Limits()
    lim = lims.direct(s) if args.direct else lims.inverse(s)
    report.add("limit", f"limit.{name}.build", [],
               witness=(f"classes={lim.class_count()}",),
               elapsed=time.perf_counter() - t0)
    sys.stdout.write(limit_export_text(name, lim, inverse=bool(args.inverse)))
    return _emit(report, args)


def cmd_iso(args):
    doc = _load(args)
    env = elaborate(doc)
    report = Report()
    lims = Limits()
    if args.cofinal:
        s, cof = resolve_check(env, "cofinal", (args.spectrum, args.cofinal))
        t0 = time.perf_counter()
        build, iso_of = ((lims.direct, cofinal_direct_iso) if s.direction == COVARIANT
                         else (lims.inverse, cofinal_inverse_iso))
        lim = build(s)
        iso = iso_of(s, cof, lims)
        report.add("iso", f"cofinal.{args.spectrum}.{args.cofinal}", iso.findings,
                   witness=(f"classes={lim.class_count()}",),
                   elapsed=time.perf_counter() - t0)
    else:
        pool = resolve_check(env, "duality", (args.duality,))
        check_duality((args.duality,), pool, RunConfig(), report, "iso", lims)
    return _emit(report, args)


def cmd_report(args):
    doc = _load(args)
    report = run_suite(doc, args.suite, _config(args))
    if not args.json:
        args.json = "-"
    return _emit(report, args)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "iso" and args.cofinal and not args.spectrum:
        parser.error("--cofinal needs --spectrum")
    handlers = {
        "check": cmd_check,
        "limit": cmd_limit,
        "iso": cmd_iso,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (DslError, ConfigError, OSError, KernelError) as exc:
        sys.stderr.write(f"bspec: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
