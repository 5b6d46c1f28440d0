"""Command line front end: validate, analyze, catalog, infer."""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import CATALOG, catalog_from_spec
from .inference import Contradiction, FiltrationParseError, InvalidFiltration, infer, load_filtration
from .liealg import LieAlgebraError
from .lieio import LieParseError, render_lie
from .report import EXIT_INPUT_ERROR, analyze_source, load_algebra, render_text, report_json


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


class _Parser(argparse.ArgumentParser):
    """Exit 1 on usage errors; exit 2 means a refusal."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.exit(_fail(message))


def _write_json(payload: str, dest: str) -> None:
    if dest == "-":
        sys.stdout.write(payload)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(payload)


def cmd_validate(args) -> int:
    try:
        L = load_algebra(args.path)
    except (OSError, LieParseError, LieAlgebraError, ValueError) as exc:
        return _fail(str(exc))
    print(f"ok: dim {L.dim}, basis {' '.join(L.basis_names)}, "
          f"{len(L.constants)} nonzero bracket(s)")
    return 0


def cmd_analyze(args) -> int:
    if args.samples < 1:
        return _fail(f"--samples must be at least 1, got {args.samples}")
    options = dict(
        samples=args.samples,
        seed=args.seed,
        assume_exponential=args.assume_exponential,
        simply_connected=not args.not_simply_connected,
    )
    reports = []
    worst = 0
    for source in args.inputs:
        try:
            report, code = analyze_source(source, **options)
        except (OSError, LieParseError, LieAlgebraError, ValueError) as exc:
            code = _fail(f"{source}: {exc}")
            if len(args.inputs) == 1:
                return code
            # in a batch, a bad input gives an error record in its place
            report = {"source": source, "error": str(exc)}
        reports.append(report)
        worst = max(worst, code)
    if args.json != "-":
        for report in reports:
            if "error" not in report:
                sys.stdout.write(render_text(report))
    if args.json is not None:
        payload = report_json(reports[0] if len(reports) == 1 else reports)
        _write_json(payload, args.json)
    return worst


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in sorted(CATALOG):
            _, params, example = CATALOG[name]
            print(f"{name:12s} params: {params:28s} e.g. {example}")
        return 0
    # emit
    if not args.name:
        return _fail("catalog emit needs a name, e.g. heisenberg:1")
    try:
        L = catalog_from_spec(args.name)
    except ValueError as exc:
        return _fail(str(exc))
    text = render_lie(L)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_infer(args) -> int:
    try:
        doc = load_filtration(args.path)
        table = infer(doc, use_compacts_facts=not args.no_compacts_facts)
    except (OSError, FiltrationParseError, InvalidFiltration, Contradiction) as exc:
        return _fail(str(exc))
    targets = [n.name for n in doc.nodes] + ["total"]
    if args.json:
        payload = {
            "facts": {
                t: {
                    "rr": table.rr_interval(t),
                    "tsr": table.tsr_interval(t),
                    "gr": table.gr_fact(t),
                }
                for t in targets
            },
            "trace": [
                {
                    "rule": e.rule,
                    "target": e.target,
                    "fact": e.fact,
                    "old": e.old,
                    "new": e.new,
                    "note": e.note,
                }
                for e in table.trace
            ],
        }
        _write_json(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.json)
        if args.json == "-":
            return 0
    def fmt(value) -> str:
        if isinstance(value, tuple):
            lo, hi = value
            return f"[{lo},{'inf' if hi is None else hi}]"
        return str(value)

    for t in targets:
        facts = table.facts(t)
        print(f"{t}: rr={fmt(facts.rr)} tsr={fmt(facts.tsr)} gr={facts.gr}")
    print(f"trace ({len(table.trace)} steps):")
    for e in table.trace:
        note = f"  # {e.note}" if e.note else ""
        print(f"  {e.rule:3s} {e.target} {e.fact}: {fmt(e.old)} -> {fmt(e.new)}{note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbit-rank",
        description="Exact rank invariants and coadjoint-orbit analysis "
        "for solvable Lie algebras given by rational structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse a .lie file and check the Jacobi identity")
    p_validate.add_argument("path", help=".lie file or catalog:<name>[:<params>]")

    p_analyze = sub.add_parser("analyze", help="full analysis of one or more algebras")
    p_analyze.add_argument("inputs", nargs="+", help=".lie files or catalog:<name>[:<params>]")
    p_analyze.add_argument("--json", metavar="PATH", help="write the JSON report to PATH ('-' for stdout)")
    p_analyze.add_argument("--samples", type=int, default=200, help="orbit-component samples (default 200)")
    p_analyze.add_argument("--seed", type=int, default=0, help="seed for all randomized steps (default 0)")
    p_analyze.add_argument("--assume-exponential", action="store_true",
                           help="skip the spectral screen and assert exponentiality")
    p_analyze.add_argument("--not-simply-connected", action="store_true",
                           help="report only the one-sided real-rank bound")

    p_catalog = sub.add_parser("catalog", help="list catalog entries or emit one as a .lie file")
    p_catalog.add_argument("action", choices=["list", "emit"])
    p_catalog.add_argument("name", nargs="?", help="for emit: e.g. heisenberg:1")
    p_catalog.add_argument("--out", metavar="PATH", help="write the .lie file here instead of stdout")

    p_infer = sub.add_parser("infer", help="run the rank inference engine on a filtration document")
    p_infer.add_argument("path", help=".filt or .json filtration document")
    p_infer.add_argument("--json", metavar="PATH", help="write facts and trace as JSON ('-' for stdout)")
    p_infer.add_argument("--no-compacts-facts", action="store_true",
                         help="disable the standard compacts rule (R17)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "validate": cmd_validate,
        "analyze": cmd_analyze,
        "catalog": cmd_catalog,
        "infer": cmd_infer,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
