"""Command line front end.

    qball normalize --n 2 "z[1,2]*z[1,1]"
    qball verify --suite laplace --n 2
    qball verify --suite all --n 2 --cutoff 2 --output report.json
    qball limits --n 2

Exit codes: 0 all PASS, 1 any FAIL, 2 usage or parse error, 3 SKIPPED only.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .parser import ExprError, parse_expr
from .render import poly_text
from .suites import SUITE_NAMES, run_suite

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_SKIPPED = 0, 1, 2, 3


@lru_cache(maxsize=None)
def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qball",
        description="Exact verification engine for the quantum matrix ball")
    sub = ap.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("normalize", help="normalize an expression")
    p_norm.add_argument("expression")
    p_norm.add_argument("--n", type=int, default=1)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True, choices=SUITE_NAMES + ["all"])
    p_ver.add_argument("--n", type=int, default=1)
    p_ver.add_argument("--cutoff", type=int, default=2)
    p_ver.add_argument("--output", default=None, help="write a JSON report")

    p_lim = sub.add_parser("limits", help="classical q -> 1 spot checks")
    p_lim.add_argument("--n", type=int, default=1)
    p_lim.add_argument("--cutoff", type=int, default=2)
    p_lim.add_argument("--output", default=None)
    return ap


def _emit(reports: list, output) -> int:
    for rep in reports:
        print(rep.line())
    if output:
        payload = ([r.to_dict() for r in reports] if len(reports) > 1
                   else reports[0].to_dict())
        with open(output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    statuses = {r.status for r in reports}
    if "FAIL" in statuses:
        return EXIT_FAIL
    if statuses == {"SKIPPED"}:
        return EXIT_SKIPPED
    return EXIT_PASS


def cmd_normalize(args) -> int:
    if args.n < 1:
        print("error: n must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        tag, poly = parse_expr(args.expression, args.n)
    except ExprError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(f"[{tag}] {poly_text(poly)}")
    return EXIT_PASS


def cmd_verify(args) -> int:
    if args.n < 1 or args.cutoff < 0:
        print("error: need n >= 1 and cutoff >= 0", file=sys.stderr)
        return EXIT_USAGE
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    return _emit([run_suite(name, args.n, args.cutoff) for name in names],
                 args.output)


def cmd_limits(args) -> int:
    if args.n < 1:
        print("error: n must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    return _emit([run_suite("limits", args.n, args.cutoff)], args.output)


def main(argv=None) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    handler = {"normalize": cmd_normalize, "verify": cmd_verify,
               "limits": cmd_limits}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
