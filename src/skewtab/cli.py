"""Command-line front end: expansions, products, verification sweeps, and
step-by-step slide traces.

Output is deterministic: term lines are sorted lexicographically by shape
and printed one per line, sign first. Exit status is 0 on success or a
clean verification, 1 when a verification sweep reports failures, and 2 on
usage errors (including unparseable shapes or tableaux, and inputs too large
to compute). When the reader of standard output goes away first (`skewtab
... | head -1`), `main` stops writing and exits 141, the status a shell gives
a process that SIGPIPE ends, with nothing on stderr. No engine recurses, so
every command takes shapes of any number of rows.

`run` can be called any number of times in one process. It builds one
argument parser on its first call and reuses it for every later request:
parsing does not change the parser, and the handlers look up what they call
at call time: `verify` reads its target's row of `rules.SWEEPS`, so a row
replaced there is the one run. `build_parser()` still returns a new parser
on every call. A request is parsed once, by its command's sub-parser: the
command word picks the sub-parser, so the top-level parser does not walk the
arguments first.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .insertion import REVERSE
from .involution import SlideContext, downward_slide, phi, upward_slide
from .rules import SWEEPS, skew_lr_product, skew_pieri
from .shapes import format_shape, parse_shape
from .symfunc import expansion_to_json, schur_product, skew_to_schur, term_lines
from .tableaux import format_tableau, parse_tableau


def _emit_expansion(x, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(expansion_to_json(x)))
    else:
        print("\n".join(term_lines(x)))


def _cmd_expand(args) -> int:
    shape = parse_shape(args.shape)
    result = skew_pieri(shape, args.n, dual=args.dual)
    _emit_expansion(result, args.format)
    return 0


def _cmd_product(args) -> int:
    a = parse_shape(args.a)
    b = parse_shape(args.b)
    if args.rule == "schur":
        result = schur_product(skew_to_schur(a), skew_to_schur(b))
    else:
        result = skew_lr_product(a, b)
    _emit_expansion(result, args.format)
    return 0


def _cmd_verify(args) -> int:
    sweep = SWEEPS[args.target]
    report = sweep.run(*(getattr(args, flag) for flag in sweep.flags))
    failures = report["failures"]
    report["ok"] = not failures
    if args.format == "json":
        print(json.dumps(report))
    else:
        for key, value in report.items():
            if key != "failures":
                print(f"{key}: {value}")
        for line in failures:
            print(f"FAIL: {line}")
    return 1 if failures else 0


def _cmd_trace(args) -> int:
    base = parse_shape(args.base)
    tableau = parse_tableau(args.tableau)
    ctx = SlideContext(base, tableau)
    steps = []
    op = {"D": downward_slide, "U": upward_slide, "phi": phi}[args.op]
    result = op(ctx, steps)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "op": args.op,
                    "base": format_shape(base),
                    "input": format_tableau(tableau),
                    "steps": [
                        {
                            "kind": s.kind,
                            "entry": s.record.final_entry,
                            "path": [[c.row, c.col] for c in s.record.path],
                            "landing_row": s.record.landing_row,
                            "tableau": format_tableau(s.tableau),
                        }
                        for s in steps
                    ],
                    "result": format_tableau(result.tableau),
                }
            )
        )
    else:
        print(f"{args.op} over base {format_shape(base)}")
        print(f"start: {format_tableau(tableau)}")
        for s in steps:
            cells = s.record.path
            if s.record.direction == REVERSE:
                path = " -> ".join(f"({c.row},{c.col})" for c in reversed(cells))
                where = (
                    "exits at row 0"
                    if s.record.landing_row == 0
                    else f"lands at the left end of row {s.record.landing_row}"
                )
            else:
                path = " -> ".join(f"({c.row},{c.col})" for c in cells)
                where = f"settles at ({cells[-1].row},{cells[-1].col})"
            print(f"{s.kind}: entry {s.record.final_entry} along {path}, {where}")
            print(f"  state: {format_tableau(s.tableau)}")
        print(f"result: {format_tableau(result.tableau)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewtab",
        description="Expand, multiply, verify, and trace skew-shape Schur expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="multiply a skew shape by h_n (or e_n with --dual)")
    p.add_argument("shape", help="skew shape, e.g. 3,2,2/1,1 or 322/11")
    p.add_argument("--h", dest="n", type=int, required=True, metavar="N", help="strip size n")
    p.add_argument("--dual", action="store_true", help="multiply by e_n instead of h_n")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("product", help="multiply two skew shapes")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rule", choices=["skew-lr", "schur"], default="skew-lr")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("verify", help="run an exhaustive verification sweep")
    p.add_argument("target", choices=list(SWEEPS))
    p.add_argument("--max-outer", type=int, default=4)
    p.add_argument("--max-n", type=int, default=2)
    p.add_argument("--max-entry", type=int, default=3)
    p.add_argument("--max-deg", type=int, default=3, help="degree bound for the perp sweep")
    p.add_argument("--max-outer-b", type=int, default=2, help="second factor bound for skew-lr")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("trace", help="log a slide step by step")
    p.add_argument("mode", choices=["slide"])
    p.add_argument("base", help="base skew shape lam/mu")
    p.add_argument("tableau", help="tableau, e.g. '7,6,4,4,1/3,1: [1,2,2,5][1,2,2,3,6][2,2,3,4][3,5,7,7][9]'")
    p.add_argument("--op", choices=["D", "U", "phi"], default="phi")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_trace)

    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The shared parser and its sub-parsers by command word."""
    parser = build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    return parser, commands


def run(argv=None) -> int:
    """Serve one request and return its exit status.

    One parser is built on the first call and shared by every later call in
    the process, so repeated calls pay only for parsing and the work itself;
    `build_parser()` still returns a new parser on every call. A request that
    starts with a command word is parsed once, by that command's sub-parser;
    arguments it leaves over are reported as the whole parser reports them.
    Any other request (none, help, `--`, a misspelt command) goes to the
    whole parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parser()
    sub = commands.get(argv[0]) if argv else None
    try:
        if sub is None:
            args = parser.parse_args(argv)
        else:
            args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # A backstop: no engine recurses, so no input is known to reach it.
        print("error: input too large: maximum recursion depth exceeded", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()  # here, so a closed pipe fails inside the try
    except BrokenPipeError:
        # Point stdout at /dev/null, so the flush at exit writes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141  # the fixed status the module docstring documents
    sys.exit(status)


if __name__ == "__main__":
    main()
