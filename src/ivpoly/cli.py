"""Command-line front end: emit the tables and sequences, run the checks.

Exit codes: 0 success, 1 verification failure or output closed early,
2 usage error, 3 enumeration cap exceeded. Set IVPOLY_ENUM_CAP to raise or
lower the brute-force caps, the theorem3 witness cap among them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from .constants import c_table, lambda_factorizations, q_table
from .exact_arith import EnumerationCapError, lcm_ratios, radicals
from .stirling import d_table, f_table, stirling_first
from .verify import CHECK_NAMES, VerifyConfig, run_all, run_check

TABLE_KINDS = ("c", "q", "d", "F", "stirling")
SEQ_KINDS = ("lambda", "cn")
FORMATS = ("md", "csv", "json")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivpoly",
        description="Exact tables and verified identities for the derivative "
        "stability of integer-valued polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="print one of the triangular tables")
    table.add_argument("kind", choices=TABLE_KINDS)
    table.add_argument("--max-n", type=_nonnegative, default=10)
    table.add_argument("--format", choices=FORMATS, default="md")
    table.set_defaults(handler=cmd_table)

    seq = sub.add_parser("seq", help="print a sequence, one term per line")
    seq.add_argument("kind", choices=SEQ_KINDS)
    seq.add_argument("--max-n", type=_nonnegative, default=10)
    seq.add_argument("--format", choices=FORMATS, default="md")
    seq.add_argument(
        "--factored", action="store_true", help="prime-power form (lambda only)"
    )
    seq.set_defaults(handler=cmd_seq)

    verify = sub.add_parser("verify", help="run the verification checks")
    verify.add_argument("scope", choices=("all",) + CHECK_NAMES)
    verify.add_argument(
        "--max-n",
        type=_nonnegative,
        default=None,
        help="override the range(s) of the selected check(s)",
    )
    verify.set_defaults(handler=cmd_verify)
    return parser


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _table_rows(kind: str, max_n: int) -> list[list[str]]:
    if kind == "F":
        return [[_fraction_str(v) for v in row] for row in f_table(max_n).rows]
    if kind == "stirling":
        return [[str(v) for v in row] for row in stirling_first(max_n).rows]
    if kind == "d":
        return [[str(v) for v in row] for row in d_table(f_table(max_n)).rows]
    if kind == "q":
        return [[str(v) for v in row] for row in q_table(max_n).rows]
    return [[str(v) for v in row] for row in c_table(d_table(f_table(max_n))).rows]


def _render_table(kind: str, max_n: int, fmt: str) -> str:
    rows = _table_rows(kind, max_n)
    header = ["n"] + [f"k{k}" for k in range(max_n + 1)]
    if fmt == "json":
        return json.dumps({"kind": kind, "max_n": max_n, "rows": rows})
    padded = [
        [str(n)] + row + [""] * (max_n - n) for n, row in enumerate(rows)
    ]
    if fmt == "csv":
        return "\n".join([",".join(header)] + [",".join(row) for row in padded])
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "---|" * len(header))
    lines.extend("| " + " | ".join(row) + " |" for row in padded)
    return "\n".join(lines)


def cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    print(_render_table(args.kind, args.max_n, args.format))
    return 0


def _running_products(steps: Iterable[int]) -> Iterator[str]:
    """The running products of ``steps`` as decimal strings.

    ``decimal`` multiplies by a small int and converts to text in time linear
    in the digit count, where ``str(int)`` is quadratic. The context has room
    for any integer and traps any rounding, so a lost digit raises.
    """
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded

    context = Context(prec=MAX_PREC, Emax=MAX_EMAX)
    context.traps[Inexact] = context.traps[Rounded] = True
    term = Decimal(1)
    for step in steps:
        term = context.multiply(term, step)
        yield str(term)


def cmd_seq(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.factored and args.kind != "lambda":
        parser.error("--factored is only available for 'seq lambda'")
    if args.factored:
        terms = map(str, lambda_factorizations(args.max_n))
    elif args.kind == "lambda":
        terms = _running_products(radicals(args.max_n))
    else:
        terms = _running_products(lcm_ratios(args.max_n))
    # Terms are written as they come, so only one is held at a time.
    write = sys.stdout.write
    if args.format == "json":
        separator = "["
        for term in terms:
            write(separator + json.dumps(term))
            separator = ", "
        write("]\n")
    else:
        for term in terms:
            write(term + "\n")
    return 0


def _config_from_env_and_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> VerifyConfig:
    cap = os.environ.get("IVPOLY_ENUM_CAP")
    config = VerifyConfig()
    if cap is not None:
        try:
            cap_value = int(cap)
        except ValueError:
            cap_value = 0
        if cap_value < 1:
            parser.error(f"IVPOLY_ENUM_CAP must be a positive integer, got {cap!r}")
        config = VerifyConfig(enum_cap=cap_value)
    if args.max_n is not None:
        scope = None if args.scope == "all" else args.scope
        config = config.with_max_n(args.max_n, scope)
    return config


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config = _config_from_env_and_args(args, parser)
    if args.scope == "all":
        reports = run_all(config)
    else:
        reports = [run_check(args.scope, config)]
    failed = False
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        line = f"{report.name}: {status} [{report.tested}]"
        if report.counterexample is not None:
            line += f" counterexample {report.counterexample}"
        print(line)
        failed = failed or not report.passed
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Table entries pass Python's 4300-digit int -> str limit at large n: the
    # Stirling entry s(n, 1) = +-(n - 1)! has 4303 digits at n = 1560.
    # Lift it only once the arguments are parsed, so an absurdly long --max-n
    # stays a usage error. Python < 3.10.7 has none.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.handler(args, parser)
        sys.stdout.flush()
        return code
    except EnumerationCapError as error:
        print(f"ivpoly: error: {error}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout early (say `ivpoly seq cn | head -1`).
        # Point stdout at devnull so the flush at interpreter exit cannot
        # raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
