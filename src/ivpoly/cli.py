"""Command-line front end: emit the tables and sequences, run the checks.

Exit codes: 0 success, 1 verification failure, output closed early, the
output could not be written, or memory ran out, 2 usage error, 3 enumeration
cap exceeded. Set IVPOLY_ENUM_CAP to raise or lower the brute-force caps, the
theorem3 witness cap among them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable, Iterator

from . import CHECK_NAMES
from .exact_arith import EnumerationCapError, _verified_prime, prime_divisors

TABLE_KINDS = ("c", "q", "d", "F", "stirling")
SEQ_KINDS = ("lambda", "cn")
FORMATS = ("md", "csv", "json")


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
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


def _write_joined(head: str, items: Iterable[str], separator: str, tail: str) -> None:
    """Write head, then the items with separator between them, then tail;
    each item as it comes, so only one is held at a time."""
    write = sys.stdout.write
    write(head)
    gap = ""
    for item in items:
        write(gap + item)
        gap = separator
    write(tail)


def _table_rows(kind: str, max_n: int) -> Iterator[list[str]]:
    """The rows of one table kind as text cells, from the integer row
    generators of ``rows``: F as its pairs reduced by one gcd each."""
    from . import rows

    if kind == "F":
        return (
            [f"{a // (g := math.gcd(a, b))}/{b // g}" for a, b in row]
            for row in rows.quotient_rows(max_n)
        )
    generate = {
        "c": rows.c_rows, "q": rows.q_rows, "d": rows.d_rows, "stirling": rows.stirling_rows
    }[kind]
    return ([*map(str, row)] for row in generate(max_n))


def cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    kind, max_n = args.kind, args.max_n
    rows = _table_rows(kind, max_n)
    if args.format == "json":
        # A cell holds only digits, "-" and "/", and a kind only ASCII
        # letters: no quote, backslash, control or non-ASCII character, so
        # quoting each one is what json.dumps would write.
        head = f'{{"kind": "{kind}", "max_n": {max_n}, "rows": ['
        _write_joined(head, ('["' + '", "'.join(cells) + '"]' for cells in rows), ", ", "]}\n")
        return 0
    lead, sep, trail = ("", ",", "") if args.format == "csv" else ("| ", " | ", " |")
    head = lead + sep.join(["n", *(f"k{k}" for k in range(max_n + 1))]) + trail + "\n"
    if args.format == "md":
        head += "|" + "---|" * (max_n + 2) + "\n"
    # Cells above the diagonal are blank.
    padded = ([str(n), *cells, *[""] * (max_n - n)] for n, cells in enumerate(rows))
    _write_joined(head, (lead + sep.join(cells) + trail for cells in padded), "\n", "\n")
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
    term, text = Decimal(1), "1"
    for step in steps:
        # A step of 1 repeats the term, so its text is reused, not remade.
        if step != 1:
            term = context.multiply(term, step)
            text = str(term)
        yield text


def _factored_terms(divisors: Iterable[Iterable[int]]) -> Iterator[str]:
    """lambda(0), lambda(1), ... in prime-power form, from the ascending
    primes dividing each n (see exact_arith.prime_divisors).

    The exponent n // p of p rises by one exactly when p divides n, so each
    term rewrites only those primes' pieces of the term before it. A prime
    opens its piece at n = p, after every smaller prime's (a dict keeps that
    order), and passes the primality gate of PrimeFactorization there, once.
    """
    pieces: dict[int, str] = {}
    for n, primes in enumerate(divisors):
        for p in primes:
            pieces[p] = f"{p}^{n // p}" if p != n else str(_verified_prime(p))
        yield " * ".join(pieces.values()) or "1"


def cmd_seq(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.factored and args.kind != "lambda":
        parser.error("--factored is only available for 'seq lambda'")
    # lambda(n) gains rad(n); lcm(1..n) gains p when p is the only prime dividing n.
    divisors = prime_divisors(args.max_n)
    if args.factored:
        terms = _factored_terms(divisors)
    elif args.kind == "lambda":
        terms = _running_products(map(math.prod, divisors))
    else:
        terms = _running_products(ps[0] if len(ps) == 1 else 1 for ps in divisors)
    if args.format == "json":
        # Terms hold only digits, "^", "*" and spaces, so quoting each one is
        # what json.dumps would write.
        _write_joined('["', terms, '", "', '"]\n')
    else:
        _write_joined("", terms, "\n", "\n")
    return 0


def _enum_cap(parser: argparse.ArgumentParser) -> int | None:
    """IVPOLY_ENUM_CAP as a positive int, or None when it is unset."""
    cap = os.environ.get("IVPOLY_ENUM_CAP")
    if cap is None:
        return None
    try:
        value = int(cap)
    except ValueError:
        value = 0
    if value < 1:
        parser.error(f"IVPOLY_ENUM_CAP must be a positive integer, got {cap!r}")
    return value


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .verify import run_all, run_check

    enum_cap = _enum_cap(parser)
    if args.scope == "all":
        reports = run_all(args.max_n, enum_cap)
    else:
        reports = [run_check(args.scope, args.max_n, enum_cap)]
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
    # Out of memory, closing a generator that a failed step left suspended can
    # raise MemoryError too; Python would print it as unraisable, so it is dropped.
    hook = sys.unraisablehook
    sys.unraisablehook = lambda report: issubclass(report.exc_type, MemoryError) or hook(report)
    try:
        code = args.handler(args, parser)
        sys.stdout.flush()
        return code
    except EnumerationCapError as error:
        print(f"ivpoly: error: {error}", file=sys.stderr)
        return 3
    except MemoryError:
        # What the failed step had built is unwound and freed by now, so
        # there is room for the one line.
        print("ivpoly: error: out of memory", file=sys.stderr)
        return 1
    except OSError as error:
        # The reader closed stdout early (say `ivpoly seq cn | head -1`),
        # which stays silent, or the write failed otherwise (say a full
        # disk). Point stdout at devnull so the flush at interpreter exit
        # cannot raise again.
        if not isinstance(error, BrokenPipeError):
            print(f"ivpoly: error: cannot write the output: {error}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        sys.unraisablehook = hook
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
