"""Independent checks of every op's output, standard library only.

Nothing here imports ivpoly. The reference tables come from other routes
than the package's own: F, d and c from the unsigned Stirling recurrence
(F(n, k) = k! |s(n, k)| / n!), lambda and lcm(1..n) from a sieve. q has no
cheap second route, so q output is checked against identities that pin it
down: its first columns, its row lcm, and c(n, k) | q(n, k) | k! c(n, k).
"""

from __future__ import annotations

import json
import math
import re

from workloads import CHECK_NAMES, Op

# Published rows n = 0..10 of c and q, and lambda(0..10).
PUBLISHED_C = [
    [1],
    [1, 1],
    [1, 2, 1],
    [1, 6, 1, 1],
    [1, 12, 12, 2, 1],
    [1, 60, 12, 4, 1, 1],
    [1, 60, 180, 8, 6, 2, 1],
    [1, 420, 180, 120, 6, 6, 1, 1],
    [1, 840, 5040, 240, 240, 6, 4, 2, 1],
    [1, 2520, 5040, 15120, 240, 144, 4, 12, 1, 1],
    [1, 2520, 25200, 30240, 15120, 288, 240, 24, 3, 2, 1],
]
PUBLISHED_Q = [
    [1],
    [1, 1],
    [1, 2, 1],
    [1, 6, 2, 1],
    [1, 12, 12, 2, 1],
    [1, 60, 12, 12, 2, 1],
    [1, 60, 360, 24, 12, 2, 1],
    [1, 420, 360, 360, 24, 12, 2, 1],
    [1, 840, 5040, 720, 720, 24, 12, 2, 1],
    [1, 2520, 5040, 15120, 720, 720, 24, 12, 2, 1],
    [1, 2520, 25200, 30240, 30240, 1440, 720, 24, 12, 2, 1],
]
PUBLISHED_LAMBDA = [1, 1, 2, 6, 12, 60, 360, 2520, 5040, 15120, 151200]

CAP_MESSAGE = "ivpoly: error: minimal multiplier oracle: n = 15 exceeds the enumeration cap 14\n"
_VERIFY_LINE = re.compile(r"([a-z0-9]+): pass \[([^\]]+)\]")


class CheckFailed(Exception):
    """An op's output is wrong; the message says where."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Reference:
    """Reference tables and sequences, grown on demand and reused across ops."""

    def __init__(self):
        self.fact = [1]
        self.stirling = [[1]]  # unsigned |s(n, k)|
        self.f_cells = [["1/1"]]
        self.d = [[1]]
        self.c = [[1]]
        self.lcm = [1, 1]  # lcm(1..n)
        self.lam = [1, 1]  # prod over primes p <= n of p**(n // p)
        self.primes: list[int] = []
        self.factored = ["1", "1"]

    def tables(self, max_n: int) -> None:
        while len(self.stirling) <= max_n:
            n = len(self.stirling) - 1
            prev = self.stirling[-1]
            row = [(prev[k - 1] if k else 0) + n * (prev[k] if k <= n else 0) for k in range(n + 2)]
            self.stirling.append(row)
            m = n + 1
            self.fact.append(self.fact[-1] * m)
            cells, dens = [], []
            for k, s in enumerate(row):
                num, den = self.fact[k] * s, self.fact[m]
                g = math.gcd(num, den)
                cells.append(f"{num // g}/{den // g}")
                dens.append(den // g)
            self.f_cells.append(cells)
            self.d.append(dens)
            above = self.c[-1]
            self.c.append([math.lcm(above[k], dens[k]) for k in range(m)] + [dens[m]])

    def sequences(self, max_n: int) -> None:
        if max_n < len(self.lam):
            return
        spf = list(range(max_n + 1))
        for p in range(2, math.isqrt(max_n) + 1):
            if spf[p] == p:
                for multiple in range(p * p, max_n + 1, p):
                    if spf[multiple] == multiple:
                        spf[multiple] = p
        for n in range(len(self.lam), max_n + 1):
            p, rest, radical = spf[n], n, 1
            if p == n:
                self.primes.append(n)
            while rest > 1:
                q = spf[rest]
                radical *= q
                while rest % q == 0:
                    rest //= q
            power = n
            while power % p == 0:
                power //= p
            self.lcm.append(self.lcm[-1] * (p if power == 1 else 1))
            self.lam.append(self.lam[-1] * radical)
            self.factored.append(
                " * ".join(f"{q}^{n // q}" if n // q > 1 else str(q) for q in self.primes)
            )


def _lines(text: str) -> list[str]:
    _require(text.endswith("\n"), "output does not end with a newline")
    return text[:-1].split("\n")


def parse_table(text: str, kind: str, max_n: int, fmt: str) -> list[list[str]]:
    """Cells of rows 0..max_n, after checking every byte of the layout."""
    header = ["n"] + [f"k{k}" for k in range(max_n + 1)]
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckFailed(f"json output does not parse: {error}") from None
        _require(
            isinstance(doc, dict) and list(doc) == ["kind", "max_n", "rows"],
            "json output lacks exactly the keys kind, max_n, rows",
        )
        _require(doc["kind"] == kind and doc["max_n"] == max_n, "json kind or max_n is wrong")
        rows = doc["rows"]
        _require(isinstance(rows, list) and len(rows) == max_n + 1, "json has the wrong row count")
        for n, row in enumerate(rows):
            _require(
                isinstance(row, list) and len(row) == n + 1 and all(isinstance(c, str) for c in row),
                f"json row {n} is not {n + 1} strings",
            )
        _require(text == json.dumps(doc) + "\n", "json output is not in canonical form")
        return rows
    lines = _lines(text)
    if fmt == "csv":
        split, body = (lambda line: line.split(",")), lines[1:]
        _require(lines[0] == ",".join(header), "csv header is wrong")
    else:
        def split(line: str) -> list[str]:
            _require(line.startswith("| ") and line.endswith(" |"), f"md row {line[:40]!r} is not framed")
            return line[2:-2].split(" | ")

        body = lines[2:]
        _require(split(lines[0]) == header, "md header is wrong")
        _require(lines[1] == "|" + "---|" * len(header), "md separator is wrong")
    _require(len(body) == max_n + 1, f"{len(body)} rows, expected {max_n + 1}")
    rows = []
    for n, line in enumerate(body):
        cells = split(line)
        _require(len(cells) == max_n + 2 and cells[0] == str(n), f"row {n} has the wrong shape")
        _require(all(cells[1 : n + 2]) and not any(cells[n + 2 :]), f"row {n} is padded wrongly")
        rows.append(cells[1 : n + 2])
    return rows


def _ints(rows: list[list[str]]) -> list[list[int]]:
    try:
        return [[int(cell) for cell in row] for row in rows]
    except ValueError as error:
        raise CheckFailed(f"non-integer entry: {error}") from None


def _check_published(values: list[list[int]], published: list[list[int]], what: str) -> None:
    for n, row in enumerate(published[: len(values)]):
        _require(values[n] == row, f"{what} row {n} differs from the published row")


def check_table(rows: list[list[str]], kind: str, ref: Reference) -> None:
    max_n = len(rows) - 1
    ref.tables(max_n)
    ref.sequences(max_n)
    fact = ref.fact
    if kind == "F":
        for n, row in enumerate(rows):
            _require(row == ref.f_cells[n], f"F row {n} differs from k!|s(n,k)|/n!")
            total = 0
            for k, cell in enumerate(row):
                num, den = (int(part) for part in cell.split("/"))
                _require(fact[n] % (den * fact[k]) == 0, f"F({n},{k}) has an impossible denominator")
                total += num * (fact[n] // (den * fact[k]))
            _require(total == fact[n], f"sum over k of F({n},k)/k! is not 1")
    elif kind == "stirling":
        values = _ints(rows)
        for n, row in enumerate(values):
            want = [(-1) ** (n - k) * s for k, s in enumerate(ref.stirling[n])]
            _require(row == want, f"Stirling row {n} differs from the recurrence")
            _require(sum(abs(s) for s in row) == fact[n], f"sum over k of |s({n},k)| is not {n}!")
    elif kind == "d":
        _require(_ints(rows) == ref.d[: max_n + 1], "d differs from the denominators of k!|s(n,k)|/n!")
    elif kind == "c":
        c = _ints(rows)
        _check_published(c, PUBLISHED_C, "c")
        for n, row in enumerate(c):
            for k in range(n + 1):
                above = c[n - 1][k] if k < n else 1
                _require(row[k] == math.lcm(above, ref.d[n][k]), f"c({n},{k}) is not the prefix lcm of d")
            _require(n < 1 or row[1] == ref.lcm[n], f"c({n},1) != lcm(1..{n})")
            _require(math.lcm(*row) == ref.lam[n], f"lcm of c row {n} != lambda({n})")
    elif kind == "q":
        q = _ints(rows)
        _check_published(q, PUBLISHED_Q, "q")
        for n, row in enumerate(q):
            _require(row[0] == 1 and row[n] == 1, f"q({n},0) or q({n},{n}) is not 1")
            _require(n < 1 or row[1] == ref.lcm[n], f"q({n},1) != lcm(1..{n})")
            _require(math.lcm(*row) == ref.lam[n], f"lcm of q row {n} != lambda({n})")
            for k, value in enumerate(row):
                c = ref.c[n][k]
                _require(value % c == 0 and (fact[k] * c) % value == 0, f"c | q | k!c fails at ({n},{k})")
    else:
        raise ValueError(f"unknown table kind {kind!r}")


def check_seq(text: str, argv: tuple[str, ...], ref: Reference) -> None:
    kind, max_n, fmt = argv[1], int(_option(argv, "--max-n")), _option(argv, "--format", "md")
    if fmt == "json":
        try:
            terms = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckFailed(f"json output does not parse: {error}") from None
        _require(text == json.dumps(terms) + "\n", "json output is not in canonical form")
    else:
        terms = _lines(text)
    _require(isinstance(terms, list) and len(terms) == max_n + 1, "wrong number of terms")
    ref.sequences(max_n)
    if kind == "cn":
        want = [str(v) for v in ref.lcm[: max_n + 1]]
    elif "--factored" in argv:
        want = ref.factored[: max_n + 1]
    else:
        want = [str(v) for v in ref.lam[: max_n + 1]]
    for n, (got, expected) in enumerate(zip(terms, want)):
        _require(got == expected, f"term {n} differs from the sieve")
    if kind == "lambda" and "--factored" not in argv:
        published = [str(v) for v in PUBLISHED_LAMBDA[: max_n + 1]]
        _require(terms[: len(published)] == published, "lambda differs from the published values")


def check_verify(out: str, err: str, argv: tuple[str, ...], expect_rc: int) -> None:
    if expect_rc == 3:
        _require(out == "", "a capped run printed reports")
        _require(err == CAP_MESSAGE, f"capped run printed {err!r}")
        return
    _require(err == "", f"stderr is not empty: {err[:200]!r}")
    scope = argv[1]
    names = list(CHECK_NAMES) if scope == "all" else [scope]
    lines = _lines(out)
    _require(len(lines) == len(names), f"{len(lines)} report lines, expected {len(names)}")
    max_n = _option(argv, "--max-n")
    for name, line in zip(names, lines):
        match = _VERIFY_LINE.fullmatch(line)
        _require(match is not None, f"report line {line!r} does not read pass")
        _require(match.group(1) == name, f"report for {match.group(1)}, expected {name}")
        _require(max_n is None or max_n in match.group(2), f"report range {match.group(2)!r} ignores --max-n")


def _option(argv: tuple[str, ...], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_op(op: Op, rc: int, out: bytes, err: bytes, ref: Reference) -> None:
    """Raise CheckFailed unless ``op`` ended as expected with correct output."""
    _require(rc == op.expect_rc, f"exit code {rc}, expected {op.expect_rc}")
    try:
        text, err_text = out.decode(), err.decode()
    except UnicodeDecodeError as error:
        raise CheckFailed(f"output is not utf-8: {error}") from None
    command = op.argv[0]
    if command == "verify":
        check_verify(text, err_text, op.argv, op.expect_rc)
        return
    _require(err_text == "", f"stderr is not empty: {err_text[:200]!r}")
    if command == "seq":
        check_seq(text, op.argv, ref)
    elif command == "table":
        kind = op.argv[1]
        rows = parse_table(text, kind, int(_option(op.argv, "--max-n")), _option(op.argv, "--format", "md"))
        check_table(rows, kind, ref)
    else:
        raise ValueError(f"no check for command {command!r}")
