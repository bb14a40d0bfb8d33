import ast
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ivpoly.cli as cli
from ivpoly import (
    c_table,
    d_table,
    f_recurrence,
    f_table,
    lambda_product,
    lcm_list,
    lcm_range,
    primes_up_to,
    q_table,
    stirling_first,
)
from ivpoly.exact_arith import prime_divisors
from ivpoly.rows import c_rows, d_rows
from ivpoly.verify import CHECK_NAMES, CheckReport, Counterexample
from golden import GOLDEN_C, GOLDEN_LAMBDA, GOLDEN_Q, running_products_every_step


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _expected_table(kind, rows, max_n, fmt):
    """The whole output of `table` for these rows, rendered in one piece."""
    cells = [
        [f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else str(v) for v in row]
        for row in rows
    ]
    if fmt == "json":
        return json.dumps({"kind": kind, "max_n": max_n, "rows": cells}) + "\n"
    header = ["n"] + [f"k{k}" for k in range(max_n + 1)]
    padded = [[str(n)] + row + [""] * (max_n - n) for n, row in enumerate(cells)]
    if fmt == "csv":
        lines = [",".join(line) for line in [header] + padded]
    else:
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(line) + " |" for line in padded]
    return "\n".join(lines) + "\n"


# F, d and c come from the F recurrence, so the CLI's Stirling-quotient rows
# are compared with an independent route rather than with themselves.
TRIANGLES = {
    "c": lambda max_n: c_table(d_table(f_recurrence(max_n))),
    "q": q_table,
    "d": lambda max_n: d_table(f_recurrence(max_n)),
    "F": f_recurrence,
    "stirling": stirling_first,
}


def test_table_c_csv_matches_golden(capsys):
    code, out = run_cli(capsys, "table", "c", "--max-n", "10", "--format", "csv")
    assert code == 0
    assert out == _expected_table("c", GOLDEN_C, 10, "csv")


def test_table_q_csv_matches_golden(capsys):
    code, out = run_cli(capsys, "table", "q", "--max-n", "10", "--format", "csv")
    assert code == 0
    assert out == _expected_table("q", GOLDEN_Q, 10, "csv")


@pytest.mark.parametrize("max_n", [0, 1, 10, 60, 150])
@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("kind", cli.TABLE_KINDS)
def test_table_matches_the_reference_renderer(kind, fmt, max_n, capsys):
    # The streamed rows against the whole triangle, formatted independently.
    code, out = run_cli(capsys, "table", kind, "--max-n", str(max_n), "--format", fmt)
    assert code == 0
    assert out == _expected_table(kind, TRIANGLES[kind](max_n).rows, max_n, fmt)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_table_memory_does_not_grow_with_the_output():
    # Building the whole table and its text before writing took 200 MB for
    # stirling and 142 MB for q at n = 500; written row by row, each run stays
    # under 20 MB. Linux counts the forking process's high-water mark into the
    # child's ru_maxrss, so a small wrapper starts the runs and reports the
    # largest of them.
    wrapper = (
        "import resource, subprocess, sys\n"
        "for kind in sys.argv[1:]:\n"
        "    argv = ['-m', 'ivpoly', 'table', kind, '--max-n', '500', '--format', 'csv']\n"
        "    subprocess.run([sys.executable, *argv], stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "stirling", "q"], capture_output=True, check=True
    )
    assert int(proc.stdout) < 60 * 1024


def test_table_q_in_near_quadratic_time():
    # The lcm recurrence took about 20 s for this op on a 2-core machine; the
    # valuation closed form takes well under 1 s.
    argv = [sys.executable, "-m", "ivpoly", "table", "q", "--max-n", "400", "--format", "csv"]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, check=True)
    assert time.perf_counter() - start < 5.0
    label, *cells = proc.stdout.decode().splitlines()[-1].split(",")
    assert label == "400"
    assert lcm_list(map(int, cells)) == lambda_product(400).value()


def test_table_default_format_is_markdown(capsys):
    code, out = run_cli(capsys, "table", "q", "--max-n", "0")
    assert code == 0
    assert out == "| n | k0 |\n|---|---|\n| 0 | 1 |\n"


def test_table_markdown_blank_above_diagonal(capsys):
    _, out = run_cli(capsys, "table", "c", "--max-n", "2")
    lines = out.splitlines()
    assert lines[0] == "| n | k0 | k1 | k2 |"
    assert lines[2] == "| 0 | 1 |  |  |"
    assert lines[4] == "| 2 | 1 | 2 | 1 |"


def test_table_f_json(capsys):
    code, out = run_cli(capsys, "table", "F", "--max-n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "F"
    assert payload["max_n"] == 4
    assert payload["rows"][4][2] == "11/12"
    # round trip: the serialized strings rebuild the exact table
    rebuilt = [[Fraction(entry) for entry in row] for row in payload["rows"]]
    assert rebuilt == [list(row) for row in f_table(4).rows]


@pytest.mark.parametrize("max_n", ["0", "40"])
@pytest.mark.parametrize(
    "argv",
    [["table", kind] for kind in cli.TABLE_KINDS]
    + [["seq", "cn"], ["seq", "lambda"], ["seq", "lambda", "--factored"]],
    ids=lambda argv: "-".join(word.lstrip("-") for word in argv),
)
def test_json_output_round_trips_to_same_output(argv, max_n, capsys):
    # cli quotes the cells itself; json.dumps must write the same bytes.
    _, out = run_cli(capsys, *argv, "--max-n", max_n, "--format", "json")
    assert json.dumps(json.loads(out)) + "\n" == out


def test_table_d_and_stirling_kinds(capsys):
    _, out = run_cli(capsys, "table", "d", "--max-n", "4", "--format", "csv")
    assert out.splitlines()[5] == "4,1,4,12,2,1"
    _, out = run_cli(capsys, "table", "stirling", "--max-n", "4", "--format", "csv")
    assert out.splitlines()[5] == "4,0,-6,11,-6,1"


@functools.cache
def _fraction_route_to_200():
    # The F recurrence reads no Stirling row, so the oracle shares no walk
    # with `table F|d|c` (f_table reads the same quotient_rows as they do).
    f = f_recurrence(200)
    d = d_table(f)
    return f, d, c_table(d)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 200))
@example(0)
@example(1)
@example(2)
@example(200)
def test_integer_rows_match_the_fraction_route(n):
    # `table F|d|c` read ints off the Stirling rows; the Fraction route that
    # verify reads is their oracle, whole rows from k = 0 to k = n. Rows do
    # not depend on max_n, so the oracle is built once, up to 200.
    f, d, c = _fraction_route_to_200()
    assert list(c_rows(n)) == [list(row) for row in c.rows[: n + 1]]
    assert list(d_rows(n)) == [list(row) for row in d.rows[: n + 1]]
    texts = [[f"{v.numerator}/{v.denominator}" for v in row] for row in f.rows[: n + 1]]
    assert list(cli._table_rows("F", n)) == texts


def test_seq_lambda_matches_golden(capsys):
    code, out = run_cli(capsys, "seq", "lambda", "--max-n", "10")
    assert code == 0
    assert out.splitlines() == [str(v) for v in GOLDEN_LAMBDA]


def test_seq_lambda_factored(capsys):
    _, out = run_cli(capsys, "seq", "lambda", "--max-n", "10", "--factored")
    lines = out.splitlines()
    assert lines[0] == "1"
    assert lines[4] == "2^2 * 3"
    assert lines[-1] == "2^5 * 3^3 * 5^2 * 7"


def test_seq_lambda_json(capsys):
    _, out = run_cli(capsys, "seq", "lambda", "--max-n", "10", "--format", "json")
    assert json.loads(out) == [str(v) for v in GOLDEN_LAMBDA]


def test_seq_lambda_past_the_int_str_digit_limit(capsys):
    # lambda(1725) has 4302 digits, over Python's default int -> str limit;
    # Decimal parses and compares it without that limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run_cli(capsys, "seq", "lambda", "--max-n", "1725")
    assert code == 0
    last = out.splitlines()[-1]
    assert len(last) == 4302
    assert Decimal(last) == lambda_product(1725).value()
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_seq_cn(capsys):
    _, out = run_cli(capsys, "seq", "cn", "--max-n", "6")
    assert out.splitlines() == ["1", "1", "2", "6", "12", "60", "60"]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=600))
def test_seq_terms_match_the_closed_forms(max_n):
    # The streamed sequences against the per-n oracles, term by term.
    def lines(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["seq", *argv, "--max-n", str(max_n)]) == 0
        return out.getvalue().splitlines()

    assert [int(line) for line in lines("cn")] == [lcm_range(n) for n in range(max_n + 1)]
    expected = [lambda_product(n) for n in range(max_n + 1)]
    assert [int(line) for line in lines("lambda")] == [pf.value() for pf in expected]
    assert lines("lambda", "--factored") == [str(pf) for pf in expected]


def test_seq_lambda_factored_is_the_closed_form_at_the_benchmark_top(capsys):
    # Every streamed term against lambda_product up to 2500, the largest size
    # the `seq` workload of bench/ runs, and each format holds the same terms.
    expected = [str(lambda_product(n)) for n in range(2501)]
    outputs = {}
    for fmt in cli.FORMATS:
        code, outputs[fmt] = run_cli(
            capsys, "seq", "lambda", "--factored", "--max-n", "2500", "--format", fmt
        )
        assert code == 0
    assert outputs["md"].splitlines() == outputs["csv"].splitlines() == expected
    assert json.loads(outputs["json"]) == expected


def test_factored_terms_pass_each_prime_through_the_gate_once(monkeypatch):
    calls = []

    def gate(p):
        calls.append(p)
        return p != 7

    monkeypatch.setattr(cli, "_verified_prime", gate)
    with pytest.raises(ValueError, match="^expected a prime, got 7$"):
        list(cli._factored_terms(prime_divisors(1000)))
    assert calls == [2, 3, 5, 7]

    calls.clear()
    monkeypatch.setattr(cli, "_verified_prime", lambda p: calls.append(p) or True)
    terms = list(cli._factored_terms(prime_divisors(1000)))
    assert terms[-1] == str(lambda_product(1000))
    assert calls == primes_up_to(1000)  # pi(1000) = 168 calls for 1001 terms


@pytest.mark.parametrize(
    "kind, max_n, budget_s, oracle",
    [
        ("cn", 20000, 10.0, lcm_range),
        ("lambda", 4000, 3.0, lambda n: lambda_product(n).value()),
        ("lambda --factored", 6000, 1.0, lambda n: str(lambda_product(n))),
    ],
)
def test_seq_runs_in_linear_time(kind, max_n, budget_s, oracle):
    # Recomputing each term from scratch takes over a minute for cn at 20000
    # and about 7 s for lambda at 4000, and one PrimeFactorization per term
    # about 2 s for the factored lambda at 6000; the streamed routes take well
    # under 1 s. The output (about 87 MB for cn at 20000) is read in chunks and
    # only its tail is kept.
    argv = [sys.executable, "-m", "ivpoly", "seq", *kind.split(), "--max-n", str(max_n)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE) as proc:
        tail = b""
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            tail = (tail + chunk)[-65536:]
    assert proc.returncode == 0
    assert time.perf_counter() - start < budget_s
    last, expected = tail.splitlines()[-1].decode(), oracle(max_n)
    # A factored term compares as text, a decimal one as a number.
    assert (last if isinstance(expected, str) else Decimal(last)) == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(st.lists(st.just(1), max_size=40), st.lists(st.integers(1, 10**6), max_size=3)),
        max_size=8,
    ).map(lambda runs: [step for run in runs for step in run])
)
def test_running_products_match_the_every_step_generator(steps):
    # Step lists with long runs of 1, where the repeated text is reused.
    assert list(cli._running_products(steps)) == list(running_products_every_step(steps))


def test_seq_cn_at_100000_runs_in_seconds():
    # Remaking the text of every term took 5.4 s; lcm(1..n) steps only at
    # the 9,700 prime powers up to 100000, and each other term repeats a text.
    argv = [sys.executable, "-m", "ivpoly", "seq", "cn", "--max-n", "100000"]
    start = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    assert time.perf_counter() - start < 2.5
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_proposition1_at_twenty_runs_in_seconds():
    # One Fraction per composition and per subset took over 10 s at 20; the
    # integer partition and subset sums take about 0.5 s.
    argv = [sys.executable, "-m", "ivpoly", "verify", "proposition1", "--max-n", "20"]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"proposition1: pass [0 <= k <= n <= 20]\n"
    assert elapsed < 3.0


@pytest.mark.parametrize(
    "args", [["seq", "cn", "--max-n", "3000"], ["table", "F", "--max-n", "150"]]
)
def test_closed_output_exits_one_quietly(args):
    # Like `ivpoly seq cn --max-n 3000 | head -1`: the reader leaves early.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ivpoly", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args", [["table", "c", "--max-n", "10"], ["seq", "cn"], ["verify", "lemma2"]]
)
def test_unwritable_output_exits_one_with_one_line(args):
    # Every write to /dev/full fails with ENOSPC: one error line, no traceback.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ivpoly", *args], stdout=full, stderr=subprocess.PIPE
        )
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    [line] = proc.stderr.decode().splitlines()
    assert line.startswith("ivpoly: error: cannot write the output: ")


def _first_line_and_peak_rss(*argv):
    """(first stdout line, exit code, stderr, peak RSS in KiB) of one
    `python -m ivpoly` run whose stdout is closed after its first line.

    Linux counts the forking process's high-water mark into the child's
    ru_maxrss, so a small wrapper starts the run and reads that child's own
    usage with os.wait4 (RUSAGE_CHILDREN keeps the largest earlier child).
    """
    wrapper = (
        "import os, subprocess, sys\n"
        "argv = [sys.executable, '-m', 'ivpoly', *sys.argv[1:]]\n"
        "proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)\n"
        "line = proc.stdout.readline()\n"
        "proc.stdout.close()\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "proc.returncode = os.waitstatus_to_exitcode(status)\n"
        "print(repr((line, proc.returncode, proc.stderr.read(), usage.ru_maxrss)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", wrapper, *argv], capture_output=True, check=True)
    return ast.literal_eval(proc.stdout.decode())


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
@pytest.mark.parametrize(
    "args, budget_mb",
    [
        ("lambda --factored --max-n 300000", 24),
        ("lambda --max-n 300000", 24),
        ("cn --max-n 3000000", 24),
        ("cn --max-n 100000000", 24),
    ],
)
def test_seq_memory_before_the_first_line(args, budget_mb):
    # Like `ivpoly seq ... | head -1`. The walk holds only the primes up to
    # isqrt(N), so the first line costs the same few MB at any N (a table of
    # N entries took 400 MB at 10**8).
    line, code, err, maxrss_kib = _first_line_and_peak_rss("seq", *args.split())
    assert (line, code, err) == (b"1\n", 1, b"")
    assert maxrss_kib < budget_mb * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_verify_lemma3_memory_does_not_grow_with_the_triangle():
    # lemma3 reads one Stirling row at a time; the whole F triangle took 39 MB at 400.
    line, code, err, maxrss_kib = _first_line_and_peak_rss("verify", "lemma3", "--max-n", "400")
    assert (line, code, err) == (b"lemma3: pass [k*p <= 400, p in (2, 3, 5)]\n", 0, b"")
    assert maxrss_kib < 24 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_out_of_memory_exits_one_with_one_line():
    # table q at 10**8 sieves the primes up to 10**8 (a 100 MB flag array and
    # a list of 5.8 million primes), which outgrows a 256 MB address space;
    # the limit holds in the child only. Its rows, if any, go to /dev/null.
    import resource

    limit = 256 * 1024 * 1024
    proc = subprocess.run(
        [sys.executable, "-m", "ivpoly", "table", "q", "--max-n", "100000000"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=60,
    )
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.decode().splitlines() == ["ivpoly: error: out of memory"]


def test_out_of_memory_in_a_generator_close_stays_one_line(capsys, monkeypatch):
    # Out of memory, a suspended generator can fail in its own close, which
    # Python reports through sys.unraisablehook; its default prints a block.
    def handler(args, parser):
        def rows():
            try:
                yield []
            finally:
                raise MemoryError

        suspended = rows()
        next(suspended)
        del suspended
        raise MemoryError

    monkeypatch.setattr(sys, "unraisablehook", sys.__unraisablehook__)
    monkeypatch.setattr(cli, "cmd_seq", handler)
    assert cli.main(["seq", "cn"]) == 1
    assert capsys.readouterr().err == "ivpoly: error: out of memory\n"
    assert sys.unraisablehook is sys.__unraisablehook__


def _imported_modules(*args):
    """The modules a fresh interpreter reports under -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, check=True
    )
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.decode().splitlines()
        if line.startswith("import time:")
    }


def test_table_and_seq_import_only_what_they_run():
    # What the interpreter's own start-up loads (site, say) is not ours.
    startup = _imported_modules("-c", "pass")
    unused = {
        "ivpoly.verify", "ivpoly.binomial_poly", "ivpoly.stirling", "ivpoly.triangles",
        "dataclasses", "inspect", "json", "fractions", "array",
    }
    for args, also_unused in (
        (["table", "q", "--max-n", "5", "--format", "csv"], {"decimal"}),
        (["seq", "cn", "--max-n", "5"], {"ivpoly.constants"}),
    ):
        loaded = _imported_modules("-m", "ivpoly", *args)
        assert "ivpoly.exact_arith" in loaded
        assert loaded - startup & (unused | also_unused) == set(), args
    # Every table kind reads its rows from ``rows`` alone: no Fraction, no
    # triangle, no oracle module, and JSON cells quoted without json.
    for kind in ("F", "d", "c", "q", "stirling"):
        args = ["table", kind, "--max-n", "5", "--format", "json"]
        loaded = _imported_modules("-m", "ivpoly", *args)
        assert "ivpoly.rows" in loaded
        assert loaded - startup & {
            "ivpoly.stirling", "ivpoly.constants", "ivpoly.triangles",
            "fractions", "decimal", "numbers", "json",
        } == set(), args
    assert "json" not in _imported_modules("-m", "ivpoly", "seq", "cn", "--format", "json")
    verify = subprocess.run(
        [sys.executable, "-m", "ivpoly", "verify", "lemma1", "--max-n", "5"],
        capture_output=True, check=True,
    )
    assert verify.stdout == b"lemma1: pass [1 <= n <= 5]\n"
    # run_check reads a check's ranges from its code, not through inspect.
    loaded = _imported_modules("-m", "ivpoly", "verify", "lemma2", "--max-n", "5")
    assert "ivpoly.verify" in loaded
    assert loaded - startup & {"inspect"} == set()


def test_verify_and_the_polynomial_layer_import_no_triangle():
    # Only proposition1 and theorem2-4 hold an F triangle; lemma1 streams F
    # rows, and BinomialPoly.derivative reads a column, not a triangle.
    for check in ("lemma1", "lemma2", "lemma3", "corollary1", "theorem1"):
        loaded = _imported_modules("-m", "ivpoly", "verify", check, "--max-n", "5")
        assert "ivpoly.verify" in loaded
        assert "ivpoly.triangles" not in loaded, check
    loaded = _imported_modules("-c", "import ivpoly.binomial_poly")
    ours = {name for name in loaded if name.partition(".")[0] == "ivpoly"}
    assert ours == {"ivpoly", "ivpoly.binomial_poly"}


def test_the_integer_rows_import_only_exact_arith():
    loaded = _imported_modules("-c", "import ivpoly.rows")
    ours = {name for name in loaded if name.partition(".")[0] == "ivpoly"}
    assert ours == {"ivpoly", "ivpoly.exact_arith", "ivpoly.rows"}
    assert "fractions" not in loaded


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "table", "c", "--max-n", "10", "--format", "csv")
    _, second = run_cli(capsys, "table", "c", "--max-n", "10", "--format", "csv")
    assert first == second


def test_module_invocation_byte_identical():
    argv = [sys.executable, "-m", "ivpoly", "table", "c", "--max-n", "8", "--format", "csv"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert b"\r" not in first.stdout
    assert first.stdout.endswith(b"\n")


def test_verify_named_check(capsys):
    code, out = run_cli(capsys, "verify", "lemma3", "--max-n", "30")
    assert code == 0
    assert out.startswith("lemma3: pass")


def test_verify_all_small_ranges(capsys):
    code, out = run_cli(capsys, "verify", "all", "--max-n", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert all(": pass" in line for line in lines)


def test_verify_failure_exits_one(capsys, monkeypatch):
    broken = CheckReport("theorem1", "1 <= n <= 2", False, Counterexample("n=2", "1", "2"))
    monkeypatch.setattr("ivpoly.verify.run_all", lambda max_n, enum_cap: [broken])
    code, out = run_cli(capsys, "verify", "all")
    assert code == 1
    assert "theorem1: FAIL" in out
    assert "n=2" in out


def test_verify_cap_exceeded_exits_three(capsys):
    code = cli.main(["verify", "proposition2", "--max-n", "20"])
    assert code == 3


# (check, --max-n, stderr message, IVPOLY_ENUM_CAP or None for the default caps)
CAPPED_CASES = [
    ("theorem1", 15, "minimal multiplier oracle: n = 15 exceeds the enumeration cap 14", None),
    ("theorem2", 15, "minimal multiplier oracle: n = 15 exceeds the enumeration cap 14", None),
    ("theorem3", 15, "theorem3 witness compositions: n = 15 exceeds the enumeration cap 14", None),
    ("theorem3", 20, "theorem3 witness compositions: n = 15 exceeds the enumeration cap 14", None),
    ("theorem4", 15, "minimal multiplier oracle: n = 15 exceeds the enumeration cap 14", None),
    ("proposition1", 23, "direct composition sum: n = 23 exceeds the enumeration cap 22", None),
    ("proposition2", 19, "composition product lcm: n = 19 exceeds the enumeration cap 18", None),
    ("theorem1", 6, "minimal multiplier oracle: n = 6 exceeds the enumeration cap 5", "5"),
    ("theorem2", 6, "minimal multiplier oracle: n = 6 exceeds the enumeration cap 5", "5"),
    ("theorem3", 6, "theorem3 witness compositions: n = 6 exceeds the enumeration cap 5", "5"),
    ("theorem4", 6, "minimal multiplier oracle: n = 6 exceeds the enumeration cap 5", "5"),
    ("proposition1", 6, "direct composition sum: n = 6 exceeds the enumeration cap 5", "5"),
    ("proposition2", 6, "composition product lcm: n = 6 exceeds the enumeration cap 5", "5"),
]


@pytest.mark.parametrize(
    "check, max_n, message, env_cap",
    # A None env_cap is left out of the id, which keeps the default-cap ids stable.
    [pytest.param(*case, id="-".join(str(v) for v in case if v is not None)) for case in CAPPED_CASES],
)
def test_capped_checks_exit_three_at_once(check, max_n, message, env_cap, capsys, monkeypatch):
    # One past each cap: the default ones, and the one IVPOLY_ENUM_CAP sets
    # for every route. proposition1 used to enumerate for about 48 s before
    # it reached its default cap.
    if env_cap is None:
        monkeypatch.delenv("IVPOLY_ENUM_CAP", raising=False)
    else:
        monkeypatch.setenv("IVPOLY_ENUM_CAP", env_cap)
    start = time.perf_counter()
    assert cli.main(["verify", check, "--max-n", str(max_n)]) == 3
    assert time.perf_counter() - start < 3.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ivpoly: error: {message}\n"


def test_theorem3_witness_cap_exits_three(capsys, monkeypatch):
    start = time.perf_counter()
    assert cli.main(["verify", "theorem3", "--max-n", "15"]) == 3
    assert time.perf_counter() - start < 5.0
    monkeypatch.setenv("IVPOLY_ENUM_CAP", "10")
    assert cli.main(["verify", "theorem3", "--max-n", "11"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("n = 11 exceeds the enumeration cap 10\n")


def test_env_cap_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("IVPOLY_ENUM_CAP", "5")
    assert cli.main(["verify", "proposition2", "--max-n", "6"]) == 3
    monkeypatch.setenv("IVPOLY_ENUM_CAP", "25")
    code, out = run_cli(capsys, "verify", "proposition2", "--max-n", "16")
    assert code == 0
    assert "proposition2: pass" in out


def test_uncapped_check_runs_under_the_smallest_cap(capsys, monkeypatch):
    # lemma2 takes no enum_cap, so the cap does not reach it.
    monkeypatch.delenv("IVPOLY_ENUM_CAP", raising=False)
    uncapped = run_cli(capsys, "verify", "lemma2", "--max-n", "50")
    monkeypatch.setenv("IVPOLY_ENUM_CAP", "1")
    assert run_cli(capsys, "verify", "lemma2", "--max-n", "50") == uncapped
    assert uncapped == (0, "lemma2: pass [1 <= a <= 50, p in (2, 3, 5, 7)]\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "x"],
        ["table", "c", "--format", "yaml"],
        ["table", "c", "--max-n", "-1"],
        ["seq", "cn", "--factored"],
        ["verify", "nosuch"],
        pytest.param(
            ["seq", "lambda", "--max-n", "9" * 5000],
            marks=pytest.mark.skipif(
                not hasattr(sys, "set_int_max_str_digits"),
                reason="this Python parses integers of any length",
            ),
        ),
        ["table", "c", "--max-n", "abc"],
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    # argparse names the option and the reason, never a private function.
    assert "_nonnegative" not in capsys.readouterr().err


def test_invalid_env_cap_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("IVPOLY_ENUM_CAP", "zero")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "all"])
    assert excinfo.value.code == 2


FUZZED_ARGV = st.one_of(
    st.builds(
        lambda kind, n, fmt: ["table", kind, "--max-n", str(n), "--format", fmt],
        st.sampled_from(cli.TABLE_KINDS + ("x",)),
        st.integers(min_value=-1, max_value=30),
        st.sampled_from(cli.FORMATS + ("yaml",)),
    ),
    st.builds(
        lambda kind, n, fmt, factored: ["seq", kind, "--max-n", str(n), "--format", fmt]
        + ["--factored"] * factored,
        st.sampled_from(cli.SEQ_KINDS),
        st.integers(min_value=-1, max_value=300),
        st.sampled_from(cli.FORMATS),
        st.booleans(),
    ),
    st.builds(
        lambda scope, n: ["verify", scope, "--max-n", str(n)],
        st.sampled_from(("all",) + CHECK_NAMES),
        st.integers(min_value=-1, max_value=8),
    ),
)
FUZZED_ENV_CAPS = (None, "", "0", "-2", "x", "3", " 7 ", "9" * 5000)


@settings(max_examples=150, deadline=None)
@given(FUZZED_ARGV, st.sampled_from(FUZZED_ENV_CAPS))
def test_fuzzed_argv_ends_in_a_documented_exit_code(argv, env_cap):
    # Any other exception escapes cli.main and fails the test. os.environ is
    # restored by hand, as hypothesis rejects function-scoped fixtures.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    saved = os.environ.pop("IVPOLY_ENUM_CAP", None)
    if env_cap is not None:
        os.environ["IVPOLY_ENUM_CAP"] = env_cap
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exit_:
                code = exit_.code
    finally:
        os.environ.pop("IVPOLY_ENUM_CAP", None)
        if saved is not None:
            os.environ["IVPOLY_ENUM_CAP"] = saved
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == digit_limit
