"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integers and reduced fractions); the only
tolerances are the per-criterion wall-clock budgets. Run with ``pytest -s``
to see the one-line summaries.
"""

import random
import time
from fractions import Fraction

import ivpoly.cli as cli
import ivpoly.verify as verify
from ivpoly import (
    BinomialPoly,
    basis,
    f_table,
    lcm_range,
    minimal_multiplier_oracle,
)
from golden import GOLDEN_C, GOLDEN_LAMBDA, GOLDEN_Q


def _conclude(number, label, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({label}): {status} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({label}) failed: {detail}"
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def _cli_rows(capsys, *argv):
    start = time.perf_counter()
    code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    rows = []
    for line in out.splitlines()[1:]:  # skip csv header
        cells = line.split(",")
        rows.append([int(c) for c in cells[1:] if c != ""])
    return rows, elapsed


def test_criterion_01_golden_c_table(capsys):
    rows, elapsed = _cli_rows(capsys, "table", "c", "--max-n", "10", "--format", "csv")
    ok = rows == GOLDEN_C
    _conclude(1, "golden c-table", ok, elapsed, 1.0, f"rows={rows}")


def test_criterion_02_golden_q_table(capsys):
    rows, elapsed = _cli_rows(capsys, "table", "q", "--max-n", "10", "--format", "csv")
    ok = rows == GOLDEN_Q
    _conclude(2, "golden q-table", ok, elapsed, 1.0, f"rows={rows}")


def test_criterion_03_lambda_sequence(capsys):
    start = time.perf_counter()
    code = cli.main(["seq", "lambda", "--max-n", "10"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    ok = code == 0 and out.splitlines() == [str(v) for v in GOLDEN_LAMBDA]
    _conclude(3, "lambda sequence", ok, elapsed, 1.0, out)


def test_criterion_04_first_derivative_oracle():
    start = time.perf_counter()
    ok = all(
        minimal_multiplier_oracle(n, 1) == lcm_range(n) for n in range(1, 13)
    )
    _conclude(4, "first-derivative oracle", ok, time.perf_counter() - start, 5.0)


def test_criterion_05_oracle_equivalence_and_divisibility():
    start = time.perf_counter()
    report = verify.check_theorem2(oracle_max_n=12, divisibility_max_n=20)
    _conclude(
        5, "c-table oracle equivalence", report.passed,
        time.perf_counter() - start, 30.0, str(report.counterexample),
    )


def test_criterion_06_q_divides_scaled_c_with_witnesses():
    start = time.perf_counter()
    report = verify.check_theorem3(divisibility_max_n=20, witness_max_n=10)
    _conclude(
        6, "q | k!*c with witnesses", report.passed,
        time.perf_counter() - start, 10.0, str(report.counterexample),
    )


def test_criterion_07_lambda_routes():
    start = time.perf_counter()
    report = verify.check_theorem4(routes_max_n=30, oracle_max_n=12)
    _conclude(
        7, "three lambda routes", report.passed,
        time.perf_counter() - start, 30.0, str(report.counterexample),
    )


def test_criterion_08_slope_identity_and_lower_bound():
    start = time.perf_counter()
    lemma = verify.check_lemma1(16)
    corollary = verify.check_corollary1(64)
    ok = lemma.passed and corollary.passed
    _conclude(
        8, "slope identity and 2^(n-1) bound", ok, time.perf_counter() - start, 2.0,
        f"{lemma.counterexample} {corollary.counterexample}",
    )


def test_criterion_09_key_valuations():
    start = time.perf_counter()
    report = verify.check_lemma3(30)
    _conclude(
        9, "valuation of F(kp, k)", report.passed,
        time.perf_counter() - start, 2.0, str(report.counterexample),
    )


def test_criterion_10_f_route_cross_check():
    start = time.perf_counter()
    report = verify.cross_check_f(14)
    _conclude(
        10, "six F routes agree", report.passed,
        time.perf_counter() - start, 20.0, str(report.counterexample),
    )


def test_criterion_11_q_recurrence_cross_check():
    start = time.perf_counter()
    report = verify.check_proposition2(14)
    _conclude(
        11, "q recurrence vs enumeration", report.passed,
        time.perf_counter() - start, 20.0, str(report.counterexample),
    )


def test_criterion_12_property_suite():
    start = time.perf_counter()
    table = f_table(12)
    ok = True
    detail = ""

    # difference operator agrees with evaluation
    for m in range(13):
        p = basis(m)
        diff = p.forward_difference(1)
        for x in range(-10, 11):
            if diff.eval_int(x) != p.eval_int(x + 1) - p.eval_int(x):
                ok, detail = False, f"difference mismatch at m={m}, x={x}"

    # repeated differences of the basis hit the Kronecker delta
    for i in range(13):
        for j in range(13):
            if basis(j).forward_difference(i).eval_int(0) != (1 if i == j else 0):
                ok, detail = False, f"delta mismatch at i={i}, j={j}"

    # randomized: basis round trips and the integer-valuedness criterion,
    # >= 500 cases with a fixed seed
    rng = random.Random(20260808)
    branches = {True: 0, False: 0}
    for _ in range(520):
        degree = rng.randrange(0, 9)
        if rng.random() < 0.5:
            coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
        else:
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(degree + 1)
            ]
        p = BinomialPoly(coeffs)
        if p.to_monomial().to_binomial() != p:
            ok, detail = False, f"round trip failed for {p!r}"
        deg = p.degree
        by_values = deg is None or all(
            p.eval_int(x).denominator == 1 for x in range(deg + 1)
        )
        verdict = p.is_integer_valued()
        if verdict != by_values:
            ok, detail = False, f"integer-valuedness mismatch for {p!r}"
        branches[verdict] += 1
    if not (branches[True] and branches[False]):
        ok, detail = False, "randomized cases did not cover both verdicts"

    _conclude(12, "property suite", ok, time.perf_counter() - start, 10.0, detail)
