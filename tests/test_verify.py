import functools
import inspect
import math
import time
from fractions import Fraction

import pytest

import ivpoly.cli as cli
import ivpoly.verify as verify
from ivpoly import (
    BinomialPoly,
    EnumerationCapError,
    IntegerTriangle,
    RationalTriangle,
    basis,
    c_table,
    compositions,
    d_table,
    f_table,
    minimal_multiplier_oracle,
    q_table,
    run_all,
    run_check,
)
from ivpoly.exact_arith import vp_int
from ivpoly.rows import stirling_rows
from ivpoly.stirling import f_rows, part_multisets
from ivpoly.verify import CHECK_NAMES, CheckReport
from golden import lemma3_valuations_from_f

# The exact stdout of `ivpoly verify all` at the default ranges.
GOLDEN_VERIFY_ALL = """\
corollary1: pass [1 <= n <= 64]
lemma1: pass [1 <= n <= 16]
lemma2: pass [1 <= a <= 10000, p in (2, 3, 5, 7)]
lemma3: pass [k*p <= 30, p in (2, 3, 5)]
proposition1: pass [0 <= k <= n <= 14]
proposition2: pass [0 <= k <= n <= 14]
theorem1: pass [1 <= n <= 12]
theorem2: pass [oracle equality for n <= 12; divisibility for n <= 20]
theorem3: pass [divisibility for n <= 20; witness compositions with sum <= 10]
theorem4: pass [three routes for n <= 30; oracle lcm for n <= 12]
"""

def _with_entry(triangle, n, k, value):
    """Copy of a table with one entry replaced (fault-injection fixture)."""
    rows = [list(row) for row in triangle.rows]
    rows[n][k] = value
    if isinstance(triangle, IntegerTriangle):
        return IntegerTriangle(rows)
    return RationalTriangle(rows)


def _rows_with(rows_of, *entries):
    """A row generator, stirling_rows or f_rows, with each (n, k, value) entry
    replaced (fault injection)."""
    rows = [list(row) for row in rows_of(8)]
    for n, k, value in entries:
        rows[n][k] = value
    return lambda max_n: iter(rows[: max_n + 1])


@pytest.fixture(scope="module")
def small_tables():
    f = f_table(8)
    c = c_table(d_table(f))
    q = q_table(8)
    return f, c, q


def _fraction_oracle(n, k):
    """The multiplier oracle over Fraction coefficients: each C(X, m) to the
    monomial basis, the power rule, and back."""
    out = 1
    for m in range(k, n + 1):
        derived = basis(m).to_monomial().derivative(k).to_binomial()
        out = math.lcm(out, *(Fraction(c).denominator for c in derived.coeffs))
    return out


def test_integer_oracle_matches_the_fraction_route():
    for n in range(13):
        for k in range(n + 2):
            assert minimal_multiplier_oracle(n, k) == _fraction_oracle(n, k), (n, k)


def test_oracle_fixed_values():
    assert minimal_multiplier_oracle(3, 1) == 6
    assert minimal_multiplier_oracle(4, 2) == 12
    assert minimal_multiplier_oracle(2, 5) == 1
    assert minimal_multiplier_oracle(0, 0) == 1


def test_oracle_cap():
    with pytest.raises(EnumerationCapError):
        minimal_multiplier_oracle(15, 1)
    assert minimal_multiplier_oracle(15, 15, cap=15) == 1


def test_oracle_matches_c_table(c20):
    for n in range(13):
        for k in range(n + 1):
            assert minimal_multiplier_oracle(n, k) == c20[n, k]


def test_failing_report_requires_counterexample():
    with pytest.raises(ValueError):
        CheckReport("x", "range", False)


class TestChecksPass:
    def test_theorem1(self):
        assert verify.check_theorem1(10).passed

    def test_theorem2(self):
        assert verify.check_theorem2(8, 12).passed

    def test_theorem3(self):
        assert verify.check_theorem3(12, 8).passed

    def test_theorem4(self):
        assert verify.check_theorem4(16, 8).passed

    def test_lemma1(self):
        assert verify.check_lemma1(10).passed

    def test_lemma2(self):
        assert verify.check_lemma2(2000).passed

    def test_lemma3(self):
        assert verify.check_lemma3(20).passed

    def test_corollary1(self):
        assert verify.check_corollary1(64).passed

    def test_proposition1(self):
        assert verify.cross_check_f(10).passed

    def test_proposition2(self):
        assert verify.check_proposition2(10).passed


class TestChecksCanFail:
    """Fault injection: every check must be able to produce a counterexample."""

    def test_theorem1(self, monkeypatch):
        monkeypatch.setattr(verify, "lcm_range", lambda n: 1)
        report = verify.check_theorem1(4)
        assert not report.passed
        assert "n=2" in report.counterexample.params

    def test_theorem2(self, monkeypatch, small_tables):
        _, c, _ = small_tables
        monkeypatch.setattr(verify, "c_table", lambda d: _with_entry(c, 4, 2, 7))
        report = verify.check_theorem2(6, 6)
        assert not report.passed
        assert "n=4, k=2" in report.counterexample.params

    def test_theorem3(self, monkeypatch, small_tables):
        _, _, q = small_tables
        monkeypatch.setattr(verify, "q_table", lambda max_n: _with_entry(q, 2, 1, 5))
        report = verify.check_theorem3(6, 6)
        assert not report.passed
        assert report.counterexample is not None

    def test_theorem3_witness(self, monkeypatch, small_tables):
        f, _, _ = small_tables
        monkeypatch.setattr(verify, "f_table", lambda max_n: _with_entry(f, 4, 2, Fraction(11, 13)))
        # The broken F also breaks c, so the divisibility half is left out.
        report = verify.check_theorem3(0, 6)
        assert not report.passed
        assert report.counterexample.params.startswith("parts=")
        assert report.counterexample.rhs.startswith("expected=")

    def test_theorem4(self, monkeypatch, small_tables):
        _, c, _ = small_tables
        monkeypatch.setattr(verify, "c_table", lambda d: _with_entry(c, 4, 2, 7))
        report = verify.check_theorem4(6, 6)
        assert not report.passed
        assert "n=4" in report.counterexample.params

    def test_lemma1(self, monkeypatch):
        monkeypatch.setattr(verify, "f_rows", _rows_with(f_rows, (3, 1, Fraction(2, 3))))
        report = verify.check_lemma1(4)
        assert not report.passed
        assert str(report.counterexample) == "n=3: mean=3 vs expected=4"

    def test_lemma2(self, monkeypatch):
        monkeypatch.setattr(verify, "vp_int", lambda a, p: a)
        report = verify.check_lemma2(10)
        assert not report.passed
        assert report.counterexample.params == "a=1, p=2"

    def test_lemma3(self, monkeypatch):
        # s(4, 2) = 11 is odd; 12 has vp_2 = 2, so vp_2(F(4, 2)) reads 2 - 2 = 0.
        monkeypatch.setattr(verify, "stirling_rows", _rows_with(stirling_rows, (4, 2, 12)))
        report = verify.check_lemma3(8)
        assert not report.passed
        assert "k=2, p=2" in report.counterexample.params

    def test_lemma3_reports_the_first_failing_row(self, monkeypatch):
        # s(6, 2) is read for p = 3 in row 6, s(8, 4) for p = 2 in row 8.
        faulty = _rows_with(stirling_rows, (6, 2, 9), (8, 4, 16))
        monkeypatch.setattr(verify, "stirling_rows", faulty)
        report = verify.check_lemma3(8)
        assert str(report.counterexample) == "k=2, p=3: vp=0 vs expected=-2"

    def test_lemma3_reports_a_zero_entry(self, monkeypatch):
        # Every prime divides 0, whose valuation is infinite: a report, not a raise.
        monkeypatch.setattr(verify, "stirling_rows", _rows_with(stirling_rows, (4, 2, 0)))
        report = verify.check_lemma3(8)
        assert str(report.counterexample) == "k=2, p=2: vp=inf vs expected=-2"

    def test_corollary1(self, monkeypatch):
        monkeypatch.setattr(verify, "lcm_range", lambda n: 1)
        report = verify.check_corollary1(8)
        assert not report.passed

    def test_proposition1(self, monkeypatch, small_tables):
        f, _, _ = small_tables
        monkeypatch.setattr(verify, "f_table", lambda max_n: _with_entry(f, 4, 2, Fraction(11, 13)))
        report = verify.cross_check_f(8)
        assert not report.passed
        assert "n=4, k=2" in report.counterexample.params

    def test_proposition2(self, monkeypatch, small_tables):
        _, _, q = small_tables
        monkeypatch.setattr(verify, "q_table", lambda max_n: _with_entry(q, 4, 2, 7))
        report = verify.check_proposition2(8)
        assert not report.passed
        assert "n=4, k=2" in report.counterexample.params


@pytest.mark.parametrize(
    "name, fault, check, counterexample",
    [
        ("q_table", lambda tables: lambda max_n: _with_entry(tables[2], 4, 2, 7),
         lambda: verify.check_theorem2(0, 6), "n=4, k=2: c=12 vs q=7 not a multiple"),
        ("c_table", lambda tables: lambda d: _with_entry(tables[1], 4, 2, 1),
         lambda: verify.check_theorem3(0, 6), "parts=(1, 3): den=3 vs k!*c=2 not a multiple"),
        ("c_table", lambda tables: lambda d: _with_entry(tables[1], 4, 2, 7),
         lambda: verify.check_theorem4(0, 6), "n=4: oracle lcm=12 vs lcm(c row)=84"),
        ("f_rows", lambda tables: _rows_with(f_rows, (1, 1, 0)),
         lambda: verify.check_lemma1(2), "n=1, k=0: slope=0 vs expected nonzero"),
    ],
    ids=["theorem2-divisibility", "theorem3-witness-bound", "theorem4-oracle-lcm", "lemma1-slope"],
)
def test_other_failure_branches(name, fault, check, counterexample, monkeypatch, small_tables):
    # The failure branches TestChecksCanFail does not reach; a range of 0
    # leaves out the part of a check that would fail first.
    monkeypatch.setattr(verify, name, fault(small_tables))
    report = check()
    assert not report.passed
    assert str(report.counterexample) == counterexample


@pytest.mark.parametrize(
    "name, fault, counterexample",
    [
        ("f_direct", lambda f: lambda n, k, cap: 0, "n=0, k=0, route=direct: 0 vs table=1"),
        ("basis", lambda f: lambda n: BinomialPoly([0] * n + [2]),
         "n=0, k=0, route=power rule at 0: 2 vs table=1"),
        ("f_from_subsets", lambda f: lambda n, k, cap: 0, "n=2, k=2, route=subsets: 0 vs table=1"),
        ("f_from_partial_sums", lambda f: lambda n, k, column: 0,
         "n=1, k=1, route=partial sums: 0 vs table=1"),
        ("f_recurrence", lambda f: lambda max_n: _with_entry(f, 5, 3, Fraction(1, 2)),
         "n=5, k=3, route=recurrence: 1/2 vs table=7/4"),
    ],
    ids=["direct", "power-rule", "subsets", "partial-sums", "recurrence"],
)
def test_proposition1_names_the_failing_route(
    name, fault, counterexample, monkeypatch, small_tables
):
    # One row per route of the certificate, so a route dropped from it fails here.
    f, _, _ = small_tables
    monkeypatch.setattr(verify, name, fault(f))
    report = verify.cross_check_f(8)
    assert not report.passed
    assert str(report.counterexample) == counterexample


def test_proposition2_names_a_recurrence_mismatch(monkeypatch, small_tables):
    _, _, q = small_tables
    monkeypatch.setattr(verify, "q_recurrence", lambda max_n: _with_entry(q, 5, 3, 7))
    report = verify.check_proposition2(8)
    assert not report.passed
    assert str(report.counterexample) == "n=5, k=3: table=12 vs recurrence=7"


def test_lemma1_builds_no_f_table(monkeypatch):
    # lemma1 reads column 1 of F off the streamed rows, so no triangle is built.
    monkeypatch.setattr(verify, "f_table", lambda *args, **kwargs: pytest.fail("built F"))
    assert verify.check_lemma1(30).passed


def test_lemma1_past_its_default():
    # Columns of 100 entries, longer than any F12 or f20 column the tests read.
    assert verify.check_lemma1(100).passed


def test_lemma3_stirling_valuation_matches_the_f_route():
    # vp((k*p)!/k!) = k (Legendre), so vp of the reduced F(k*p, k) is vp(s(k*p, k)) - k.
    rows = list(stirling_rows(200))
    expected = lemma3_valuations_from_f(200, verify.LEMMA3_PRIMES)
    got = {
        (k, p): vp_int(abs(rows[k * p][k]), p) - k
        for p in verify.LEMMA3_PRIMES
        for k in range(1, 200 // p + 1)
    }
    assert got == expected


def test_lemma3_at_600_runs_in_well_under_a_second():
    # Reducing every F entry took 3.9 s at 600; the Stirling rows take about 0.06 s.
    start = time.perf_counter()
    report = verify.check_lemma3(600)
    assert time.perf_counter() - start < 0.5
    assert report.passed


def test_reports_are_deterministic():
    assert run_all(max_n=8) == run_all(max_n=8)


def test_verify_all_output_is_unchanged(capsys):
    assert cli.main(["verify", "all"]) == 0
    assert capsys.readouterr().out == GOLDEN_VERIFY_ALL


def test_one_enum_cap_also_caps_the_oracle():
    with pytest.raises(EnumerationCapError) as excinfo:
        run_check("theorem1", max_n=6, enum_cap=5)
    assert (excinfo.value.requested, excinfo.value.cap) == (6, 5)


def test_theorem3_witness_cap():
    with pytest.raises(EnumerationCapError):
        verify.check_theorem3(4, 15)
    with pytest.raises(EnumerationCapError):
        verify.check_theorem3(4, 5, enum_cap=4)
    assert verify.check_theorem3(4, 5, enum_cap=5).passed


def test_theorem3_witnesses_cover_every_sorted_composition():
    # One multiset of parts stands for all its orderings: same product, same
    # expected derivative, same c(m, k).
    for k in range(1, 15):
        multisets = list(part_multisets(14, k))
        sorted_compositions = {
            tuple(sorted(parts)) for m in range(k, 15) for parts in compositions(m, k)
        }
        assert len(multisets) == len(set(multisets))
        assert set(multisets) == sorted_compositions, k


@pytest.mark.parametrize(
    "check, route, enum_cap, first_over",
    [
        ("cross_check_f", "f_direct", None, 23),
        ("check_proposition2", "q_direct", None, 19),
        ("cross_check_f", "f_direct", 5, 6),
        ("check_proposition2", "q_direct", 5, 6),
        ("check_theorem1", "minimal_multiplier_oracle", None, 15),
        ("check_theorem2", "minimal_multiplier_oracle", None, 15),
        ("check_theorem3", "from_values", None, 15),
        ("check_theorem4", "minimal_multiplier_oracle", None, 15),
        ("check_theorem1", "minimal_multiplier_oracle", 5, 6),
        ("check_theorem2", "minimal_multiplier_oracle", 5, 6),
        ("check_theorem3", "from_values", 5, 6),
        ("check_theorem4", "minimal_multiplier_oracle", 5, 6),
    ],
)
def test_capped_checks_raise_before_enumerating(check, route, enum_cap, first_over, monkeypatch):
    # The error names the first n over the cap, not the requested range, and
    # comes before the route runs even once or any table is built.
    work = (route, "f_table", "d_table", "c_table", "q_table", "f_recurrence", "q_recurrence")
    for name in work:
        monkeypatch.setattr(verify, name, lambda *args, **kwargs: pytest.fail("worked"))
    check = getattr(verify, check)
    ranges = [30] * (len(inspect.signature(check).parameters) - 1)
    with pytest.raises(EnumerationCapError) as excinfo:
        check(*ranges, enum_cap=enum_cap)
    assert (excinfo.value.requested, excinfo.value.cap) == (first_over, first_over - 1)


def test_run_all_default_passes_and_is_sorted():
    reports = run_all()
    assert len(reports) == 10
    assert [r.name for r in reports] == sorted(r.name for r in reports)
    assert all(r.passed for r in reports)


def test_run_all_with_zero_ranges_passes_trivially():
    reports = run_all(max_n=0)
    assert all(r.passed for r in reports)


def test_run_check_rejects_unknown_name():
    message = f"unknown check 'nosuch'; known: {', '.join(CHECK_NAMES)}"
    with pytest.raises(ValueError) as excinfo:
        run_check("nosuch")
    assert str(excinfo.value) == message


@pytest.mark.parametrize("runner", [run_all, lambda **kwargs: run_check("theorem1", **kwargs)])
@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_n": -3}, "max_n must be >= 0, got -3"),
        ({"enum_cap": 0}, "enum_cap must be >= 1, got 0"),
        ({"enum_cap": -1}, "enum_cap must be >= 1, got -1"),
    ],
)
def test_run_check_rejects_bad_range_or_cap(runner, kwargs, message):
    # A negative range would pass vacuously, and a cap below 1 fails at n = 0.
    with pytest.raises(ValueError) as excinfo:
        runner(**kwargs)
    assert str(excinfo.value) == message


def test_config_override_single_check():
    # Both ranges of theorem2 follow max_n.
    report = run_check("theorem2", max_n=3)
    assert report.tested == "oracle equality for n <= 3; divisibility for n <= 3"


def _declared_ranges(check):
    return [p for p in inspect.signature(check).parameters if p != "enum_cap"]


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_run_check_is_the_check_at_its_defaults_or_at_max_n(name):
    check = getattr(verify, "cross_check_f" if name == "proposition1" else f"check_{name}")
    ranges = [4] * len(_declared_ranges(check))
    assert run_check(name) == check()
    assert run_check(name, max_n=4) == check(*ranges)


# The checks with a brute-force route, the only ones that take enum_cap.
CAPPED_CHECKS = ("proposition1", "proposition2", "theorem1", "theorem2", "theorem3", "theorem4")


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_run_check_passes_only_what_the_check_declares(name, monkeypatch):
    # The ranges when max_n is given, and enum_cap only to a capped check.
    attr = "cross_check_f" if name == "proposition1" else f"check_{name}"
    check, calls = getattr(verify, attr), []

    @functools.wraps(check)
    def recording(*args, **kwargs):
        calls.append(kwargs)
        return check(*args, **kwargs)

    monkeypatch.setattr(verify, attr, recording)
    assert run_check(name).passed
    assert run_check(name, max_n=3, enum_cap=5).passed
    capped = name in CAPPED_CHECKS
    ranges = dict.fromkeys(_declared_ranges(check), 3)
    assert calls == [
        {"enum_cap": None} if capped else {},
        {**ranges, "enum_cap": 5} if capped else ranges,
    ]


@pytest.mark.parametrize("depth", [1, 2])
def test_run_check_sets_the_ranges_of_a_wrapped_check(depth, monkeypatch):
    # The benchmark tracer replaces each check by a functools.wraps wrapper
    # taking (*args, **kwargs); max_n must still reach the check's own ranges.
    calls = []

    def wrap(inner):
        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            calls.append(kwargs)
            return inner(*args, **kwargs)

        return wrapper

    check = verify.check_theorem2
    for _ in range(depth):
        check = wrap(check)
    monkeypatch.setattr(verify, "check_theorem2", check)
    report = run_check("theorem2", max_n=3)
    assert report.tested == "oracle equality for n <= 3; divisibility for n <= 3"
    assert calls == [{"oracle_max_n": 3, "divisibility_max_n": 3, "enum_cap": None}] * depth
