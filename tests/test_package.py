import copy
import pickle
import subprocess
import sys

import pytest

import ivpoly
from ivpoly import CheckReport, Counterexample, PrimeFactorization


def test_every_exported_name_resolves_once():
    # A name left in __all__ after its import is gone breaks `from ivpoly import *`.
    assert len(ivpoly.__all__) == len(set(ivpoly.__all__))
    assert [name for name in ivpoly.__all__ if not hasattr(ivpoly, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from ivpoly import *", namespace)
    assert [name for name in ivpoly.__all__ if name not in namespace] == []
    assert set(ivpoly.__all__) <= set(dir(ivpoly))


def test_import_loads_a_submodule_on_first_use():
    script = (
        "import sys, ivpoly\n"
        "assert 'ivpoly.verify' not in sys.modules\n"
        "assert ivpoly.verify.run_check is ivpoly.run_check\n"
        "assert str(ivpoly.stirling.f_table(2)[2, 1]) == '1/2'\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        ivpoly.nosuch


FIELDS = {
    PrimeFactorization: ("factors",),
    Counterexample: ("params", "lhs", "rhs"),
    CheckReport: ("name", "tested", "passed", "counterexample"),
}
RECORDS = [
    (
        PrimeFactorization,
        (((2, 5), (3, 1)),),
        (((2, 5),),),
        "PrimeFactorization(factors=((2, 5), (3, 1)))",
    ),
    (
        Counterexample,
        ("n=2", "1", "2"),
        ("n=2", "1", "3"),
        "Counterexample(params='n=2', lhs='1', rhs='2')",
    ),
    (
        CheckReport,
        ("theorem1", "1 <= n <= 2", False, Counterexample("n=2", "1", "2")),
        ("theorem1", "1 <= n <= 2", False, Counterexample("n=1", "1", "2")),
        "CheckReport(name='theorem1', tested='1 <= n <= 2', passed=False, "
        "counterexample=Counterexample(params='n=2', lhs='1', rhs='2'))",
    ),
    (
        CheckReport,
        ("lemma2", "1 <= a <= 9", True),
        ("lemma2", "1 <= a <= 8", True),
        "CheckReport(name='lemma2', tested='1 <= a <= 9', passed=True, counterexample=None)",
    ),
]


@pytest.mark.parametrize("cls, fields, other, text", RECORDS)
def test_records_behave_as_frozen_dataclasses(cls, fields, other, text):
    # The reprs are those the frozen dataclasses these classes replace printed.
    record = cls(*fields)
    values = tuple(getattr(record, name) for name in FIELDS[cls])
    assert record == cls(*fields) and record != cls(*other)
    assert hash(record) == hash(cls(*fields)) == hash(values)
    assert record.__eq__(values) is NotImplemented and record != values
    assert repr(record) == text
    for name in (*FIELDS[cls], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize(
    "factors, message",
    [
        (((2.0, 1),), "must be ints"),
        (((2, 1), (2, 2)), "strictly increasing"),
        (((3, 1), (2, 1)), "strictly increasing"),
        (((4, 1),), "expected a prime, got 4"),
        (((2, 0),), "exponents must be >= 1"),
    ],
)
def test_prime_factorization_validation_fires(factors, message):
    with pytest.raises(ValueError, match=message):
        PrimeFactorization(factors)


def test_failing_report_without_counterexample_is_refused():
    with pytest.raises(ValueError, match="must carry a counterexample"):
        CheckReport("x", "range", False)
