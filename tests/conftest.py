import os
from pathlib import Path

import pytest

import ivpoly
from ivpoly import c_table, d_table, f_table, q_table, stirling_first

# Child processes (`python -m ivpoly`) import the same ivpoly as the tests.
_SRC = str(Path(ivpoly.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


@pytest.fixture(scope="session")
def f20():
    return f_table(20)


@pytest.fixture(scope="session")
def d20(f20):
    return d_table(f20)


@pytest.fixture(scope="session")
def c20(d20):
    return c_table(d20)


@pytest.fixture(scope="session")
def q20():
    return q_table(20)


@pytest.fixture(scope="session")
def s14():
    return stirling_first(14)
