"""A test run leaves no bytecode in the package it tests.

The tests import ``ivpoly`` and start ``python -m ivpoly``, some of them in a
bare environment, so the interpreter writes ``src/ivpoly/__pycache__``. A
benchmark run afterwards in the same checkout would then skip compiling and
time a different start-up. The directory is removed when the session ends,
unless it was already there when the session started.
"""

import shutil
from pathlib import Path

_PYCACHE = Path(__file__).resolve().parent / "src" / "ivpoly" / "__pycache__"
_PYCACHE_EXISTED = _PYCACHE.exists()


def pytest_sessionfinish(session, exitstatus):
    if not _PYCACHE_EXISTED:
        shutil.rmtree(_PYCACHE, ignore_errors=True)
