"""Immutable lower-triangular tables indexed by (n, k) with 0 <= k <= n."""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction


class _Triangle:
    """Shape and entry validation and (n, k) indexing for the concrete tables.

    Each kind declares the entry types it accepts and whether entries must be
    positive; the constructor checks the shape and every entry in one pass and
    keeps the entries as given.
    """

    __slots__ = ("rows",)
    entry_types: tuple[type, ...] = (int,)
    positive = False

    def __init__(self, rows: Iterable[Iterable]):
        frozen = tuple(tuple(row) for row in rows)
        if not frozen:
            raise ValueError("a triangle needs at least row 0")
        types, positive = self.entry_types, self.positive
        for n, row in enumerate(frozen):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
            for k, entry in enumerate(row):
                # bool subclasses int, but True is no table entry.
                if not isinstance(entry, types) or isinstance(entry, bool) or (positive and entry < 1):
                    wanted = " or ".join(t.__name__ for t in types) + " > 0" * positive
                    raise ValueError(f"entry ({n}, {k}) must be of type {wanted}, got {entry!r}")
        self.rows = frozen

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> tuple:
        if not 0 <= n <= self.max_n:
            raise IndexError(f"row {n} lies outside a triangle with max n = {self.max_n}")
        return self.rows[n]

    def __getitem__(self, nk: tuple[int, int]):
        n, k = nk
        if not 0 <= k <= n <= self.max_n:
            raise IndexError(f"(n, k) = ({n}, {k}) lies outside a triangle with max n = {self.max_n}")
        return self.rows[n][k]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.rows == self.rows

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_n={self.max_n})"


class StirlingTable(_Triangle):
    """Signed integer triangle of Stirling numbers of the first kind."""


class RationalTriangle(_Triangle):
    """Triangle of exact rationals, each a Fraction or an int."""

    entry_types = (Fraction, int)


class IntegerTriangle(_Triangle):
    """Triangle of positive integers."""

    positive = True
