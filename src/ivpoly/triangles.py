"""Immutable lower-triangular tables indexed by (n, k) with 0 <= k <= n."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


class _Triangle:
    """Shape validation and (n, k) indexing shared by the concrete tables."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        frozen = tuple(tuple(row) for row in rows)
        if not frozen:
            raise ValueError("a triangle needs at least row 0")
        for n, row in enumerate(frozen):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
        self.rows = frozen

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> tuple:
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

    def __init__(self, rows: Iterable[Iterable[int]]):
        super().__init__(rows)
        for row in self.rows:
            for entry in row:
                if not isinstance(entry, int):
                    raise ValueError(f"Stirling entries must be integers, got {entry!r}")


class RationalTriangle(_Triangle):
    """Triangle of exact rationals (entries coerced to Fraction)."""

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]):
        super().__init__(tuple(Fraction(entry) for entry in row) for row in rows)


class IntegerTriangle(_Triangle):
    """Triangle of positive integers."""

    def __init__(self, rows: Iterable[Iterable[int]]):
        super().__init__(rows)
        for n, row in enumerate(self.rows):
            for k, entry in enumerate(row):
                if not isinstance(entry, int) or entry < 1:
                    raise ValueError(f"entry ({n}, {k}) must be a positive integer, got {entry!r}")
