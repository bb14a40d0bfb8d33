"""Exact polynomials over the binomial-coefficient basis C(X, 0), C(X, 1), ...

Storing coefficients over this basis makes the two facts the package leans on
cheap: the forward difference P(X+1) - P(X) shifts the coefficient list down
one slot, and a polynomial takes integer values on all integers exactly when
every coefficient is an integer. Differentiation is done by expanding the
derivation operator in powers of the forward difference; the rational
expansion coefficients are supplied as a RationalTriangle (see
``stirling.f_table``). A monomial-basis representation with the ordinary
power rule is kept alongside as an independent route to the same derivatives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .triangles import RationalTriangle


def _normalize(coeffs: Iterable[Fraction | int]) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class BinomialPoly:
    """Polynomial stored by its coefficients over C(X, j); zero is ()."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        self.coeffs = _normalize(coeffs)

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def forward_difference(self, i: int = 1) -> "BinomialPoly":
        """i-th forward difference: shifts basis coefficients down i slots."""
        if i < 0:
            raise ValueError(f"difference order must be >= 0, got {i}")
        return BinomialPoly(self.coeffs[i:])

    def derivative(self, k: int, table: RationalTriangle) -> "BinomialPoly":
        """Exact k-th derivative via the forward-difference expansion.

        The derivative of P of degree d is the alternating combination of the
        differences of P: sum over k <= m <= d of (-1)**(m-k) * table[m, k]
        times the m-th forward difference of P. The table must therefore
        cover rows up to deg(P); k = 0 reproduces P and k > deg(P) gives 0.
        """
        if k < 0:
            raise ValueError(f"derivative order must be >= 0, got {k}")
        deg = self.degree
        if deg is None or k > deg:
            return BinomialPoly()
        if table.max_n < deg:
            raise ValueError(
                f"coefficient table covers rows up to {table.max_n}, need {deg}"
            )
        acc = [Fraction(0)] * (deg - k + 1)
        for m in range(k, deg + 1):
            factor = table[m, k] if (m - k) % 2 == 0 else -table[m, k]
            if factor == 0:
                continue
            for j in range(deg - m + 1):
                acc[j] += factor * self.coeffs[j + m]
        return BinomialPoly(acc)

    def eval_int(self, x: int) -> Fraction:
        """Exact value at an integer (negative allowed), via C(x, j) products."""
        total = Fraction(0)
        binom = 1  # C(x, 0)
        for j, c in enumerate(self.coeffs):
            if j > 0:
                # exact: C(x, j-1) * (x - j + 1) is divisible by j
                binom = binom * (x - j + 1) // j
            if c:
                total += c * binom
        return total

    def is_integer_valued(self) -> bool:
        """True iff every basis coefficient is an integer."""
        return all(c.denominator == 1 for c in self.coeffs)

    def to_monomial(self) -> "MonomialPoly":
        """Exact change of basis to powers of X."""
        deg = self.degree
        if deg is None:
            return MonomialPoly()
        out = [Fraction(0)] * (deg + 1)
        falling = [1]  # monomial coefficients of X(X-1)...(X-j+1), X^0 first
        factorial = 1
        for j, c in enumerate(self.coeffs):
            if j > 0:
                shifted = [0] + falling
                falling = [
                    shifted[i] - (j - 1) * (falling[i] if i < len(falling) else 0)
                    for i in range(j + 1)
                ]
                factorial *= j
            if c:
                for i, s in enumerate(falling):
                    if s:
                        out[i] += c * Fraction(s, factorial)
        return MonomialPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, BinomialPoly) and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"BinomialPoly([{', '.join(str(c) for c in self.coeffs)}])"


class MonomialPoly:
    """Polynomial over the monomial basis; the oracle route for derivatives."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        self.coeffs = _normalize(coeffs)

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def derivative(self, k: int = 1) -> "MonomialPoly":
        """k-th derivative by the power rule."""
        if k < 0:
            raise ValueError(f"derivative order must be >= 0, got {k}")
        deg = self.degree
        if deg is None or k > deg:
            return MonomialPoly()
        return MonomialPoly(
            self.coeffs[i] * math.perm(i, k) for i in range(k, deg + 1)
        )

    def eval(self, x: Fraction | int) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def to_binomial(self) -> BinomialPoly:
        deg = self.degree
        if deg is None:
            return BinomialPoly()
        return from_values([self.eval(x) for x in range(deg + 1)])

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialPoly) and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"MonomialPoly([{', '.join(str(c) for c in self.coeffs)}])"


def basis(n: int) -> BinomialPoly:
    """The basis polynomial C(X, n)."""
    if n < 0:
        raise ValueError(f"basis index must be >= 0, got {n}")
    return BinomialPoly([0] * n + [1])


def from_values(values: Sequence[Fraction | int]) -> BinomialPoly:
    """Newton forward-difference interpolation of the values P(0), P(1), ...

    Returns the unique polynomial of degree < len(values) taking those values;
    its j-th basis coefficient is the j-th forward difference at 0.
    """
    diffs = [Fraction(v) for v in values]
    coeffs = []
    while diffs:
        coeffs.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return BinomialPoly(coeffs)
