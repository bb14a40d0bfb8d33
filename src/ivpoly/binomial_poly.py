"""Exact polynomials over the binomial-coefficient basis C(X, 0), C(X, 1), ...

Storing coefficients over this basis makes the two facts the package leans on
cheap: the forward difference P(X+1) - P(X) shifts the coefficient list down
one slot, and a polynomial takes integer values on all integers exactly when
every coefficient is an integer. Differentiation is done by expanding the
derivation operator in powers of the forward difference; the k-th derivative
reads the rational expansion coefficients as column k of F, supplied as a
plain sequence (see ``rows.quotient_rows``), and ``to_monomial`` takes its
Stirling rows from ``rows.stirling_rows``. A monomial-basis representation
with the ordinary power rule is kept alongside as an independent route to
the same derivatives.

Every number keeps the exact type its arithmetic gives: exact ints stay ints,
and a Fraction appears only where a division happens (the 1/j! of
``to_monomial`` and the F column that ``derivative`` reads).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .rows import stirling_rows


class _Poly:
    """Coefficients over one basis, trailing zeros trimmed; zero is ().

    Two polynomials are equal when they have the same type and the same
    coefficients, so a BinomialPoly never equals a MonomialPoly.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        out = list(coeffs)
        while out and out[-1] == 0:
            out.pop()
        self.coeffs: tuple[Fraction | int, ...] = tuple(out)

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}([{', '.join(str(c) for c in self.coeffs)}])"


class BinomialPoly(_Poly):
    """Polynomial stored by its coefficients over C(X, j)."""

    __slots__ = ()

    def forward_difference(self, i: int = 1) -> "BinomialPoly":
        """i-th forward difference: shifts basis coefficients down i slots."""
        if i < 0:
            raise ValueError(f"difference order must be >= 0, got {i}")
        return BinomialPoly(self.coeffs[i:])

    def derivative(self, k: int, column: Sequence[Fraction | int]) -> "BinomialPoly":
        """Exact k-th derivative as a series in the forward differences of P.

        The derivative of P of degree d is the alternating combination of the
        differences of P: sum over k <= m <= d of (-1)**(m-k) * F(m, k) times
        the m-th forward difference of P. ``column`` lists F(k, k),
        F(k+1, k), ... and must reach row deg(P); only its first d - k + 1
        entries are read. k = 0 reproduces P and k > deg(P) gives 0.
        """
        if k < 0:
            raise ValueError(f"derivative order must be >= 0, got {k}")
        deg = self.degree
        if deg is None or k > deg:
            return BinomialPoly()
        if len(column) < deg - k + 1:
            raise ValueError(
                f"coefficient column covers rows up to {k + len(column) - 1}, need {deg}"
            )
        signed = [f if i % 2 == 0 else -f for i, f in enumerate(column[: deg - k + 1])]
        acc = [0] * (deg - k + 1)
        # Coefficient i of P reaches slot i - m of the m-th difference; only
        # nonzero ones are multiplied, so C(X, n) costs O(n) products.
        for i, c in enumerate(self.coeffs[k:], start=k):
            if c:
                for m, factor in enumerate(signed[: i - k + 1], start=k):
                    if factor:
                        acc[i - m] += factor * c
        return BinomialPoly(acc)

    def eval_int(self, x: int) -> Fraction | int:
        """Exact value at an integer (negative allowed), via C(x, j) products.

        For x >= 0 the sum stops at j = x, as C(x, j) = 0 for j > x. Each term
        is added in its coefficient's type; the value is an int exactly when
        every nonzero coefficient is one, as the sum of all the terms would be.
        """
        coeffs = self.coeffs if x < 0 else self.coeffs[: x + 1]
        total = 0 if all(isinstance(c, int) for c in self.coeffs if c) else Fraction(0)
        binom = 1  # C(x, 0)
        for j, c in enumerate(coeffs):
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
        """Exact change of basis to powers of X: C(X, j) = s(j, .)/j!, as
        j! * C(X, j) = X(X-1)...(X-j+1) = sum over i of s(j, i) * X^i."""
        out = [0] * len(self.coeffs)
        for j, (c, row) in enumerate(zip(self.coeffs, stirling_rows(len(self.coeffs)))):
            if c:
                factorial = math.factorial(j)
                for i, s in enumerate(row):
                    if s:
                        out[i] += c * Fraction(s, factorial)
        return MonomialPoly(out)


class MonomialPoly(_Poly):
    """Polynomial over the monomial basis; the oracle route for derivatives."""

    __slots__ = ()

    def derivative(self, k: int = 1) -> "MonomialPoly":
        """k-th derivative by the power rule."""
        if k < 0:
            raise ValueError(f"derivative order must be >= 0, got {k}")
        return MonomialPoly(self.coeffs[i] * math.perm(i, k) for i in range(k, len(self.coeffs)))

    def eval(self, x: Fraction | int) -> Fraction | int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def to_binomial(self) -> BinomialPoly:
        return from_values([self.eval(x) for x in range(len(self.coeffs))])


def basis(n: int) -> BinomialPoly:
    """The basis polynomial C(X, n)."""
    if n < 0:
        raise ValueError(f"basis index must be >= 0, got {n}")
    return BinomialPoly([0] * n + [1])


def from_values(values: Sequence[Fraction | int]) -> BinomialPoly:
    """Newton forward-difference interpolation of the values P(0), P(1), ...

    Returns the unique polynomial of degree < len(values) taking those values;
    its j-th basis coefficient is the j-th forward difference at 0, an int
    when the values are ints.
    """
    diffs = list(values)
    coeffs = []
    while diffs:
        coeffs.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return BinomialPoly(coeffs)
