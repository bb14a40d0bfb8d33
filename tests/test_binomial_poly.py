import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivpoly import (
    BinomialPoly,
    MonomialPoly,
    basis,
    f_table,
    from_values,
    stirling_first,
)
from ivpoly.binomial_poly import falling_factorials
from golden import derivative_every_coefficient, eval_int_every_term, eval_int_loop, f_column

F12 = f_table(12)

coefficients = st.lists(
    st.fractions(min_value=Fraction(-8), max_value=Fraction(8), max_denominator=12),
    max_size=9,
)


def test_basis_zero_is_constant_one():
    b0 = basis(0)
    assert b0.coeffs == (Fraction(1),)
    assert all(b0.eval_int(x) == 1 for x in range(-5, 6))


def test_basis_one_is_x():
    assert basis(1).to_monomial().coeffs == (Fraction(0), Fraction(1))


def test_basis_two_monomial_form():
    assert basis(2).to_monomial().coeffs == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))


def test_zero_polynomial_has_no_degree():
    zero = BinomialPoly()
    assert zero.degree is None
    assert zero.coeffs == ()
    assert BinomialPoly([0, 0]).degree is None


def test_trailing_zeros_trimmed():
    assert BinomialPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))


def test_forward_difference_shifts_basis():
    assert basis(3).forward_difference(1) == basis(2)
    assert basis(2).forward_difference(3) == BinomialPoly()
    assert BinomialPoly([5]).forward_difference(1) == BinomialPoly()
    assert basis(4).forward_difference(0) == basis(4)


def test_derivative_of_basis_two():
    slope = basis(2).derivative(1, f_column(F12, 1))
    assert slope.to_monomial().coeffs == (Fraction(-1, 2), Fraction(1))
    assert not slope.is_integer_valued()


def test_derivative_of_basis_at_zero_is_alternating_reciprocal():
    for k in range(1, 11):
        assert basis(k).derivative(1, f_column(F12, 1)).eval_int(0) == Fraction((-1) ** (k - 1), k)


def test_derivative_order_zero_is_identity():
    p = BinomialPoly([Fraction(3, 7), -2, Fraction(5, 3)])
    assert p.derivative(0, f_column(F12, 0)) == p


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 12),
        st.one_of(st.integers(-9, 9), st.fractions(max_denominator=7)).filter(bool),
        max_size=3,
    ),
    st.integers(0, 13),
)
def test_derivative_matches_the_every_coefficient_loop(entries, k):
    # Sparse polynomials, where skipping the zero coefficients saves the most.
    coeffs = [entries.get(i, 0) for i in range(max(entries, default=-1) + 1)]
    poly = BinomialPoly(coeffs)
    column = f_column(F12, k)
    got, expected = poly.derivative(k, column), derivative_every_coefficient(poly, k, column)
    assert got == expected
    assert [type(c) for c in got.coeffs if c] == [type(c) for c in expected.coeffs if c]


def test_derivative_beyond_degree_is_zero():
    assert basis(3).derivative(4, f_column(F12, 4)) == BinomialPoly()
    assert BinomialPoly().derivative(2, f_column(F12, 2)) == BinomialPoly()


def test_derivative_requires_covering_column():
    # Column 1 from row 1 to row 4 stops one row short of degree 5.
    with pytest.raises(ValueError, match=r"^coefficient column covers rows up to 4, need 5$"):
        basis(5).derivative(1, f_column(F12, 1)[:4])


def test_derivative_reads_only_the_rows_it_needs():
    # A column past deg(P) gives the derivative of the column that stops there.
    for m in range(13):
        for k in range(m + 1):
            column = f_column(F12, k)
            assert basis(m).derivative(k, column) == basis(m).derivative(k, column[: m - k + 1])


def test_eval_int():
    assert basis(3).eval_int(5) == 10
    assert basis(3).eval_int(3) == 1
    assert basis(2).eval_int(-1) == 1
    assert BinomialPoly().eval_int(9) == 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-50, 50), st.fractions(max_denominator=30), st.just(Fraction(3))),
        max_size=12,
    ),
    st.integers(-20, 20),
)
def test_eval_int_matches_the_term_by_term_sum(coeffs, x):
    # Same value and same type as adding each term in its coefficient's type:
    # an int for int coefficients, a Fraction once one is a Fraction.
    poly = BinomialPoly(coeffs)
    value, expected = poly.eval_int(x), eval_int_loop(poly, x)
    assert value == expected and type(value) is type(expected)


def test_eval_int_keeps_the_type_of_the_term_sum():
    slopes = [basis(n).derivative(1, f_column(F12, 1)) for n in range(1, 13)]
    for poly in (*slopes, from_values([4, -1, 7, 0, 2]), BinomialPoly([0, Fraction(0), 5])):
        for x in range(-6, 14):
            value, expected = poly.eval_int(x), eval_int_loop(poly, x)
            assert value == expected and type(value) is type(expected), (poly, x)
    assert type(BinomialPoly([1, 2]).eval_int(-3)) is int
    assert type(BinomialPoly([1, Fraction(2)]).eval_int(-3)) is Fraction


sparse_coefficients = st.dictionaries(
    st.integers(0, 60),
    st.one_of(
        st.integers(-50, 50), st.fractions(max_denominator=30), st.sampled_from([0, Fraction(0)])
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(sparse_coefficients, st.sampled_from([0, Fraction(0)]), st.integers(-10, 40))
def test_eval_int_stopping_at_x_matches_every_term(terms, gap, x):
    # Sparse coefficients out past x, the gaps an int or a Fraction zero: the
    # sum that stops at j = x has the value and type of the one over every term.
    coeffs = [terms.get(j, gap) for j in range(max(terms, default=-1) + 1)]
    poly = BinomialPoly(coeffs)
    value, expected = poly.eval_int(x), eval_int_every_term(poly, x)
    assert value == expected and type(value) is type(expected)


def test_is_integer_valued():
    assert all(basis(n).is_integer_valued() for n in range(9))
    assert not basis(2).derivative(1, f_column(F12, 1)).is_integer_valued()
    # X(X+1)/2 has a fractional monomial form but integer basis coefficients
    triangular = MonomialPoly([0, Fraction(1, 2), Fraction(1, 2)]).to_binomial()
    assert triangular.is_integer_valued()


def test_from_values_interpolates():
    assert from_values([0, 1, 3]).coeffs == (Fraction(0), Fraction(1), Fraction(1))
    assert from_values([]) == BinomialPoly()


def test_integer_arithmetic_stays_in_ints():
    for p in (from_values([0, 1, 3]), MonomialPoly([0, 0, 1]).to_binomial()):
        assert p.coeffs and all(type(c) is int for c in p.coeffs)
    assert type(BinomialPoly([Fraction(1, 2), 1]).coeffs[0]) is Fraction


def test_equality_ignores_the_number_type_but_not_the_basis():
    ints, fractions = BinomialPoly([1, 2]), BinomialPoly([Fraction(1), Fraction(2)])
    assert ints == fractions and hash(ints) == hash(fractions)
    assert BinomialPoly([1]) != MonomialPoly([1])
    assert repr(MonomialPoly([0, Fraction(1, 2)])) == "MonomialPoly([0, 1/2])"


def test_falling_factorials_are_the_stirling_rows():
    # Two independent recurrences: X(X-1)...(X-j+1) against s(n, k).
    rows = list(itertools.islice(falling_factorials(), 31))
    assert rows == [list(row) for row in stirling_first(30).rows]


def test_monomial_round_trip_examples():
    assert MonomialPoly([0, 1]).to_binomial() == basis(1)
    assert basis(2).to_monomial().coeffs == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))


@given(coefficients)
def test_round_trip_from_binomial(coeffs):
    p = BinomialPoly(coeffs)
    assert p.to_monomial().to_binomial() == p


@given(coefficients)
def test_round_trip_from_monomial(coeffs):
    q = MonomialPoly(coeffs)
    assert q.to_binomial().to_monomial() == q


@given(coefficients, st.integers(min_value=-10, max_value=10))
def test_difference_matches_evaluation(coeffs, x):
    p = BinomialPoly(coeffs)
    assert p.forward_difference(1).eval_int(x) == p.eval_int(x + 1) - p.eval_int(x)


@given(coefficients, st.integers(min_value=-8, max_value=8))
def test_monomial_eval_matches_binomial_eval(coeffs, x):
    p = BinomialPoly(coeffs)
    assert p.to_monomial().eval(x) == p.eval_int(x)


def test_difference_matches_evaluation_on_basis():
    for m in range(13):
        p = basis(m)
        diff = p.forward_difference(1)
        for x in range(-10, 11):
            assert diff.eval_int(x) == p.eval_int(x + 1) - p.eval_int(x)


def test_derivative_agrees_with_power_rule_on_basis():
    for m in range(13):
        mono = basis(m).to_monomial()
        for k in range(m + 1):
            assert basis(m).derivative(k, f_column(F12, k)).to_monomial() == mono.derivative(k)


@settings(max_examples=60)
@given(coefficients, st.integers(min_value=0, max_value=4))
def test_derivative_agrees_with_power_rule_randomized(coeffs, k):
    p = BinomialPoly(coeffs)
    assert p.derivative(k, f_column(F12, k)).to_monomial() == p.to_monomial().derivative(k)


@settings(max_examples=60)
@given(coefficients)
def test_second_derivative_composes(coeffs):
    p, first = BinomialPoly(coeffs), f_column(F12, 1)
    assert p.derivative(1, first).derivative(1, first) == p.derivative(2, f_column(F12, 2))


def test_second_derivative_composes_on_basis():
    for m in range(11):
        p, first = basis(m), f_column(F12, 1)
        assert p.derivative(1, first).derivative(1, first) == p.derivative(2, f_column(F12, 2))


def test_repeated_differences_hit_kronecker_delta():
    for i in range(13):
        for j in range(13):
            value = basis(j).forward_difference(i).eval_int(0)
            assert value == (1 if i == j else 0)


def test_derivative_degree_law():
    for m in range(1, 11):
        for k in range(m + 1):
            assert basis(m).derivative(k, f_column(F12, k)).degree == m - k


def _integer_valued_by_values(p: BinomialPoly) -> bool:
    deg = p.degree
    if deg is None:
        return True
    return all(p.eval_int(x).denominator == 1 for x in range(deg + 1))


def test_integer_valuedness_equals_value_criterion():
    # a degree-d polynomial is integer-valued iff its values at 0..d are integers
    rng = random.Random(1405)
    seen = {True: 0, False: 0}
    for _ in range(120):
        degree = rng.randrange(0, 9)
        if rng.random() < 0.5:
            coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
        else:
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)
            ]
        p = BinomialPoly(coeffs)
        verdict = p.is_integer_valued()
        assert verdict == _integer_valued_by_values(p)
        seen[verdict] += 1
    assert seen[True] and seen[False]
