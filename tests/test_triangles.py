from fractions import Fraction

import pytest

from ivpoly.triangles import IntegerTriangle, RationalTriangle, StirlingTable

KINDS = (StirlingTable, RationalTriangle, IntegerTriangle)


@pytest.mark.parametrize("kind", KINDS)
def test_rejects_an_empty_triangle(kind):
    with pytest.raises(ValueError):
        kind([])


@pytest.mark.parametrize("kind", KINDS)
def test_rejects_a_row_of_the_wrong_length(kind):
    with pytest.raises(ValueError):
        kind([[1], [1, 1, 1]])
    with pytest.raises(ValueError):
        kind([[1], [1]])


@pytest.mark.parametrize(
    "kind, entry",
    [
        (IntegerTriangle, 0),
        (IntegerTriangle, -1),
        (IntegerTriangle, 1.0),
        (StirlingTable, Fraction(1, 2)),
        (RationalTriangle, "1/2"),
        (RationalTriangle, 0.5),
        (IntegerTriangle, True),
        (StirlingTable, False),
        (RationalTriangle, True),
    ],
)
def test_rejects_an_entry_of_the_wrong_kind(kind, entry):
    with pytest.raises(ValueError):
        kind([[1], [1, entry]])


def test_accepts_entries_of_its_kind():
    assert StirlingTable([[1], [0, 1], [0, -1, 1]])[2, 1] == -1
    assert IntegerTriangle([[1], [2, 3]])[1, 0] == 2


def test_rational_triangle_keeps_its_entries_as_given():
    half, one = Fraction(1, 2), 10**30
    table = RationalTriangle([[one], [half, 0]])
    assert table[0, 0] is one
    assert table[1, 0] is half


@pytest.mark.parametrize("n", [-1, 5])
def test_row_rejects_an_index_outside_the_triangle(n):
    # A negative n must not wrap around to a row counted from the end.
    table = IntegerTriangle([[1] * (m + 1) for m in range(5)])
    with pytest.raises(IndexError, match="max n = 4"):
        table.row(n)
    assert table.row(4) == (1,) * 5
