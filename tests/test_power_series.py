from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wardtri.exact_arith import binomial
from wardtri.series import PowerSeries, one_minus_x

ORDER = 8

fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)
series = st.lists(fractions, min_size=ORDER + 1, max_size=ORDER + 1).map(
    lambda cs: PowerSeries(tuple(cs))
)
# Any order, zero terms, and denominators that share some factors and not others.
mixed_series = st.lists(
    st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(min_value=-10**6, max_value=10**6),
                  st.integers(min_value=1, max_value=720)),
    ),
    min_size=1,
    max_size=14,
).map(lambda cs: PowerSeries(tuple(cs)))


# The Fraction loops the integer kernel replaced, kept as its oracle.

def mul_oracle(a, b):
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i, ci in enumerate(a.coeffs[: n + 1]):
        if ci == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ci * b.coeffs[j]
    return tuple(out)


def inverse_oracle(a):
    a0 = a.coeffs[0]
    out = [Fraction(0)] * (a.order + 1)
    out[0] = 1 / a0
    for n in range(1, a.order + 1):
        acc = Fraction(0)
        for i in range(1, n + 1):
            acc += a.coeffs[i] * out[n - i]
        out[n] = -acc / a0
    return tuple(out)


def exactly(coeffs):
    """Each coefficient as its type and reduced (numerator, denominator)."""
    return [(type(c), c.numerator, c.denominator) for c in coeffs]


def test_basic_shape():
    s = PowerSeries.from_list([1, 2], order=4)
    assert s.order == 4
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert s.coefficient(1) == 2
    with pytest.raises(ValueError):
        s.coefficient(5)
    with pytest.raises(ValueError):
        s.coefficient(-1)
    with pytest.raises(ValueError):
        PowerSeries(())


@given(series, series, series)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + a.scale(-1) == PowerSeries.constant(0, ORDER)


@given(series, series, st.integers(min_value=0, max_value=ORDER))
def test_truncate_commutes_with_multiply(a, b, m):
    assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)


@given(series)
def test_inverse_roundtrip(a):
    if a.coeffs[0] == 0:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert a * a.inverse() == PowerSeries.constant(1, ORDER)


@given(mixed_series, mixed_series)
def test_mul_matches_the_fraction_loops(a, b):
    assert exactly((a * b).coeffs) == exactly(mul_oracle(a, b))


@given(mixed_series)
def test_inverse_matches_the_fraction_loops(a):
    if a.coeffs[0] == 0:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert exactly(a.inverse().coeffs) == exactly(inverse_oracle(a))


def test_geometric_inverse_binomial_columns():
    for k in range(1, 9):
        inv_k = one_minus_x(30).inverse() ** k
        for n in range(31):
            assert inv_k.coefficient(n) == binomial(n + k - 1, n)
            # same thing through the generalized upper index
            assert inv_k.coefficient(n) == (-1) ** n * binomial(-k, n)


def test_geometric_matches_inverse():
    assert PowerSeries.from_list([1] * 13) == one_minus_x(12).inverse()


def test_shift_and_scalar_ops():
    s = PowerSeries.from_list([1, 1], order=5).shift(2)
    assert s.coeffs == (0, 0, 1, 1, 0, 0)
    assert s.scale(Fraction(1, 2)).coefficient(2) == Fraction(1, 2)
    assert s.scalar_div(2).coefficient(3) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        s.scalar_div(0)
    with pytest.raises(ValueError):
        s.shift(-1)


def test_pow_small_cases():
    x = PowerSeries.x(6)
    assert (x ** 3).coeffs == (0, 0, 0, 1, 0, 0, 0)
    assert (x ** 0) == PowerSeries.constant(1, 6)
    with pytest.raises(ValueError):
        x ** -1
