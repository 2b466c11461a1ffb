import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wardtri.exact_arith import (
    ExactnessError,
    binomial,
    exact_div,
    factorial,
    falling_factorial,
    rising_factorial,
)


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(6) == 720


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_falling_factorial_values():
    assert falling_factorial(5, 3) == 60  # 5*4*3
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(3, 5) == 0  # hits the zero factor
    assert falling_factorial(-2, 3) == -24  # (-2)(-3)(-4)


def test_rising_factorial_values():
    assert rising_factorial(2, 3) == 24  # 2*3*4
    assert rising_factorial(9, 0) == 1
    assert rising_factorial(1, 4) == 24  # equals 4!


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(3, -1) == 0
    # generalized upper index: (-1)^3 * C(3-(-2)-1, 3) = -C(4, 3)
    assert binomial(-2, 3) == -4
    assert binomial(5, 7) == 0


@given(st.integers(min_value=-12, max_value=-1), st.integers(min_value=0, max_value=12))
def test_binomial_negative_upper_convention(n, k):
    assert binomial(n, k) == (-1) ** k * math.comb(k - n - 1, k)


def test_binomial_factorial_identity():
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == exact_div(
                factorial(n), factorial(k) * factorial(n - k)
            )


def test_falling_factorial_vs_factorials():
    for x in range(31):
        for n in range(x + 1):
            assert falling_factorial(x, n) * factorial(x - n) == factorial(x)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
def test_rising_equals_shifted_falling(x, n):
    assert rising_factorial(x, n) == falling_factorial(x + n - 1, n)


def test_exact_div():
    assert exact_div(12, 4) == 3
    assert exact_div(-12, 3) == -4
    with pytest.raises(ExactnessError):
        exact_div(12, 5)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6).filter(lambda x: x != 0),
)
def test_fraction_is_canonical(p, q):
    f = Fraction(p, q)
    assert f.denominator >= 1
    assert math.gcd(abs(f.numerator), f.denominator) == 1
    if p != 0:
        assert f * Fraction(q, p) == 1
