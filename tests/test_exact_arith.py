import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wardtri import triangles
from wardtri.exact_arith import ExactnessError, exact_div
from wardtri.triangles import Kind, Rescaling, Strategy, value

# The routes form their factorials and binomials as products stepped along
# a row, one `exact_div` a step.  These tests pin those products by hand
# values and by factorial quotients and plain products, not by `math.comb`
# or `math.perm`.


def test_factorial_values():
    # the varied factor (2n)_(n-k) * k! is (2n)!/n! at k = 0 and n! at k = n
    assert Rescaling.VARIED.factors(0) == [1]
    assert Rescaling.VARIED.factors(1) == [2, 1]
    assert Rescaling.VARIED.factors(3) == [120, 30, 12, 6]
    for n in range(31):
        factors = Rescaling.VARIED.factors(n)
        assert factors[n] == math.factorial(n)
        assert factors[0] * math.factorial(n) == math.factorial(2 * n)


def test_factorial_rejects_negative():
    # a row product seeded by n! refuses a negative row; `value` answers
    # the boundary there without building one
    with pytest.raises(ValueError):
        Rescaling.VARIED.factors(-1)
    with pytest.raises(ValueError):
        triangles._falling_row(-1)
    assert value(Kind.VARIED_WARD_LAH, -1, 0, Strategy.EXPLICIT) == 0


def test_falling_factorial_values():
    assert triangles._falling_row(0) == [1]
    assert triangles._falling_row(3) == [6, 24, 60, 120]  # 3!, 4!/1!, 5!/2!, 6!/3!
    assert triangles._falling_row(4)[2] == 360  # 6*5*4*3


def test_rising_factorial_values():
    # (n+k)!/k! read from k+1 upwards: (k+1)(k+2)...(k+n)
    assert triangles._falling_row(3)[1] == 2 * 3 * 4
    assert triangles._falling_row(4)[0] == 1 * 2 * 3 * 4
    assert triangles._falling_row(1) == [1, 2]


def test_binomial_values():
    assert triangles._binomial_row(4) == [1, 4, 6, 4, 1]
    assert triangles._binomial_row(0) == [1]
    assert Rescaling.BINOMIAL.factors(2) == [6, 4, 1]  # C(4, 2), C(4, 3), C(4, 4)
    assert Rescaling.NONE.factors(3) == [1, 1, 1, 1]


def test_binomial_factorial_identity():
    for n in range(31):
        row = triangles._binomial_row(n)
        for k in range(n + 1):
            assert row[k] == exact_div(
                math.factorial(n), math.factorial(k) * math.factorial(n - k)
            )


def test_falling_factorial_vs_factorials():
    for n in range(31):
        for k, falling in enumerate(triangles._falling_row(n)):
            assert falling * math.factorial(k) == math.factorial(n + k)


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_rising_equals_shifted_falling(n, k):
    # (n+k)!/k!, the falling factorial of n+k, is the rising factorial of
    # k+1; at k = n it is the Lah identity's (n+1)^(n)
    k = min(k, n)
    assert triangles._falling_row(n)[k] == math.prod(range(k + 1, n + k + 1))


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
