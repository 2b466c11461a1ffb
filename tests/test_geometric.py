"""The (1-x)^-k expansion behind the two generating-function checks,
`identities._geometric`, against the power-series facts it stands for and
against the Fraction loops of a general series product and inverse."""

from fractions import Fraction
from math import comb

from wardtri.identities import _geometric

ORDER = 20


def mul_oracle(a, b):
    n = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (n + 1)
    for i, ci in enumerate(a[: n + 1]):
        for j in range(n + 1 - i):
            out[i + j] += ci * b[j]
    return out


def inverse_oracle(a):
    out = [Fraction(0)] * len(a)
    out[0] = 1 / Fraction(a[0])
    for n in range(1, len(a)):
        acc = Fraction(0)
        for i in range(1, n + 1):
            acc += a[i] * out[n - i]
        out[n] = -acc / a[0]
    return out


def one_minus_x_pow(k, order):
    """Coefficients 0..order of (1-x)^k."""
    return [(-1) ** i * comb(k, i) for i in range(order + 1)]


def test_basic_shape():
    for k in range(5):
        for order in range(6):
            c = _geometric(k, order)
            assert len(c) == order + 1
            assert all(type(x) is int for x in c)
            assert c[0] == 1


def test_truncate_commutes_with_multiply():
    # k divisions by (1-x) carried to a higher order, then cut, equal the
    # same divisions carried out at the lower order
    for k in range(1, 6):
        full = _geometric(k, ORDER)
        for m in range(ORDER + 1):
            assert _geometric(k, m) == full[: m + 1]


def test_inverse_roundtrip():
    # multiplying by (1-x) is a first difference; k of them give back 1
    for k in range(1, 9):
        c = _geometric(k, ORDER)
        for _ in range(k):
            c = [c[0]] + [c[n] - c[n - 1] for n in range(1, len(c))]
        assert c == [1] + [0] * ORDER


def test_mul_matches_the_fraction_loops():
    # (1-x)^-a (1-x)^-b = (1-x)^-(a+b)
    for a in range(5):
        for b in range(5):
            product = mul_oracle(_geometric(a, ORDER), _geometric(b, ORDER))
            assert product == _geometric(a + b, ORDER)


def test_inverse_matches_the_fraction_loops():
    for k in range(9):
        assert _geometric(k, ORDER) == inverse_oracle(one_minus_x_pow(k, ORDER))


def test_geometric_inverse_binomial_columns():
    for k in range(1, 9):
        c = _geometric(k, 30)
        for n in range(31):
            assert c[n] == comb(n + k - 1, n)


def test_geometric_matches_inverse():
    assert _geometric(1, 12) == [1] * 13 == inverse_oracle(one_minus_x_pow(1, 12))


def test_pow_small_cases():
    assert _geometric(0, 6) == [1, 0, 0, 0, 0, 0, 0]
    assert _geometric(2, 6) == [1, 2, 3, 4, 5, 6, 7]
    assert _geometric(3, 6) == [1, 3, 6, 10, 15, 21, 28]
    assert _geometric(5, 0) == [1]
