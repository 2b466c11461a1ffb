import decimal
import math
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wardtri.commands import gen
from wardtri.exact_arith import ExactnessError, exact_div
from wardtri.triangles import _CLOSED, Kind, Rescaling, Strategy, _closed_row, value

# The routes form their factorials and binomials as `_CLOSED` entries
# stepped along a row, one `exact_div` a step.  These tests pin those
# products by hand values and by factorial quotients and plain products,
# not by `math.comb` or `math.perm`.


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
    # every row product refuses a row before its first entry, also where
    # no factorial of a negative number is formed (NONE has no terms, and
    # BINOMIAL's cancel above and below the line); `value` answers the
    # boundary there without building one
    for rescaling in Rescaling:
        with pytest.raises(ValueError):
            rescaling.factors(-1)
    for key in ("falling", "c", Kind.WARD_LAH):
        with pytest.raises(ValueError):
            _closed_row(_CLOSED[key], 0, first=1)
        with pytest.raises(ValueError):
            _closed_row(_CLOSED[key], -1, first=1)
    with pytest.raises(ValueError):
        _closed_row(_CLOSED["falling"], -1)
    assert value(Kind.VARIED_WARD_LAH, -1, 0, Strategy.EXPLICIT) == 0


def test_binomial_values():
    assert Rescaling.BINOMIAL.factors(2) == [6, 4, 1]  # C(4, 2), C(4, 3), C(4, 4)
    assert Rescaling.NONE.factors(3) == [1, 1, 1, 1]


F = math.factorial


def _below(n, k):  # C(n-1, k-1)
    return F(n - 1) // (F(k - 1) * F(n - k))


# Each `_CLOSED` entry, one value at a time: its first k, T(n, k) as a
# factorial quotient, and rows by hand, from k = first.
_ORACLE = {
    "falling": (0, lambda n, k: F(n + k) // F(k), {
        0: [1],
        1: [1, 2],
        3: [6, 2 * 3 * 4, 60, 120],  # 3!, 4!/1!, 5!/2!, 6!/3!
        4: [1 * 2 * 3 * 4, 120, 6 * 5 * 4 * 3, 840, 1680],
    }),
    "c": (1, lambda n, m: F(n + m - 1) // (F(m - 1) * F(n)), {3: [1, 4, 10]}),  # C(3, 0), C(4, 1), C(5, 2)
    Rescaling.NONE: (0, lambda n, k: 1, {3: [1, 1, 1, 1]}),
    Rescaling.VARIED: (0, lambda n, k: F(2 * n) // F(n + k) * F(k), {3: [120, 30, 12, 6]}),
    Rescaling.BINOMIAL: (0, lambda n, k: F(2 * n) // (F(n + k) * F(n - k)), {2: [6, 4, 1]}),
    Kind.WARD_LAH: (1, lambda n, k: F(n + k) // F(k) * _below(n, k), {3: [24, 60 * 2, 120]}),
    Kind.VARIED_WARD_LAH: (1, lambda n, k: F(2 * n) * _below(n, k), {
        1: [2],
        5: [F(10) * c for c in (1, 4, 6, 4, 1)],  # (2n)! C(4, k-1)
    }),
    Kind.BINOMIAL_WARD_LAH: (1, lambda n, k: F(2 * n) // (F(k) * F(n - k)) * _below(n, k),
                             {3: [360, 360 * 2, 120]}),
}


@pytest.mark.parametrize("one", [1, Decimal(1)], ids=["int", "Decimal"])
@pytest.mark.parametrize("key", list(_CLOSED), ids=lambda key: getattr(key, "value", key))
def test_closed_entry_equals_its_factorial_oracle(key, one):
    # Decimal rows are exact only in a context that holds their digits, as
    # gen's does.
    first, entry, by_hand = _ORACLE[key]
    with decimal.localcontext(gen.CONTEXT):
        for n, row in by_hand.items():
            assert _closed_row(_CLOSED[key], n, one, first) == row, n
        for n in range(first, 121):
            row = _closed_row(_CLOSED[key], n, one, first)
            assert row == [entry(n, k) for k in range(first, n + 1)], n
            assert {type(v) for v in row} == {type(one)}
            if isinstance(key, Rescaling):  # written in j = n - k, a factor's row runs from k = n
                reflected = [(e, a + b, -b, c) for e, a, b, c in _CLOSED[key]]
                assert _closed_row(reflected, n, one) == row[::-1], n
                assert key.factors(n, one) == row, n


def test_exact_div():
    assert exact_div(12, 4) == 3
    assert exact_div(-12, 3) == -4
    with pytest.raises(ExactnessError):
        exact_div(12, 5)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


@given(
    st.integers(min_value=-10**40, max_value=10**40),
    st.integers(min_value=-10**12, max_value=10**12).filter(bool),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([int, Decimal]),
)
def test_exact_div_is_divmods_quotient_or_raises(q, b, e, number):
    # a = q*b + e is a multiple of b exactly when divmod leaves no remainder
    with decimal.localcontext(gen.CONTEXT):  # the context gen steps its Decimal rows in
        a, b = number(q * b + e), number(b)
        quotient, remainder = divmod(a, b)
        if remainder:
            with pytest.raises(ExactnessError):
                exact_div(a, b)
        else:
            got = exact_div(a, b)
            assert got == quotient and type(got) is number
