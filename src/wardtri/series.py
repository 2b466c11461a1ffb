"""Truncated formal power series over exact rationals.

A series holds coefficients c_0..c_N; arithmetic is exact through order N
and silently truncates beyond it.  Binary operations align to the smaller
truncation order of the two operands.

Products and inverses run on integers: each operand is put over the common
denominator of its coefficients, the integer numerators are convolved, and
each result coefficient becomes a `Fraction` once, at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _over_common_denominator(coeffs: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """(d, [c * d for c in coeffs]) for d the least common denominator."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


class PowerSeries:
    """An immutable truncated series; two are equal when their coefficient
    tuples are."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    @classmethod
    def _of(cls, coeffs: tuple[Fraction, ...]) -> "PowerSeries":
        """A series over a nonempty tuple that holds only Fractions already."""
        series = object.__new__(cls)
        object.__setattr__(series, "coeffs", coeffs)
        return series

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable PowerSeries")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable PowerSeries")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return type(self), (self.coeffs,)

    @classmethod
    def from_list(cls, values, order: int | None = None) -> "PowerSeries":
        coeffs = [Fraction(v) for v in values]
        if order is not None:
            coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
            coeffs = coeffs[: order + 1]
        return cls(tuple(coeffs))

    @classmethod
    def constant(cls, c, order: int) -> "PowerSeries":
        return cls.from_list([c], order)

    @classmethod
    def x(cls, order: int) -> "PowerSeries":
        return cls.from_list([0, 1], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        if n > self.order:
            raise ValueError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "PowerSeries":
        if order < 0:
            raise ValueError("order must be nonnegative")
        if order >= self.order:
            return self
        return self._of(self.coeffs[: order + 1])

    def _aligned(self, other: "PowerSeries") -> tuple["PowerSeries", "PowerSeries"]:
        order = min(self.order, other.order)
        return self.truncate(order), other.truncate(order)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        a, b = self._aligned(other)
        return self._of(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        a, b = self._aligned(other)
        n = a.order
        da, na = _over_common_denominator(a.coeffs)
        db, nb = _over_common_denominator(b.coeffs)
        out = [0] * (n + 1)
        for i, ci in enumerate(na):
            if ci:
                for j, cj in enumerate(nb[: n + 1 - i], i):
                    out[j] += ci * cj
        d = da * db
        return self._of(tuple(Fraction(c, d) for c in out))

    def __pow__(self, exponent: int) -> "PowerSeries":
        if exponent < 0:
            raise ValueError("negative powers: invert first")
        result = PowerSeries.constant(1, self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, c) -> "PowerSeries":
        c = Fraction(c)
        return self._of(tuple(c * x for x in self.coeffs))

    def scalar_div(self, c) -> "PowerSeries":
        c = Fraction(c)
        if c == 0:
            raise ZeroDivisionError("scalar division by zero")
        return self.scale(1 / c)

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; needs a nonzero constant term.

        With the series over the common denominator d, c_i = a_i / d, the
        inverse's coefficients are d * b_n / a_0^(n+1) for the integers
        b_0 = 1, b_n = -sum_{i=1..n} a_i * a_0^(i-1) * b_(n-i).
        """
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        d, a = _over_common_denominator(self.coeffs)
        powers = [1]  # a_0^i
        for _ in self.coeffs:
            powers.append(powers[-1] * a[0])
        weights = [0] + [a[i] * powers[i - 1] for i in range(1, len(a))]
        b = [1]
        for n in range(1, len(a)):
            b.append(-sum(weights[i] * b[n - i] for i in range(1, n + 1)))
        return self._of(tuple(Fraction(d * bn, powers[n + 1]) for n, bn in enumerate(b)))

    def shift(self, m: int) -> "PowerSeries":
        """Multiply by x^m, keeping the truncation order."""
        if m < 0:
            raise ValueError("shift must be nonnegative")
        coeffs = (Fraction(0),) * m + self.coeffs
        return self._of(coeffs[: self.order + 1])


def one_minus_x(order: int) -> PowerSeries:
    return PowerSeries.from_list([1, -1], order)
