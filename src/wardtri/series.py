"""Truncated formal power series over exact rationals.

A series holds coefficients c_0..c_N; arithmetic is exact through order N
and silently truncates beyond it.  Binary operations align to the smaller
truncation order of the two operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PowerSeries:
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

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
        return PowerSeries(self.coeffs[: order + 1])

    def _aligned(self, other: "PowerSeries") -> tuple["PowerSeries", "PowerSeries"]:
        order = min(self.order, other.order)
        return self.truncate(order), other.truncate(order)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        a, b = self._aligned(other)
        return PowerSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        a, b = self._aligned(other)
        n = a.order
        out = [Fraction(0)] * (n + 1)
        for i, ci in enumerate(a.coeffs):
            if ci == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += ci * b.coeffs[j]
        return PowerSeries(tuple(out))

    def __pow__(self, exponent: int) -> "PowerSeries":
        if exponent < 0:
            raise ValueError("negative powers: invert first")
        result = PowerSeries.constant(1, self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, c) -> "PowerSeries":
        c = Fraction(c)
        return PowerSeries(tuple(c * x for x in self.coeffs))

    def scalar_div(self, c) -> "PowerSeries":
        c = Fraction(c)
        if c == 0:
            raise ZeroDivisionError("scalar division by zero")
        return self.scale(1 / c)

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; needs a nonzero constant term."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        out = [Fraction(0)] * (self.order + 1)
        out[0] = 1 / a0
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, min(n, self.order) + 1):
                acc += self.coeffs[i] * out[n - i]
            out[n] = -acc / a0
        return PowerSeries(tuple(out))

    def shift(self, m: int) -> "PowerSeries":
        """Multiply by x^m, keeping the truncation order."""
        if m < 0:
            raise ValueError("shift must be nonnegative")
        coeffs = (Fraction(0),) * m + self.coeffs
        return PowerSeries(coeffs[: self.order + 1])


def one_minus_x(order: int) -> PowerSeries:
    return PowerSeries.from_list([1, -1], order)
