"""Exact integer primitives used by every triangle formula.

Everything is a plain Python ``int`` (arbitrary precision): no rationals,
and never floating point.
"""

from __future__ import annotations

import math


class ExactnessError(ArithmeticError):
    """A division that must be exact was not.

    Every division in the triangle formulas is provably exact, so hitting
    this means a formula was transcribed or applied wrongly.
    """


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial of negative integer {n}")
    return math.factorial(n)


def falling_factorial(x: int, n: int) -> int:
    """x(x-1)...(x-n+1), the product of n decreasing factors; 1 for n = 0.

    Defined for every integer x; equals x!/(x-n)! when x >= n >= 0.
    """
    if n < 0:
        raise ValueError(f"falling factorial needs n >= 0, got {n}")
    out = 1
    for i in range(n):
        out *= x - i
    return out


def rising_factorial(x: int, n: int) -> int:
    """x(x+1)...(x+n-1), the product of n increasing factors; 1 for n = 0."""
    if n < 0:
        raise ValueError(f"rising factorial needs n >= 0, got {n}")
    out = 1
    for i in range(n):
        out *= x + i
    return out


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the conventions the summation formulas need.

    - k < 0: 0 (makes alternating sums well defined at their lower edge)
    - 0 <= k <= n: the usual value
    - n >= 0, k > n: 0
    - n < 0, k >= 0: (-1)^k * C(k-n-1, k), the generalized upper index
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    sign = -1 if k % 2 else 1
    return sign * math.comb(k - n - 1, k)


def exact_div(a: int, b: int) -> int:
    """a / b when b divides a exactly; raises ExactnessError otherwise."""
    q, r = divmod(a, b)
    if r != 0:
        raise ExactnessError(f"{a} is not divisible by {b}")
    return q
