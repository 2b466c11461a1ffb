"""The one exact primitive of the triangle formulas: a division that must
leave no remainder.

The routes make a row of every closed form (a `triangles._CLOSED` entry)
by stepping from an entry made of `math.factorial`s, each step one
`exact_div`, and every other division of a recurrence is one too.  So is
each step of the partition transform's coefficients, and the transform
route's division of each value by its normaliser (1 for the named rules).
A wrongly transcribed formula raises `ExactnessError` instead of
rounding.
Everything is a Python ``int``, except the rows that `gen` prints, which
are integral ``decimal.Decimal`` values (see `wardtri.commands.gen`): no
rationals, and never floating point.
"""

from __future__ import annotations


class ExactnessError(ArithmeticError):
    """A division that must be exact was not.

    Every division in the triangle formulas is provably exact, so hitting
    this means a formula was transcribed or applied wrongly.
    """


def exact_div(a: int, b: int) -> int:
    """a / b when b divides a exactly, for ints or integral Decimals;
    raises ExactnessError otherwise."""
    q, r = divmod(a, b)
    if r:
        raise ExactnessError(f"{a} is not divisible by {b}")
    return q
