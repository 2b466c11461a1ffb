"""Luschny's Partition transformation over the integer partitions with a
fixed largest part.

The transformation maps an argument sequence a_1, a_2, ... (a rule giving a
rational for every index j >= 1) to a triangular array:

    P(n, k)(a) = sum over partitions q of n with largest part q_0 = k of
                 (-1)^(q_0) * prod_{j=0..len(q)-1} C(q_j, q_{j+1}) * a_{j+1}^(q_j)

with the trailing part q_{len(q)} taken as 0.  The three argument families
used by the Ward triangles are provided as named rules.

The sum is evaluated without listing partitions.  Partitions that agree
from their d-th part on share that tail's factor, so the sum factors over
tails: with p the d-th part and r the sum of the parts after it,

    G(d, p, 0) = a_d^p
    G(d, p, r) = a_d^p * sum_{q=1..min(p, r)} C(p, q) * G(d+1, q, r-q)

and P(n, k) = (-1)^k * G(1, k, n-k).  This is the defining sum regrouped,
not a recurrence of the triangles, so the route stays independent of the
others.  A triangle of N rows needs O(N^2 log N) values of G and O(N^3)
products in all, where listing partitions grows faster than any polynomial.

The values of G are memoized in one dict per rule.  One thread at a time
grows any of them, under the module's lock, and a value enters its dict
only once final, so a lookup takes no lock.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from fractions import Fraction

# Rule mapping index j >= 1 to the j-th argument term.
ArgumentRule = Callable[[int], Fraction]


def constant_one(j: int) -> Fraction:
    """a_j = 1: the rule behind the Lah-flavoured triangles."""
    return Fraction(1)


def ward_first_kind(j: int) -> Fraction:
    """a_j = j/(j+1): the rule behind first-kind Ward triangles."""
    return Fraction(j, j + 1)


def ward_second_kind(j: int) -> Fraction:
    """a_j = 1/(j+1): the rule behind second-kind Ward triangles."""
    return Fraction(1, j + 1)


def _fill(
    g: dict[tuple[int, int, int], Fraction], rule: ArgumentRule, root: tuple[int, int, int]
) -> Fraction:
    """G at `root`, filling in every value of `rule`'s table `g` it depends
    on; call with `_lock` held.  The leaves G(d, p, 0) = a_d^p are also the
    memo of the powers.  An explicit stack replaces recursion, whose depth
    would grow with n."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node in g:
            continue
        d, p, r = node
        if not r:
            g[node] = Fraction(rule(d)) ** p
            continue
        tails = [(d + 1, q, r - q) for q in range(1, min(p, r) + 1)]
        missing = [tail for tail in (*tails, (d, p, 0)) if tail not in g]
        if missing:
            stack += (node, *missing)  # node again once its children are in
            continue
        g[node] = g[d, p, 0] * sum(math.comb(p, q) * g[tail] for q, tail in enumerate(tails, 1))
    return g[root]


_tables: dict[ArgumentRule, dict[tuple[int, int, int], Fraction]] = {}
_lock = threading.Lock()


def clear_tables() -> None:
    """Drop the memoized tail tables of every rule."""
    with _lock:
        _tables.clear()


def partition_transform(n: int, k: int, rule: ArgumentRule) -> Fraction:
    """Evaluate the Partition transformation at (n, k) for one argument rule.

    Returns 1 for n = k = 0 (boundary convention) and 0 whenever no
    partition of n has largest part k.  Values are memoized per rule (one
    table serves every (n, k)) until `clear_tables`.
    """
    if n < 0 or k < 0:
        raise ValueError(f"partition bounds must be nonnegative, got ({n}, {k})")
    if n == 0 and k == 0:
        return Fraction(1)
    if k == 0 or k > n:
        return Fraction(0)
    root = (1, k, n - k)
    value = _tables.get(rule, {}).get(root)
    if value is None:
        with _lock:
            value = _fill(_tables.setdefault(rule, {}), rule, root)
    return -value if k % 2 else value
