"""Luschny's Partition transformation over the integer partitions with a
fixed largest part, in integer arithmetic.

The transformation maps an argument sequence a_1, a_2, ... to a triangular
array:

    P(n, k)(a) = sum over partitions q of n with largest part q_0 = k of
                 (-1)^(q_0) * prod_{j=0..len(q)-1} C(q_j, q_{j+1}) * a_{j+1}^(q_j)

with the trailing part q_{len(q)} taken as 0.  A rule states a_j = u_j/v_j
as the integer pair (u_j, v_j), with v_j > 0.  The three argument families
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

No fraction is formed.  The i-th part after the d-th is at most p and at
most r/i, so every term of G(d, p, r) has a denominator dividing the bound

    B(d, p, r) = v_d^p * prod_{i=1..r} v_{d+i}^min(p, floor(r/i)),

and the table holds the integers H = G * B.  Then H(d, p, 0) = u_d^p and

    H(d, p, r) = u_d^p * sum_q C(p, q) * H(d+1, q, r-q) * F(q),
    F(q) = B(d, p, r) / (v_d^p * B(d+1, q, r-q)),

where each F(q) is an integer (the child's exponents are no larger) formed
with `exact_div`, so a bound that is too small raises `ExactnessError`.  The exponent min(p, floor(r/i)) counts the t <= p with
t * i <= r, so B(d, p, r) / v_d^p is the product over t = 1..min(p, r) of
the runs v_(d+1) * ... * v_(d+floor(r/t)), and the run of length m is
B(d+1, 1, m-1), the bound of the all-ones tail: the table's own entries.

The pairs (H, B) are memoized in one dict per rule, kept while the rule
object lives; a rule that cannot be weakly referenced (an instance of a
class whose `__slots__` leave out `__weakref__`) gets a table for one call
only.  One thread at a time grows any of them, under the module's lock,
and a pair enters its dict only once final, so a lookup takes no lock.
The fill is demand-driven: it reaches only the tails the requested value
depends on.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections.abc import Callable

from .exact_arith import exact_div

# Rule mapping index j >= 1 to the j-th argument term u_j/v_j as (u_j, v_j).
ArgumentRule = Callable[[int], tuple[int, int]]


def constant_one(j: int) -> tuple[int, int]:
    """a_j = 1: the rule behind the Lah-flavoured triangles."""
    return 1, 1


def ward_first_kind(j: int) -> tuple[int, int]:
    """a_j = j/(j+1): the rule behind first-kind Ward triangles."""
    return j, j + 1


def ward_second_kind(j: int) -> tuple[int, int]:
    """a_j = 1/(j+1): the rule behind second-kind Ward triangles."""
    return 1, j + 1


def _runs(p: int, r: int) -> list[int]:
    """The run lengths floor(r/t), t = 1..min(p, r), whose run products
    make B(d, p, r) / v_d^p."""
    return [r // t for t in range(1, min(p, r) + 1)]


def _fill(
    g: dict[tuple[int, int, int], tuple[int, int]], rule: ArgumentRule, root: tuple[int, int, int]
) -> tuple[int, int]:
    """(H, B) at `root`, filling in every pair of `rule`'s table `g` it
    depends on; call with `_lock` held.  The leaves (u_d^p, v_d^p) are also
    the memo of the powers.  An explicit stack replaces recursion, whose
    depth would grow with n."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node in g:
            continue
        d, p, r = node
        if not r:
            u, v = rule(d)
            if v <= 0:
                raise ValueError(f"argument rule gave denominator {v} at j={d}; it must be positive")
            g[node] = (u**p, v**p)
            continue
        tails = [(d + 1, q, r - q) for q in range(1, min(p, r) + 1)]
        runs = [(d + 1, 1, m - 1) for m in _runs(p, r)]
        missing = [tail for tail in (*tails, *runs, (d, p, 0)) if tail not in g]
        if missing:
            stack += (node, *missing)  # node again once its children are in
            continue
        u_pow, v_pow = g[d, p, 0]
        c = math.prod(g[run][1] for run in runs)  # B(d, p, r) / v_d^p
        h = u_pow * sum(
            math.comb(p, q) * g[tail][0] * exact_div(c, g[tail][1]) for q, tail in enumerate(tails, 1)
        )
        g[node] = (h, v_pow * c)
    return g[root]


# Held weakly by rule, so a table goes with the last reference to its rule
# (a lambda made for one call leaves nothing behind); the named rules are
# module functions and keep theirs.
_tables: weakref.WeakKeyDictionary[ArgumentRule, dict[tuple[int, int, int], tuple[int, int]]] = (
    weakref.WeakKeyDictionary()
)
_lock = threading.Lock()


def clear_tables() -> None:
    """Drop the memoized tail tables of every rule."""
    with _lock:
        _tables.clear()


def partition_transform(n: int, k: int, rule: ArgumentRule) -> tuple[int, int]:
    """Evaluate the Partition transformation at (n, k) for one argument rule,
    as an exact pair (numerator, denominator) with a positive denominator,
    not reduced to lowest terms.

    Returns 1 for n = k = 0 (boundary convention) and 0 whenever no
    partition of n has largest part k.  Values are memoized per rule (one
    table serves every (n, k)) until `clear_tables` or until the rule is
    no longer referenced.
    """
    if n < 0 or k < 0:
        raise ValueError(f"partition bounds must be nonnegative, got ({n}, {k})")
    if n == 0 and k == 0:
        return 1, 1
    if k == 0 or k > n:
        return 0, 1
    root = (1, k, n - k)
    try:
        pair = _tables.get(rule, {}).get(root)
    except TypeError:  # a rule that cannot be weakly referenced gets a table for this call only
        pair = _fill({}, rule, root)
    if pair is None:
        with _lock:
            pair = _fill(_tables.setdefault(rule, {}), rule, root)
    h, b = pair
    return (-h if k % 2 else h), b
