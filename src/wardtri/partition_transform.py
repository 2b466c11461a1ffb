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
with `exact_div`, so a bound that is too small raises `ExactnessError`.
The exponent min(p, floor(r/i)) counts the t <= p with t * i <= r, so
B(d, p, r) / v_d^p is the product over t = 1..min(p, r) of the runs
v_(d+1) * ... * v_(d+floor(r/t)), and the run of length m is
B(d+1, 1, m-1), the bound of the all-ones tail: the table's own entries.

A node (d, p, r) has weight d*p + r: the first row n whose values read
it, as the tail of the partitions that start with d parts equal to p.
Its children (the leaf (d, p, 0), the tails and the runs) have a smaller
weight, or the same weight and d one larger, so taking nodes by weight,
and within a weight by falling d, makes every child before its parent.

The pairs (H, B) are memoized per rule, in layers: table[d] is layer d,
a dict from p to column p, and table[d][p] is a dict from r to the pair
of node (d, p, r).  A layer or column is made, empty, by the first fill
that needs it.  A step reads its children from layer d+1 by integer keys,
so no node key is built or hashed on the way.  A table is kept while its
rule object lives; a rule that cannot be weakly referenced (an instance of
a class whose `__slots__` leave out `__weakref__`) gets a table for one
call only.  Two fills grow a table.  Both take nodes in that order and make
each one once, from its children, by one step (`_pair`):

- `grow(rule, n)` fills it weight by weight up to n, which is exactly the
  set of nodes that rows 1..n read.  The triangles' transform route calls
  it once per row.
- `partition_transform` fills on demand whatever a lone value past the
  filled weight depends on, and only that: P(1500, 1) reads 2999 nodes,
  where filling every weight up to 1500 would make 7.9 million.

Both fills share one lock and one memo: one thread at a time grows any
table, under the module's lock, and either order skips the nodes the
other has made.  A pair enters its column only once final, and a layer or
column only ever gains entries, so a lookup takes no lock: one that finds
no table, layer, column or pair yet falls through to the locked fill.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Callable, Iterator
from math import comb

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


def _runs(p: int, r: int) -> Iterator[int]:
    """The run lengths floor(r/t), t = 1..min(p, r), whose run products
    make B(d, p, r) / v_d^p."""
    return map(r.__floordiv__, range(1, (p if p < r else r) + 1))  # builtin min is slow on two ints


def _pair(table: dict, rule: ArgumentRule, d: int, p: int, r: int) -> tuple[int, int]:
    """(H, B) at (d, p, r), from the pairs in `rule`'s table of its
    children: the leaf (d, p, 0), the tails (d+1, q, r-q) and the all-ones
    runs (d+1, 1, m-1).  The leaves (u_d^p, v_d^p) are also the memo of
    the powers."""
    if not r:
        u, v = rule(d)
        if v <= 0:
            raise ValueError(f"argument rule gave denominator {v} at j={d}; it must be positive")
        return u**p, v**p
    (u, v), below, c, h = table[d][p][0], table[d + 1], 1, 0
    for m in _runs(p, r):
        c *= below[1][m - 1][1]  # c = B(d, p, r) / v_d^p
    for q in range(1, (p if p < r else r) + 1):
        f, e = divmod(c, (tail := below[q][r - q])[1])
        h += comb(p, q) * tail[0] * (exact_div(c, tail[1]) if e else f)  # exact_div raises on a remainder
    return u * h, v * c


def _fill(table: dict, rule: ArgumentRule, root: tuple[int, int, int]) -> tuple[int, int]:
    """(H, B) at `root`, filling in every pair of `rule`'s table it depends
    on; call with `_lock` held.  A list read while it grows (recursion
    would go n deep) gathers the missing nodes, which are then made once
    each in weight order."""
    reached, missing = [root], set()
    for d, p, r in reached:  # read as it grows: a missing node adds its leaf, tails and all-ones runs
        if (d, p, r) not in missing and r not in table.setdefault(d, {}).setdefault(p, {}):
            missing.add((d, p, r))
            reached += (d, p, 0), *((d + 1, q, r - q) for q in range(1, min(p, r) + 1))
            reached += ((d + 1, 1, m - 1) for m in (_runs(p, r) if r else ()))  # a leaf has no runs
    for d, p, r in sorted(missing, key=lambda node: (node[0] * node[1] + node[2], -node[0])):
        table[d][p][r] = _pair(table, rule, d, p, r)
    return table[root[0]][root[1]][root[2]]


# table[d][p][r] is the pair (H, B) of node (d, p, r).  Held weakly by rule,
# so a table goes with the last reference to its rule (a lambda made for
# one call leaves nothing behind); the named rules are module functions and
# keep theirs.  _filled holds the weight that `grow` has filled each table
# to.
_tables: weakref.WeakKeyDictionary[ArgumentRule, dict] = weakref.WeakKeyDictionary()
_filled: weakref.WeakKeyDictionary[ArgumentRule, int] = weakref.WeakKeyDictionary()
_lock = threading.Lock()


def clear_tables() -> None:
    """Drop the memoized tail tables of every rule, and the weights they
    were filled to."""
    with _lock:
        _tables.clear()
        _filled.clear()


def grow(rule: ArgumentRule, n: int) -> None:
    """Fill `rule`'s table with the pair of every node of weight at most n:
    the pairs that rows 1..n of the transform read.  The weights past the
    filled one are taken in turn, and within a weight d falls from w to 1,
    so each node is made once, after its children.  Raises `TypeError` for
    a rule that cannot be weakly referenced, which keeps no table."""
    with _lock:
        table = _tables.setdefault(rule, {})
        for w in range(_filled.get(rule, 0) + 1, n + 1):
            for d in range(w, 0, -1):
                for p in range(1, w // d + 1):  # column p of layer d starts at weight d*p, with its leaf
                    if (r := w - d * p) not in (table[d][p] if r else table.setdefault(d, {}).setdefault(p, {})):
                        table[d][p][r] = _pair(table, rule, d, p, r)
            _filled[rule] = w


def partition_transform(n: int, k: int, rule: ArgumentRule) -> tuple[int, int]:
    """Evaluate the Partition transformation at (n, k) for one argument rule,
    as an exact pair (numerator, denominator) with a positive denominator,
    not reduced to lowest terms.

    Returns (1, 1) for n = k = 0 (boundary convention) and (0, 1) whenever
    no partition of n has largest part k.  Values are memoized per rule
    (one table serves every (n, k)) until `clear_tables` or until the rule
    is no longer referenced.  A value that `grow` has not filled in is
    filled on demand, under the lock; a value already made is read without
    it.
    """
    if n < 0 or k < 0:
        raise ValueError(f"partition bounds must be nonnegative, got ({n}, {k})")
    if k == 0 or k > n:
        return (1 if n == k else 0), 1  # 1 only at n = k = 0
    try:
        pair = _tables[rule][1][k][n - k]
    except LookupError:  # no table, layer, column or pair yet
        with _lock:
            pair = _fill(_tables.setdefault(rule, {}), rule, (1, k, n - k))
    except TypeError:  # a rule that cannot be weakly referenced gets a table for this call only
        pair = _fill({}, rule, (1, k, n - k))
    return (-pair[0] if k % 2 else pair[0]), pair[1]
