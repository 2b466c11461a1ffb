"""Luschny's Partition transformation over the integer partitions with a
fixed largest part, in integer arithmetic.

The transformation maps an argument sequence a_1, a_2, ... to a triangular
array:

    P(n, k)(a) = sum over partitions q of n with largest part q_0 = k of
                 (-1)^(q_0) * prod_{j=0..len(q)-1} C(q_j, q_{j+1}) * a_{j+1}^(q_j)

with the trailing part q_{len(q)} taken as 0.  A rule states a_j = u_j/v_j
as the integer pair (u_j, v_j), with v_j > 0.  The three argument families
used by the Ward triangles are provided as named rules.

The sum is evaluated without listing partitions, by regrouping it over the
conjugate partitions.  Read column by column, q has k columns; their
heights t_1 >= ... >= t_k sum to n, and q_j counts the columns of height
greater than j.  So prod_j a_{j+1}^(q_j) is prod_i A_(t_i), with the prefix
products A_t = a_1 * ... * a_t, and the binomials telescope to
k! / prod_t m_t!, where m_t counts the columns of height t: the number of
orderings of those heights.  Summing over every ordering gives the
exponential formula behind the partial Bell polynomials (L. Comtet,
*Advanced Combinatorics*, 1974, ch. 3):

    P(n, k) = (-1)^k * G_k(n),   G_k(n) = [x^n] f(x)^k,   f(x) = sum_{t>=1} A_t x^t,

so column k is one convolution of column k-1 with the A_t:

    G_1(n) = A_n,   G_k(n) = sum_{t=1..n-k+1} A_t * G_(k-1)(n-t).

This is the defining sum regrouped, not a recurrence of the triangles, so
the route stays independent of the others.  A triangle of N rows holds
N(N+1)/2 values and costs about N^3/6 terms in all, where listing
partitions grows faster than any polynomial.

No fraction is formed.  Each value is kept as the pair (H, B) with
G_k(n) = H / B, where B is the bound the partition sum has always used:
the i-th part after the first is at most k and at most r/i, with
r = n - k, so every term has a denominator dividing

    B_k(n) = v_1^k * prod_{i=1..r} v_(1+i)^min(k, floor(r/i)).

With V_m = v_1 * ... * v_m, column 1 is (U_n, V_n), U_n = u_1 * ... * u_n,
and the bound steps down the columns as

    B_k(n) = B_(k-1)(n-1) * V_floor(n/k),

since raising p = k-1 to k adds one to the exponent of v_(1+i) exactly
when i <= r/k.  Each value also keeps its column ratio
beta_k(n) = B_k(n) / B_k(n-1), an integer (no exponent falls as r grows),
which steps the same way: beta_1(n) = v_n, and beta_k(n) is
beta_(k-1)(n-1), times v_(n/k) when k divides n (on the diagonal, where
B_k(k-1) has no meaning, the ratio so made is never read).  The term t of H_k(n) is
H_(k-1)(n-t) * g_t with g_t = A_t * B_k(n) / B_(k-1)(n-t), an integer
(B_k(n) has every exponent of V_t * B_(k-1)(n-t)), and

    g_1 = V_floor(n/k) * u_1 / v_1,   g_t = g_(t-1) * beta_(k-1)(n-t+1) * u_t / v_t,

so g grows by a stored column ratio and one term of the rule; no term
divides one bound by another.  Each step is a division by v_t that must
be exact: a bound that is too small raises `ExactnessError`.

The values are memoized per rule, in columns: cols[k] maps n to the
triple (H, B, beta), whole from degree k up to tops[k].  The value (n, k)
reads columns c < k up to degree n-k+c (column 1 with the rule's terms),
so one fill makes them in one order: columns from left to right, each by
rising degree, every value once.  `grow(rule, n)` fills every
column k <= n up to degree n, exactly the values of rows 1..n; the
triangles' transform route calls it once per row.  A lone value that is
not made yet fills only what it reads, and then itself: P(1500, 1) makes
column 1 alone, and P(1500, 2) column 1 up to degree 1499 and its one value
in column 2.  A table is kept while its rule object lives, and holds no
reference to the rule; a rule that cannot be weakly referenced (an
instance of a class whose `__slots__` leave out `__weakref__`) gets a table
for one call only.

One thread at a time fills any table, under the module's lock, and
skips the values already made.  A value enters its column only once
final, and a column only ever gains values, so a lookup takes no lock:
one that finds no table, column or value yet falls through to the locked
fill.
"""

from __future__ import annotations

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


class _Table:
    """One rule's memo: the columns cols[k] (cols[0] unused), the degree
    tops[k] up to which column k is whole, and the rule's terms
    terms[t-1] = (u_t, v_t)."""

    __slots__ = ("cols", "tops", "terms")

    def __init__(self) -> None:
        self.cols, self.tops, self.terms = [None, {}], [0, 0], []


def _fill(table: _Table, rule: ArgumentRule, n: int, k: int, lone: bool) -> None:
    """Make the value of P(n, k) and what it reads when `lone`, else every
    column up to k whole to degree n; call with `_lock` held, or on a table
    no other call can see."""
    cols, tops, terms, first = table.cols, table.tops, table.terms, table.cols[1]  # first[t] = (U_t, V_t, v_t)
    for t in range(len(first) + 1, n - k + 2 if lone else n + 1):
        u, v = rule(t)
        if v <= 0:
            raise ValueError(f"argument rule gave denominator {v} at j={t}; it must be positive")
        U, V, _ = first.get(t - 1, (1, 1, 1))
        first[t] = U * u, V * v, v
        terms.append((u, v))
    cols += ({} for _ in range(len(cols), k + 1))
    tops += range(len(tops) - 1, k)  # column c starts whole to degree c-1
    for c in range(2, k + 1):
        prev, col = cols[c - 1], cols[c]
        for m in (n,) if lone and c == k else range(tops[c] + 1, (n - k + c if lone else n) + 1):
            if m not in col:
                (_, g, v), (_, B, beta) = first[m // c], prev[m - 1]
                h, B, s = 0, B * g, 1  # g * s = A_(t-1) * B_c(m) / B_(c-1)(m-t) before the step to t
                for t in range(1, m - c + 2):
                    u, w = terms[t - 1]
                    H, _, step = prev[m - t]
                    g, e = divmod(g * (s * u), w)
                    if e:
                        exact_div(g * w + e, w)  # raises: the bound is too small
                    h += H * g
                    s = step
                col[m] = h, B, (beta * v if m % c == 0 else beta)
            if m == tops[c] + 1:
                tops[c] = m


# Held weakly by rule, so a table goes with the last reference to its rule
# (a lambda made for one call leaves nothing behind); the named rules are
# module functions and keep theirs.
_tables: weakref.WeakKeyDictionary[ArgumentRule, _Table] = weakref.WeakKeyDictionary()
_lock = threading.Lock()


def clear_tables() -> None:
    """Drop the memoized columns of every rule."""
    with _lock:
        _tables.clear()


def grow(rule: ArgumentRule, n: int) -> None:
    """Fill `rule`'s table with every value of rows 1..n: each column k <= n
    made whole to degree n.  Raises `TypeError` for a rule that cannot be
    weakly referenced, which keeps no table."""
    with _lock:
        _fill(_tables.get(rule) or _tables.setdefault(rule, _Table()), rule, n, n, False)


def partition_transform(n: int, k: int, rule: ArgumentRule) -> tuple[int, int]:
    """Evaluate the Partition transformation at (n, k) for one argument rule,
    as an exact pair (numerator, denominator) with a positive denominator,
    not reduced to lowest terms.

    Returns (1, 1) for n = k = 0 (boundary convention) and (0, 1) whenever
    no partition of n has largest part k.  Values are memoized per rule
    (one table serves every (n, k)) until `clear_tables` or until the rule
    is no longer referenced.  A value that is not made yet is made, with
    what it reads, under the lock; a value already made is read without
    it.
    """
    if not 0 < k <= n:
        if n < 0 or k < 0:
            raise ValueError(f"partition bounds must be nonnegative, got ({n}, {k})")
        return (1 if n == k else 0), 1  # 1 only at n = k = 0
    try:
        H, B, _ = _tables[rule].cols[k][n]
    except LookupError:  # no table, column or value yet
        with _lock:
            _fill(table := _tables.setdefault(rule, _Table()), rule, n, k, True)
            H, B, _ = table.cols[k][n]
    except TypeError:  # a rule that cannot be weakly referenced gets a table for this call only
        _fill(table := _Table(), rule, n, k, True)
        H, B, _ = table.cols[k][n]
    return (-H if k & 1 else H), B
