"""Luschny's Partition transformation over the integer partitions with a
fixed largest part, evaluated as integer partial Bell polynomials.

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
*Advanced Combinatorics*, 1974, ch. 3).  With m = n + k, e_1 = 0 and
e_s = s! * A_(s-1) for s >= 2:

    (-1)^k * (n+k)!/k! * P(n, k) = m!/k! * [x^m] g(x)^k = B_(m,k)(e),
    g(x) = sum_{s>=2} e_s x^s / s! = x * sum_{t>=1} A_t x^t,

the partial Bell polynomial, with Comtet's recurrence

    B_(m,k) = sum_{s>=2} C(m-1, s-1) * e_s * B_(m-s,k-1),   B_(0,0) = 1.

This is the defining sum regrouped, not a recurrence of the triangles, so
the route stays independent of the others.  For the three named rules
B_(m,k) is the Ward entry T(n, k) itself, and every e_s is an integer:
(s-1)! for a_j = j/(j+1), 1 for a_j = 1/(j+1) and s! for a_j = 1.

Any rule is made integral by one normaliser per degree.  Let d_s be the
denominator of e_s in lowest terms, and

    Lambda_m = prod_{s=2..m} d_s^floor(m/s).

A monomial of B_(m,k) has parts s >= 2 that sum to m, so each part s
occurs at most floor(m/s) times, and Lambda_m clears its denominator.
Also floor(m/s) - floor((m-s)/s) = 1, so d_s divides
Lambda_m / Lambda_(m-s).  Hence every coefficient
c(m, s) = C(m-1, s-1) * e_s * Lambda_m / Lambda_(m-s) and every
H(m, k) = Lambda_m * B_(m,k) is an integer, and

    H(m, 1) = Lambda_m * e_m,   H(m, k) = sum_{s=2..m-2k+2} c(m, s) * H(m-s, k-1).

Lambda is 1 for the named rules, so there H is the entry.  Lambda_m is
Lambda_(m-1) times the d_s > 1 whose s divides m, so a rule whose e_s are
integers spends nothing on it.  e_s is stepped from e_(s-1) by the ratio
s * u_(s-1) / v_(s-1), put in lowest terms first, so the named rules
step by one product and never divide a large e_s.  The coefficients of
degree m do not depend on k, and step along s from
c(m, 1) = Lambda_m / Lambda_(m-1) (as if e_1 were 1) by

    c(m, s) = c(m, s-1) * (m-s+1) * (e_s / e_(s-1)) * Lambda_(m-s+1) / ((s-1) * Lambda_(m-s)),

from C(m-1, s-1) / C(m-1, s-2) = (m-s+1)/(s-1).  Each step is an
`exact_div`: a coefficient or a normaliser that is too small raises
`ExactnessError` (for most rules Lambda has factors to spare, so it
raises only once it is too small for the integers it must make).
`partition_transform` returns P(n, k) as the pair
(+-k! * H, (n+k)! * Lambda_(n+k)), not reduced, and `grow` returns a row
as the pairs (H, Lambda_(n+k)).  A value P(n, k) reads the rule's terms
a_1 ... a_(n+k-1), since Lambda_(n+k) reads e_(n+k).

The values are memoized per rule.  Column 1 is made for every degree
that the normalisers reach; columns k >= 2 are dicts cols[k] from n to
H(n+k, k), whole from n = k up to tops[k].  The value (n, k) reads column
k-1 for n' = k-1 .. n-1, so one fill makes the columns in one order: from
left to right, each by rising n, every value once, extending the
coefficients of each degree as a prefix.  One value costs one
`sum(map(mul, ...))` over its coefficients and column k-1.
`grow(rule, n)` fills every column 2 <= k <= n up to n, exactly the
values of rows 1..n besides column 1, which it makes up to n' = 2n-1:
the normalisers reach degree 2n, reading the rule to a_(2n-1).  The
triangles' transform route calls it once per row, and reads the row it
returns.  A lone value that is
not made yet fills only what it reads, and then itself: P(1500, 1) makes
column 1 alone, and P(1500, 2) column 1 and its one value in column 2.
N rows keep about N^2 coefficients, which for ward1 and ward-lah are as
large as the entries.  A table is kept while its rule object lives, and
holds no reference to the rule; a rule that cannot be weakly referenced
(an instance of a class whose `__slots__` leave out `__weakref__`) gets a
table for one call only.

Every call fills and reads its table under the module's lock, one thread
at a time, and skips the values already made.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Callable
from math import factorial, gcd, prod
from operator import mul

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
    """One rule's memo: norm[j] = Lambda_j up to the degree M reached;
    steps[s-2], the ratio e_s / e_(s-1) for s <= M as a pair in lowest
    terms; `dens`, the pairs (s, d_s) for the s whose e_s had to be put in
    lowest terms, which hold every d_s > 1; e_M in lowest terms; coefs[m],
    the list c(m, 1), c(m, 2), ... as far as made; the columns cols[k], n
    to H(n+k, k); and tops[k], the n to which column k >= 2 is whole."""

    __slots__ = ("norm", "steps", "dens", "e", "coefs", "cols", "tops")

    def __init__(self) -> None:
        self.norm, self.steps, self.dens, self.e = [1, 1], [], [], (1, 1)
        self.coefs, self.cols, self.tops = {}, {1: {}}, {}


def _fill(table: _Table, rule: ArgumentRule, n: int, k: int, lone: bool) -> None:
    """Make the value H(n+k, k) and what it reads when `lone`, else every
    column up to k whole to n; call with `_lock` held."""
    norm, steps, dens, cols, (p, q) = table.norm, table.steps, table.dens, table.cols, table.e
    for s in range(len(norm), (n + k if lone else 2 * n) + 1):  # to the highest degree read
        u, v = rule(s - 1)
        if v <= 0:
            raise ValueError(f"argument rule gave denominator {v} at j={s - 1}; it must be positive")
        g = gcd(s * u, v)
        a, b = s * u // g, v // g  # e_s / e_(s-1) in lowest terms
        steps.append((a, b))
        p, q = p * a, q * b
        if q > 1:  # put e_s in lowest terms; an integer needs no division
            g = gcd(p, q)
            p, q = p // g, q // g
            dens.append((s, q))
        norm.append(norm[-1] * prod([d for r, d in dens if s % r == 0]))
        cols[1][s - 1] = p * (norm[s] // q)  # exact: Lambda_s / Lambda_(s-1) has the factor d_s = q
        table.e = p, q
    for c in range(2, k + 1):
        prev, col, whole = cols[c - 1], cols.setdefault(c, {}), table.tops.get(c, c - 1)
        for i in (n,) if lone and c == k else range(whole + 1, (n - k + c if lone else n) + 1):
            if i not in col:
                m = i + c
                coef = table.coefs.setdefault(m, [exact_div(norm[m], norm[m - 1])])  # c(m, 1) starts the steps
                for s in range(len(coef) + 1, i - c + 3):
                    a, b = steps[s - 2]
                    coef.append(exact_div(coef[-1] * ((m - s + 1) * a * norm[m - s + 1]), (s - 1) * b * norm[m - s]))
                col[i] = sum(map(mul, coef[1:], map(prev.__getitem__, range(i - 1, c - 2, -1))))  # e_1 = 0
            if i == whole + 1:
                whole = table.tops[c] = i


# Held weakly by rule, so a table goes with the last reference to its rule
# (a lambda made for one call leaves nothing behind); the named rules are
# module functions and keep theirs.
_tables: weakref.WeakKeyDictionary[ArgumentRule, _Table] = weakref.WeakKeyDictionary()
_lock = threading.Lock()


def clear_tables() -> None:
    """Drop the memoized columns of every rule."""
    with _lock:
        _tables.clear()


def _table(rule: ArgumentRule) -> _Table:
    """`rule`'s kept table (a new empty one if it has none yet), or for a
    rule that cannot be weakly referenced a table for this call only; call
    with `_lock` held."""
    try:
        return _tables.get(rule) or _tables.setdefault(rule, _Table())
    except TypeError:
        return _Table()


def grow(rule: ArgumentRule, n: int) -> list[tuple[int, int]]:
    """Fill `rule`'s table with every value of rows 1..n, each column
    k <= n made whole to n, and return row n: B_(n+k,k)(e) for k = 1..n as
    the pairs (H(n+k, k), Lambda_(n+k)) whose quotients are its values.
    A rule that cannot be weakly referenced gets a table for this call
    only, so it fills rows 1..n again at every call."""
    with _lock:
        _fill(table := _table(rule), rule, n, n, False)
        return [(table.cols[k][n], table.norm[n + k]) for k in range(1, n + 1)]


def partition_transform(n: int, k: int, rule: ArgumentRule) -> tuple[int, int]:
    """Evaluate the Partition transformation at (n, k) for one argument rule,
    as an exact pair (numerator, denominator) with a positive denominator,
    not reduced to lowest terms.

    Returns (1, 1) for n = k = 0 (boundary convention) and (0, 1) whenever
    no partition of n has largest part k.  Values are memoized per rule
    (one table serves every (n, k)) until `clear_tables` or until the rule
    is no longer referenced.  Under the lock, a value not made yet is made
    with what it reads, and the value is read.
    """
    if not 0 < k <= n:
        if n < 0 or k < 0:
            raise ValueError(f"partition bounds must be nonnegative, got ({n}, {k})")
        return (1 if n == k else 0), 1  # 1 only at n = k = 0
    with _lock:
        _fill(table := _table(rule), rule, n, k, True)
        H = factorial(k) * table.cols[k][n]
        return (-H if k & 1 else H), factorial(n + k) * table.norm[n + k]
