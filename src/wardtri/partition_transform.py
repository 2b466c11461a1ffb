"""Luschny's Partition transformation over the integer partitions with a
fixed largest part, evaluated as integer partial Bell polynomials.

The transformation maps an argument sequence a_1, a_2, ... to a triangular
array:

    P(n, k)(a) = sum over partitions q of n with largest part q_0 = k of
                 (-1)^(q_0) * prod_{j=0..len(q)-1} C(q_j, q_{j+1}) * a_{j+1}^(q_j)

with the trailing part q_{len(q)} taken as 0.  A rule states a_j = u_j/v_j
as the integer pair (u_j, v_j), with v_j > 0.  The module is generic and
defines no rule: each Ward base in `streams` holds its own.

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
the route stays independent of the others.  For the three Ward rules
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

Lambda is 1 for the Ward rules, so there H is the entry.  Lambda_m is
Lambda_(m-1) times the d_s > 1 whose s divides m, so a rule whose e_s are
integers spends nothing on it.  e_s is stepped from e_(s-1) by the ratio
s * u_(s-1) / v_(s-1), put in lowest terms first, so the Ward rules
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

A `Table(rule)` holds what one rule has made: the normalisers, the steps,
the coefficients of each degree as a prefix, and the columns, column k
the list H(n+k, k) for n = k, k+1, ..., always a whole prefix.  Column 1
is made for every degree that the normalisers reach.  The value (n, k)
reads column k-1 for n' = k-1 .. n-1, so the columns are made from left
to right, each by rising n, every value once; one value costs one
`sum(map(mul, ...))` over its coefficients and column k-1.
`grow(table, n)` makes every column 2 <= k <= n whole to n, exactly the
values of rows 1..n besides column 1, which it makes up to n' = 2n-1:
the normalisers reach degree 2n, reading the rule to a_(2n-1).  N rows
keep about N^2 coefficients, which for ward1 and ward-lah are as large as
the entries.  `partition_transform` makes only what its value reads, in a
new table for that call: column k' < k whole to n - k + k', and then the
value itself, so P(1500, 1) makes column 1 alone, and P(1500, 2) column 1
and one dot product.  It keeps nothing, so a repeated value is evaluated
again.

The module keeps no state.  A table belongs to its caller, who must not
grow it from two threads at once: the streams module keeps one per
base, for its transform route, under its own lock.
"""

from __future__ import annotations

from collections.abc import Callable
from math import factorial, gcd, prod
from operator import mul

from .exact_arith import exact_div

# Rule mapping index j >= 1 to the j-th argument term u_j/v_j as (u_j, v_j).
ArgumentRule = Callable[[int], tuple[int, int]]


class Table:
    """What one rule has made: norm[j] = Lambda_j up to the degree M
    reached; steps[s-2], the ratio e_s / e_(s-1) for s <= M as a pair in
    lowest terms; `dens`, the pairs (s, d_s) for the s whose e_s had to be
    put in lowest terms, which hold every d_s > 1; e_M in lowest terms;
    coefs[m], the list c(m, 1), c(m, 2), ... as far as made; and cols[k],
    the list H(n+k, k) for n = k, k+1, ... as far as made (cols[0] is
    empty)."""

    __slots__ = ("rule", "norm", "steps", "dens", "e", "coefs", "cols")

    def __init__(self, rule: ArgumentRule) -> None:
        self.rule, self.norm, self.steps, self.dens, self.e = rule, [1, 1], [], [], (1, 1)
        self.coefs, self.cols = {}, [[], []]


def _reach(table: Table, degree: int) -> None:
    """Make the normalisers, and with them column 1, up to `degree`."""
    norm, steps, dens, (p, q) = table.norm, table.steps, table.dens, table.e
    for s in range(len(norm), degree + 1):
        u, v = table.rule(s - 1)
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
        table.cols[1].append(p * (norm[s] // q))  # exact: Lambda_s / Lambda_(s-1) has the factor d_s = q
        table.e = p, q


def _value(table: Table, k: int, n: int) -> int:
    """H(n+k, k) for k >= 2, from column k-1 whole to n-1, extending the
    coefficients of degree n+k as far as it reads."""
    norm, steps, m = table.norm, table.steps, n + k
    coef = table.coefs.setdefault(m, [exact_div(norm[m], norm[m - 1])])  # c(m, 1) starts the steps
    for s in range(len(coef) + 1, n - k + 3):
        a, b = steps[s - 2]
        coef.append(exact_div(coef[-1] * ((m - s + 1) * a * norm[m - s + 1]), (s - 1) * b * norm[m - s]))
    return sum(map(mul, coef[1:], table.cols[k - 1][n - k::-1]))  # e_1 = 0


def _whole(table: Table, k: int, n: int) -> None:
    """Make column k >= 2 whole to n, from column k-1 whole to n-1."""
    if k == len(table.cols):
        table.cols.append([])
    col = table.cols[k]
    col.extend(_value(table, k, i) for i in range(k + len(col), n + 1))


def grow(table: Table, n: int) -> list[tuple[int, int]]:
    """Make every value of rows 1..n in `table`, each column k <= n whole
    to n, and return row n: B_(n+k,k)(e) for k = 1..n as the pairs
    (H(n+k, k), Lambda_(n+k)) whose quotients are its values."""
    _reach(table, 2 * n)
    for k in range(2, n + 1):
        _whole(table, k, n)
    return [(table.cols[k][n - k], table.norm[n + k]) for k in range(1, n + 1)]


def partition_transform(n: int, k: int, rule: ArgumentRule) -> tuple[int, int]:
    """Evaluate the Partition transformation at (n, k) for one argument rule,
    as an exact pair (numerator, denominator) with a positive denominator,
    not reduced to lowest terms.

    Returns (1, 1) for n = k = 0 (boundary convention) and (0, 1) whenever
    no partition of n has largest part k.  Makes what the value reads in a
    table of its own, which it drops, so every call evaluates anew.
    """
    if not 0 < k <= n:
        if n < 0 or k < 0:
            raise ValueError(f"partition bounds must be nonnegative, got ({n}, {k})")
        return (1 if n == k else 0), 1  # 1 only at n = k = 0
    _reach(table := Table(rule), n + k)
    for j in range(2, k):
        _whole(table, j, n - k + j)
    H = factorial(k) * (_value(table, k, n) if k > 1 else table.cols[1][n - 1])
    return (-H if k & 1 else H), factorial(n + k) * table.norm[n + k]
