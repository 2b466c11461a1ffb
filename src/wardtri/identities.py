"""Identity, recurrence, generating-function and conjecture checks for the
Ward-related triangles.

Every check sweeps a parameter range, honours the side conditions under
which its identity is stated (tuples outside them are skipped and counted,
never evaluated), and reports the first counterexample on failure.  A
check takes its range arguments and nothing else: it reads every entry
through `default_entry`, from the kind's `triangles.reference_route`
(explicit, scaling or partition transform, never the recurrence), so a
check never validates a recurrence against values built by that same
recurrence.  Tests inject a fault where the rows are made, in
`triangles._rows`; entries are still read through this module's own
`value` binding, so a tracer that rebinds it sees every lookup.

Every triangular stencil t[n][k] = num/den the suite checks is stated
once, in the table `_STENCILS`, and swept by the one check that
`_stencil_check` makes for it.  The seven the builder runs (ward-lah's
integer one, the varied and the binomial kinds) are read there from
`triangles._RECURRENCE`, as the builder reads them.  The test oracles are
the independent transcription.

A check reads each entry once, into a row table, and compares integers: a
rational identity is multiplied through by its positive denominator, and
fractions are formed only to report a counterexample.  The two
generating-function checks share one evaluator of x^shift (1-x)^-k / scale:
it expands (1-x)^-k by integer prefix sums and compares each coefficient
c / scale with the entry over its factorial as c * (weight*n)! ==
entry * scale.

Conjectured relations are flagged as such: their reports are evidence, and
a disagreement is surfaced rather than treated as a library bug.

The records and the sweep live in `compare`, which `wardtri check` imports
without this module; they are re-exported here.  The route comparison,
`compare.compare_routes`, is not: it reads row streams, not entries.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from itertools import accumulate
from math import comb, factorial, perm
from operator import mul

from .compare import CheckReport, Counterexample, _Sweep  # noqa: F401
from .triangles import SPEC, Base, Kind, Rescaling, Strategy, central, lah, reference_route, triangle
from .triangles import _RECURRENCE, value


def default_entry(kind: Kind) -> Callable[[int, int], int]:
    """Entry lookup for a kind via its reference route."""
    strategy = reference_route(kind)
    return lambda n, k: value(kind, n, k, strategy)


def _table(kind: Kind, max_n: int) -> list[list[int]]:
    """T[n][k] for 0 <= k <= n <= max_n, one `default_entry(kind)` call per
    entry.  Rows are max_n + 2 long and zero past k = n, so the reads just
    outside the triangle give 0, as `value` does."""
    e = default_entry(kind)
    return [[e(n, k) for k in range(n + 1)] + [0] * (max_n + 1 - n) for n in range(max_n + 1)]


# A triangular stencil: the kind whose reference-route table it reads, its
# range text (formatted with max_n), a step (n, k, t) -> (num, den), den > 0,
# stating t[n][k] = num/den, the first n and k swept, and a rule for the
# tuples skipped (and counted) in between.
_Stencil = namedtuple("_Stencil", "kind domain step first_n first_k skip", defaults=(1, 1, None))
# Every triangular stencil of the suite, keyed by report name.
_STENCILS: dict[str, _Stencil] = {}


def _stencil_check(name: str, doc: str, stencil: _Stencil) -> Callable[[int], CheckReport]:
    """Enter `stencil` in `_STENCILS` as `name`, and return its check, with
    docstring `doc`: a sweep of t[n][k] * den == num on reference-route
    values that reads the entry each time it runs."""
    _STENCILS[name] = stencil

    def check(max_n: int) -> CheckReport:
        kind, domain, step, first_n, first_k, skip = _STENCILS[name]
        t = _table(kind, max_n)
        sweep = _Sweep(name, domain.format(max_n))
        for n in range(first_n, max_n + 1):
            for k in range(first_k, n + 1):
                if skip is not None and skip(n, k):
                    sweep.skip()
                    continue
                num, den = step(n, k, t)
                sweep.compare_ratio(t[n][k], num, den, n, k)
        return sweep.report()

    check.__doc__ = doc
    return check


def _builder_check(name: str, kind: Kind) -> Callable[[int], CheckReport]:
    """The check of the recurrence `triangles` builds `kind` by, read from
    `_RECURRENCE[kind]` at each step; a binomial kind's holds off the
    diagonal only."""

    def step(n: int, k: int, t: Sequence[Sequence[int]]) -> tuple[int, int]:
        num, den = _RECURRENCE[kind]
        return num(n, k, t[n - 1][k], t[n - 1][k - 1]), den(n, k) if den else 1

    doc = f"The triangular recurrence the builder uses for {kind.value}"
    if SPEC[kind][1] is Rescaling.BINOMIAL:
        return _stencil_check(name, doc + ", off the diagonal.",
                              _Stencil(kind, "1<=k<=n-1, n<={}", step, skip=lambda n, k: k == n))
    return _stencil_check(name, doc + ".", _Stencil(kind, "1<=k<=n<={}", step))


def _order5(n: int, k: int, t: Sequence[Sequence[int]]) -> tuple[int, int]:
    # -4(n-2)(2n-1)^2/n * (c - 2d + e) + 4(2n-1)/(n(2n-3)) * (...), over n(2n-3)
    two_back = t[n - 2][k - 2] - 2 * t[n - 2][k - 1] + t[n - 2][k]
    one_back = (2 * (n - 1) ** 2 - 1) * t[n - 1][k - 1] + 2 * (n - 1) ** 2 * t[n - 1][k]
    num = -4 * (n - 2) * (2 * n - 1) ** 2 * (2 * n - 3) * two_back + 4 * (2 * n - 1) * one_back
    return num, n * (2 * n - 3)


check_triangular_wardlah_weighted = _stencil_check(
    "triangular-ward-lah-weighted", "Two-term ward-lah recurrence with weight (n+k)(n-1)/n; needs k >= 2.",
    _Stencil(
        Kind.WARD_LAH, "2<=k<=n<={}",
        # (n+k)(n-1)/n * (a + (n+k-1)/(k-1) * b), over n(k-1)
        lambda n, k, t: (
            (n + k) * (n - 1) * ((k - 1) * t[n - 1][k] + (n + k - 1) * t[n - 1][k - 1]), n * (k - 1)
        ),
        skip=lambda n, k: k < 2,
    ),
)
check_triangular_wardlah_integer = _builder_check("triangular-ward-lah-integer", Kind.WARD_LAH)
check_triangular_wardlah_onestep = _stencil_check(
    "triangular-ward-lah-onestep", "One-step ward-lah recurrence with weight (n+k) and ratio (n+k-1)/k.",
    # (n+k) * (a + (n+k-1)/k * b), over k
    _Stencil(Kind.WARD_LAH, "1<=k<=n<={}",
             lambda n, k, t: ((n + k) * (k * t[n - 1][k] + (n + k - 1) * t[n - 1][k - 1]), k)),
)
check_order3_wardlah = _stencil_check(
    "order3-ward-lah", "Order-3 recurrence for ward-lah mixing rows n-1 and n-2.",
    _Stencil(
        Kind.WARD_LAH, "2<=n<={}, 1<=k<=n",
        lambda n, k, t: (
            2 * (2 * n - 1) * t[n - 1][k - 1] - n * (n - 2) * t[n - 2][k] + (2 * n - 1) * t[n - 1][k], 1
        ),
        first_n=2,
    ),
)
check_triangular_varied_ward1 = _builder_check("triangular-varied-ward1", Kind.VARIED_WARD1)
check_triangular_varied_ward2 = _builder_check("triangular-varied-ward2", Kind.VARIED_WARD2)
check_triangular_varied_wardlah = _builder_check("triangular-varied-ward-lah", Kind.VARIED_WARD_LAH)
check_triangular_binomial_ward1 = _builder_check("triangular-binomial-ward1", Kind.BINOMIAL_WARD1)
check_triangular_binomial_ward2 = _builder_check("triangular-binomial-ward2", Kind.BINOMIAL_WARD2)
check_triangular_binomial_wardlah = _builder_check("triangular-binomial-ward-lah", Kind.BINOMIAL_WARD_LAH)
check_order5_binomial_wardlah = _stencil_check(
    "order5-binomial-ward-lah", "Order-5 recurrence for binomial ward-lah mixing rows n-1 and n-2.",
    _Stencil(Kind.BINOMIAL_WARD_LAH, "2<=n<={}, 2<=k<=n", _order5, first_n=2, first_k=2),
)


def check_alternating_sum_wardlah(max_n: int) -> CheckReport:
    """Signed Lah-number sum route for ward-lah equals its explicit formula."""
    t = _table(Kind.WARD_LAH, max_n)
    sums = triangle(Kind.WARD_LAH, max(max_n, 0), Strategy.ALTERNATING_SUM).rows
    # The alternating-sum route is the left-hand side; the reference entries
    # are the right-hand side.
    sweep = _Sweep("alternating-sum-ward-lah", f"1<=k<=n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            sweep.compare(sums[n][k], t[n][k], n, k)
    return sweep.report()


def _horizontal(
    kind: Kind,
    max_n: int,
    name: str,
    domain: str,
    lhs_weight: Callable[[list[int], int, int], int],
    rhs_weight: Callable[[list[int], int, int], int],
    row_weight: Callable[[list[int], int, int], int],
    skip_diagonal: bool = False,
) -> CheckReport:
    """Sweep an m-step horizontal recurrence through row p = n - m as

        T(n, k) * lhs_weight(n, k) * (2p)! == rhs_weight(n, k) * S(p, m, k),
        S(p, m, k) = sum_j C(m, j) * row_weight(p, k-j) * T(p, k-j),

    where row_weight puts row p over the common denominator (2p)! and the
    weights take f, f[i] = i!, first.  S(p, m) is the coefficient list of
    (1+x)^m times the weighted row p, so S(p, m) = S(p, m-1) + S(p, m-1)
    shifted by one: each n starts row n-1 at m = 0 and advances every p
    by one m.  Tuples are swept in (n, k, m) order, m = 1..n-1, so the
    first counterexample is the one a direct sum finds.
    """
    t = _table(kind, max_n)
    f = list(accumulate(range(1, 2 * max_n + 1), mul, initial=1))  # 0!..(2 max_n)!
    sweep = _Sweep(name, f"{domain}, 1<=m<=min({max_n - 1},n-1)")
    sums: list[list[int]] = []  # sums[p - 1] = S(p, n - p) for 1 <= p < n
    for n in range(2, max_n + 1):
        sums.append([row_weight(f, n - 1, kk) * t[n - 1][kk] for kk in range(n)])
        sums = [[x + y for x, y in zip(s + [0], [0] + s)] for s in sums]
        for k in range(1, n + 1):
            if skip_diagonal and k == n:
                sweep.skip()
                continue
            lhs, a, c = t[n][k], lhs_weight(f, n, k), rhs_weight(f, n, k)
            for m in range(1, n):
                p = n - m
                sweep.compare_ratio(lhs, c * sums[p - 1][k], a * f[2 * p], n, k, m)
    return sweep.report()


def check_horizontal_wardlah(max_n: int) -> CheckReport:
    """m-step horizontal recurrence for ward-lah across row n-m.

    T(n,k) = (n+k)!/k! * sum_j C(m,j) * kk!/(p+kk)! * T(p,kk), kk = k-j in
    1..p, p = n-m.
    """
    return _horizontal(
        Kind.WARD_LAH, max_n, "horizontal-ward-lah", f"1<=k<=n<={max_n}",
        lambda f, n, k: f[k],
        lambda f, n, k: f[n + k],
        # kk!/(p+kk)! = kk! * ((2p)!/(p+kk)!) / (2p)!, an exact quotient
        lambda f, p, kk: f[kk] * (f[2 * p] // f[p + kk]) if kk else 0,
    )


def check_horizontal_varied_wardlah(max_n: int) -> CheckReport:
    """m-step horizontal recurrence for varied ward-lah.

    T(n,k) = (2n)! * sum_j C(m,j) * T(p,kk)/(2p)!, kk = k-j >= 0, p = n-m.
    """
    return _horizontal(
        Kind.VARIED_WARD_LAH, max_n, "horizontal-varied-ward-lah",
        f"1<=k<=n<={max_n}",
        lambda f, n, k: 1,
        lambda f, n, k: f[2 * n],
        lambda f, p, kk: 1,
    )


def check_horizontal_binomial_wardlah(max_n: int) -> CheckReport:
    """m-step horizontal recurrence for binomial ward-lah (off-diagonal).

    T(n,k) = (2n)!/(k!(n-k)!) * sum_j C(m,j) * kk!(p-kk)!/(2p)! * T(p,kk),
    kk = k-j in 1..p, p = n-m.
    """
    return _horizontal(
        Kind.BINOMIAL_WARD_LAH, max_n, "horizontal-binomial-ward-lah",
        f"1<=k<=n-1, n<={max_n}",
        lambda f, n, k: f[k] * f[n - k],
        lambda f, n, k: f[2 * n],
        lambda f, p, kk: f[kk] * f[p - kk] if kk else 0,
        skip_diagonal=True,
    )


def _geometric(k: int, order: int) -> list[int]:
    """Coefficients 0..order of (1-x)^-k: 1 divided by (1-x) k times, each
    division the prefix sum b_n = a_n + b_(n-1)."""
    c = [1] + [0] * order
    for _ in range(k):
        c = list(accumulate(c))
    return c


def _column_gf(
    kind: Kind, k: int, order: int, name: str, shift: int, scale: int, weight: int
) -> CheckReport:
    """Sweep the coefficients of x^shift (1-x)^-k / scale through x^order:
    each one below x^shift is 0, and for k <= n <= order the coefficient
    of x^n is T(n+k-shift, k) / (weight*n)!."""
    e = default_entry(kind)
    sweep = _Sweep(f"{name}-k{k}", f"k={k}, n<={order}")
    series = [0] * shift + _geometric(k, order - shift)
    for n in range(shift):
        sweep.compare(series[n], 0, n, k)
    for n in range(k, order + 1):
        sweep.compare_ratio(series[n], e(n + k - shift, k), factorial(weight * n), n, k, lhs_den=scale)
    return sweep.report()


def check_egf_wardlah(k: int, order: int) -> CheckReport:
    """Column-k exponential generating function x^(2k) / (k! (1-x)^k).

    Coefficient of x^n must be wardlah(n-k, k)/n! for k <= n <= order; the
    series has no terms below x^(2k), which is asserted as well.
    """
    if k < 1 or order < 2 * k:
        raise ValueError(f"need k >= 1 and order >= 2k, got k={k}, order={order}")
    return _column_gf(Kind.WARD_LAH, k, order, "egf-ward-lah", 2 * k, factorial(k), 1)


def check_gf_variedwardlah(k: int, order: int) -> CheckReport:
    """Column-k generating function (x/(1-x))^k for varied ward-lah.

    Coefficient of x^n must be variedwardlah(n, k)/(2n)! for k <= n <= order;
    coefficients below x^k must vanish.
    """
    if k < 1 or order < k:
        raise ValueError(f"need 1 <= k <= order, got k={k}, order={order}")
    return _column_gf(Kind.VARIED_WARD_LAH, k, order, "gf-varied-ward-lah", k, 1, 2)


def check_lah_variedwardlah(max_n: int) -> CheckReport:
    """Rising-factorial Lah identity against a binomial sum of varied
    ward-lah entries from row n-k."""
    t = _table(Kind.VARIED_WARD_LAH, max_n)
    sweep = _Sweep("lah-varied-ward-lah", f"1<=k<=n<={max_n}")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            # the rising factorial (n-k+1)^(n-k) is (2(n-k))!/(n-k)!
            lhs = perm(2 * (n - k), n - k) * lah(n, k)
            rhs = comb(n, k) * sum(comb(k, j) * t[n - k][j] for j in range(k + 1))
            sweep.compare(lhs, rhs, n, k)
    return sweep.report()


def rowsum_pairs(kind: Kind, max_n: int) -> list[tuple[int, int, int]]:
    """(n, row sum, reference central value) for the row-sum relations of a
    binomial kind: the central numbers of its base's classical partner."""
    base, rescaling = SPEC[kind]
    if rescaling is not Rescaling.BINOMIAL:
        raise ValueError(f"row sums are compared for the binomial kinds only, not {kind.value}")
    e = default_entry(kind)
    return [(n, sum(e(n, k) for k in range(n + 1)), central(base.classical, n)) for n in range(max_n + 1)]


def _rowsums(kind: Kind, max_n: int, name: str, conjecture: bool) -> CheckReport:
    """Sweep the `rowsum_pairs` of a binomial kind for n <= max_n."""
    sweep = _Sweep(name, f"0<=n<={max_n}", conjecture=conjecture)
    for n, rowsum, ref in rowsum_pairs(kind, max_n):
        sweep.compare(rowsum, ref, n, 0)
    return sweep.report()


def check_conjecture_rowsums_stirling(kind: Kind, max_n: int) -> CheckReport:
    """Conjectured row sums: binomial Ward rows against central Stirling
    numbers (cycle numbers for the first kind, set numbers for the second).

    Reported as evidence; a failure is a finding, not a bug.
    """
    base, rescaling = SPEC[kind]
    if rescaling is not Rescaling.BINOMIAL or base is Base.WARD_LAH:
        raise ValueError(f"row-sum conjecture applies to binomial Ward kinds, not {kind.value}")
    return _rowsums(kind, max_n, f"conjecture-rowsums-{kind.value}-{base.classical}", True)


def check_central_lah_rowsums(max_n: int) -> CheckReport:
    """Row sums of binomial ward-lah equal central Lah numbers."""
    return _rowsums(Kind.BINOMIAL_WARD_LAH, max_n, "central-lah-rowsums", False)


# Columns 1..GF_MAX_K of the two generating-function checks.
GF_MAX_K = 8


def run_identity_suite(max_n: int) -> list[CheckReport]:
    """Every non-conjecture check at its full range, for the CLI and tests.
    Raises `ValueError` for `max_n` below 2, where some checks would compare
    no case and pass."""
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    reports = [
        check_alternating_sum_wardlah(max_n),
        check_triangular_wardlah_weighted(max_n),
        check_triangular_wardlah_integer(max_n),
        check_triangular_wardlah_onestep(max_n),
        check_horizontal_wardlah(max_n),
        check_order3_wardlah(max_n),
        check_triangular_varied_ward1(max_n),
        check_triangular_varied_ward2(max_n),
        check_triangular_varied_wardlah(max_n),
        check_horizontal_varied_wardlah(max_n),
        check_triangular_binomial_ward1(max_n),
        check_triangular_binomial_ward2(max_n),
        check_triangular_binomial_wardlah(max_n),
        check_horizontal_binomial_wardlah(max_n),
        check_order5_binomial_wardlah(max_n),
        check_lah_variedwardlah(max_n),
        check_central_lah_rowsums(max_n),
    ]
    for k in range(1, GF_MAX_K + 1):
        order = max(max_n, 2 * k)
        reports.append(check_egf_wardlah(k, order))
        reports.append(check_gf_variedwardlah(k, order))
    return reports
