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
`value` binding, so a tracer that rebinds it sees every lookup.  A check
compares integers, a row of cases at a time, through its sweep's one
method, `_Sweep.compare`: a rational identity is multiplied through by its
positive denominator, and fractions are formed, by `compare.ratio`, only
to report a counterexample.

Every statement a check sweeps is one entry of the table `_CHECKS`, keyed
by report name in the order the suite prints.  An entry has one of four
shapes, each with one sweep: a triangular stencil t[n][k] = num/den, an
m-step horizontal sum stated by its weight w = num/den, a
generating-function column, or (n, k, lhs, rhs) pairs against a
reference.  One maker, `_check`, enters each statement and
returns its public check, which reads the entry each time it runs.  The
seven stencils the builder runs are read from `triangles._RECURRENCE`, as
the builder reads them.  The test oracles are the independent transcription.
Conjectured relations are flagged as such: their reports are evidence, and
a disagreement is surfaced rather than treated as a library bug.

The records and the sweep live in `compare`, which `wardtri check` imports
without this module; they are re-exported here.  The route comparison,
`compare.compare_routes`, is not: it reads row streams, not entries.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from itertools import accumulate, groupby, islice
from math import comb, factorial, perm
from operator import itemgetter, mul

from .compare import CheckReport, Counterexample, _Sweep, ratio  # noqa: F401
from . import triangles
from .exact_arith import exact_div
from .triangles import SPEC, Kind, Rescaling, Strategy, lah, reference_route, triangle
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


class _Stencil(namedtuple("_Stencil", "kind domain step first_n first_k skip", defaults=(1, 1, None))):
    """A triangular stencil: the kind whose reference-route table it reads,
    its range text (formatted with max_n), a step (n, k, t) -> (num, den),
    den > 0, stating t[n][k] = num/den, the first n and k swept, and a rule
    for the tuples skipped (and counted) in between."""

    def sweep(self, name: str, max_n: int) -> CheckReport:
        kind, domain, step, first_n, first_k, skip = self
        t = _table(kind, max_n)
        sweep = _Sweep(name, domain.format(max_n))
        for n in range(first_n, max_n + 1):
            ks = [k for k in range(first_k, n + 1) if skip is None or not skip(n, k)]
            sweep.skipped += len(range(first_k, n + 1)) - len(ks)
            steps = [step(n, k, t) for k in ks]
            sweep.compare([t[n][k] * den for k, (_, den) in zip(ks, steps)], [num for num, _ in steps],
                          lambda i: Counterexample(n, ks[i], ratio(t[n][ks[i]], 1), ratio(*steps[i])))
        return sweep.report()


class _Horizontal(namedtuple("_Horizontal", "kind domain weight skip_diagonal", defaults=(False,))):
    """An m-step horizontal recurrence through row p = n - m, with the kind
    it reads, its range text in k and n (formatted with max_n), its weight
    w(n, k) = num/den as weight(f, n, k) -> (num, den), f[i] = i!, and
    whether the diagonal k = n is skipped.  It states that U = w * T obeys

        U(n, k) = sum_j C(m, j) * U(p, k-j),

    Pascal's rule U(n, k) = U(n-1, k) + U(n-1, k-1) applied m times.  Row
    p is put over the common denominator (2p)!, as the integers
    exact_div(num(p, kk) * (2p)!, den(p, kk)) * T(p, kk) (a weight for which
    they are not integers raises `ExactnessError`), and each case is

        T(n, k) * num(n, k) * (2p)! == den(n, k) * S(p, m, k),

    S(p, m, k) the sum over j of that row, kk = k-j in 0..p (a statement
    over kk >= 1 says the same, as T(p, 0) = 0 for p >= 1).  S(p, m) is
    the coefficient list of (1+x)^m times the row, so S(p, m) = S(p, m-1)
    + S(p, m-1) shifted by one: each n starts row n-1 at m = 0 and advances
    every p by one m.  Each (n, k) compares one row of cases, over
    m = 1..n-1, so tuples are compared in (n, k, m) order and the first
    counterexample is the one a direct sum finds."""

    def sweep(self, name: str, max_n: int) -> CheckReport:
        kind, domain, weight, skip_diagonal = self
        t = _table(kind, max_n)
        f = list(accumulate(range(1, 2 * max_n + 1), mul, initial=1))  # 0!..(2 max_n)!
        sweep = _Sweep(name, f"{domain.format(max_n)}, 1<=m<=min({max_n - 1},n-1)")
        sums: list[list[int]] = []  # sums[p - 1] = S(p, n - p) for 1 <= p < n
        for n in range(2, max_n + 1):
            weights = [weight(f, n - 1, kk) for kk in range(n)]
            sums.append([exact_div(num * f[2 * n - 2], den) * x for (num, den), x in zip(weights, t[n - 1])])
            sums = [[x + y for x, y in zip(s + [0], [0] + s)] for s in sums]
            last = n - 1 if skip_diagonal else n
            sweep.skipped += n - last
            for k in range(1, last + 1):
                num, den = weight(f, n, k)
                dens = [num * f[2 * p] for p in range(n - 1, 0, -1)]  # m = 1..n-1
                nums = [den * s[k] for s in reversed(sums)]
                sweep.compare([t[n][k] * d for d in dens], nums,
                              lambda i: Counterexample(n, k, ratio(t[n][k], 1), ratio(nums[i], dens[i]), i + 1))
        return sweep.report()


def _geometric(k: int, order: int) -> list[int]:
    """Coefficients 0..order of (1-x)^-k: 1 divided by (1-x) k times, each
    division the prefix sum b_n = a_n + b_(n-1)."""
    c = [1] + [0] * order
    for _ in range(k):
        c = list(accumulate(c))
    return c


class _ColumnGF(namedtuple("_ColumnGF", "kind shift scale weight need")):
    """Column k of x^(shift*k) (1-x)^-k / scale(k), expanded by integer
    prefix sums: each coefficient c below x^(shift*k) is 0, and for
    k <= n <= order c * (weight*n)! == T(n+k-shift*k, k) * scale(k).  `need`
    states k >= 1 and order >= shift*k, which the check raises without."""

    def sweep(self, name: str, k: int, order: int) -> CheckReport:
        kind, shift, scale, weight, need = self
        if k < 1 or order < shift * k:
            raise ValueError(f"need {need}, got k={k}, order={order}")
        shift, scale = shift * k, scale(k)
        e = default_entry(kind)
        sweep = _Sweep(f"{name}-k{k}", f"k={k}, n<={order}")
        series = [0] * shift + _geometric(k, order - shift)
        sweep.compare(series[:shift], [0] * shift, lambda n: Counterexample(n, k, series[n], 0))
        ns = range(k, order + 1)
        dens = [factorial(weight * n) for n in ns]
        refs = [e(n + k - shift, k) for n in ns]
        sweep.compare([series[n] * d for n, d in zip(ns, dens)], [r * scale for r in refs],
                      lambda i: Counterexample(ns[i], k, ratio(series[ns[i]], scale), ratio(refs[i], dens[i])))
        return sweep.report()


class _Reference(namedtuple("_Reference", "kind domain pairs conjecture", defaults=(False,))):
    """A sum against a reference: the kind it reads, its range text
    (formatted with max_n), the (n, k, lhs, rhs) tuples pairs(kind, max_n)
    in (n, k) order, each n compared before the next is read, and whether
    the relation is only conjectured."""

    def sweep(self, name: str, max_n: int) -> CheckReport:
        kind, domain, pairs, conjecture = self
        sweep = _Sweep(name, domain.format(max_n), conjecture=conjecture)
        for _, row in groupby(pairs(kind, max_n), itemgetter(0)):
            cases = list(row)
            sweep.compare([c[2] for c in cases], [c[3] for c in cases], lambda i: Counterexample(*cases[i]))
        return sweep.report()


# Every statement, keyed by report name in the order the suite prints (a
# generating-function column k as name-k<k>), and the check that runs it.
_CHECKS: dict[str, _Stencil | _Horizontal | _ColumnGF | _Reference] = {}
_PUBLIC: dict[str, str] = {}


def _check(public: str, name: str, doc: str, statement) -> Callable[..., CheckReport]:
    """Enter `statement` in `_CHECKS` as `name`, and return the check
    `public`, with docstring `doc`, that sweeps the entry as it reads at
    each run: over (k, order) for a generating-function column, else max_n."""
    _CHECKS[name] = statement
    _PUBLIC[name] = public
    if isinstance(statement, _ColumnGF):
        def check(k: int, order: int) -> CheckReport:
            return _CHECKS[name].sweep(name, k, order)
    else:
        def check(max_n: int) -> CheckReport:
            return _CHECKS[name].sweep(name, max_n)

    check.__name__ = check.__qualname__ = public
    check.__doc__ = doc
    return check


def _builder_check(public: str, kind: Kind, suffix: str = "") -> Callable[[int], CheckReport]:
    """The check `public`, reported as triangular-<kind><suffix>, of the
    recurrence `triangles` builds `kind` by, read from `_RECURRENCE[kind]`
    at each step; a binomial kind's holds off the diagonal only."""

    def step(n: int, k: int, t: Sequence[Sequence[int]]) -> tuple[int, int]:
        num, den = _RECURRENCE[kind]
        return num(n, k, t[n - 1][k], t[n - 1][k - 1]), den(n, k) if den else 1

    name, doc = f"triangular-{kind.value}{suffix}", f"The triangular recurrence the builder uses for {kind.value}"
    if SPEC[kind][1] is Rescaling.BINOMIAL:
        return _check(public, name, doc + ", off the diagonal.",
                      _Stencil(kind, "1<=k<=n-1, n<={}", step, skip=lambda n, k: k == n))
    return _check(public, name, doc + ".", _Stencil(kind, "1<=k<=n<={}", step))


def _alternating_sum(kind: Kind, max_n: int):
    # The alternating-sum route is the left-hand side, the reference the right.
    t = _table(kind, max_n)
    sums = triangle(kind, max(max_n, 0), Strategy.ALTERNATING_SUM).rows
    return ((n, k, sums[n][k], t[n][k]) for n in range(1, max_n + 1) for k in range(1, n + 1))


def _order5(n: int, k: int, t: Sequence[Sequence[int]]) -> tuple[int, int]:
    # -4(n-2)(2n-1)^2/n * (c - 2d + e) + 4(2n-1)/(n(2n-3)) * (...), over n(2n-3)
    two_back = t[n - 2][k - 2] - 2 * t[n - 2][k - 1] + t[n - 2][k]
    one_back = (2 * (n - 1) ** 2 - 1) * t[n - 1][k - 1] + 2 * (n - 1) ** 2 * t[n - 1][k]
    num = -4 * (n - 2) * (2 * n - 1) ** 2 * (2 * n - 3) * two_back + 4 * (2 * n - 1) * one_back
    return num, n * (2 * n - 3)


def _lah_pairs(kind: Kind, max_n: int):
    # sums[p][k - 1] = sum_j C(k, j) T(p, j), the a_0 of row p after k
    # passes of a_j + a_(j+1), so the O(max_n^3) work is additions.
    t, sums = _table(kind, max_n), []
    for p in range(max_n):
        row, sums_p = t[p][:p + 1], []
        for _ in range(max_n - p):
            row = [x + y for x, y in zip(row, row[1:] + [0])]
            sums_p.append(row[0])
        sums.append(sums_p)
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            # the rising factorial (n-k+1)^(n-k) is (2(n-k))!/(n-k)!
            lhs = perm(2 * (n - k), n - k) * lah(n, k)
            yield n, k, lhs, comb(n, k) * sums[n - k][k - 1]


def rowsum_pairs(kind: Kind, max_n: int) -> list[tuple[int, int, int]]:
    """(n, row sum, reference central value) for the row-sum relations of a
    binomial kind: the central numbers of its base's classical partner."""
    base, rescaling = SPEC[kind]
    if rescaling is not Rescaling.BINOMIAL:
        raise ValueError(f"row sums are compared for the binomial kinds only, not {kind.value}")
    e = default_entry(kind)
    # Rows 0, 2, 4, ... of one stream of the classical triangle, one held at
    # a time: the memo behind `central` would keep rows 0..2 max_n.  It is
    # read through the module, where the tests' `flip_entry` reaches it.
    rows = islice(triangles._rows(base.classical, Strategy.RECURRENCE), 0, None, 2)
    return [(n, sum(e(n, k) for k in range(n + 1)), row[n]) for n, row in zip(range(max_n + 1), rows)]


def _rowsums_at_k0(kind: Kind, max_n: int):
    return ((n, 0, rowsum, ref) for n, rowsum, ref in rowsum_pairs(kind, max_n))


check_alternating_sum_wardlah = _check(
    "check_alternating_sum_wardlah", "alternating-sum-ward-lah",
    "Signed Lah-number sum route for ward-lah equals its explicit formula.",
    _Reference(Kind.WARD_LAH, "1<=k<=n<={}", _alternating_sum),
)
check_triangular_wardlah_weighted = _check(
    "check_triangular_wardlah_weighted", "triangular-ward-lah-weighted",
    "Two-term ward-lah recurrence with weight (n+k)(n-1)/n; needs k >= 2.",
    _Stencil(
        Kind.WARD_LAH, "2<=k<=n<={}",
        # (n+k)(n-1)/n * (a + (n+k-1)/(k-1) * b), over n(k-1)
        lambda n, k, t: ((n + k) * (n - 1) * ((k - 1) * t[n - 1][k] + (n + k - 1) * t[n - 1][k - 1]), n * (k - 1)),
        skip=lambda n, k: k < 2,
    ),
)
check_triangular_wardlah_integer = _builder_check("check_triangular_wardlah_integer", Kind.WARD_LAH, "-integer")
check_triangular_wardlah_onestep = _check(
    "check_triangular_wardlah_onestep", "triangular-ward-lah-onestep",
    "One-step ward-lah recurrence with weight (n+k) and ratio (n+k-1)/k.",
    # (n+k) * (a + (n+k-1)/k * b), over k
    _Stencil(Kind.WARD_LAH, "1<=k<=n<={}",
             lambda n, k, t: ((n + k) * (k * t[n - 1][k] + (n + k - 1) * t[n - 1][k - 1]), k)),
)
check_horizontal_wardlah = _check(
    "check_horizontal_wardlah", "horizontal-ward-lah",
    """m-step horizontal recurrence for ward-lah across row n-m.

    T(n,k) = (n+k)!/k! * sum_j C(m,j) * kk!/(p+kk)! * T(p,kk), kk = k-j in
    1..p, p = n-m.
    """,
    _Horizontal(Kind.WARD_LAH, "1<=k<=n<={}", lambda f, n, k: (f[k], f[n + k])),
)
check_order3_wardlah = _check(
    "check_order3_wardlah", "order3-ward-lah", "Order-3 recurrence for ward-lah mixing rows n-1 and n-2.",
    _Stencil(
        Kind.WARD_LAH, "2<=n<={}, 1<=k<=n",
        lambda n, k, t: (
            2 * (2 * n - 1) * t[n - 1][k - 1] - n * (n - 2) * t[n - 2][k] + (2 * n - 1) * t[n - 1][k], 1
        ),
        first_n=2,
    ),
)
check_triangular_varied_ward1 = _builder_check("check_triangular_varied_ward1", Kind.VARIED_WARD1)
check_triangular_varied_ward2 = _builder_check("check_triangular_varied_ward2", Kind.VARIED_WARD2)
check_triangular_varied_wardlah = _builder_check("check_triangular_varied_wardlah", Kind.VARIED_WARD_LAH)
check_horizontal_varied_wardlah = _check(
    "check_horizontal_varied_wardlah", "horizontal-varied-ward-lah",
    """m-step horizontal recurrence for varied ward-lah.

    T(n,k) = (2n)! * sum_j C(m,j) * T(p,kk)/(2p)!, kk = k-j >= 0, p = n-m.
    """,
    _Horizontal(Kind.VARIED_WARD_LAH, "1<=k<=n<={}", lambda f, n, k: (1, f[2 * n])),
)
check_triangular_binomial_ward1 = _builder_check("check_triangular_binomial_ward1", Kind.BINOMIAL_WARD1)
check_triangular_binomial_ward2 = _builder_check("check_triangular_binomial_ward2", Kind.BINOMIAL_WARD2)
check_triangular_binomial_wardlah = _builder_check("check_triangular_binomial_wardlah", Kind.BINOMIAL_WARD_LAH)
check_horizontal_binomial_wardlah = _check(
    "check_horizontal_binomial_wardlah", "horizontal-binomial-ward-lah",
    """m-step horizontal recurrence for binomial ward-lah (off-diagonal).

    T(n,k) = (2n)!/(k!(n-k)!) * sum_j C(m,j) * kk!(p-kk)!/(2p)! * T(p,kk),
    kk = k-j in 1..p, p = n-m.
    """,
    _Horizontal(Kind.BINOMIAL_WARD_LAH, "1<=k<=n-1, n<={}", lambda f, n, k: (f[k] * f[n - k], f[2 * n]),
                skip_diagonal=True),
)
check_order5_binomial_wardlah = _check(
    "check_order5_binomial_wardlah", "order5-binomial-ward-lah",
    "Order-5 recurrence for binomial ward-lah mixing rows n-1 and n-2.",
    _Stencil(Kind.BINOMIAL_WARD_LAH, "2<=n<={}, 2<=k<=n", _order5, first_n=2, first_k=2),
)
check_lah_variedwardlah = _check(
    "check_lah_variedwardlah", "lah-varied-ward-lah",
    """Rising-factorial Lah identity against a binomial sum of varied
    ward-lah entries from row n-k.""",
    _Reference(Kind.VARIED_WARD_LAH, "1<=k<=n<={}", _lah_pairs),
)
check_central_lah_rowsums = _check(
    "check_central_lah_rowsums", "central-lah-rowsums",
    "Row sums of binomial ward-lah equal central Lah numbers.",
    _Reference(Kind.BINOMIAL_WARD_LAH, "0<=n<={}", _rowsums_at_k0),
)
check_egf_wardlah = _check(
    "check_egf_wardlah", "egf-ward-lah",
    """Column-k exponential generating function x^(2k) / (k! (1-x)^k).

    Coefficient of x^n must be wardlah(n-k, k)/n! for k <= n <= order; the
    series has no terms below x^(2k), which is asserted as well.
    """,
    _ColumnGF(Kind.WARD_LAH, 2, factorial, 1, "k >= 1 and order >= 2k"),
)
check_gf_variedwardlah = _check(
    "check_gf_variedwardlah", "gf-varied-ward-lah",
    """Column-k generating function (x/(1-x))^k for varied ward-lah.

    Coefficient of x^n must be variedwardlah(n, k)/(2n)! for k <= n <= order;
    coefficients below x^k must vanish.
    """,
    _ColumnGF(Kind.VARIED_WARD_LAH, 1, lambda k: 1, 2, "1 <= k <= order"),
)
# The conjectured row sums, by kind; the suite does not run them.
_STIRLING = {
    kind: _check(f"check_conjecture_rowsums_{c}", f"conjecture-rowsums-{kind.value}-{c}",
                 f"Conjectured row sums of {kind.value}: central {c} numbers.",
                 _Reference(kind, "0<=n<={}", _rowsums_at_k0, conjecture=True))
    for kind in (Kind.BINOMIAL_WARD1, Kind.BINOMIAL_WARD2) for c in [SPEC[kind][0].classical]
}


def check_conjecture_rowsums_stirling(kind: Kind, max_n: int) -> CheckReport:
    """Conjectured row sums: binomial Ward rows against central Stirling
    numbers (cycle numbers for the first kind, set numbers for the second).

    Reported as evidence; a failure is a finding, not a bug.
    """
    if kind not in _STIRLING:
        raise ValueError(f"row-sum conjecture applies to binomial Ward kinds, not {kind.value}")
    return _STIRLING[kind](max_n)


# Columns 1..GF_MAX_K of the two generating-function checks.
GF_MAX_K = 8


def run_identity_suite(max_n: int) -> list[CheckReport]:
    """Every non-conjecture check at its full range, for the CLI and tests.
    Raises `ValueError` for `max_n` below 2, where some checks would compare
    no case and pass."""
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    # Each report comes from the public check as the module binds it now,
    # not from a function held in the table, so a tracer that rebinds the
    # public checks sees every report.
    checks = {name: globals()[_PUBLIC[name]] for name, s in _CHECKS.items() if not getattr(s, "conjecture", False)}
    columns = [check for name, check in checks.items() if isinstance(_CHECKS[name], _ColumnGF)]
    reports = [check(max_n) for name, check in checks.items() if not isinstance(_CHECKS[name], _ColumnGF)]
    for k in range(1, GF_MAX_K + 1):
        reports += [check(k, max(max_n, 2 * k)) for check in columns]
    return reports
