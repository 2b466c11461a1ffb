"""The four record types are immutable values: no attribute can be set or
deleted, equal fields make equal records with equal hashes, and keyword
construction fills in the documented defaults.  A `_Sweep` reaches its
verdict a row of cases at a time, and names the first counterexample."""

import pickle
from fractions import Fraction

import pytest

from wardtri import identities as ids
from wardtri.bfile import BFile
from wardtri.compare import _Sweep
from wardtri.identities import CheckReport, Counterexample
from wardtri.triangles import Kind, Strategy, Triangle

# (type, required fields, defaults, a field and a different value for it)
RECORDS = [
    (Triangle, dict(kind=Kind.WARD2, strategy=Strategy.RECURRENCE, rows=((1,), (0, 1))),
     {}, ("rows", ((1,),))),
    (BFile, dict(offset=1, values=(1, 1, 3)), {"comments": ()}, ("offset", 0)),
    (Counterexample, dict(n=4, k=2, lhs=7, rhs=Fraction(15, 2)), {"m": None}, ("m", 1)),
    (CheckReport, dict(name="order3-ward-lah", param_range="2<=n<=5, 1<=k<=n", passed=True, cases=14),
     {"skipped": 0, "conjecture": False, "counterexample": None}, ("skipped", 1)),
]


@pytest.mark.parametrize("cls, fields, defaults, change", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, fields, defaults, change):
    a, b = cls(**fields), cls(**fields)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for name, value in {**fields, **defaults}.items():
        assert getattr(a, name) == value
    name, value = change
    assert cls(**{**fields, name: value}) != a
    for attr in [*fields, *defaults, "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, attr, value)
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert a == b
    assert pickle.loads(pickle.dumps(a)) == a



def test_equal_rows_add_their_cases_and_never_ask_where():
    def where(i):
        raise AssertionError(f"where({i}) called for equal rows")

    sweep = _Sweep("s", "")
    sweep.compare((1, 2, 3), (1, 2, 3), where)
    sweep.compare([4, 5], [4, 5], where)
    assert sweep.report() == CheckReport("s", "", passed=True, cases=5)


def test_unequal_rows_hold_where_at_the_first_unequal_index():
    asked = []

    def where(i):
        asked.append(i)
        return Counterexample(n=7, k=i, lhs="a", rhs="b")

    sweep = _Sweep("s", "")
    sweep.compare([1, 2, 9, 4, 8], [1, 2, 3, 4, 5], where)
    assert asked == [2]
    assert sweep.report() == CheckReport(
        "s", "", passed=False, cases=5, counterexample=Counterexample(n=7, k=2, lhs="a", rhs="b")
    )


def test_a_later_failing_row_keeps_the_first_counterexample():
    sweep = _Sweep("s", "")
    sweep.compare([0, 1], [0, 2], lambda i: Counterexample(n=1, k=i, lhs=1, rhs=2))
    sweep.compare([5], [6], lambda i: Counterexample(n=2, k=i, lhs=5, rhs=6))
    assert sweep.cases == 3
    assert sweep.counterexample == Counterexample(n=1, k=1, lhs=1, rhs=2)


def test_an_empty_row_adds_nothing():
    sweep = _Sweep("s", "")
    sweep.compare([], [], lambda i: Counterexample(n=0, k=i, lhs=0, rhs=0))
    assert sweep.report() == CheckReport("s", "", passed=True, cases=0)


# A flipped ward-lah entry and the first counterexample of a ratio check,
# stencil, horizontal and generating-function column, with the Fraction
# sides that the per-case comparison reported before rows were compared.
RATIO_FAULTS = [
    ((3, 1), lambda: ids.check_triangular_wardlah_weighted(8), (4, 2, None), (Fraction(1080), Fraction(2205, 2))),
    ((5, 2), lambda: ids.check_triangular_wardlah_weighted(8), (5, 2, None), (Fraction(10081), Fraction(10080))),
    ((5, 2), lambda: ids.check_horizontal_wardlah(8), (5, 2, 1), (Fraction(10081), Fraction(10080))),
    ((5, 2), lambda: ids.check_egf_wardlah(2, 8), (7, 2, None), (Fraction(2), Fraction(10081, 5040))),
]


@pytest.mark.parametrize("flip, check, where, sides", RATIO_FAULTS,
                         ids=["stencil-skipped", "stencil", "horizontal", "gf-column"])
def test_a_wrong_entry_gives_the_fraction_sides_of_the_per_case_comparison(flip_entry, flip, check, where, sides):
    flip_entry(Kind.WARD_LAH, Strategy.EXPLICIT, *flip)
    c = check().counterexample
    assert (c.n, c.k, c.m) == where
    assert (c.lhs, c.rhs) == sides
    assert type(c.lhs) is type(c.rhs) is Fraction
