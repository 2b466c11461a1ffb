"""The four record types are immutable values: no attribute can be set or
deleted, equal fields make equal records with equal hashes, and keyword
construction fills in the documented defaults."""

import pickle
from fractions import Fraction

import pytest

from wardtri.bfile import BFile
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

