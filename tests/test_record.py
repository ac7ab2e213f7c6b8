"""The immutable record base of qram's value classes."""

import copy

import pytest

from qram.identities import Identity, RunConfig, VerifyReport
from qram.record import Record
from qram.series import Series


class _Pair(Record):
    __slots__ = _fields = ("a", "b")

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class _OtherPair(_Pair):
    __slots__ = ()


@pytest.mark.parametrize(
    "record, name",
    [
        (_Pair(1, 2), "a"),
        (Series((1, 2), 3), "den"),
        (RunConfig(), "order"),
        (RunConfig(), "extra"),
    ],
)
def test_assignment_and_deletion_raise(record, name):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, 5)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)


def test_equality_and_hash_go_by_type_and_fields():
    assert _Pair(1, 2) == _Pair(1, 2) and hash(_Pair(1, 2)) == hash(_Pair(1, 2))
    assert _Pair(1, 2) != _Pair(2, 1)
    assert _Pair(1, 2) != _OtherPair(1, 2)
    assert _Pair(1, 2) != (1, 2)
    assert len({VerifyReport("x", "pass", 3), VerifyReport("x", "pass", 3)}) == 1
    assert Series((2, 4), 2) == Series((1, 2))


def test_repr_lists_fields_and_copy_rebuilds():
    assert repr(_Pair(1, "b")) == "_Pair(a=1, b='b')"
    assert repr(RunConfig(order=5)) == "RunConfig(order=5, n_max=100, precision=256)"
    pair = _Pair((1, 2))
    assert copy.copy(pair) == pair and copy.deepcopy(pair) == pair


def test_fields_are_settable_through_object_setattr_and_defaults_stay_on_the_class():
    ident = Identity("x", "series", "s", "src", lhs=len)
    object.__setattr__(ident, "lhs", abs)
    assert ident.lhs is abs
    assert (RunConfig.order, RunConfig.n_max, RunConfig.precision) == (200, 100, 256)
    assert RunConfig(7).order == 7 and RunConfig().order == 200
