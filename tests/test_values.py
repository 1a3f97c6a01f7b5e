"""The contract of the value types BigCount, Coloring, Certificate,
ListAssignment, OrbitListCheck, Automorphism and AutGroup: construction,
equality, hash, repr, immutability and pickling."""

import copy
import pickle

import pytest

from treesym import (
    AutGroup,
    Automorphism,
    BigCount,
    Certificate,
    Coloring,
    ListAssignment,
    OrbitListCheck,
)

LISTS = ListAssignment({0: frozenset({1, 2}), 1: frozenset({3})})
GROUP = AutGroup((Automorphism((0, 1)), Automorphism((1, 0))))


def test_bigcount_construction_and_defaults():
    assert BigCount(5) == BigCount(5, False, None) == BigCount(value=5, saturated=False)
    c = BigCount(9, True, 9)
    assert (c.value, c.saturated, c.cap) == (9, True, 9)
    assert BigCount(3, cap=9) == BigCount(3, False, 9)
    assert int(BigCount(7)) == 7 and BigCount(1).positive and not BigCount(0).positive


@pytest.mark.parametrize("args, message", [
    ((-1,), "count cannot be negative"),
    ((0, False, 0), "cap must be a positive integer"),
    ((3, True, 9), "a saturated count must sit exactly at its cap"),
    ((4, True), "a saturated count must sit exactly at its cap"),
    ((9, False, 9), "an exact count must lie strictly below its cap"),
])
def test_bigcount_validation(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BigCount(*args)


def test_equality_is_field_wise_and_typed():
    assert BigCount(5) != BigCount(5, False, 9)
    assert BigCount(5) != 5 and BigCount(5) != (5, False, None)
    assert BigCount(5).__eq__(5) is NotImplemented
    assert Coloring({0: 1}) == Coloring({0: 1}) != Coloring({0: 2})
    assert Coloring({0: 1}) != {0: 1}
    assert Certificate(0, (1, 2), 3) == Certificate(0, (1, 2), 3, False)
    assert Certificate(0, (1, 2), 3) != Certificate(0, (1, 2), 3, True)
    assert Certificate(0, (1, 2), 3).__eq__((0, (1, 2), 3, False)) is NotImplemented
    assert LISTS == ListAssignment(dict(LISTS.lists)) != ListAssignment({0: frozenset({1})})
    assert LISTS != LISTS.lists
    assert OrbitListCheck(False, (0, 1)) == OrbitListCheck(False, (0, 1))
    assert OrbitListCheck(True, None) != OrbitListCheck(False, None)
    assert OrbitListCheck(True, None).__eq__((True, None)) is NotImplemented
    assert Automorphism((1, 0)) == Automorphism((1, 0)) != Automorphism((0, 1))
    assert Automorphism((1, 0)) != (1, 0)
    assert GROUP == AutGroup(tuple(GROUP.elements)) != AutGroup(GROUP.elements[:1])


def test_hash():
    assert hash(BigCount(5)) == hash(BigCount(5, False, None))
    assert len({BigCount(5), BigCount(5), BigCount(6)}) == 2
    assert hash(Certificate(0, (1,), 2)) == hash(Certificate(vertex=0, children=(1,), k=2))
    with pytest.raises(TypeError):
        hash(Coloring({0: 1}))
    assert hash(OrbitListCheck(True, None)) == hash(OrbitListCheck(True, None))
    assert hash(Automorphism((1, 0))) == hash(Automorphism(perm=(1, 0)))
    assert len({GROUP, AutGroup(GROUP.elements), AutGroup(())}) == 2
    with pytest.raises(TypeError):
        hash(LISTS)


def test_repr():
    assert repr(BigCount(5)) == "BigCount(value=5, saturated=False, cap=None)"
    assert repr(BigCount(9, True, 9)) == "BigCount(value=9, saturated=True, cap=9)"
    assert repr(Coloring({0: 1, 1: 2})) == "Coloring(colors={0: 1, 1: 2})"
    assert (repr(Certificate(4, (5, 6), 2))
            == "Certificate(vertex=4, children=(5, 6), k=2, degenerate=False)")
    assert repr(ListAssignment({0: frozenset({1})})) == "ListAssignment(lists={0: frozenset({1})})"
    assert (repr(OrbitListCheck(False, (0, 1)))
            == "OrbitListCheck(equality_expected=False, witness=(0, 1))")
    assert repr(Automorphism((1, 0))) == "Automorphism(perm=(1, 0))"
    assert repr(AutGroup((Automorphism((0,)),))) == "AutGroup(elements=(Automorphism(perm=(0,)),))"


@pytest.mark.parametrize("value, field", [
    (BigCount(5), "value"),
    (BigCount(5), "cap"),
    (Coloring({0: 1}), "colors"),
    (Certificate(0, (), 1, True), "degenerate"),
    (Certificate(0, (), 1, True), "k"),
    (LISTS, "lists"),
    (OrbitListCheck(True, None), "equality_expected"),
    (OrbitListCheck(True, None), "witness"),
    (Automorphism((0,)), "perm"),
    (GROUP, "elements"),
])
def test_fields_refuse_assignment(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before


def test_keyword_construction_and_positional_order():
    assert Coloring(colors={0: 3})[0] == 3
    cert = Certificate(vertex=1, children=(2, 3), k=4, degenerate=True)
    assert cert == Certificate(1, (2, 3), 4, True)
    assert (cert.vertex, cert.children, cert.k, cert.degenerate) == (1, (2, 3), 4, True)
    with pytest.raises(TypeError):
        Coloring()
    with pytest.raises(TypeError):
        Certificate(1, (2,))
    assert ListAssignment(lists={0: frozenset({1})}).get(0) == {1}
    check = OrbitListCheck(equality_expected=False, witness=(2, 3))
    assert (check.equality_expected, check.witness) == (False, (2, 3))
    assert Automorphism(perm=(1, 0)).perm == (1, 0)
    assert AutGroup(elements=GROUP.elements).order == 2
    for cls in (ListAssignment, OrbitListCheck, Automorphism, AutGroup):
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize("value", [
    BigCount(5, False, 9), Coloring({0: 1, 1: 2}), Certificate(0, (1, 2), 3, True),
    LISTS, OrbitListCheck(False, (0, 1)), Automorphism((1, 0)), GROUP,
])
def test_copy_and_pickle_round_trip(value):
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
