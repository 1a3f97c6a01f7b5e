import itertools
import math
import random
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treesym import (
    CountTable,
    ListAssignment,
    RootedTree,
    Tree,
    brute_count_classes,
    check_orbit_list_equality,
    construct_list_distinguishing_coloring,
    count_distinguishing,
    count_list_distinguishing,
    count_proper_distinguishing,
    count_proper_list_distinguishing,
    distinguishing_chromatic_number,
    distinguishing_number,
    enumerate_automorphisms,
    is_distinguishing,
    is_proper,
    parse_list_file,
    to_rooted,
)
from treesym.errors import ClassCapError, ListFormatError
from treesym.families import (
    all_trees_up_to,
    nonisomorphic_rooted_trees,
    path,
    random_tree,
    spider,
    star,
)
from treesym.list_coloring import DEFAULT_CLASS_CAP, _selections
from treesym.trees import distinguishes


def uniform(rt, colors):
    return ListAssignment.uniform(rt.n, colors)


# -- ListAssignment ------------------------------------------------------------

def test_assignment_validation():
    with pytest.raises(ListFormatError):
        ListAssignment.from_dict({0: []})
    with pytest.raises(ListFormatError):
        ListAssignment.from_dict({0: [0, 1]})
    with pytest.raises(ListFormatError):
        ListAssignment.from_dict({0: [1]}).get(3)


def test_parse_list_file(p3):
    text = "# lists\n0: 1,2\n1: 2 3\n2: 1,3\n"
    la = parse_list_file(text, p3)
    assert la.get(0) == frozenset({1, 2})
    assert la.get(1) == frozenset({2, 3})


def test_parse_list_file_errors(p3):
    with pytest.raises(ListFormatError, match="unknown vertex"):
        parse_list_file("9: 1,2\n", p3)
    with pytest.raises(ListFormatError, match="missing"):
        parse_list_file("0: 1,2\n", p3)
    with pytest.raises(ListFormatError, match="integers"):
        parse_list_file("0: a\n1: 1\n2: 1\n", p3)
    with pytest.raises(ListFormatError, match="repeated"):
        parse_list_file("0: 1\n0: 2\n1: 1\n2: 1\n", p3)
    with pytest.raises(ListFormatError, match=r"^line 2: expected 'label: c1,c2,\.\.\.'$"):
        parse_list_file("0: 1\n1 2\n2: 1\n", p3)
    with pytest.raises(ListFormatError, match="^line 3: empty color list$"):
        parse_list_file("0: 1\n1: 2\n2: , \n", p3)
    # a non-positive color is named with its line, before any missing list
    with pytest.raises(ListFormatError, match="^line 2: colors must be positive integers$"):
        parse_list_file("0: 1\n1: 2,0\n", p3)
    with pytest.raises(ListFormatError, match="^line 1: colors must be positive integers$"):
        parse_list_file("2: -3\n0: 1\n1: 1\n", p3)


# -- counting -------------------------------------------------------------------

def test_count_star2_identical_lists():
    rt = to_rooted(star(2))
    assert count_list_distinguishing(rt, uniform(rt, {1, 2})).value == 2
    assert count_distinguishing(rt, 2).value == 2


def test_count_star2_disjoint_leaf_lists():
    rt = to_rooted(star(2))
    la = ListAssignment.from_dict({0: {1, 2}, 1: {1, 2}, 2: {3, 4}})
    assert count_list_distinguishing(rt, la).value == 8


def test_count_zero_for_forced_siblings():
    rt = to_rooted(star(2))
    la = ListAssignment.from_dict({0: {1, 2}, 1: {5}, 2: {5}})
    assert count_list_distinguishing(rt, la).value == 0


def test_proper_list_leaf():
    from treesym import Tree, RootedTree

    rt = RootedTree(Tree(["a"], []), 0)
    la = ListAssignment.from_dict({0: {3, 7}})
    for i in (3, 7):
        assert count_proper_list_distinguishing(rt, la, i).value == 1
    with pytest.raises(ValueError):
        count_proper_list_distinguishing(rt, la, 4)


def test_proper_list_p3(p3):
    rt = to_rooted(p3)
    assert count_proper_list_distinguishing(rt, uniform(rt, {1, 2, 3}), 1).value == 1
    assert count_proper_list_distinguishing(rt, uniform(rt, {1, 2}), 1).value == 0


def test_counts_match_brute_enumeration():
    rng = random.Random(2024)
    for n in range(1, 6):
        for rt in nonisomorphic_rooted_trees(n):
            for _ in range(8):
                k = rng.choice((1, 2, 3))
                la = ListAssignment.from_dict(
                    {v: rng.sample(range(1, 2 * k + 2), k) for v in range(rt.n)}
                )
                assert (count_list_distinguishing(rt, la).value
                        == brute_count_classes(rt, lists=la).value)
                i = min(la.get(rt.root))
                pinned = la.extended(rt.root, {i})
                assert (count_proper_list_distinguishing(rt, la, i).value
                        == brute_count_classes(rt, lists=pinned, proper=True).value)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_list_counts_and_witnesses_match_oracle(n, rnd):
    # random labeled trees, edge-centered ones included, judged as input trees
    t = random_tree(n, seed=rnd.random())
    lists = {v: rnd.sample(range(1, 5), rnd.randint(1, 3)) for v in range(n)}
    assume(math.prod(len(s) for s in lists.values()) <= 5000)
    la = ListAssignment.from_dict(lists)
    rt = to_rooted(t)
    # as ``count --list``: the synthetic center gets a private color
    work = la.extended(rt.subdivision_vertex, {la.max_color() + 1}) if rt.subdivided else la
    plain = count_list_distinguishing(rt, work).value
    proper = count_proper_list_distinguishing(rt, la).value
    assert plain == brute_count_classes(t, lists=la).value
    assert proper == brute_count_classes(t, lists=la, proper=True).value
    assert (construct_list_distinguishing_coloring(t, la) is not None) == (plain > 0)
    assert ((construct_list_distinguishing_coloring(t, la, proper=True) is not None)
            == (proper > 0))


def test_class_cap_is_hard_error():
    # the refusal names the vertex, its color for proper counts, and the
    # bound with its value
    rt = to_rooted(star(6))
    with pytest.raises(ClassCapError, match="class_cap=5 "):
        count_list_distinguishing(rt, uniform(rt, range(1, 9)), class_cap=5)
    with pytest.raises(ClassCapError, match="vertex '0' colored 1 has more than class_cap=5 "):
        count_proper_list_distinguishing(rt, uniform(rt, range(1, 9)), class_cap=5)
    rt = to_rooted(star(8))
    with pytest.raises(ClassCapError, match="vertex '0' has more than class_cap=100000 "):
        count_list_distinguishing(rt, uniform(rt, range(1, 31)))


def test_count_past_the_cap():
    # the cap bounds the classes kept below the root, not the count
    rt = to_rooted(spider(1, 2, 2))
    expected = CountTable(rt).tree_distinguishing(10)
    assert expected == 495_000 > DEFAULT_CLASS_CAP
    assert count_list_distinguishing(rt, uniform(rt, range(1, 11))).value == expected
    # a sibling class with no selection makes the count 0, even beside one
    # with more than class_cap selections
    rt = to_rooted(spider(1, 1, 1, 1, 1, 1, 2, 2))
    la = ListAssignment.from_dict({v: [1] if v > 6 else range(1, 9) for v in range(rt.n)})
    assert count_list_distinguishing(rt, la, class_cap=10).value == 0


def test_small_caps_match_brute_force():
    # every answer at a small cap is exact, and some plain counts, which
    # are never glued from two halves, exceed the cap
    rng = random.Random(1728)
    past = {4: 0, 30: 0}
    for t in all_trees_up_to(7):
        for x in (t, RootedTree(t, 0)):
            rt = x if isinstance(x, RootedTree) else to_rooted(x)
            for _ in range(3):
                la = ListAssignment.from_dict(
                    {v: rng.sample(range(1, 6), rng.randint(1, 3)) for v in range(t.n)})
                work = (la.extended(rt.subdivision_vertex, {la.max_color() + 1})
                        if rt.subdivided else la)
                # (count at a given cap, lists for the brute force, proper)
                cases = [(partial(count_list_distinguishing, rt, work), la, False),
                         (partial(count_proper_list_distinguishing, rt, la), la, True)]
                if not rt.subdivided:
                    cases += [(partial(count_proper_list_distinguishing, rt, la, c),
                               la.extended(rt.root, {c}), True)
                              for c in sorted(la.get(rt.root))]
                for count, lists, proper in cases:
                    for cap in past:
                        try:
                            got = count(class_cap=cap).value
                        except ClassCapError:
                            continue
                        assert got == brute_count_classes(x, lists=lists, proper=proper).value
                        past[cap] += not proper and got > cap
    assert all(past.values())


@pytest.mark.parametrize("proper", [False, True])
def test_count_refuses_on_long_path(proper):
    # a refusal on a deep tree, not a RecursionError or MemoryError
    t = path(2001)
    rt = to_rooted(t)
    rng = random.Random(2001)
    la = ListAssignment.from_dict({v: rng.sample(range(1, 6), 3) for v in range(t.n)})
    count = count_proper_list_distinguishing if proper else count_list_distinguishing
    with pytest.raises(ClassCapError, match="class_cap=100000 "):
        count(rt, la)


def test_list_count_wide_sibling_class():
    # one sibling class of 1500 leaves, matched without recursion
    t = star(1500)
    rt = to_rooted(t)
    la = ListAssignment.from_dict({v: [v + 1] for v in range(t.n)})
    assert count_list_distinguishing(rt, la).value == 1


# -- orbit/list equality ------------------------------------------------------------

def test_orbit_check_identical_lists():
    rt = to_rooted(star(3))
    out = check_orbit_list_equality(rt, uniform(rt, {1, 2}), 2)
    assert out.equality_expected and out.witness is None


def test_orbit_check_disjoint_leaf_lists():
    rt = to_rooted(star(2))
    la = ListAssignment.from_dict({0: {1, 2}, 1: {1, 2}, 2: {3, 4}})
    out = check_orbit_list_equality(rt, la, 2)
    assert not out.equality_expected
    assert set(out.witness) == {1, 2}


def test_orbit_check_rigid_tree_any_lists():
    t = spider(1, 2, 3)
    assert enumerate_automorphisms(t).order == 1
    rt = to_rooted(t)
    la = ListAssignment.from_dict({v: {10 + v, 20 + v} for v in range(rt.n)})
    assert check_orbit_list_equality(rt, la, 2).equality_expected


def test_orbit_check_rejects_nonuniform():
    rt = to_rooted(star(2))
    la = ListAssignment.from_dict({0: {1}, 1: {1, 2}, 2: {1, 2}})
    with pytest.raises(ValueError):
        check_orbit_list_equality(rt, la, 2)


# -- inequality sweeps ------------------------------------------------------------

def test_list_count_dominates_plain_count():
    rng = random.Random(5150)
    for t in all_trees_up_to(6):
        rt = to_rooted(t)
        for k in (2, 3):
            plain = count_distinguishing(rt, k).value
            for _ in range(15):
                la = ListAssignment.from_dict(
                    {v: rng.sample(range(1, 2 * k + 1), k) for v in range(rt.n)}
                )
                listed = count_list_distinguishing(rt, la).value
                assert listed >= plain
                if listed > 0:
                    expected = check_orbit_list_equality(rt, la, k).equality_expected
                    assert (listed == plain) == expected


def test_proper_list_count_dominates_and_equality_is_identical_lists():
    # when no proper distinguishing coloring exists at all, equality holds
    # vacuously whatever the lists; the characterization applies beyond that
    rng = random.Random(6174)
    for t in all_trees_up_to(5):
        rt = to_rooted(t)
        for k in (2, 3):
            plain = count_proper_distinguishing(rt, k).value
            for _ in range(10):
                la = ListAssignment.from_dict(
                    {v: rng.sample(range(1, 2 * k + 1), k) for v in range(rt.n)}
                )
                per_color = [count_proper_list_distinguishing(rt, la, i).value
                             for i in sorted(la.get(rt.root))]
                assert all(c >= plain for c in per_color)
                identical = len({la.get(v) for v in range(rt.n)}) == 1
                if identical:
                    assert all(c == plain for c in per_color)
                elif plain > 0:
                    assert any(c != plain for c in per_color)


# -- construction -------------------------------------------------------------------

def test_construct_star2():
    t = star(2)
    la = ListAssignment.uniform(t.n, {1, 2})
    col = construct_list_distinguishing_coloring(t, la)
    assert col is not None
    assert is_distinguishing(t, col)
    assert all(col.colors[v] in la.get(v) for v in range(t.n))


def test_construct_p4_proper_parity():
    t = path(4)
    la = ListAssignment.uniform(t.n, {1, 2})
    col = construct_list_distinguishing_coloring(t, la, proper=True)
    assert col is not None
    assert is_proper(t, col) and is_distinguishing(t, col)


def test_construct_impossible():
    t = star(2)
    la = ListAssignment.uniform(t.n, {1})
    assert construct_list_distinguishing_coloring(t, la) is None


def test_construct_always_succeeds_at_parameter():
    rng = random.Random(8888)
    for t in all_trees_up_to(6):
        d = distinguishing_number(t)
        chi = distinguishing_chromatic_number(t)
        for _ in range(5):
            la = ListAssignment.from_dict(
                {v: rng.sample(range(1, 2 * d + 1), d) for v in range(t.n)}
            )
            col = construct_list_distinguishing_coloring(t, la)
            assert col is not None
            assert all(col.colors[v] in la.get(v) for v in range(t.n))
            lap = ListAssignment.from_dict(
                {v: rng.sample(range(1, 2 * chi + 1), chi) for v in range(t.n)}
            )
            colp = construct_list_distinguishing_coloring(t, lap, proper=True)
            assert colp is not None
            assert all(colp.colors[v] in lap.get(v) for v in range(t.n))


@pytest.mark.parametrize("t", [path(6), spider(2, 2), random_tree(40, seed=3)],
                         ids=["path6", "spider22", "random40"])
@pytest.mark.parametrize("proper", [False, True])
def test_construct_on_rooted_view_matches_tree(t, proper):
    # a subdivided view is checked against the tree it was built from,
    # as the view's synthetic vertex has no color in the result
    la = ListAssignment.uniform(t.n, {1, 2, 3})
    assert (construct_list_distinguishing_coloring(to_rooted(t), la, proper)
            == construct_list_distinguishing_coloring(t, la, proper))


def test_selections_match_brute_force():
    # up to `limit` distinct valid selections, and all of them below the limit
    rng = random.Random(99)
    for _ in range(1500):
        s = rng.randint(1, 4)
        universe = range(rng.randint(1, 7))
        pools = [rng.sample(universe, rng.randint(1, len(universe))) for _ in range(s)]
        valid = {frozenset(combo) for combo in itertools.product(*pools)
                 if len(set(combo)) == s}
        for limit in (1, 2, 3, 5, 100):
            got = _selections(pools, limit)
            assert all(len(sel) == s and sel[i] in pools[i]
                       for sel in got for i in range(s))
            assert {frozenset(sel) for sel in got} <= valid
            assert len({frozenset(sel) for sel in got}) == len(got) == min(limit, len(valid))


def _checked_witness(t, la, proper):
    col = construct_list_distinguishing_coloring(t, la, proper=proper)
    if col is not None:
        assert all(col.colors[v] in la.get(v) for v in range(t.n))
        assert distinguishes(t, col)
        assert not proper or is_proper(t, col)
    return col


def test_witness_exists_iff_count_positive():
    # every tree up to 8 vertices, as an input tree and rooted at vertex 0
    rng = random.Random(4242)
    for t in all_trees_up_to(8):
        for x in (t, RootedTree(t, 0)):
            rt = x if isinstance(x, RootedTree) else to_rooted(x)
            for _ in range(3):
                la = ListAssignment.from_dict(
                    {v: rng.sample(range(1, 5), rng.randint(1, 3)) for v in range(t.n)})
                work = (la.extended(rt.subdivision_vertex, {la.max_color() + 1})
                        if rt.subdivided else la)
                for proper in (False, True):
                    count = (count_proper_list_distinguishing(rt, la) if proper
                             else count_list_distinguishing(rt, work)).value
                    col = _checked_witness(x, la, proper)
                    assert (col is not None) == (count > 0)
                    if col is not None:
                        assert is_distinguishing(x, col)


def _binary(height: int) -> Tree:
    n = 2 ** (height + 1) - 1
    return Tree(range(n), [((i - 1) // 2, i) for i in range(1, n)])


@pytest.mark.parametrize("shape", ["prufer-1000", "prufer-10000", "star-300",
                                   "spider", "binary-9"])
def test_witnesses_at_parameter_at_scale(shape):
    # D_l = D and chi_Dl = chi_D: lists of those sizes always admit a witness
    t = {"prufer-1000": lambda: random_tree(1000, seed="lists-1000"),
         "prufer-10000": lambda: random_tree(10_000, seed="lists-10000"),
         "star-300": lambda: star(300),
         "spider": lambda: spider(40, 40, 40, 40, 25, 25, 10),
         "binary-9": lambda: _binary(9)}[shape]()
    rng = random.Random(shape)
    for proper, k in ((False, distinguishing_number(t)),
                      (True, distinguishing_chromatic_number(t))):
        la = ListAssignment.from_dict(
            {v: rng.sample(range(1, 2 * k + 1), k) for v in range(t.n)})
        assert _checked_witness(t, la, proper) is not None


def test_witness_on_deep_path():
    t = path(100_000)
    rng = random.Random(7)
    la = ListAssignment.from_dict({v: rng.sample(range(1, 5), 2) for v in range(t.n)})
    assert _checked_witness(t, la, False) is not None
    _checked_witness(t, la, True)
