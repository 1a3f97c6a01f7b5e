from math import comb, prod

import pytest

from treesym import (
    BigCount,
    CountTable,
    RootedTree,
    Tree,
    brute_count_classes,
    count_distinguishing,
    count_proper_distinguishing,
    to_rooted,
)
from treesym.construction import _table
from treesym.counting import _binom
from treesym.errors import SaturatedCountError
from treesym.families import (
    all_trees_up_to,
    nonisomorphic_rooted_trees,
    nonisomorphic_trees,
    star,
)

from conftest import tree_from
import reference


def leaf_rt():
    return to_rooted(Tree(["a"], []))


# -- BigCount ----------------------------------------------------------------

def test_binom_guards():
    # a class as large as the internal cap cannot be clamped soundly, and
    # choosing none is one way even under the smallest cap
    with pytest.raises(SaturatedCountError, match="internal cap too small"):
        _binom(9, 3, 3)
    assert _binom(9, 0, 1) == 1
    assert _binom(9, 0, 5) == 1
    assert _binom(9, 2, None) == 36


def test_bigcount_validation():
    with pytest.raises(ValueError):
        BigCount(-1)
    with pytest.raises(ValueError):
        BigCount(3, saturated=True)
    with pytest.raises(ValueError):
        BigCount(3, saturated=True, cap=5)
    with pytest.raises(ValueError):
        BigCount(7, saturated=False, cap=5)


def test_bigcount_clamp():
    # a count table clamps at its cap: a leaf has k classes
    assert count_distinguishing(leaf_rt(), 3, cap=10) == BigCount(3, False, 10)
    assert count_distinguishing(leaf_rt(), 10, cap=10) == BigCount(10, True, 10)
    assert count_distinguishing(leaf_rt(), 123) == BigCount(123)


# -- plain counts ----------------------------------------------------------------

def test_leaf_count_is_palette_size():
    rt = leaf_rt()
    for k in (1, 2, 4, 9):
        assert count_distinguishing(rt, k).value == k


def test_star2_counts():
    rt = to_rooted(star(2))
    assert count_distinguishing(rt, 2).value == 2
    assert count_distinguishing(rt, 1).value == 0
    assert brute_count_classes(rt, 2).value == 2


def test_star3_count():
    rt = to_rooted(star(3))
    assert count_distinguishing(rt, 3).value == 3
    assert brute_count_classes(rt, 3).value == 3


def test_invalid_k():
    rt = leaf_rt()
    with pytest.raises(ValueError):
        count_distinguishing(rt, 0)


# -- proper counts ----------------------------------------------------------------

def test_proper_leaf_is_one():
    rt = leaf_rt()
    for k in (1, 3, 8):
        assert count_proper_distinguishing(rt, k).value == 1


def test_proper_p3(p3):
    rt = to_rooted(p3)
    assert count_proper_distinguishing(rt, 2).value == 0
    assert count_proper_distinguishing(rt, 3).value == 1
    assert brute_count_classes(rt, 3, proper=True).value == 3


def test_count_table_leaf_bases():
    rt = to_rooted(tree_from(("r", "a"), ("r", "b"), ("a", "x")))
    table = CountTable(rt)
    leaf = 2  # vertex "b"
    assert table.distinguishing(leaf, 5).value == 5
    assert table.proper(leaf, 5).value == 1


# -- invariants -------------------------------------------------------------------

def test_monotone_in_k():
    for t in all_trees_up_to(8):
        rt = to_rooted(t)
        table = CountTable(rt)
        for k in range(1, 4):
            assert (table.distinguishing_raw(rt.root, k)
                    <= table.distinguishing_raw(rt.root, k + 1))
            assert (table.proper_raw(rt.root, k)
                    <= table.proper_raw(rt.root, k + 1))


def test_matches_exhaustive_enumeration_small():
    for n in range(1, 7):
        for rt in nonisomorphic_rooted_trees(n):
            table = CountTable(rt)
            for k in (1, 2, 3):
                assert (table.distinguishing_raw(rt.root, k)
                        == brute_count_classes(rt, k).value)
                assert (k * table.proper_raw(rt.root, k)
                        == brute_count_classes(rt, k, proper=True).value)


def test_saturation_soundness():
    for t in nonisomorphic_trees(6):
        rt = to_rooted(t)
        for k in (2, 3):
            exact = count_distinguishing(rt, k).value
            for cap in (1, 2, 3, 5, 10, 50):
                got = count_distinguishing(rt, k, cap=cap)
                if got.saturated:
                    assert exact >= cap
                    assert got.value == cap
                else:
                    assert got.value == exact


def test_cap_accepts_bigcount():
    rt = to_rooted(star(4))
    capped = count_distinguishing(rt, 9, cap=BigCount(5))
    uncapped = count_distinguishing(rt, 9)
    assert capped.saturated and uncapped.value >= 5


def test_isomorphic_inputs_agree():
    a = tree_from(("a", "b"), ("b", "c"), ("b", "d"), ("a", "e"))
    b = tree_from(("p", "q"), ("p", "r"), ("q", "s"), ("q", "t"))
    # same shape entered with different labels and edge order
    for k in (1, 2, 3):
        assert (count_distinguishing(to_rooted(a), k)
                == count_distinguishing(to_rooted(b), k))


def test_sibling_classes_share_entries():
    t = tree_from(("r", "a"), ("r", "b"), ("a", "x"), ("b", "y"))
    rt = to_rooted(t)
    table = CountTable(rt)
    u, v = reference.children(rt)[rt.root]
    for k in (2, 3):
        assert table.distinguishing(u, k) == table.distinguishing(v, k)
        assert table.proper(u, k) == table.proper(v, k)


def test_walk_plans_list_the_sibling_runs():
    # a class's plan in row a lists the sibling classes of each of its
    # vertices in code order, as (members, f_a, product of the later
    # blocks C(a * f_a, m), leaf class); a saturating table's products
    # agree with the exact ones below its internal cap
    for t in all_trees_up_to(9):
        for rt in (to_rooted(t), RootedTree(t, 0)):
            exact = CountTable(rt)
            for table in (exact, _table(rt, 0)):
                for a in (1, 2, 3):
                    row, true_row = table.row(a), exact.row(a)
                    plans, icap = table._walk_plans(a), table._icap
                    for v in range(rt.n):
                        runs = rt.sibling_classes(v)
                        plan = plans[rt.code_id(v)]
                        assert [(m, f, leaf) for m, f, _, leaf in plan] == [
                            (len(ms), row[c], c == 0) for c, ms in runs]
                        for i, (_, _, later, _) in enumerate(plan):
                            want = prod(comb(a * true_row[c], len(ms))
                                        for c, ms in runs[i + 1:])
                            if icap is None:
                                assert later == want
                            else:
                                assert min(later, icap) == min(want, icap)
