import pytest

from treesym.families import (
    double_star,
    nonisomorphic_rooted_trees,
    nonisomorphic_trees,
    path,
    random_tree,
    spider,
    star,
    tree_from_prufer,
)

from conftest import labeled_edges


def test_free_tree_counts():
    # unlabeled trees by vertex count: 1, 1, 1, 2, 3, 6, 11, 23, 47, 106
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    got = [len(nonisomorphic_trees(n)) for n in range(1, 11)]
    assert got == expected


def test_rooted_tree_counts():
    expected = [1, 1, 2, 4, 9, 20, 48, 115]
    got = [len(nonisomorphic_rooted_trees(n)) for n in range(1, 9)]
    assert got == expected


def test_generated_trees_have_right_size():
    for n in (1, 4, 7):
        assert all(t.n == n for t in nonisomorphic_trees(n))
        assert all(rt.n == n for rt in nonisomorphic_rooted_trees(n))


def test_named_families():
    assert path(5).n == 5 and len(path(5).edges) == 4
    assert star(4).n == 5 and all(0 in e for e in star(4).edges)
    assert spider(2, 2, 1).n == 6
    assert double_star(2, 3).n == 7


def test_prufer_decode():
    t = tree_from_prufer([0, 0, 0])
    assert sorted(labeled_edges(t)) is not None
    assert t.n == 5
    assert sum(0 in e for e in t.edges) == 4  # all-zero sequence decodes to a star


def test_random_tree_deterministic():
    a = random_tree(50, seed="x")
    b = random_tree(50, seed="x")
    c = random_tree(50, seed="y")
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_random_tree_valid():
    t = random_tree(1000, seed=1)
    assert t.n == 1000 and len(t.edges) == 999


def test_generator_rejects_bad_n():
    with pytest.raises(ValueError):
        nonisomorphic_trees(0)
