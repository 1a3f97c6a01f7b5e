import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesym import (
    RootedTree,
    Tree,
    canonical_code,
    center,
    distinguishes,
    enumerate_automorphisms,
    extract_subtree,
    is_distinguishing,
    is_isomorphic_rooted,
    original_tree,
    parse_tree,
    to_edge_list,
    to_parens,
    to_rooted,
    vertex_orbits,
)
from treesym.errors import InvalidTreeError, TreeSyntaxError
from treesym.families import (
    all_trees_up_to,
    path,
    random_tree,
    spider,
    star,
    tree_from_prufer,
)

from conftest import tree_from


# -- parsing ---------------------------------------------------------------

def test_parse_edge_list_p3():
    t = parse_tree("a b\nb c")
    assert t.n == 3
    assert t.labeled_edges() == {frozenset("ab"), frozenset("bc")}


def test_parse_parens_star():
    rt = parse_tree("(()())", fmt="parens")
    assert isinstance(rt, RootedTree)
    assert not rt.subdivided
    assert len(rt.children[rt.root]) == 2
    assert all(not rt.children[c] for c in rt.children[rt.root])


def test_parse_disconnected():
    with pytest.raises(InvalidTreeError, match="disconnected input: no path between 'a' and 'c'"):
        parse_tree("a b\nc d")


def test_parse_cycle():
    with pytest.raises(InvalidTreeError, match="cycle detected at edge 'c' 'a'"):
        parse_tree("a b\nb c\nc a")


def test_parse_duplicate_edge():
    with pytest.raises(InvalidTreeError, match="duplicate edge 'b' 'a'"):
        parse_tree("a b\nb a")


def test_parse_self_loop():
    with pytest.raises(InvalidTreeError, match="self-loop at 'a'"):
        parse_tree("a a")


def test_parse_empty():
    with pytest.raises(InvalidTreeError, match="empty"):
        parse_tree("   \n# only a comment\n")


def test_parse_syntax_error_reports_line():
    with pytest.raises(TreeSyntaxError, match="line 2"):
        parse_tree("a b\na b c")


def test_parse_comments_and_blanks():
    t = parse_tree("# a path\n\na b\n  b c  \n")
    assert t.n == 3


def test_parse_single_vertex_line():
    t = parse_tree("solo\n")
    assert t.n == 1
    assert t.labels == ("solo",)


def test_parse_parens_errors():
    with pytest.raises(TreeSyntaxError, match="position"):
        parse_tree("(x)", fmt="parens")
    with pytest.raises(TreeSyntaxError, match="unmatched"):
        parse_tree("())", fmt="parens")
    with pytest.raises(TreeSyntaxError):
        parse_tree("(()", fmt="parens")
    with pytest.raises(TreeSyntaxError, match="second top-level"):
        parse_tree("()()", fmt="parens")


def test_unknown_format():
    with pytest.raises(ValueError):
        parse_tree("a b", fmt="newick")


# -- center ------------------------------------------------------------------

def test_center_p3(p3):
    assert center(p3) == {1}


def test_center_p4(p4):
    assert center(p4) == {1, 2}


def test_center_star():
    assert center(star(4)) == {0}


def test_center_size_and_adjacency():
    for t in all_trees_up_to(9):
        c = sorted(center(t))
        assert len(c) in (1, 2)
        if len(c) == 2:
            assert tuple(c) in t.edges


def test_center_large_random_tree():
    t = random_tree(100_000, seed="center-check")
    c = sorted(center(t))
    assert len(c) in (1, 2)
    if len(c) == 2:
        assert tuple(c) in t.edges


# -- rooted reduction ---------------------------------------------------------

def test_to_rooted_vertex_center(p3):
    rt = to_rooted(p3)
    assert not rt.subdivided
    assert rt.n == 3
    assert rt.root == 1


def test_to_rooted_edge_center(p4):
    rt = to_rooted(p4)
    assert rt.subdivided
    assert rt.n == 5
    assert rt.root == rt.subdivision_vertex == 4
    assert sorted(rt.children[rt.root]) == [1, 2]
    assert rt.labels[:4] == p4.labels
    assert original_tree(rt) is p4


def test_to_rooted_single_edge_preserves_group():
    t = path(2)
    rt = to_rooted(t)
    assert rt.subdivided and rt.n == 3
    # the rooted view keeps the swap symmetry of the original edge
    assert enumerate_automorphisms(t).order == 2
    assert enumerate_automorphisms(rt).order == 2


def test_original_tree_roundtrip(p4):
    rt = to_rooted(p4)
    back = original_tree(rt)
    assert back.labeled_edges() == p4.labeled_edges()


def test_synthetic_label_never_collides():
    t = tree_from(("⟨center⟩", "x"), ("x", "y"), ("y", "z"))
    rt = to_rooted(t)
    labels = rt.base.labels
    assert len(set(labels)) == len(labels)


# -- canonical codes -----------------------------------------------------------

def test_code_of_leaf():
    rt = to_rooted(Tree(["a"], []))
    assert canonical_code(rt, 0) == "()"


def test_code_of_star2():
    rt = to_rooted(star(2))
    assert canonical_code(rt, rt.root) == "(()())"


def test_code_lengths():
    for t in all_trees_up_to(7):
        rt = to_rooted(t)
        sizes = rt.subtree_sizes()
        for v in range(rt.n):
            assert len(canonical_code(rt, v)) == 2 * sizes[v]


def test_codes_match_backtracking_isomorphism():
    # code equality must coincide with the independent isomorphism test
    for t in all_trees_up_to(8):
        rt = to_rooted(t)
        ids = rt.code_ids()
        verts = list(range(rt.n))
        subs = {v: extract_subtree(rt, v) for v in verts}
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                assert (ids[u] == ids[v]) == is_isomorphic_rooted(subs[u], subs[v])


def test_rooted_symmetry_preserved_by_reduction():
    # verifying a coloring on the original tree agrees with verifying it on
    # the reduction once the synthetic vertex takes a fresh color
    import random

    rng = random.Random(4242)
    for t in all_trees_up_to(8):
        rt = to_rooted(t)
        for _ in range(3):
            phi = {v: rng.randint(1, 2) for v in range(t.n)}
            extended = dict(phi)
            if rt.subdivided:
                extended[rt.subdivision_vertex] = 99
            assert is_distinguishing(t, phi) == is_distinguishing(rt, extended)


# -- sibling classes -------------------------------------------------------------

def test_child_classes_star3():
    rt = to_rooted(star(3))
    cls = rt.sibling_classes(rt.root)
    assert len(cls) == 1
    assert cls[0].size == 3


def test_child_classes_mixed():
    # root with a bare leaf and a two-vertex branch: two singleton classes
    t = tree_from(("r", "leaf"), ("r", "mid"), ("mid", "deep"))
    rt = RootedTree(t, 0)
    cls = rt.sibling_classes(0)
    assert [c.size for c in cls] == [1, 1]


def test_child_classes_spider():
    t = spider(3, 3, 1)
    rt = RootedTree(t, 0)
    sizes = sorted(c.size for c in rt.sibling_classes(0))
    assert sizes == [1, 2]
    big = next(c for c in rt.sibling_classes(0) if c.size == 2)
    a, b = big.members
    assert is_isomorphic_rooted(extract_subtree(rt, a), extract_subtree(rt, b))


def test_class_order_deterministic_across_relabeling():
    t1 = tree_from(("a", "b"), ("b", "c"), ("b", "d"), ("a", "e"))
    t2 = tree_from(("e", "a"), ("b", "d"), ("b", "c"), ("a", "b"))
    assert to_parens(to_rooted(t1)) == to_parens(to_rooted(t2))


# -- orbits ---------------------------------------------------------------------

def test_vertex_orbits_match_group():
    for t in all_trees_up_to(8):
        rt = to_rooted(t)
        orbits = vertex_orbits(rt)
        group = enumerate_automorphisms(rt)
        seen: dict = {}
        for v in range(rt.n):
            orbit = frozenset(a.perm[v] for a in group.elements)
            seen.setdefault(orbit, set()).add(orbits[v])
        # one refinement id per true orbit, and never merging two orbits
        assert all(len(ids) == 1 for ids in seen.values())
        assert len({ids.pop() for ids in seen.values()}) == len(seen)


# -- fast verifier -----------------------------------------------------------------

def _with_synthetic(rt, coloring, color=1):
    # a to_rooted view of an edge-centered tree also colors its synthetic root
    return {**coloring, rt.subdivision_vertex: color} if rt.subdivided else coloring


def test_distinguishes_matches_oracle_on_all_2_colorings():
    # the oracle's group of the reduction is the tree's group (see
    # test_rooted_symmetry_preserved_by_reduction), so one group judges
    # both views; it is enumerated once per tree, as is_distinguishing
    # would enumerate it for every coloring
    for t in all_trees_up_to(8):
        rt = to_rooted(t)
        perms = enumerate_automorphisms(t).nontrivial_perms()
        for colors in itertools.product((1, 2), repeat=t.n):
            phi = dict(enumerate(colors))
            want = not any(all(colors[p[v]] == colors[v] for v in range(t.n))
                           for p in perms)
            assert distinguishes(t, phi) == want
            assert distinguishes(rt, _with_synthetic(rt, phi)) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(1, 4), st.randoms(use_true_random=False))
def test_distinguishes_matches_oracle_random(n, k, rnd):
    t = random_tree(n, seed=rnd.random())
    phi = {v: rnd.randint(1, k) for v in range(n)}
    assert distinguishes(t, phi) == is_distinguishing(t, phi)
    rt = to_rooted(t)
    ext = _with_synthetic(rt, phi, rnd.randint(1, k))
    assert distinguishes(rt, ext) == is_distinguishing(rt, ext)
    # any root: the root-preserving group of that rooted view
    other = RootedTree(t, rnd.randrange(n))
    assert distinguishes(other, phi) == is_distinguishing(other, phi)


def test_distinguishes_edge_center_swap():
    # the two halves of P4 swap unless their colored shapes differ
    t = path(4)
    assert not distinguishes(t, dict(enumerate((1, 2, 2, 1))))
    assert distinguishes(t, dict(enumerate((1, 2, 1, 1))))
    assert distinguishes(t, dict(enumerate((1, 1, 1, 2))))
    assert not distinguishes(path(2), {0: 3, 1: 3})


def test_distinguishes_missing_vertex():
    t = path(4)
    rt = to_rooted(t)
    phi = {v: 1 for v in range(t.n)}
    with pytest.raises(ValueError):
        distinguishes(t, {v: 1 for v in range(t.n - 1)})
    # the rooted reduction's synthetic root is a vertex of that rooted tree
    with pytest.raises(ValueError):
        distinguishes(rt, phi)
    with pytest.raises(ValueError):
        is_distinguishing(rt, phi)


# -- serialisation ----------------------------------------------------------------

def test_edge_list_roundtrip():
    for t in all_trees_up_to(7):
        back = parse_tree(to_edge_list(t))
        assert back.labeled_edges() == t.labeled_edges()
        assert set(back.labels) == set(t.labels)


def test_parens_roundtrip():
    for t in all_trees_up_to(7):
        rt = to_rooted(t)
        back = parse_tree(to_parens(rt), fmt="parens")
        assert to_parens(back) == to_parens(rt)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 24), st.randoms(use_true_random=False))
def test_roundtrip_random_trees(n, rnd):
    t = tree_from_prufer([rnd.randrange(n) for _ in range(n - 2)])
    back = parse_tree(to_edge_list(t))
    assert back.labeled_edges() == t.labeled_edges()
    rt = to_rooted(t)
    assert parse_tree(to_parens(rt), fmt="parens").n == rt.n


def test_tree_validation_direct():
    with pytest.raises(InvalidTreeError):
        Tree([], [])
    with pytest.raises(InvalidTreeError):
        Tree(["a", "a"], [(0, 1)])
    with pytest.raises(InvalidTreeError):
        Tree(["a", "b", "c"], [(0, 1)])
    with pytest.raises(InvalidTreeError):
        Tree(["a", "b"], [(0, 5)])
