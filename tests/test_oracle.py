import itertools
import random

import pytest

from treesym import (
    RootedTree,
    Tree,
    brute_chromatic_distinguishing_number,
    brute_count_classes,
    brute_distinguishing_number,
    coloring_orbit_form,
    enumerate_automorphisms,
    is_distinguishing,
    is_proper,
    to_rooted,
)
from treesym.errors import EnumerationBoundError
from treesym.families import (
    all_trees_up_to,
    nonisomorphic_trees,
    path,
    spider,
    star,
)

from reference import extract_subtree, is_isomorphic_rooted


# -- groups ------------------------------------------------------------------

def test_group_orders():
    assert enumerate_automorphisms(path(3)).order == 2
    assert enumerate_automorphisms(star(3)).order == 6
    assert enumerate_automorphisms(spider(1, 2, 3)).order == 1


def brute_group(t):
    n = t.n
    edges = {frozenset(e) for e in t.edges}
    out = set()
    for p in itertools.permutations(range(n)):
        if all(frozenset((p[u], p[v])) in edges for u, v in t.edges):
            out.add(p)
    return out


def test_groups_match_permutation_filter():
    # the structural enumeration must equal the n! filter exactly
    for t in all_trees_up_to(7):
        got = {a.perm for a in enumerate_automorphisms(t).elements}
        assert got == brute_group(t)


def test_group_large_star_matches_filter():
    t = star(7)
    got = {a.perm for a in enumerate_automorphisms(t).elements}
    assert len(got) == 5040
    assert got == brute_group(t)


def test_rooted_group_fixes_root():
    for t in all_trees_up_to(7):
        rt = to_rooted(t)
        for a in enumerate_automorphisms(rt).elements:
            assert a.perm[rt.root] == rt.root


def test_group_closure_and_identity():
    rng = random.Random(7)
    for t in all_trees_up_to(8):
        group = enumerate_automorphisms(t)
        perms = {a.perm for a in group.elements}
        n = t.n
        assert tuple(range(n)) in perms
        assert all(tuple(p.index(i) for i in range(n)) in perms for p in perms)
        elems = sorted(perms)
        pairs = (itertools.product(elems, elems) if len(elems) <= 600
                 else ((rng.choice(elems), rng.choice(elems)) for _ in range(5000)))
        for a, b in pairs:
            assert tuple(a[b[i]] for i in range(n)) in perms


def test_group_bound():
    with pytest.raises(EnumerationBoundError, match=r"exceeds bound=100 \(the bound argument\)"):
        enumerate_automorphisms(star(10), bound=100)
    # the brute-force functions set the same group bound through group_bound
    with pytest.raises(EnumerationBoundError, match=r"exceeds group_bound=100 \(the group_bound"):
        brute_count_classes(star(10), 1, group_bound=100)
    with pytest.raises(EnumerationBoundError, match=r"exceeds group_bound=100 \(the group_bound"):
        brute_distinguishing_number(star(10), group_bound=100)


def test_z2_for_distinguishing_parity_colorings():
    # edge-centered trees whose proper 2-coloring already distinguishes
    # have at most the single half-swap symmetry
    for t in all_trees_up_to(10):
        rt = to_rooted(t)
        if not rt.subdivided:
            continue
        parity = {v: 1 + (rt.depth[v] % 2) for v in range(t.n)}
        if is_distinguishing(t, parity):
            assert enumerate_automorphisms(t).order <= 2


# -- predicates -----------------------------------------------------------------

def test_is_distinguishing_p2():
    t = path(2)
    assert is_distinguishing(t, {0: 1, 1: 2})
    assert not is_distinguishing(t, {0: 1, 1: 1})


def test_is_distinguishing_star3():
    t = star(3)
    assert is_distinguishing(t, {0: 1, 1: 1, 2: 2, 3: 3})
    assert not is_distinguishing(t, {0: 1, 1: 1, 2: 1, 3: 2})


def test_is_proper():
    t = path(2)
    assert is_proper(t, {0: 1, 1: 2})
    assert not is_proper(t, {0: 1, 1: 1})
    t = star(3)
    assert is_proper(t, {0: 9, 1: 1, 2: 1, 3: 2})


def test_coloring_requires_every_vertex():
    with pytest.raises(ValueError):
        is_distinguishing(path(3), {0: 1})


def test_colorings_equivalent():
    rt = to_rooted(star(2))
    assert (coloring_orbit_form(rt, {0: 1, 1: 1, 2: 2})
            == coloring_orbit_form(rt, {0: 1, 1: 2, 2: 1}))
    assert (coloring_orbit_form(rt, {0: 1, 1: 1, 2: 2})
            != coloring_orbit_form(rt, {0: 2, 1: 1, 2: 2}))


# -- exhaustive counting ------------------------------------------------------------

def test_brute_count_leaf():
    rt = to_rooted(Tree(["a"], []))
    assert brute_count_classes(rt, 4).value == 4


def test_brute_count_star2():
    rt = to_rooted(star(2))
    assert brute_count_classes(rt, 2).value == 2


def test_brute_count_p3_proper(p3):
    rt = to_rooted(p3)
    assert brute_count_classes(rt, 3, proper=True).value == 3


def test_brute_count_bound():
    with pytest.raises(EnumerationBoundError, match=r"exceeds bound=1000 \(the bound argument\)"):
        brute_count_classes(to_rooted(path(9)), 9, bound=1000)


def test_brute_count_needs_palette():
    with pytest.raises(ValueError):
        brute_count_classes(to_rooted(path(3)))


# -- parameter search ----------------------------------------------------------------

def test_brute_parameters_examples():
    from treesym.families import single_vertex

    assert brute_distinguishing_number(single_vertex()) == 1
    assert brute_distinguishing_number(star(3)) == 3
    assert brute_chromatic_distinguishing_number(star(3)) == 4
    assert brute_distinguishing_number(path(4)) == 2
    assert brute_chromatic_distinguishing_number(path(4)) == 2


def raw_exists_distinguishing(t, k, proper):
    # reference implementation: scan every coloring, check with the group
    group = enumerate_automorphisms(t)
    nontrivial = group.nontrivial_perms()
    rng = range(t.n)
    for phi in itertools.product(range(1, k + 1), repeat=t.n):
        if proper and any(phi[u] == phi[v] for u, v in t.edges):
            continue
        if any(all(phi[p[v]] == phi[v] for v in rng) for p in nontrivial):
            continue
        return True
    return False


def test_search_agrees_with_raw_scan():
    # the pruned backtracking search must give the same parameters as the
    # unpruned full scan wherever the scan is feasible
    for n in range(1, 7):
        for t in nonisomorphic_trees(n):
            for proper in (False, True):
                got = (brute_chromatic_distinguishing_number(t) if proper
                       else brute_distinguishing_number(t))
                want = next(k for k in range(1, n + 2)
                            if raw_exists_distinguishing(t, k, proper))
                assert got == want


def test_search_node_bound():
    with pytest.raises(EnumerationBoundError, match=r"node_bound=50 nodes \(the node_bound"):
        brute_distinguishing_number(star(8), node_bound=50)


# -- rooted isomorphism ----------------------------------------------------------------

def test_isomorphic_rooted_basics(p3):
    leaf_a = RootedTree(Tree(["a"], []), 0)
    leaf_b = RootedTree(Tree(["c"], []), 0)
    assert is_isomorphic_rooted(leaf_a, leaf_b)
    center_rooted = RootedTree(p3, 1)
    end_rooted = RootedTree(p3, 0)
    assert not is_isomorphic_rooted(center_rooted, end_rooted)


def test_isomorphic_rooted_agrees_with_codes():
    rng = random.Random(31)
    pool = []
    for t in all_trees_up_to(6):
        rt = to_rooted(t)
        pool.extend(extract_subtree(rt, v) for v in range(rt.n))
    for _ in range(300):
        a, b = rng.choice(pool), rng.choice(pool)
        from treesym import to_parens

        assert is_isomorphic_rooted(a, b) == (to_parens(a) == to_parens(b))
