"""Acceptance gate: nine exact, oracle- and property-based criteria.

Each test prints one pass line; run with ``pytest -v tests/test_acceptance.py``
(add ``-s`` to see the lines as they complete).
"""

import random
import time

from treesym import (
    CountTable,
    ListAssignment,
    brute_chromatic_distinguishing_number,
    brute_count_classes,
    brute_distinguishing_number,
    check_orbit_list_equality,
    chi_certificate,
    coloring_orbit_form,
    construct_list_distinguishing_coloring,
    count_distinguishing,
    count_list_distinguishing,
    distinguishing_chromatic_number,
    distinguishing_number,
    is_distinguishing,
    is_proper,
    properize,
    rank_distinguishing,
    to_rooted,
    unrank_distinguishing,
)
from treesym.families import (
    nonisomorphic_rooted_trees,
    nonisomorphic_trees,
    path,
    random_tree,
    star,
)

from reference import children, extract_subtree, is_isomorphic_rooted


def all_trees(max_n):
    for n in range(1, max_n + 1):
        yield from nonisomorphic_trees(n)


def test_criterion_1_count_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for t in all_trees(6):
        rt = to_rooted(t)
        table = CountTable(rt)
        for k in (1, 2, 3):
            assert (table.distinguishing_raw(rt.root, k)
                    == brute_count_classes(rt, k).value)
            assert (k * table.proper_raw(rt.root, k)
                    == brute_count_classes(rt, k, proper=True).value)
            checked += 1
    for n in range(1, 7):
        for rt in nonisomorphic_rooted_trees(n):
            table = CountTable(rt)
            for k in (1, 2, 3):
                assert (table.distinguishing_raw(rt.root, k)
                        == brute_count_classes(rt, k).value)
                assert (k * table.proper_raw(rt.root, k)
                        == brute_count_classes(rt, k, proper=True).value)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 1 (count oracle equivalence, {checked} cases, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_2_parameter_equivalence():
    start = time.perf_counter()
    trees = list(all_trees(9))
    assert sum(1 for t in trees if t.n == 9) >= 47
    for t in trees:
        d = brute_distinguishing_number(t)
        assert to_rooted(t).leaf_bound() <= d
        assert distinguishing_number(t) == d
        assert (distinguishing_chromatic_number(t)
                == brute_chromatic_distinguishing_number(t))
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"criterion 2 (parameter equivalence on {len(trees)} trees, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_3_properization_bound():
    for t in all_trees(9):
        d = distinguishing_number(t)
        chi = distinguishing_chromatic_number(t)
        assert chi <= d + 1
        rt = to_rooted(t)
        repaired = properize(rt, unrank_distinguishing(rt, d, 0))
        assert is_proper(rt, repaired)
        assert is_distinguishing(rt, repaired)
    print("criterion 3 (extra-color bound and properization, n <= 9): PASS")


def test_criterion_4_certificate_characterization():
    for t in all_trees(8):
        d = brute_distinguishing_number(t)
        chi = brute_chromatic_distinguishing_number(t)
        cert = chi_certificate(t)
        assert (cert is not None) == (chi == d + 1)
        if cert is None or cert.degenerate:
            continue
        rt = to_rooted(t)
        assert cert.k == d
        rep = extract_subtree(rt, cert.children[0])
        for m in cert.children[1:]:
            assert is_isomorphic_rooted(rep, extract_subtree(rt, m))
        table = CountTable(rt)
        pool = (cert.k - 1) * table.proper_raw(cert.children[0], cert.k)
        assert pool < len(cert.children)
        # the reported class is a full sibling class, not a fragment
        siblings = children(rt)[cert.vertex]
        outside = [s for s in siblings if s not in cert.children]
        for s in outside:
            assert not is_isomorphic_rooted(rep, extract_subtree(rt, s))
    print("criterion 4 (certificate matches chi_D = D + 1, n <= 8): PASS")


def test_criterion_5_list_count_inequality():
    start = time.perf_counter()
    trials = 0
    for ti, t in enumerate(all_trees(6)):
        rt = to_rooted(t)
        for k in (2, 3):
            plain = count_distinguishing(rt, k).value
            for trial in range(200):
                rng = random.Random(f"c5:{ti}:{k}:{trial}")
                lists = ListAssignment.from_dict(
                    {v: rng.sample(range(1, 2 * k + 1), k) for v in range(rt.n)}
                )
                listed = count_list_distinguishing(rt, lists).value
                assert listed >= plain
                if listed > 0:
                    same_on_orbits = check_orbit_list_equality(
                        rt, lists, k).equality_expected
                    assert (listed == plain) == same_on_orbits
                trials += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 5 (list-count inequality, {trials} assignments, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_6_list_witnesses_at_parameter():
    start = time.perf_counter()
    for ti, t in enumerate(all_trees(6)):
        d = distinguishing_number(t)
        chi = distinguishing_chromatic_number(t)
        for trial in range(200):
            rng = random.Random(f"c6:{ti}:{trial}")
            lists = ListAssignment.from_dict(
                {v: rng.sample(range(1, 2 * d + 1), d) for v in range(t.n)}
            )
            col = construct_list_distinguishing_coloring(t, lists)
            assert col is not None
            assert all(col.colors[v] in lists.get(v) for v in range(t.n))
            plists = ListAssignment.from_dict(
                {v: rng.sample(range(1, 2 * chi + 1), chi) for v in range(t.n)}
            )
            pcol = construct_list_distinguishing_coloring(t, plists, proper=True)
            assert pcol is not None
            assert all(pcol.colors[v] in plists.get(v) for v in range(t.n))
    elapsed = time.perf_counter() - start
    print(f"criterion 6 (list witnesses at the parameter, {elapsed:.1f}s): PASS")


def test_criterion_7_closed_form_families():
    for m in range(2, 51):
        t = star(m)
        assert distinguishing_number(t) == m
        assert distinguishing_chromatic_number(t) == m + 1
        cert = chi_certificate(t)
        assert cert is not None and not cert.degenerate
        assert cert.vertex == 0 and len(cert.children) == m
    for n in range(3, 51):
        t = path(n)
        assert distinguishing_number(t) == 2
        chi = distinguishing_chromatic_number(t)
        assert chi in (2, 3)
        if n <= 12:
            assert chi == brute_chromatic_distinguishing_number(t)
    print("criterion 7 (stars to K_{1,50} and paths to P_50): PASS")


def test_criterion_8_performance():
    t_small = random_tree(10_000, seed="acceptance-perf")
    t_big = random_tree(100_000, seed="acceptance-perf")

    cold_start = time.perf_counter()
    d_big = distinguishing_number(t_big)
    cold = time.perf_counter() - cold_start
    assert cold <= 5.0
    assert d_big >= 1

    def best_of(t, reps=3):
        best = float("inf")
        for _ in range(reps):
            begin = time.perf_counter()
            distinguishing_number(t)
            best = min(best, time.perf_counter() - begin)
        return best

    small = best_of(t_small)
    big = best_of(t_big)
    ratio = big / small
    assert ratio <= 15.0
    print(f"criterion 8 (n=1e5 in {cold:.2f}s cold; scaling ratio "
          f"{ratio:.1f}): PASS")


def test_criterion_9_rank_unrank_bijection():
    for n in range(1, 7):
        for rt in nonisomorphic_rooted_trees(n):
            for k in (1, 2, 3):
                total = count_distinguishing(rt, k).value
                forms = set()
                for i in range(total):
                    col = unrank_distinguishing(rt, k, i)
                    assert rank_distinguishing(rt, k, col).value == i
                    forms.add(coloring_orbit_form(rt, col))
                assert len(forms) == total
    print("criterion 9 (rank/unrank bijection, rooted n <= 6, k <= 3): PASS")
