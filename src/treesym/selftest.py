"""The built-in oracle checks behind ``treesym selftest``.

Fast routines against brute force on every small tree: parameters,
certificate presence, class counts, list witnesses and verify.  Only the
``selftest`` command imports this module, so no other request compiles it
or loads the families and the oracle.
"""

from __future__ import annotations

import itertools
import random
import time

from . import families, oracle
from .construction import distinguishing_chromatic_number, distinguishing_number, parameters
from .counting import CountTable
from .list_coloring import ListAssignment, construct_list_distinguishing_coloring
from .trees import distinguishes, is_proper, to_rooted


def run(max_n: int) -> int:
    """Print one line per check and a verdict; return the failure count."""
    failures = 0
    started = time.perf_counter()

    def check(name: str, ok: bool, cases: int, noun: str):
        # each line ends with the cases it checked and the seconds they took
        nonlocal failures, started
        now = time.perf_counter()
        noun += "" if cases == 1 else "s"
        print(f"{'ok' if ok else 'FAIL'}  {name} ({cases} {noun}, {now - started:.2f} s)")
        started = now
        if not ok:
            failures += 1

    for n in range(2, max_n + 1):
        trees = families.nonisomorphic_trees(n)
        agree = True
        for t in trees:
            if distinguishing_number(t) != oracle.brute_distinguishing_number(t):
                agree = False
            if (distinguishing_chromatic_number(t)
                    != oracle.brute_chromatic_distinguishing_number(t)):
                agree = False
        check(f"parameters match brute force on all trees with n={n}", agree,
              len(trees), "tree")

    for n in range(2, min(max_n, 8) + 1):
        trees = families.nonisomorphic_trees(n)
        agree = True
        for t in trees:
            d, chi, cert = parameters(t)
            if (cert is not None) != (chi == d + 1):
                agree = False
        check(f"certificate presence matches chi_D = D + 1 at n={n}", agree,
              len(trees), "tree")

    for n in range(2, min(max_n, 6) + 1):
        trees = families.nonisomorphic_trees(n)
        agree = True
        for t in trees:
            rt = to_rooted(t)
            table = CountTable(rt)
            for k in (1, 2, 3):
                if (table.distinguishing_raw(rt.root, k)
                        != oracle.brute_count_classes(rt, k).value):
                    agree = False
                if (k * table.proper_raw(rt.root, k)
                        != oracle.brute_count_classes(rt, k, proper=True).value):
                    agree = False
        check(f"counts match exhaustive enumeration at n={n}", agree,
              len(trees), "tree")
        agree = True
        for t in trees:
            table = CountTable(to_rooted(t))
            for k in (1, 2, 3):
                if ((table.tree_distinguishing(k), table.tree_proper(k))
                        != (oracle.brute_count_classes(t, k).value,
                            oracle.brute_count_classes(t, k, proper=True).value)):
                    agree = False
        check(f"input-tree counts match exhaustive enumeration at n={n}", agree,
              len(trees), "tree")

    top = min(max_n, 6)
    ok = True
    cases = 0
    rng = random.Random(6)
    for n in range(1, top + 1):
        for t in families.nonisomorphic_trees(n):
            for proper, k in ((False, distinguishing_number(t)),
                              (True, distinguishing_chromatic_number(t))):
                lists = ListAssignment.from_dict(
                    {v: rng.sample(range(1, 2 * k + 1), k) for v in range(n)})
                col = construct_list_distinguishing_coloring(t, lists, proper=proper)
                cases += 1
                if (col is None or any(col[v] not in lists.get(v) for v in range(n))
                        or not oracle.is_distinguishing(t, col)
                        or (proper and not is_proper(t, col))):
                    ok = False
    check(f"lists of size D (chi_D if proper) admit verified witnesses up to n={top}",
          ok, cases, "list assignment")

    top = min(max_n, 7)
    agree = True
    cases = 0
    for n in range(1, top + 1):
        for t in families.nonisomorphic_trees(n):
            for colors in itertools.product((1, 2), repeat=n):
                coloring = dict(enumerate(colors))
                cases += 1
                if distinguishes(t, coloring) != oracle.is_distinguishing(t, coloring):
                    agree = False
    check(f"verify matches the automorphism group on all 2-colorings up to n={top}",
          agree, cases, "coloring")

    print(f"selftest: {'PASS' if failures == 0 else f'{failures} FAILURES'}")
    return failures
