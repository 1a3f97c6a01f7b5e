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


def _parameters_agree(t) -> bool:
    return (distinguishing_number(t) == oracle.brute_distinguishing_number(t)
            and distinguishing_chromatic_number(t)
            == oracle.brute_chromatic_distinguishing_number(t))


def _certificate_agrees(t) -> bool:
    d, chi, cert = parameters(t)
    return (cert is not None) == (chi == d + 1)


def _root_counts_agree(t) -> bool:
    rt = to_rooted(t)
    table = CountTable(rt)
    return all(table.distinguishing_raw(rt.root, k) == oracle.brute_count_classes(rt, k).value
               and k * table.proper_raw(rt.root, k)
               == oracle.brute_count_classes(rt, k, proper=True).value
               for k in (1, 2, 3))


def _tree_counts_agree(t) -> bool:
    table = CountTable(to_rooted(t))
    return all((table.tree_distinguishing(k), table.tree_proper(k))
               == (oracle.brute_count_classes(t, k).value,
                   oracle.brute_count_classes(t, k, proper=True).value)
               for k in (1, 2, 3))


def _list_witness_holds(t, lists: ListAssignment, proper: bool) -> bool:
    col = construct_list_distinguishing_coloring(t, lists, proper=proper)
    return (col is not None and all(col[v] in lists.get(v) for v in range(t.n))
            and oracle.is_distinguishing(t, col) and (not proper or is_proper(t, col)))


def _list_witnesses(top: int):
    # one draw per case, in the order the cases run, so a seed fixes them all
    rng = random.Random(6)
    for n in range(1, top + 1):
        for t in families.nonisomorphic_trees(n):
            for proper, k in ((False, distinguishing_number(t)),
                              (True, distinguishing_chromatic_number(t))):
                lists = ListAssignment.from_dict(
                    {v: rng.sample(range(1, 2 * k + 1), k) for v in range(n)})
                yield _list_witness_holds(t, lists, proper)


def _verify_agrees(t, colors) -> bool:
    coloring = dict(enumerate(colors))
    return distinguishes(t, coloring) == oracle.is_distinguishing(t, coloring)


def run(max_n: int) -> int:
    """Print one line per check and a verdict; return the failure count."""
    failures = 0
    started = time.perf_counter()

    def check(name: str, outcomes, noun: str):
        # every case runs, failed or not; the line ends with the cases
        # checked and the seconds they took
        nonlocal failures, started
        outcomes = list(outcomes)
        ok = all(outcomes)
        now = time.perf_counter()
        noun += "" if len(outcomes) == 1 else "s"
        print(f"{'ok' if ok else 'FAIL'}  {name} ({len(outcomes)} {noun}, "
              f"{now - started:.2f} s)")
        started = now
        failures += not ok

    for n in range(2, max_n + 1):
        check(f"parameters match brute force on all trees with n={n}",
              map(_parameters_agree, families.nonisomorphic_trees(n)), "tree")
    for n in range(2, min(max_n, 8) + 1):
        check(f"certificate presence matches chi_D = D + 1 at n={n}",
              map(_certificate_agrees, families.nonisomorphic_trees(n)), "tree")
    for n in range(2, min(max_n, 6) + 1):
        trees = families.nonisomorphic_trees(n)
        check(f"counts match exhaustive enumeration at n={n}",
              map(_root_counts_agree, trees), "tree")
        check(f"input-tree counts match exhaustive enumeration at n={n}",
              map(_tree_counts_agree, trees), "tree")
    top = min(max_n, 6)
    check(f"lists of size D (chi_D if proper) admit verified witnesses up to n={top}",
          _list_witnesses(top), "list assignment")
    top = min(max_n, 7)
    check(f"verify matches the automorphism group on all 2-colorings up to n={top}",
          (_verify_agrees(t, colors) for n in range(1, top + 1)
           for t in families.nonisomorphic_trees(n)
           for colors in itertools.product((1, 2), repeat=n)), "coloring")

    print(f"selftest: {'PASS' if failures == 0 else f'{failures} FAILURES'}")
    return failures
