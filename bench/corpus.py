"""Seeded benchmark inputs, generated without the package under test.

Every tree is an edge list over vertex ids ``0..n-1``; it reaches the
program only as edge-list text with seed-shuffled labels, so two seeds give
isomorphic inputs that differ in labels and line order.  Nothing here
imports ``treesym``: a change to the program cannot change its inputs.
"""

from __future__ import annotations

import hashlib
import heapq
import random

from check import Reduction

# -- named shapes ------------------------------------------------------------


def path(n: int) -> list:
    return [(i, i + 1) for i in range(n - 1)]


def spider(legs: int, length: int) -> list:
    """A hub (id 0) carrying ``legs`` paths of ``length`` vertices each."""
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return edges


def caterpillar(spine: int, leaves: int) -> list:
    """A path of ``spine`` vertices, each carrying ``leaves`` pendant leaves."""
    edges = path(spine)
    nxt = spine
    for s in range(spine):
        for _ in range(leaves):
            edges.append((s, nxt))
            nxt += 1
    return edges


def binary(height: int) -> list:
    """Complete binary tree of the given height (a single vertex has height 0)."""
    n = 2 ** (height + 1) - 1
    return [((i - 1) // 2, i) for i in range(1, n)]


def prufer_tree(n: int, rng: random.Random) -> list:
    """Uniformly random labeled tree on ``n >= 2`` vertices, decoded from a
    random Prüfer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


# -- exhaustive small trees --------------------------------------------------

# unlabeled free trees on n = 1..12 vertices (OEIS A000055)
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)


def free_trees(max_n: int) -> list:
    """Every unlabeled tree with at most ``max_n`` vertices, as ``(n, edges)``,
    smallest first.  Each n-vertex tree is a leaf added to an (n-1)-vertex
    one; duplicates are removed by a center-rooted canonical form."""
    out = [(1, [])]
    level = [[]]
    for n in range(2, max_n + 1):
        seen = {}
        for edges in level:
            for v in range(n - 1):
                cand = edges + [(v, n - 1)]
                key = Reduction(n, cand).canonical_form()
                seen.setdefault(key, cand)
        level = list(seen.values())
        if len(level) != FREE_TREE_COUNTS[n - 1]:
            raise AssertionError(f"found {len(level)} trees on {n} vertices")
        out.extend((n, e) for e in level)
    return out


# -- text rendering ----------------------------------------------------------


def shuffled_labels(n: int, rng: random.Random) -> list:
    ids = list(range(n))
    rng.shuffle(ids)
    return [f"v{i}" for i in ids]


def edge_list_text(n: int, edges: list, labels: list, rng: random.Random) -> str:
    """Edge-list text with every line and endpoint order shuffled."""
    if n == 1:
        return labels[0] + "\n"
    lines = [
        f"{labels[u]} {labels[v]}" if rng.random() < 0.5 else f"{labels[v]} {labels[u]}"
        for u, v in edges
    ]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def list_text(lists: list, labels: list) -> str:
    return "".join(
        f"{labels[v]}: {','.join(map(str, sorted(cs)))}\n" for v, cs in enumerate(lists)
    )


class Digest:
    """Running sha256 over every input handed to the program."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *parts: str):
        for p in parts:
            self._h.update(p.encode())
            self._h.update(b"\0")

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
