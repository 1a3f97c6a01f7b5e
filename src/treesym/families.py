"""Tree generators: named families, exhaustive small-tree enumeration, and
seeded random trees."""

from __future__ import annotations

import heapq
import random

from .trees import RootedTree, Tree, to_parens, to_rooted


def single_vertex() -> Tree:
    return Tree(["0"], [])


def path(n: int) -> Tree:
    return Tree([str(i) for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def star(m: int) -> Tree:
    """K_{1,m}: a hub (id 0) with m leaves."""
    return Tree([str(i) for i in range(m + 1)], [(0, i) for i in range(1, m + 1)])


def spider(*legs: int) -> Tree:
    """A hub with one path of each given length attached."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree([str(i) for i in range(nxt)], edges)


def double_star(a: int, b: int) -> Tree:
    """Two adjacent hubs carrying a and b leaves."""
    n = a + b + 2
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Tree([str(i) for i in range(n)], edges)


def tree_from_prufer(seq) -> Tree:
    """Decode a Prufer sequence over 0..n-1 (n = len(seq)+2)."""
    seq = list(seq)
    n = len(seq) + 2
    if n == 2:
        return path(2)
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree([str(i) for i in range(n)], edges)


def random_tree(n: int, seed) -> Tree:
    """Uniformly random labeled tree on n vertices, deterministic per seed."""
    if n == 1:
        return single_vertex()
    rng = random.Random(seed)
    return tree_from_prufer([rng.randrange(n) for _ in range(n - 2)])


_GROWN: dict = {}


def _grown(n: int, rooted: bool) -> tuple:
    # the generators' one loop and one cache: a rooted tree keeps its root
    # at id 0 and is deduplicated by its own code, a free tree by the code
    # of its center-rooted reduction
    if n < 1:
        raise ValueError("n must be positive")
    got = _GROWN.get((n, rooted))
    if got is None:
        if n == 1:
            got = (RootedTree(single_vertex(), 0) if rooted else single_vertex(),)
        else:
            labels = [str(i) for i in range(n)]
            seen: dict = {}
            for t in _grown(n - 1, rooted):
                edges = list((t.base if rooted else t).edges)
                for v in range(t.n):
                    cand = Tree(labels, edges + [(v, n - 1)])
                    if rooted:
                        cand = RootedTree(cand, 0)
                    seen.setdefault(to_parens(to_rooted(cand)), cand)
            got = tuple(seen.values())
        _GROWN[(n, rooted)] = got
    return got


def nonisomorphic_trees(n: int) -> tuple:
    """All unlabeled trees on exactly n vertices, one per isomorphism class.

    Grown by attaching a new leaf everywhere on every (n-1)-vertex tree and
    deduplicating by canonical form; every n-vertex tree arises this way
    because removing any leaf leaves a smaller tree.
    """
    return _grown(n, False)


def nonisomorphic_rooted_trees(n: int) -> tuple:
    """All rooted unlabeled trees on exactly n vertices; the root is id 0."""
    return _grown(n, True)


def all_trees_up_to(n: int):
    """Every unlabeled tree with at most n vertices."""
    for size in range(1, n + 1):
        yield from nonisomorphic_trees(size)
