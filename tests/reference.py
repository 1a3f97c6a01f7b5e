"""Naive references for canonical codes, sibling-class order, rooted
isomorphism, the tree front end, the witness walkers and the verifier.

Builds the Aho–Hopcroft–Ullman parenthesis string of every vertex's
subtree directly, children sorted by their own strings, and orders sibling
classes by those strings.  Quadratic on deep trees; only for tests.  The
isomorphism test backtracks over child matchings and never looks at codes.
"""

from math import comb

from treesym import CountTable, RootedTree, Tree, to_rooted
from treesym.construction import _subset_unrank_desc
from treesym.errors import (
    CountIndexError,
    InvalidTreeError,
    NotDistinguishingError,
    TreeSyntaxError,
)


def vertex_strings(rt) -> list:
    """Parenthesis string of the subtree at every vertex of ``rt``."""
    out = [None] * rt.n
    for v in reversed(rt.bfs_order):
        out[v] = "(" + "".join(sorted(out[c] for c in rt.children[v])) + ")"
    return out


def sibling_order(rt, strings, v) -> list:
    """Members of each sibling class below ``v``, ascending, with the
    classes in the order of their strings."""
    groups: dict = {}
    for c in rt.children[v]:
        groups.setdefault(strings[c], []).append(c)
    return [tuple(sorted(groups[s])) for s in sorted(groups)]


def extract_subtree(rt, v: int) -> RootedTree:
    """The subtree of ``rt`` rooted at ``v``, as a standalone rooted tree."""
    verts = []
    stack = [v]
    while stack:
        x = stack.pop()
        verts.append(x)
        stack.extend(rt.children[x])
    remap = {x: i for i, x in enumerate(verts)}
    labels = [rt.base.labels[x] for x in verts]
    edges = [(remap[rt.parent[x]], remap[x]) for x in verts if x != v]
    return RootedTree(Tree(labels, edges), 0)


def is_isomorphic_rooted(a: RootedTree, b: RootedTree) -> bool:
    """Root-preserving isomorphism test by plain backtracking, independent
    of canonical codes."""
    if a.n != b.n:
        return False
    sa, sb = a.subtree_sizes(), b.subtree_sizes()
    da, db = a.depth, b.depth

    def match(x: int, y: int) -> bool:
        cx, cy = a.children[x], b.children[y]
        if len(cx) != len(cy) or sa[x] != sb[y]:
            return False
        if sorted(sa[c] for c in cx) != sorted(sb[c] for c in cy):
            return False
        used = [False] * len(cy)

        def assign(i: int) -> bool:
            if i == len(cx):
                return True
            for j in range(len(cy)):
                if not used[j] and match(cx[i], cy[j]):
                    used[j] = True
                    if assign(i + 1):
                        return True
                    used[j] = False
            return False

        return assign(0)

    if da and db and max(da) != max(db):
        return False
    return match(a.root, b.root)


# -- the per-vertex front end ---------------------------------------------------
# Parsing, validation, centering, rooting and interning as they were before
# the flat layout: one token list per line, a union-find that names the
# first bad edge, a neighbour list per vertex, and one pending child list
# per vertex.  Only for differential tests.


def parse_edge_list(text: str) -> tuple:
    """``(labels, edges)`` of edge-list text, ids in first-occurrence order,
    validated by :func:`check_tree`."""
    labels: dict = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) > 2:
            raise TreeSyntaxError(
                f"line {lineno}: expected two whitespace-separated labels, got {len(parts)}"
            )
        ids = [labels.setdefault(s, len(labels)) for s in parts]
        if len(ids) == 2:
            edges.append(tuple(ids))
    labels = list(labels)
    check_tree(labels, edges)
    return labels, edges


def check_tree(labels, edges) -> list:
    """Raise the error of the first edge at which ``edges`` stops being a
    tree on ``labels``; return the edges as (smaller, larger) id pairs."""
    labels = [str(s) for s in labels]
    n = len(labels)
    if n == 0:
        raise InvalidTreeError("empty input: a tree needs at least one vertex")
    if len(set(labels)) != n:
        raise InvalidTreeError("vertex labels must be unique")
    uf = list(range(n))

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    norm = []
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidTreeError(f"edge ({u},{v}) references unknown vertex ids")
        if u == v:
            raise InvalidTreeError(f"self-loop at {labels[u]!r}")
        a, b = find(u), find(v)
        key = (u, v) if u < v else (v, u)
        if a == b:
            what = "duplicate edge" if key in norm else "cycle detected at edge"
            raise InvalidTreeError(f"{what} {labels[u]!r} {labels[v]!r}")
        uf[a] = b
        norm.append(key)
    if len(norm) < n - 1:
        r0 = find(0)
        w = next(x for x in range(1, n) if find(x) != r0)
        raise InvalidTreeError(
            f"disconnected input: no path between {labels[0]!r} and {labels[w]!r}"
        )
    return norm


def neighbours(n: int, edges) -> list:
    """Neighbour list per vertex, in input-edge order."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def tree_center(adj) -> frozenset:
    """Center by stripping all leaves at once, round by round."""
    n = len(adj)
    if n <= 2:
        return frozenset(range(n))
    deg = [len(a) for a in adj]
    leaves = [v for v in range(n) if deg[v] == 1]
    count = n
    while count > 2:
        count -= len(leaves)
        nxt = []
        for v in leaves:
            for w in adj[v]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
            deg[v] = 0
        leaves = nxt
    return frozenset(leaves)


def rooted(adj, root: int, halves=()) -> dict:
    """BFS from ``root`` over ``adj`` (a synthetic root, id len(adj), takes
    ``halves`` as its children), then bottom-up interning of sorted child
    class tuples.  Returns parent, depth, bfs_order, children, the class
    id per vertex, the (child class, multiplicity) pairs per class, the
    number of classes, and the leaf bound: the most leaf children of one
    vertex, and at least 1."""
    n = len(adj) + (1 if halves else 0)
    parent = [-1] * n
    depth = [0] * n
    children = [[] for _ in range(n)]
    order = [root, *halves]
    seen = [False] * n
    seen[root] = True
    for w in halves:
        seen[w] = True
        parent[w] = root
        depth[w] = 1
        children[root].append(w)
    i = 1 if halves else 0
    while i < len(order):
        v = order[i]
        i += 1
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                depth[w] = depth[v] + 1
                children[v].append(w)
                order.append(w)
    ids = [0] * n
    table: dict = {(): 0}
    pairs: list = [()]
    pending: list = [[] for _ in range(n)]
    for v in reversed(order):
        key = tuple(sorted(pending[v]))
        if key not in table:
            table[key] = len(table)
            counts: dict = {}
            for c in key:
                counts[c] = counts.get(c, 0) + 1
            pairs.append(tuple(counts.items()))
        ids[v] = table[key]
        if parent[v] >= 0:
            pending[parent[v]].append(ids[v])
    return {"parent": parent, "depth": depth, "bfs_order": order,
            "children": [tuple(c) for c in children], "ids": ids, "pairs": pairs,
            "classes": len(table), "leaf_bound": max([1] + [k.count(0) for k in table])}


# -- the per-vertex walkers -----------------------------------------------------
# Unrank and rank as they were before walk plans: every vertex asks for its
# sibling classes and recomputes their blocks C(a * f, m).  Only for
# differential tests.


def unrank(table, k: int, proper: bool, start: int, root_color: int, idx: int) -> dict:
    """Colors by vertex id of the idx-th class of colorings of the subtree
    at ``start``, its root colored ``root_color``, read from ``table``."""
    rt = table.rt
    a = k - 1 if proper else k
    row = table.row(a)
    total = row[rt.code_id(start)]
    if not 0 <= idx < total:
        raise CountIndexError(f"index {idx} outside [0, {total})")
    palette = range(1, k + 1)
    out: dict = {}
    stack = [(start, root_color, idx)]
    while stack:
        v, color, ix = stack.pop()
        out[v] = color
        infos = []
        block = 1
        for cid, members in rt.sibling_classes(v):
            f = row[cid]
            b = comb(a * f, len(members))
            infos.append((members, f, b))
            block *= b
        allowed = [c for c in palette if c != color] if proper else palette
        rem = ix
        for members, f, b in infos:
            block //= b
            slots = _subset_unrank_desc(rem // block, len(members))
            rem %= block
            for child, slot in zip(members, slots):
                stack.append((child, allowed[slot // f], slot % f))
    return out


def rank(rt, k: int, colors) -> int:
    """Index of a distinguishing k-coloring's class, by Horner's rule over
    each vertex's color and its sibling classes' subset ranks."""
    row = CountTable(rt).row(k)
    ranks = [0] * rt.n
    for v in reversed(rt.bfs_order):
        idx = colors[v] - 1
        for cid, members in rt.sibling_classes(v):
            rs = sorted(ranks[c] for c in members)
            if len(set(rs)) != len(rs):
                raise NotDistinguishingError(
                    f"children of vertex {v} carry equivalent colorings"
                )
            idx = idx * comb(k * row[cid], len(rs)) + sum(
                comb(c, i + 1) for i, c in enumerate(rs))
        ranks[v] = idx
    return ranks[rt.root]


# -- the per-vertex verifier ----------------------------------------------------
# The distinguishing test as it was before it shared the class-id kernel:
# a tuple and a set for every vertex, leaves included, and a sentinel color
# for the synthetic root.  Only for differential tests.

_UNCOLORED = object()


def distinguishes(t, coloring) -> bool:
    """Whether no vertex of the center-rooted reduction of ``t`` (or of
    the rooted view ``t`` itself) has two children whose colored subtrees
    are isomorphic."""
    rt = to_rooted(t)
    colors = getattr(coloring, "colors", coloring)
    # the synthetic root of an unrooted tree's reduction carries no color,
    # and its key can equal no real vertex's key
    synthetic = rt.subdivision_vertex if rt is not t else None
    order, span = rt.bfs_order, rt._child_span
    ids = [0] * rt.n
    table: dict = {}
    for v in reversed(order):
        kids = tuple(sorted([ids[c] for c in order[span[2 * v]:span[2 * v + 1]]]))
        if len(set(kids)) < len(kids):
            return False
        key = (_UNCOLORED if v == synthetic else colors[v], kids)
        ids[v] = table.setdefault(key, len(table))
    return True
