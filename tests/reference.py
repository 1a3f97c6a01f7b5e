"""Naive references for canonical codes, sibling-class order and rooted
isomorphism.

Builds the Aho–Hopcroft–Ullman parenthesis string of every vertex's
subtree directly, children sorted by their own strings, and orders sibling
classes by those strings.  Quadratic on deep trees; only for tests.  The
isomorphism test backtracks over child matchings and never looks at codes.
"""

from treesym import RootedTree, Tree


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
