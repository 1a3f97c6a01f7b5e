"""Tree structures, parsing, centers, rooted reductions, and canonical codes.

Vertices are dense integer ids ``0..n-1`` bound to external string labels.
A :class:`RootedTree` adds parent/children arrays plus a canonical code per
rooted subtree; two subtrees get equal codes exactly when they are
isomorphic root-to-root, which is what every counting and construction
routine in the package leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidTreeError, TreeSyntaxError

SYNTHETIC_CENTER_LABEL = "⟨center⟩"


class Tree:
    """Immutable unrooted tree; ``labels[i]`` names vertex id ``i``.

    The constructor is the one place where trees are validated.
    """

    def __init__(self, labels, edges):
        self.labels = tuple(str(s) for s in labels)
        n = len(self.labels)
        if n == 0:
            raise InvalidTreeError("empty input: a tree needs at least one vertex")
        if len(set(self.labels)) != n:
            raise InvalidTreeError("vertex labels must be unique")
        # union-find: an edge inside one component closes a cycle, and an
        # acyclic edge set spans all n vertices iff it has n-1 edges
        uf = list(range(n))
        norm = []
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidTreeError(f"edge ({u},{v}) references unknown vertex ids")
            if u == v:
                raise InvalidTreeError(f"self-loop at {self.labels[u]!r}")
            a, b = _uf_find(uf, u), _uf_find(uf, v)
            key = (u, v) if u < v else (v, u)
            if a == b:
                what = "duplicate edge" if key in norm else "cycle detected at edge"
                raise InvalidTreeError(f"{what} {self.labels[u]!r} {self.labels[v]!r}")
            uf[a] = b
            norm.append(key)
        if len(norm) < n - 1:
            r0 = _uf_find(uf, 0)
            w = next(x for x in range(1, n) if _uf_find(uf, x) != r0)
            raise InvalidTreeError(
                f"disconnected input: no path between {self.labels[0]!r}"
                f" and {self.labels[w]!r}"
            )
        self.edges = tuple(norm)
        self._build_csr()
        self._ids: dict | None = None
        self._rooted: "RootedTree | None" = None

    def _build_csr(self):
        # flat neighbor array with per-vertex offsets; the traversal-heavy
        # internals read this instead of per-vertex tuples
        n = len(self.labels)
        off = [0] * (n + 2)
        for u, v in self.edges:
            off[u + 2] += 1
            off[v + 2] += 1
        for i in range(2, n + 2):
            off[i] += off[i - 1]
        flat = [0] * (2 * len(self.edges))
        for u, v in self.edges:
            flat[off[u + 1]] = v
            off[u + 1] += 1
            flat[off[v + 1]] = u
            off[v + 1] += 1
        self._adj_off = off
        self._adj_flat = flat

    @classmethod
    def _trusted(cls, labels: tuple, edges: list) -> "Tree":
        # internal fast path for trees built from already-validated parts
        t = object.__new__(cls)
        t.labels = labels
        t.edges = tuple(edges)
        t._build_csr()
        t._ids = None
        t._rooted = None
        return t

    @property
    def _label_ids(self) -> dict:
        if self._ids is None:
            self._ids = {s: i for i, s in enumerate(self.labels)}
        return self._ids

    @property
    def n(self) -> int:
        return len(self.labels)

    def degree(self, v: int) -> int:
        return self._adj_off[v + 1] - self._adj_off[v]

    def vertex_id(self, label: str) -> int:
        try:
            return self._label_ids[label]
        except KeyError:
            raise KeyError(f"unknown vertex label {label!r}") from None

    def labeled_edges(self) -> frozenset:
        return frozenset(
            frozenset((self.labels[u], self.labels[v])) for u, v in self.edges
        )

    def __repr__(self):
        return f"Tree(n={self.n})"


def _uf_find(uf: list, x: int) -> int:
    # union-find root of x, halving the path on the way
    while uf[x] != x:
        uf[x] = uf[uf[x]]
        x = uf[x]
    return x


def center(t: Tree) -> frozenset:
    """Vertex set of minimum eccentricity: one vertex, or two adjacent ones.

    Computed by iteratively stripping leaves, so it runs in linear time.
    """
    n = t.n
    if n <= 2:
        return frozenset(range(n))
    off, flat = t._adj_off, t._adj_flat
    deg = [off[v + 1] - off[v] for v in range(n)]
    leaves = [v for v in range(n) if deg[v] == 1]
    count = n
    while count > 2:
        count -= len(leaves)
        nxt = []
        for v in leaves:
            for w in flat[off[v]:off[v + 1]]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
            deg[v] = 0
        leaves = nxt
    return frozenset(leaves)


class RootedTree:
    """A rooted view of a tree: parent/children arrays, BFS order, codes.

    ``subdivided`` marks trees produced from an edge-centered input, where a
    synthetic vertex (the new root) splits the central edge.  All original
    vertices keep their ids; the synthetic vertex gets the last id.
    """

    def __init__(self, base: Tree, root: int):
        root = int(root)
        if not 0 <= root < base.n:
            raise InvalidTreeError(f"root id {root} out of range")
        self._base = self._source = base
        self.subdivided = False
        self.subdivision_vertex = None
        self.origin_count = base.n
        self._grow(base, root, ())

    @classmethod
    def _subdividing(cls, t: Tree, u: int, v: int, label: str) -> "RootedTree":
        # rooted view of t with the edge (u, v) split by a synthetic root;
        # the subdivided base tree itself is materialized only on demand
        rt = object.__new__(cls)
        rt._base = None
        rt._source = t
        rt._center_label = label
        rt.subdivided = True
        rt.subdivision_vertex = t.n
        rt.origin_count = t.n
        rt._grow(t, t.n, (u, v))
        return rt

    def _grow(self, t: Tree, root: int, halves: tuple):
        # BFS over t's adjacency from ``root``; a synthetic root (id t.n)
        # has no adjacency of its own and gets ``halves`` as its children
        n = t.n + (1 if halves else 0)
        parent = [-1] * n
        depth = [0] * n
        span = [0] * (2 * n)
        order = [root, *halves]
        seen = bytearray(n)
        seen[root] = 1
        for w in halves:
            seen[w] = 1
            parent[w] = root
            depth[w] = 1
        span[2 * root], span[2 * root + 1] = 1, len(order)
        off, flat = t._adj_off, t._adj_flat
        i = 1 if halves else 0
        while i < len(order):
            v = order[i]
            i += 1
            span[2 * v] = len(order)
            dv = depth[v] + 1
            for w in flat[off[v]:off[v + 1]]:
                if not seen[w]:
                    seen[w] = 1
                    parent[w] = v
                    depth[w] = dv
                    order.append(w)
            span[2 * v + 1] = len(order)
        self.root = root
        self.parent = tuple(parent)
        self.depth = tuple(depth)
        self.bfs_order = tuple(order)
        self._child_span = span
        self._children: tuple | None = None
        self._code_ids: tuple | None = None
        self._strings: dict | None = None
        self._ranks: dict | None = None
        self._sizes: tuple | None = None
        self._class_structure: tuple | None = None

    @property
    def children(self) -> tuple:
        """Children per vertex, in BFS discovery order (materialized lazily;
        the children of each vertex sit contiguously in ``bfs_order``)."""
        if self._children is None:
            order = self.bfs_order
            span = self._child_span
            self._children = tuple(
                tuple(order[span[2 * v]:span[2 * v + 1]]) for v in range(self.n)
            )
        return self._children

    @property
    def base(self) -> Tree:
        if self._base is None:
            t = self._source
            x = self.root
            u, v = sorted(self.children[x])
            edges = [e for e in t.edges if e != (u, v)] + [(u, x), (v, x)]
            self._base = Tree._trusted(t.labels + (self._center_label,), edges)
        return self._base

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def labels(self):
        return self.base.labels

    def is_synthetic(self, v: int) -> bool:
        return self.subdivided and v == self.subdivision_vertex

    def subtree_sizes(self) -> tuple:
        if self._sizes is None:
            sizes = [1] * self.n
            for v in reversed(self.bfs_order):
                p = self.parent[v]
                if p >= 0:
                    sizes[p] += sizes[v]
            self._sizes = tuple(sizes)
        return self._sizes

    # -- canonical codes ------------------------------------------------

    def code_ids(self) -> tuple:
        """Dense class id per vertex; equal ids iff isomorphic rooted subtrees.

        Computed bottom-up by interning the sorted tuple of child class ids,
        so the total work is O(n log n) and no code strings are built.  Class
        ids come out in children-before-parents order, and the per-class
        child multiplicities are recorded along the way.
        """
        if self._code_ids is None:
            parent = self.parent
            ids = [0] * self.n
            table: dict = {(): 0}
            mults: list = [()]
            leaves = 1
            pending: list = [None] * self.n
            for v in reversed(self.bfs_order):
                kc = pending[v]
                if kc is not None:
                    kc.sort()
                    key = tuple(kc)
                    cid = table.get(key)
                    if cid is None:
                        cid = len(table)
                        table[key] = cid
                        counts: dict = {}
                        for cc in kc:
                            counts[cc] = counts.get(cc, 0) + 1
                        mults.append(tuple(counts.items()))
                        leaves = max(leaves, counts.get(0, 0))
                    ids[v] = cid
                p = parent[v]
                if p >= 0:
                    kcp = pending[p]
                    if kcp is None:
                        pending[p] = [ids[v]]
                    else:
                        kcp.append(ids[v])
            self._code_ids = tuple(ids)
            self._class_structure = (tuple(range(len(mults))), tuple(mults))
            self._leaf_bound = leaves
        return self._code_ids

    def leaf_bound(self) -> int:
        """Largest number of leaf children of any vertex, and at least 1.

        A lower bound on the distinguishing number, because m sibling
        leaves need m distinct colors.  Found while interning classes.
        """
        self.code_ids()
        return self._leaf_bound

    def code_id(self, v: int) -> int:
        return self.code_ids()[v]

    def class_count(self) -> int:
        self.code_ids()
        return len(self._class_structure[0])

    def _class_strings(self) -> dict:
        # one balanced-parenthesis string per distinct class, built on demand;
        # children sorted by their own strings makes the result canonical
        if self._strings is None:
            ids = self.code_ids()
            strings: dict = {}
            for v in reversed(self.bfs_order):
                cid = ids[v]
                if cid not in strings:
                    parts = sorted(strings[ids[c]] for c in self.children[v])
                    strings[cid] = "(" + "".join(parts) + ")"
            self._strings = strings
        return self._strings

    def _class_ranks(self) -> dict:
        if self._ranks is None:
            strings = self._class_strings()
            ordered = sorted(strings, key=strings.__getitem__)
            self._ranks = {cid: i for i, cid in enumerate(ordered)}
        return self._ranks

    def grouped_children(self, v: int) -> dict:
        """Multiplicity of each child class below ``v`` (unordered, fast)."""
        ids = self.code_ids()
        out: dict = {}
        for c in self.children[v]:
            cid = ids[c]
            out[cid] = out.get(cid, 0) + 1
        return out

    def class_structure(self) -> tuple:
        """``(order, mults)``: distinct class ids listed children-first, and
        per class the (child class id, multiplicity) pairs of one
        representative.  Lets count passes touch each class exactly once."""
        self.code_ids()
        return self._class_structure

    def sibling_classes(self, v: int) -> tuple:
        """Partition of the children of ``v`` into isomorphism classes,
        ordered by the codes of their representatives."""
        ids = self.code_ids()
        ranks = self._class_ranks()
        groups: dict = {}
        for c in self.children[v]:
            groups.setdefault(ids[c], []).append(c)
        ordered = sorted(groups.items(), key=lambda kv: ranks[kv[0]])
        return tuple(
            ChildClass(members=tuple(sorted(ms)), representative=min(ms), code_id=cid)
            for cid, ms in ordered
        )

    def __repr__(self):
        tag = ", subdivided" if self.subdivided else ""
        return f"RootedTree(n={self.n}, root={self.root}{tag})"


@dataclass(frozen=True)
class ChildClass:
    members: tuple
    representative: int
    code_id: int

    @property
    def size(self) -> int:
        return len(self.members)


def canonical_code(rt: RootedTree, v: int) -> str:
    """Canonical balanced-parenthesis code of the subtree rooted at ``v``.

    Equal codes mean isomorphic rooted subtrees; the string has length
    twice the subtree's vertex count.
    """
    if not 0 <= v < rt.n:
        raise InvalidTreeError(f"vertex id {v} out of range")
    return rt._class_strings()[rt.code_id(v)]


def to_rooted(t: Tree) -> RootedTree:
    """Root ``t`` at its center, subdividing the central edge when the
    center is an edge.  The synthetic vertex becomes the root.

    The reduction is a pure function of the tree and is cached on it, so
    repeated analyses share one rooted view.
    """
    if t._rooted is not None:
        return t._rooted
    c = sorted(center(t))
    if len(c) == 1:
        rt = RootedTree(t, c[0])
    else:
        u, v = c
        label = SYNTHETIC_CENTER_LABEL
        while label in t.labels:
            label += "′"
        rt = RootedTree._subdividing(t, u, v, label)
    t._rooted = rt
    return rt


def original_tree(rt: RootedTree) -> Tree:
    """The tree a rooted view was built from: for a subdivided view of
    :func:`to_rooted`, the input tree itself, without the synthetic vertex."""
    return rt._source


def extract_subtree(rt: RootedTree, v: int) -> RootedTree:
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


def vertex_orbits(rt: RootedTree) -> tuple:
    """Orbit id per vertex under the root-preserving automorphism group.

    Two vertices share an orbit exactly when their parents do and their
    subtree codes agree, so a top-down refinement suffices.
    """
    ids = rt.code_ids()
    orbit = [0] * rt.n
    table: dict = {}
    for v in rt.bfs_order:
        if v == rt.root:
            continue
        key = (orbit[rt.parent[v]], ids[v])
        got = table.get(key)
        if got is None:
            got = len(table) + 1
            table[key] = got
        orbit[v] = got
    return tuple(orbit)


_SYNTHETIC_COLOR = object()


def distinguishes(t, coloring) -> bool:
    """Whether no nontrivial automorphism preserves every color.

    A :class:`Tree` is judged under its full automorphism group and a
    :class:`RootedTree` under its root-preserving group.  Every automorphism
    of a tree fixes its center, so the coloring distinguishes exactly when
    no vertex of the center-rooted reduction has two children whose colored
    subtrees are isomorphic.  One bottom-up pass interns each vertex as its
    color with the sorted colored ids of its children: O(n log n), with no
    group enumeration.  A vertex missing from the coloring is a ValueError.
    """
    rt = t if isinstance(t, RootedTree) else to_rooted(t)
    colors = getattr(coloring, "colors", coloring)
    for v in range(t.n):
        if v not in colors:
            raise ValueError(f"coloring misses vertex {v}")
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
        key = (_SYNTHETIC_COLOR if v == synthetic else colors[v], kids)
        ids[v] = table.setdefault(key, len(table))
    return True


# -- parsing and serialisation ------------------------------------------


def parse_tree(text: str, fmt: str = "edge-list"):
    """Parse ``text`` as a tree.

    ``edge-list`` yields a :class:`Tree`; ``parens`` yields a label-free
    :class:`RootedTree` with ``subdivided=False``.
    """
    if fmt == "edge-list":
        return _parse_edge_list(text)
    if fmt == "parens":
        return _parse_parens(text)
    raise ValueError(f"unknown tree format {fmt!r}")


def _parse_edge_list(text: str) -> Tree:
    # tokenizing only: the Tree constructor checks the structure
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
            edges.append(ids)
    return Tree(labels, edges)


def _parse_parens(text: str) -> RootedTree:
    stack: list = []
    labels: list = []
    edges: list = []
    root = None
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        if ch == "(":
            vid = len(labels)
            labels.append(str(vid))
            if stack:
                edges.append((stack[-1], vid))
            elif root is not None:
                raise TreeSyntaxError(f"position {pos}: second top-level group")
            else:
                root = vid
            stack.append(vid)
        elif ch == ")":
            if not stack:
                raise TreeSyntaxError(f"position {pos}: unmatched ')'")
            stack.pop()
        else:
            raise TreeSyntaxError(f"position {pos}: unexpected character {ch!r}")
    if stack:
        raise TreeSyntaxError("unbalanced input: missing ')'")
    return RootedTree(Tree(labels, edges), root)


def to_edge_list(t) -> str:
    """Serialise to the edge-list format; inverse of the edge-list parser
    up to internal id relabeling."""
    tt = t.base if isinstance(t, RootedTree) else t
    if tt.n == 1:
        return tt.labels[0] + "\n"
    lines = [f"{tt.labels[u]} {tt.labels[v]}" for u, v in tt.edges]
    return "\n".join(lines) + "\n"


def to_parens(rt: RootedTree) -> str:
    """Canonical parenthesis string of the whole rooted tree."""
    return rt._class_strings()[rt.code_id(rt.root)]
