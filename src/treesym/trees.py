"""Tree structures, parsing, centers, rooted reductions, and canonical codes.

Vertices are dense integer ids ``0..n-1`` bound to external string labels.
A :class:`RootedTree` adds a parent array, a BFS order and a canonical
class per rooted subtree; two subtrees get equal classes exactly when they
are isomorphic root-to-root, which is what every counting and construction
routine in the package leans on.  From text to classes every structure is
an int array or a flat list, with no Python container per vertex or edge;
codes, sibling classes and every walker read one flat sibling order.
"""

from __future__ import annotations

import itertools
from array import array

from .errors import InvalidTreeError, TreeSyntaxError

SYNTHETIC_CENTER_LABEL = "⟨center⟩"


class Tree:
    """Immutable unrooted tree; ``labels[i]`` names vertex id ``i``.

    Stored flat, with no container per edge or vertex: ``_ends`` holds the
    endpoints of input edge i at 2i and 2i + 1, and ``_adj`` lists every
    vertex's neighbours in input-edge order from offset ``_adj_off[v]``.
    The constructor is the one place where trees are validated.
    """

    def __init__(self, labels, edges):
        labels = tuple(str(s) for s in labels)
        if len(set(labels)) != len(labels):
            raise InvalidTreeError("vertex labels must be unique")
        edges = list(edges)
        try:
            ends = list(map(int, itertools.chain.from_iterable(edges)))
        except (TypeError, ValueError):
            _reject(labels, edges)
        if len(ends) != 2 * len(edges):
            _reject(labels, edges)
        self._build(labels, ends, edges)

    def _build(self, labels: tuple, ends, edges=None):
        # the tree checks: n - 1 edges over known ids, and a leaf strip
        # that peels every vertex (it stalls exactly on a cycle, and a
        # self-loop or a repeated edge is one).  A failed check is worded
        # by _reject, over ``edges`` or else the pairs of ``ends``
        n = len(labels)
        if n == 0:
            raise InvalidTreeError("empty input: a tree needs at least one vertex")
        stripped = None
        if len(ends) == 2 * (n - 1) and (not ends or (min(ends) >= 0 and max(ends) < n)):
            stripped = _strip(n, ends)
        if stripped is None:
            _reject(labels, zip(ends[0::2], ends[1::2]) if edges is None else edges)
        self.labels = labels
        self._ends = array("i", ends)
        self._adj_off, self._adj, self._center = stripped
        self._ids: dict | None = None
        self._rooted: "RootedTree | None" = None

    @property
    def edges(self) -> tuple:
        """Edges as (smaller id, larger id) pairs in input order, derived
        from the flat endpoints on each access."""
        us, vs = self._ends[0::2], self._ends[1::2]
        return tuple(zip(map(min, us, vs), map(max, us, vs)))

    @property
    def _label_ids(self) -> dict:
        if self._ids is None:
            self._ids = {s: i for i, s in enumerate(self.labels)}
        return self._ids

    @property
    def n(self) -> int:
        return len(self.labels)

    def vertex_id(self, label: str) -> int:
        try:
            return self._label_ids[label]
        except KeyError:
            raise KeyError(f"unknown vertex label {label!r}") from None

    def __repr__(self):
        return f"Tree(n={self.n})"


def _strip(n: int, ends) -> tuple | None:
    """``(offsets, neighbours, center)`` of the graph with edge endpoints
    ``ends``, or None when stripping leaves stalls before every vertex is
    gone, which happens exactly when the edges close a cycle (a self-loop
    adds 2 to a degree that no step removes).  The strip keeps no
    adjacency: a leaf's one remaining neighbour is the XOR of its
    remaining neighbours.  The center is the last layer stripped."""
    deg = [0] * n
    nbr = [0] * n
    it = iter(ends)
    for u, v in zip(it, it):
        deg[u] += 1
        deg[v] += 1
        nbr[u] ^= v
        nbr[v] ^= u
    off = array("i", itertools.accumulate(deg, initial=0))
    # a vertex joins the queue when its degree drops to 1, one layer after
    # the leaf that exposed it; the queue visits layers in order
    queue = [v for v in range(n) if deg[v] <= 1]
    start, end = 0, len(queue)
    for i, v in enumerate(queue):
        if i == end:
            start, end = i, len(queue)
        if deg[v]:
            w = nbr[v]
            nbr[w] ^= v
            deg[w] -= 1
            if deg[w] == 1:
                queue.append(w)
    if len(queue) < n:
        return None
    center = tuple(sorted(queue[start:]))
    del queue, nbr, deg
    # neighbours in input-edge order: a counting sort by endpoint
    fill = off.tolist()
    adj = array("i", bytes(4 * len(ends)))
    it = iter(ends)
    for u, v in zip(it, it):
        adj[fill[u]] = v
        fill[u] += 1
        adj[fill[v]] = u
        fill[v] += 1
    return off, adj, center


def _reject(labels: tuple, edges):
    """Raise the error that names the first edge, in input order, at which
    ``edges`` stops being a forest, or the missing connection."""
    n = len(labels)
    # union-find: an edge inside one component closes a cycle, and an
    # acyclic edge set spans all n vertices iff it has n-1 edges
    uf = list(range(n))
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidTreeError(f"edge ({u},{v}) references unknown vertex ids")
        if u == v:
            raise InvalidTreeError(f"self-loop at {labels[u]!r}")
        a, b = _uf_find(uf, u), _uf_find(uf, v)
        key = (u, v) if u < v else (v, u)
        if a == b:
            what = "duplicate edge" if key in seen else "cycle detected at edge"
            raise InvalidTreeError(f"{what} {labels[u]!r} {labels[v]!r}")
        uf[a] = b
        seen.add(key)
    r0 = _uf_find(uf, 0)
    w = next(x for x in range(1, n) if _uf_find(uf, x) != r0)
    raise InvalidTreeError(
        f"disconnected input: no path between {labels[0]!r} and {labels[w]!r}"
    )


def _uf_find(uf: list, x: int) -> int:
    # union-find root of x, halving the path on the way
    while uf[x] != x:
        uf[x] = uf[uf[x]]
        x = uf[x]
    return x


def center(t: Tree) -> frozenset:
    """Vertex set of minimum eccentricity: one vertex, or two adjacent ones.

    Found by the leaf strip that validated the tree, in linear time.
    """
    return frozenset(t._center)


class RootedTree:
    """A rooted view of a tree: parent array, BFS order, canonical classes.

    ``subdivided`` marks trees produced from an edge-centered input, where a
    synthetic vertex (the new root) splits the central edge.  All original
    vertices keep their ids; the synthetic vertex gets the last id.

    Stored flat: ``parent`` and ``bfs_order`` are int arrays, and the
    children of ``v`` are ``bfs_order[_child_span[2v]:_child_span[2v + 1]]``
    in discovery order.  The same span of the flat sibling order, built on
    the first walk, holds them by (class rank, id), so a sibling class is a
    run of equal class ids.  ``children`` and ``depth`` are derived on
    demand.
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
        # BFS over t's adjacency from ``root``.  In a tree the only visited
        # neighbour of a vertex is its parent; a synthetic root (id t.n) has
        # no adjacency of its own, so each half first treats the other as
        # its parent, and both are handed to the root afterwards
        n = t.n + (1 if halves else 0)
        parent = [-1] * n
        span = array("i", bytes(8 * n))
        order = [root, *halves]
        span[2 * root], span[2 * root + 1] = 1, len(order)
        it = iter(order)
        if halves:
            u, v = halves
            parent[u], parent[v] = v, u
            next(it)
        off, adj = t._adj_off, t._adj
        for v in it:
            p = parent[v]
            span[2 * v] = len(order)
            for w in adj[off[v]:off[v + 1]]:
                if w != p:
                    parent[w] = v
                    order.append(w)
            span[2 * v + 1] = len(order)
        for w in halves:
            parent[w] = root
        self.root = root
        self.parent = array("i", parent)
        self.bfs_order = array("i", order)
        self._child_span = span
        self._children: tuple | None = None
        self._depth: array | None = None
        self._code_ids: tuple | None = None
        self._order: list | None = None
        self._groups: array | None = None
        self._sizes: tuple | None = None
        self._class_structure: tuple | None = None
        # the saturating count table of a running analysis (construction)
        self._table = None

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
    def depth(self) -> array:
        """Distance from the root per vertex (computed on first use)."""
        if self._depth is None:
            depth = array("i", bytes(4 * self.n))
            parent = self.parent
            for v in self.bfs_order[1:]:
                depth[v] = depth[parent[v]] + 1
            self._depth = depth
        return self._depth

    @property
    def base(self) -> Tree:
        if self._base is None:
            t = self._source
            x = self.root
            u, v = sorted(self.halves)
            edges = [e for e in t.edges if e != (u, v)] + [(u, x), (v, x)]
            self._base = Tree(self.labels, edges)
        return self._base

    @property
    def halves(self) -> tuple:
        """The central vertices a subdivided view's synthetic root splits,
        in BFS order, or ``()`` on any other view."""
        return tuple(self.bfs_order[1:3]) if self.subdivided else ()

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def labels(self) -> tuple:
        """Labels per vertex id: the source tree's, and on a subdivided view
        the synthetic root's label last, without building the base tree."""
        if self.subdivided:
            return self._source.labels + (self._center_label,)
        return self._source.labels

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

        Computed bottom-up by interning each vertex's sorted child class
        ids, read straight from its child span (a lone child is interned
        by its id alone), so the total work is O(n log n) and no code
        strings are built.  Class ids come out in children-before-parents
        order, and each new class appends its pairs to the flat class
        structure.
        """
        if self._code_ids is None:
            order, span = self.bfs_order, self._child_span
            ids = [0] * self.n
            table: dict = {}
            owner: list = []
            kids: list = []
            mults: list = []
            leaves = 1
            for v in reversed(order):
                s, e = span[2 * v], span[2 * v + 1]
                if s == e:
                    continue
                if e - s == 1:
                    key = ids[order[s]]
                else:
                    key = tuple(sorted(map(ids.__getitem__, order[s:e])))
                cid = table.get(key)
                if cid is None:
                    # the leaf class 0 has no key
                    cid = table[key] = len(table) + 1
                    if e - s == 1:
                        owner.append(cid)
                        kids.append(key)
                        mults.append(1)
                    else:
                        for c, run in itertools.groupby(key):
                            owner.append(cid)
                            kids.append(c)
                            mults.append(len(list(run)))
                        if key[0] == 0:
                            leaves = max(leaves, key.count(0))
                ids[v] = cid
            self._code_ids = tuple(ids)
            self._class_structure = (tuple(owner), tuple(kids), tuple(mults))
            self._class_count = len(table) + 1
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
        return self._class_count

    def class_structure(self) -> tuple:
        """``(owner, kids, mults)``, flat: pair i says that class
        ``owner[i]`` has ``mults[i]`` children of class ``kids[i]``.  Pairs
        run class by class in class-id order, which is children-first, and
        by ascending child class within a class; the leaf class 0 has none.
        So a count pass is one loop over the pairs."""
        self.code_ids()
        return self._class_structure

    def _class_order(self) -> list:
        # computed once, on the first request for an order: count passes
        # and the parameter searches never need it
        if self._order is None:
            self._order = _code_order(self.class_count(), *self.class_structure(), self.n)
        return self._order

    def _grouped(self) -> array:
        # every vertex's children at its child-span positions, in (class
        # rank, id) order, so a sibling class is a run of equal class ids:
        # one sort of all non-root vertices, built on the first walk
        if self._groups is None:
            rank, ids = self._class_order(), self._code_ids
            n, span, parent = self.n, self._child_span, self.parent
            kids = sorted(self.bfs_order[1:],
                          key=lambda w: (span[2 * parent[w]] * n + rank[ids[w]]) * n + w)
            self._groups = array("i", [self.root, *kids])
        return self._groups

    def sibling_classes(self, v: int) -> list:
        """``(class id, members)`` per sibling class below ``v``, classes in
        the order of their codes and members ascending by vertex id: runs
        of one class id in the flat sibling order, with no sort per call.
        Fresh lists per call, for callers outside the rank and witness
        walkers, which read the flat order by offset."""
        span = self._child_span
        kids = self._grouped()[span[2 * v]:span[2 * v + 1]]
        groups = itertools.groupby(kids, key=self._code_ids.__getitem__)
        return [(cid, list(ms)) for cid, ms in groups]

    def _code(self, v: int) -> str:
        # parenthesis string of v's subtree, by iterative DFS over the
        # children in the flat sibling order; -1 on the stack closes a group
        grouped, span = self._grouped(), self._child_span
        out = []
        stack = [v]
        while stack:
            w = stack.pop()
            if w < 0:
                out.append(")")
            else:
                out.append("(")
                stack.append(-1)
                stack.extend(reversed(grouped[span[2 * w]:span[2 * w + 1]]))
        return "".join(out)

    def __repr__(self):
        tag = ", subdivided" if self.subdivided else ""
        return f"RootedTree(n={self.n}, root={self.root}{tag})"


def _code_order(n_cls: int, owner, kids, mults, big: int) -> list:
    """Every class's position in the order of the classes' parenthesis
    codes, found without building a code.

    A code opens with one ``(`` per level of height, so taller classes
    come first.  Classes of equal height compare the sequences of their
    children's classes, each ascending in this same order, entry by entry;
    a sequence that is a proper prefix of another comes after it, since
    ``)`` sorts after ``(``.  ``owner``, ``kids`` and ``mults`` are the
    flat class structure of ``n_cls`` classes, and ``big`` exceeds every
    multiplicity.
    """
    height = [0] * n_cls
    for cid, c in zip(owner, kids):
        if height[c] >= height[cid]:
            height[cid] = height[c] + 1
    # levels are ranked from the leaves up, each taking the ranks just
    # before the levels below it.  A child entry encodes (rank, -copies):
    # of two sequences that agree up to a run of one child class, the one
    # with more copies sorts first, as its next copy meets a later class
    # or the other sequence's end.  Keys are tuples of ints, which the
    # cyclic garbage collector stops tracking
    start = [0] * (n_cls + 1)
    for cid in owner:
        start[cid + 1] += 1
    start = list(itertools.accumulate(start))
    rank = [0] * n_cls
    free = n_cls
    end = n_cls * big
    by_height = sorted(range(n_cls), key=height.__getitem__)
    for _, level in itertools.groupby(by_height, key=height.__getitem__):
        level = list(level)
        if len(level) == 1:
            # a lone class needs no key
            free -= 1
            rank[level[0]] = free
            continue
        keyed = sorted(((*sorted([rank[c] * big - m for c, m in
                                  zip(kids[start[cid]:start[cid + 1]],
                                      mults[start[cid]:start[cid + 1]])]), end), cid)
                       for cid in level)
        free -= len(keyed)
        for i, (_, cid) in enumerate(keyed):
            rank[cid] = free + i
    return rank


def canonical_code(rt: RootedTree, v: int) -> str:
    """Canonical balanced-parenthesis code of the subtree rooted at ``v``.

    Equal codes mean isomorphic rooted subtrees; the string has length
    twice the subtree's vertex count.
    """
    if not 0 <= v < rt.n:
        raise InvalidTreeError(f"vertex id {v} out of range")
    return rt._code(v)


def to_rooted(t) -> RootedTree:
    """Root ``t`` at its center, subdividing the central edge when the
    center is an edge.  The synthetic vertex becomes the root.  A
    :class:`RootedTree` is returned unchanged.

    The reduction is a pure function of the tree and is cached on it, so
    repeated analyses share one rooted view.
    """
    if isinstance(t, RootedTree):
        return t
    if not isinstance(t, Tree):
        raise TypeError(f"expected Tree or RootedTree, got {type(t).__name__}")
    if t._rooted is not None:
        return t._rooted
    c = t._center
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


def _color_map(coloring, n: int | None = None):
    # the color mapping of a Coloring (its ``colors``) or of a mapping; with
    # n given, a vertex of 0..n-1 that it misses is a ValueError
    colors = getattr(coloring, "colors", coloring)
    if n is not None:
        for v in range(n):
            if v not in colors:
                raise ValueError(f"coloring misses vertex {v}")
    return colors


def _edge_pairs(t) -> list:
    # the input edges of a tree, or of a rooted view's base tree, as pairs
    ends = (t.base if isinstance(t, RootedTree) else t)._ends
    return list(zip(ends[0::2], ends[1::2]))


def is_proper(t, coloring) -> bool:
    """No edge joins same-colored endpoints."""
    colors = _color_map(coloring)
    return all(colors[u] != colors[v] for u, v in _edge_pairs(t))


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
    rt = to_rooted(t)
    colors = _color_map(coloring, t.n)
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
    # tokenizing only: the Tree checks validate the structure.  Tokens go
    # to flat lists, and ids follow first occurrence, lone labels included
    named, toks = [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) > 2:
            raise TreeSyntaxError(
                f"line {lineno}: expected two whitespace-separated labels, got {len(parts)}"
            )
        named += parts
        if len(parts) == 2:
            toks += parts
    ids = dict.fromkeys(named)
    for i, s in enumerate(ids):
        ids[s] = i
    ends = list(map(ids.__getitem__, toks))
    del named, toks
    t = object.__new__(Tree)
    t._build(tuple(ids), ends)
    return t


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
    return rt._code(rt.root)
