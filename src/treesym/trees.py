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
import operator
from array import array

from .errors import InvalidTreeError, ListFormatError, TreeSyntaxError

SYNTHETIC_CENTER_LABEL = "⟨center⟩"

# the repair color of proper witnesses, written ``*``; palettes are 1..k
STAR_COLOR = 0


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
            ends = [operator.index(x) for u, v in edges for x in (u, v)]
        except (TypeError, ValueError):
            _reject(labels, edges)
        if labels and ends and (min(ends) < 0 or max(ends) >= len(labels)):
            _reject(labels, edges)
        self._build(labels, array("i", ends), edges)

    def _build(self, labels: tuple, ends: array, edges=None):
        # the tree checks, on endpoints that are known ids: n - 1 edges,
        # and a leaf strip that peels every vertex (it stalls exactly on a
        # cycle, and a self-loop or a repeated edge is one).  A failed
        # check is worded by _reject, over ``edges`` or else the pairs of
        # ``ends``
        n = len(labels)
        if n == 0:
            raise InvalidTreeError("empty input: a tree needs at least one vertex")
        stripped = _strip(n, ends) if len(ends) == 2 * (n - 1) else None
        if stripped is None:
            _reject(labels, zip(ends[0::2], ends[1::2]) if edges is None else edges)
        self.labels = labels
        self._ends = ends
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

    def _lines(self, text: str, sep, form: str, missing: str):
        """Yield ``(line number, vertex id, rest)`` per labelled line of a
        list or coloring file.  Blank and ``#`` lines are skipped, a line is
        cut at its last ``sep`` or, for ``sep=None``, into two words, and
        every vertex needs exactly one line."""
        ids, seen = self._label_ids, set()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            words = line.rsplit(sep, 1) if sep else line.split()
            if len(words) != 2:
                raise ListFormatError(f"line {lineno}: expected '{form}'")
            label = words[0].strip()
            v = ids.get(label)
            if v is None:
                raise ListFormatError(f"line {lineno}: unknown vertex label {label!r}")
            if v in seen:
                raise ListFormatError(f"line {lineno}: repeated vertex {label!r}")
            seen.add(v)
            yield lineno, v, words[1]
        if len(seen) < self.n:
            left = sorted(s for v, s in enumerate(self.labels) if v not in seen)
            raise ListFormatError(f"{missing}: {', '.join(left)}")

    def __repr__(self):
        return f"Tree(n={self.n})"


def _strip(n: int, ends: array) -> tuple | None:
    """``(offsets, neighbours, center)`` of the graph with edge endpoints
    ``ends``, or None when stripping leaves stalls before every vertex is
    gone, which happens exactly when the edges close a cycle (a self-loop
    adds 2 to a degree that no step removes).  The strip keeps no
    adjacency: a leaf's one remaining neighbour is the XOR of its
    remaining neighbours.  The center is the last layer stripped.

    Degrees and slot counts are mostly small cached ints and the XORs live
    in a typed view, so only the layer being peeled and the next one hold
    a Python int per vertex."""
    deg = [0] * n
    nbr = memoryview(array("i", bytes(4 * n)))
    it = iter(ends)
    for u, v in zip(it, it):
        deg[u] += 1
        deg[v] += 1
        nbr[u] ^= v
        nbr[v] ^= u
    off = array("i", itertools.accumulate(deg, initial=0))
    # a vertex joins the next layer when its degree drops to 1, exposed by
    # a leaf of this one; layers only shrink
    layer = [v for v in range(n) if deg[v] <= 1]
    peeled = 0
    while True:
        peeled += len(layer)
        exposed = []
        for v in layer:
            if deg[v]:
                w = nbr[v]
                nbr[w] ^= v
                d = deg[w] - 1
                deg[w] = d
                if d == 1:
                    exposed.append(w)
        if not exposed:
            break
        layer = exposed
    if peeled < n:
        return None
    center = tuple(sorted(layer))
    del layer, nbr, deg
    # neighbours in input-edge order: a counting sort by endpoint, with
    # ``used[v]`` of v's slots filled so far
    used = [0] * n
    adj = array("i", bytes(4 * len(ends)))
    it = iter(ends)
    for u, v in zip(it, it):
        adj[off[u] + used[u]] = v
        used[u] += 1
        adj[off[v] + used[v]] = u
        used[v] += 1
    return off, adj, center


def _reject(labels: tuple, edges):
    """Raise the error naming the first edge, in input order, that is no
    id pair or where ``edges`` stops being a forest, or the missing link."""
    n = len(labels)
    # union-find: an edge inside one component closes a cycle, and an
    # acyclic edge set spans all n vertices iff it has n-1 edges
    uf = list(range(n))
    seen = set()
    for e in edges:
        try:
            u, v = map(operator.index, e)
        except (TypeError, ValueError):
            raise InvalidTreeError(f"edge {e!r} is not a pair of vertex ids") from None
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
    run of equal class ids.
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
        spans = memoryview(span)  # stores through a view skip array's parsing
        spans[2 * root], spans[2 * root + 1] = 1, len(order)
        it = iter(order)
        if halves:
            u, v = halves
            parent[u], parent[v] = v, u
            next(it)
        off, adj = t._adj_off, t._adj
        for v in it:
            p = parent[v]
            spans[2 * v] = len(order)
            for w in adj[off[v]:off[v + 1]]:
                if w != p:
                    parent[w] = v
                    order.append(w)
            spans[2 * v + 1] = len(order)
        for w in halves:
            parent[w] = root
        self.root = root
        self.parent = array("i", parent)
        self.bfs_order = array("i", order)
        self._child_span = span
        self._code_ids: tuple | None = None
        self._order: list | None = None
        self._groups: array | None = None
        self._class_structure: tuple | None = None

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

    # -- canonical codes ------------------------------------------------

    def code_ids(self) -> tuple:
        """Dense class id per vertex; equal ids iff isomorphic rooted subtrees.

        Interned by :func:`_intern` in O(n log n), children before parents,
        with no code strings.  The flat class structure and the leaf bound
        are read off its keys, which come in class-id order.
        """
        if self._code_ids is None:
            at, table = _intern(self)
            # scatter the ids from BFS positions to vertices at C speed
            ids = [0] * self.n
            any(map(ids.__setitem__, self.bfs_order, at))
            del at
            owner, kids, mults = [], [], []
            leaves = 1
            for key, cid in table.items():
                if type(key) is int:
                    key = (key,)
                for c, run in itertools.groupby(key):
                    owner.append(cid)
                    kids.append(c)
                    mults.append(len(list(run)))
                if key[0] == 0:
                    leaves = max(leaves, key.count(0))
            self._class_count = len(table) + 1
            self._leaf_bound = leaves
            # the keys go before the tuple copies, and each list as soon as
            # it is copied
            del table
            self._code_ids = tuple(ids)
            del ids
            owner = tuple(owner)
            kids = tuple(kids)
            mults = tuple(mults)
            self._class_structure = (owner, kids, mults)
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


def _intern(rt: RootedTree, colors=None) -> tuple | None:
    """``(ids, table)``: the class id at each position of ``rt.bfs_order``,
    so that a vertex's children are one slice, interned from the leaves up
    (Aho, Hopcroft and Ullman), and the key -> id dict in id order.  A lone
    child is keyed by its id, several by their sorted tuple, and an
    uncolored leaf is class 0.  Under ``colors`` each key leads with the
    vertex's color, and the result is None at the first vertex with two
    children of one colored class.  No key is compared with the root's, so
    the root's key carries no color.
    """
    order, span = rt.bfs_order, rt._child_span
    ids, table = [0] * rt.n, {}
    for i in range(rt.n - 1, -1, -1):
        v = order[i]
        s, e = span[2 * v], span[2 * v + 1]
        if e - s > 1:
            key = tuple(sorted(ids[s:e]))
            if colors is not None and not all(map(int.__lt__, key, key[1:])):
                return None
        elif s == e and colors is None:
            continue  # an uncolored leaf is class 0
        else:
            key = ids[s] if s < e else ()
        if colors is not None:
            key = (colors[v] if i else None, key)
        ids[i] = table.setdefault(key, len(table) + 1)
    return ids, table


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


def _color_map(coloring, n: int | None = None):
    # the color mapping of a Coloring (its ``colors``) or of a mapping; with
    # n given, a vertex of 0..n-1 that it misses is a ValueError
    colors = getattr(coloring, "colors", coloring)
    if n is not None:
        v = next(itertools.filterfalse(colors.__contains__, range(n)), None)
        if v is not None:
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


def distinguishes(t, coloring) -> bool:
    """Whether no nontrivial automorphism preserves every color.

    A :class:`Tree` is judged under its full automorphism group and a
    :class:`RootedTree` under its root-preserving group.  Every automorphism
    of a tree fixes its center, so the coloring distinguishes exactly when
    no vertex of the center-rooted reduction has two children whose colored
    subtrees are isomorphic.  The class-id kernel :func:`_intern` decides
    this in one bottom-up pass with colored keys: O(n log n), with no group
    enumeration.  The root is no vertex's child, so its color is never
    compared and the synthetic root of an edge-centered tree needs none.
    A vertex missing from the coloring is a ValueError.
    """
    return _intern(to_rooted(t), _color_map(coloring, t.n)) is not None


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
    # tokenizing only: the Tree checks validate the structure.  The text
    # is read in chunks cut after a newline, so no list of every line or
    # token is held.  Ids follow first occurrence, lone labels included,
    # and endpoints go straight to an int array
    ids: dict = {}
    ends = array("i")
    lineno = 0
    pos, size = 0, len(text)
    while pos < size:
        cut = text.find("\n", pos + _CHUNK) + 1 or size
        chunk = text[pos:cut]
        pos = cut
        toks = _pairs(chunk)
        if toks is None:
            lineno = _read_lines(chunk, lineno, ids, ends)
        else:
            lineno += len(toks) >> 1
            ends.fromlist(_ids_of(ids, toks))
    labels = tuple(ids)
    del ids
    t = object.__new__(Tree)
    t._build(labels, ends)
    return t


_CHUNK = 1 << 14  # characters per tokenizer chunk, before its newline


def _pairs(chunk: str) -> list | None:
    """The tokens of ``chunk`` when each of its lines holds exactly two,
    found by C-level splits alone, or None for a blank, comment, lone-label
    or bad line, which the line-by-line reader handles.  Lines are cut by
    ``str.splitlines``, as in that reader, and a ``\\0`` token ends each
    one, so the lines are all pairs exactly when every third token is one."""
    if "#" in chunk or "\0" in chunk:
        return None
    toks = (" \0 ".join(chunk.splitlines()) + " \0").split()
    lines = toks.count("\0")
    if len(toks) != 3 * lines or toks[2::3].count("\0") != lines:
        return None
    del toks[2::3]
    return toks


def _ids_of(ids: dict, toks) -> list:
    # each token's id, a new label taking the next one: map reads len(ids)
    # just before each setdefault call
    return list(map(ids.setdefault, toks, map(len, itertools.repeat(ids))))


def _read_lines(chunk: str, lineno: int, ids: dict, ends: array) -> int:
    # the line-by-line reader: the ids and endpoints of ``chunk``, whose
    # first line is number lineno + 1, and the number of its last line
    toks: list = []
    for lineno, raw in enumerate(chunk.splitlines(), lineno + 1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) > 2:
            raise TreeSyntaxError(
                f"line {lineno}: expected two whitespace-separated labels, got {len(parts)}"
            )
        if len(parts) == 2:
            toks += parts
        else:
            # a lone label takes its id after the labels of earlier lines
            ends.fromlist(_ids_of(ids, toks))
            toks.clear()
            ids.setdefault(parts[0], len(ids))
    ends.fromlist(_ids_of(ids, toks))
    return lineno


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
