"""Reference answers the benchmark checks the program against.

Independent of the package under test: the tree is rooted at its center
(an edge center is split by a synthetic root), subtrees are interned
bottom-up in the Aho-Hopcroft-Ullman way, and the parameters come from
saturating class-count recursions written here.  A coloring is
distinguishing iff no vertex of the reduction has two children whose
colored subtrees intern alike.
"""

from __future__ import annotations

from math import comb


class WrongAnswer(Exception):
    """The program's output disagrees with the reference."""


def expect(ok: bool, what: str):
    if not ok:
        raise WrongAnswer(what)


def _centers(n: int, adj: list) -> list:
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    leaves = [v for v in range(n) if deg[v] == 1]
    left = n
    while left > 2:
        left -= len(leaves)
        nxt = []
        for v in leaves:
            deg[v] = 0
            for w in adj[v]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        leaves = nxt
    return sorted(leaves)


def sat_comb(x: int, m: int, cap: int | None) -> int:
    """C(x, m), clamped at ``cap``.  Sound for saturated ``x`` because
    C(x, m) >= C(cap, m) >= cap whenever 1 <= m < cap."""
    if cap is None:
        return comb(x, m)
    if m == 0:
        return 1
    if m > x:
        return 0
    if x >= cap:
        return cap
    m = min(m, x - m)
    c = 1
    for i in range(1, m + 1):
        c = c * (x - m + i) // i
        if c >= cap:
            return cap
    return c


class Reduction:
    """A tree rooted at its center; vertex ``n`` is the synthetic root when
    the center is an edge."""

    def __init__(self, n: int, edges: list):
        self.n = n
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.edges = edges
        self.centers = _centers(n, adj)
        size = n + (len(self.centers) == 2)
        parent = [-1] * size
        seen = bytearray(size)
        if len(self.centers) == 1:
            self.root = self.centers[0]
            order = [self.root]
            start = 0
        else:
            self.root = n
            u, v = self.centers
            parent[u] = parent[v] = n
            seen[u] = seen[v] = 1
            order = [n, u, v]
            start = 1
        seen[self.root] = 1
        i = start
        while i < len(order):
            x = order[i]
            i += 1
            for w in adj[x]:
                if not seen[w]:
                    seen[w] = 1
                    parent[w] = x
                    order.append(w)
        self.synthetic = size > n
        self.size = size
        self.order = order
        self.parent = parent
        kids = [[] for _ in range(size)]
        for x in order:
            if parent[x] >= 0:
                kids[parent[x]].append(x)
        self.children = kids
        self._plain = None
        self._params = None

    def classes(self, colors=None) -> tuple:
        """``(class id per vertex, child classes per class id)``; with
        ``colors`` (a list over the reduction) classes also match colors."""
        ids = [0] * self.size
        table = {}
        kids = self.children
        for v in reversed(self.order):
            key = (None if colors is None else colors[v],
                   tuple(sorted([ids[c] for c in kids[v]])))
            ids[v] = table.setdefault(key, len(table))
        return ids, [key[1] for key in table]

    def plain(self) -> tuple:
        if self._plain is None:
            ids, kid_lists = self.classes()
            structure = []
            for kl in kid_lists:
                mults = {}
                for c in kl:
                    mults[c] = mults.get(c, 0) + 1
                structure.append(tuple(mults.items()))
            self._plain = (ids, structure)
        return self._plain

    def canonical_form(self) -> tuple:
        """Isomorphism invariant of the unrooted tree."""
        ids, kid_lists = self.classes()
        return self.synthetic, _nested(ids[self.root], kid_lists)

    # -- class counts --------------------------------------------------------

    def dist_counts(self, k: int, cap: int | None) -> list:
        """Classes of distinguishing k-colorings per subtree class."""
        vals = []
        for mults in self.plain()[1]:
            x = k
            for c, m in mults:
                x *= sat_comb(vals[c], m, cap)
                if x == 0:
                    break
                if cap is not None and x >= cap:
                    x = cap
            vals.append(x if cap is None else min(x, cap))
        return vals

    def proper_counts(self, k: int, cap: int | None) -> list:
        """Classes of proper distinguishing k-colorings, subtree root pinned."""
        vals = []
        for mults in self.plain()[1]:
            x = 1
            for c, m in mults:
                pool = (k - 1) * vals[c]
                if cap is not None:
                    pool = min(pool, cap)
                x *= sat_comb(pool, m, cap)
                if x == 0:
                    break
                if cap is not None and x >= cap:
                    x = cap
            vals.append(x)
        return vals

    def parameters(self) -> tuple:
        """``(D, chi_D)`` of the unrooted tree."""
        if self._params is None:
            self._params = self._search()
        return self._params

    def _search(self) -> tuple:
        if self.n == 1:
            return 1, 1
        ids, structure = self.plain()
        cap = self.size + 2
        root = ids[self.root]
        # a vertex with m leaf children needs at least m colors
        k = max([1] + [m for mults in structure for c, m in mults if c == 0])
        while self.dist_counts(k, cap)[root] == 0:
            k += 1
        d = k
        k = max(2, d)
        while True:
            vals = self.proper_counts(k, cap)
            if self.synthetic:
                u, v = self.centers
                ok = vals[ids[u]] > 0 and vals[ids[v]] > 0
            else:
                ok = vals[root] > 0
            if ok:
                return d, k
            k += 1

    # -- coloring predicates ------------------------------------------------

    def colors_over(self, coloring: dict) -> list:
        """Reduction-indexed color list; the synthetic root gets its own."""
        cols = [coloring[v] for v in range(self.n)]
        if self.synthetic:
            cols.append(("synthetic",))
        return cols

    def is_distinguishing(self, cols: list) -> bool:
        ids, _ = self.classes(cols)
        for kl in self.children:
            if len(kl) > 1 and len({ids[c] for c in kl}) != len(kl):
                return False
        return True

    def is_proper(self, coloring: dict) -> bool:
        return all(coloring[u] != coloring[v] for u, v in self.edges)

    def orbits(self) -> list:
        """Orbit id per vertex under the root-fixing automorphism group:
        same parent orbit and same subtree class."""
        ids = self.plain()[0]
        orbit = [0] * self.size
        table = {}
        for v in self.order[1:]:
            orbit[v] = table.setdefault((orbit[self.parent[v]], ids[v]), len(table) + 1)
        return orbit


def _nested(cid: int, kid_lists: list) -> tuple:
    return tuple(sorted(_nested(c, kid_lists) for c in kid_lists[cid]))


# -- closed forms -------------------------------------------------------------


def closed_form_count(shape: str, k: int, **p) -> int:
    """Classes of distinguishing k-colorings of the rooted reduction of a
    vertex-centered named shape."""
    if shape == "path":  # 2m+1 vertices: two identical rigid legs of m
        return k * comb(k ** p["m"], 2)
    if shape == "spider":  # star-like hub with identical rigid legs
        return k * comb(k ** p["length"], p["legs"])
    if shape == "caterpillar":  # odd spine 2m+1, l leaves per spine vertex
        unit = k * comb(k, p["leaves"])
        return unit * comb(unit ** p["m"], 2)
    if shape == "binary":
        f = k
        for _ in range(p["height"]):
            f = k * comb(f, 2)
        return f
    raise ValueError(shape)


# -- output parsers -----------------------------------------------------------


def parse_coloring(text: str, labels: list) -> dict:
    """``label color`` lines to a vertex-indexed color dict; every vertex
    exactly once."""
    index = {s: i for i, s in enumerate(labels)}
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        expect(len(parts) == 2, f"bad coloring line {line!r}")
        v = index.get(parts[0])
        expect(v is not None, f"unknown label {parts[0]!r}")
        expect(v not in out, f"label {parts[0]!r} colored twice")
        out[v] = parts[1]
    expect(len(out) == len(labels), "coloring misses vertices")
    return out


def check_witness(red: Reduction, coloring: dict, palette, proper: bool, what: str):
    """Raise unless ``coloring`` uses only ``palette`` colors and is
    distinguishing (and proper, on request)."""
    expect(all(coloring[v] in palette for v in range(red.n)),
           f"{what}: color outside the allowed palette")
    expect(red.is_distinguishing(red.colors_over(coloring)),
           f"{what}: coloring is not distinguishing")
    if proper:
        expect(red.is_proper(coloring), f"{what}: coloring is not proper")


def check_report(red: Reduction, labels: list, rep: dict):
    """Check an ``analyze --json`` report of the tree against the reference."""
    d, chi = red.parameters()
    info = rep["input"]
    ctr = sorted(labels[c] for c in red.centers)
    expect(info["n"] == red.n and info["rooted_n"] == red.size, "analyze: vertex counts")
    expect(info["center"] == ctr, "analyze: center")
    expect(info["center_type"] == ("edge" if red.synthetic else "vertex"), "analyze: center type")
    expect(info["subdivided"] == red.synthetic, "analyze: subdivision flag")
    expect(rep["distinguishing_number"] == d, f"analyze: D {rep['distinguishing_number']} != {d}")
    expect(rep["distinguishing_chromatic_number"] == chi,
           f"analyze: chi_D {rep['distinguishing_chromatic_number']} != {chi}")
    cert = rep["certificate"]
    expect((cert is not None) == (chi == d + 1), "analyze: certificate presence")
    if cert is None:
        return
    expect(cert["degenerate"] == (d == 1), "analyze: degenerate flag")
    if d == 1:
        return
    expect(cert["k"] == d, "analyze: certificate k")
    index = {s: i for i, s in enumerate(labels)}
    if cert["synthetic_vertex"]:
        expect(red.synthetic, "analyze: synthetic certificate vertex on a vertex-centered tree")
        v = red.root
    else:
        v = index[cert["vertex"]]
    kids = sorted(index[s] for s in cert["children"])
    ids = red.plain()[0]
    cls = {ids[c] for c in kids}
    expect(len(cls) == 1 and all(red.parent[c] == v for c in kids),
           "analyze: certificate children are not one sibling class")
    cid = cls.pop()
    expect(kids == sorted(c for c in red.children[v] if ids[c] == cid),
           "analyze: certificate class is not complete")
    pool = (d - 1) * red.proper_counts(d, red.size + 2)[cid]
    expect(pool < len(kids), "analyze: certificate class fits its proper colorings")
