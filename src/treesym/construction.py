"""Parameter computation and witness construction.

Colorings live on internal vertex ids.  Color 0 is reserved for the repair
color written as ``*`` in output; palettes are 1..k.

The canonical order on coloring classes, used by rank/unrank, is: root
color ascending, then sibling classes in code order, then within a class
the strictly decreasing tuple of child-class ranks in subset-rank order.
It exists purely to make counts, ranks, and constructed witnesses
deterministic and bijective.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .counting import BigCount, CountTable
from .errors import (
    CountIndexError,
    NoColoringError,
    NotDistinguishingError,
    SaturatedCountError,
)
from .trees import RootedTree, Tree, to_rooted

STAR_COLOR = 0


@dataclass(frozen=True)
class Coloring:
    """Total assignment of color ids to vertex ids."""

    colors: dict

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    def restricted_to(self, vertices) -> "Coloring":
        keep = set(vertices)
        return Coloring({v: c for v, c in self.colors.items() if v in keep})


@dataclass(frozen=True)
class Certificate:
    """Witness that the proper variant needs one extra color: a vertex of
    the rooted reduction together with a full sibling class that is too
    large for the colorings available to it."""

    vertex: int
    children: tuple
    k: int
    degenerate: bool = False


def _as_rooted(t) -> RootedTree:
    if isinstance(t, RootedTree):
        return t
    if isinstance(t, Tree):
        return to_rooted(t)
    raise TypeError(f"expected Tree or RootedTree, got {type(t).__name__}")


def _as_colors(coloring) -> dict:
    return coloring.colors if isinstance(coloring, Coloring) else dict(coloring)


def _exact_index(index) -> int:
    if isinstance(index, BigCount):
        if index.saturated:
            raise SaturatedCountError(
                "index is a saturated count; rerun the count uncapped"
            )
        return index.value
    return int(index)


def _least_positive_k(positive, start: int = 1, limit: int | None = None) -> int:
    # linear probes while k is small (answers usually are), then doubling;
    # a final bisection pins the threshold
    if positive(start):
        return start
    lo = start
    k = start + 1
    while not positive(k):
        if limit is not None and k >= limit:
            raise NoColoringError(f"no positive count for any k <= {limit}")
        lo = k
        k = k + 1 if k < start + 8 else k * 2
    hi = k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if positive(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _saturating_table(t) -> CountTable:
    # every saturated entry is at least n+1, more than any class size, so
    # positivity and the certificate's pool comparisons stay exact
    rt = _as_rooted(t)
    return CountTable(rt, cap=rt.n + 1)


def _search_d(table: CountTable) -> int:
    rt = table.rt
    return _least_positive_k(lambda k: table.distinguishing_raw(rt.root, k) > 0,
                             start=rt.leaf_bound(), limit=2 * rt.n + 2)


def _halves_rigid(table: CountTable) -> bool:
    u, v = table.rt.children[table.rt.root]
    return (table.distinguishing_raw(u, 1) == 1
            and table.distinguishing_raw(v, 1) == 1)


def _search_chi(table: CountTable, d: int) -> int:
    # chi_D >= D; edge-centered trees where no nontrivial automorphism fixes
    # both central endpoints are 2-colorable distinguishably, and all other
    # edge-centered trees need at least 3 colors, at which point the
    # subdivided reduction gives the exact answer
    rt = table.rt
    start = d
    if rt.subdivided:
        if _halves_rigid(table):
            return 2
        start = max(d, 3)
    return _least_positive_k(lambda k: table.proper_raw(rt.root, k) > 0,
                             start=start, limit=2 * rt.n + 2)


def _certificate(table: CountTable, k: int) -> Certificate | None:
    rt = table.rt
    if rt.origin_count == 1:
        return None
    if k == 1:
        return Certificate(rt.root, (), 1, degenerate=True)
    if rt.subdivided and _halves_rigid(table):
        return None
    # a class of m siblings needs m distinct proper colorings of its
    # representative, and only (k-1) * proper(rep, k) of them exist
    row = table.proper_row(k)
    _, mults = rt.class_structure()
    short = [any((k - 1) * row[c] < m for c, m in mults[cid])
             for cid in range(len(row))]
    ids = rt.code_ids()
    for v in rt.bfs_order:
        if short[ids[v]]:
            for cls in rt.sibling_classes(v):
                if (k - 1) * row[cls.code_id] < cls.size:
                    return Certificate(v, cls.members, k, degenerate=False)
    return None


def distinguishing_number(t) -> int:
    """Least k admitting a distinguishing k-coloring.

    Uses saturating counts (cap n+1) and searches upward from the leaf
    bound of :meth:`RootedTree.leaf_bound`, linearly and then by doubling
    and bisection, so it stays fast on large trees.
    """
    return _search_d(_saturating_table(t))


def distinguishing_chromatic_number(t) -> int:
    """Least k admitting a proper distinguishing k-coloring.

    Searched upward from the distinguishing number on the same saturating
    table.  Edge-centered trees where no nontrivial automorphism fixes both
    central endpoints are 2-colorable distinguishably; all other
    edge-centered trees need at least 3 colors.
    """
    table = _saturating_table(t)
    return _search_chi(table, _search_d(table))


def parameters(t) -> tuple:
    """``(D, chi_D, certificate)``, as :func:`distinguishing_number`,
    :func:`distinguishing_chromatic_number` and :func:`chi_certificate`
    return them, from one saturating count table and one search for D."""
    table = _saturating_table(t)
    d = _search_d(table)
    return d, _search_chi(table, d), _certificate(table, d)


# -- subset rank/unrank ----------------------------------------------------


def _subset_rank(sorted_asc) -> int:
    return sum(comb(c, i + 1) for i, c in enumerate(sorted_asc))


def _subset_unrank_desc(r: int, m: int) -> list:
    """The m-subset with subset rank r, as a strictly decreasing list."""
    out = []
    for i in range(m, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= r:
            c += 1
        out.append(c)
        r -= comb(c, i)
    return out


# -- rank / unrank ----------------------------------------------------------


def unrank_distinguishing(rt: RootedTree, k: int, index) -> Coloring:
    """Canonical representative of the index-th class of distinguishing
    k-colorings; distinct indices yield inequivalent colorings."""
    idx = _exact_index(index)
    table = CountTable(rt)
    total = table.distinguishing_raw(rt.root, k)
    if not 0 <= idx < total:
        raise CountIndexError(f"index {idx} outside [0, {total})")
    out: dict = {}
    stack = [(rt.root, idx)]
    while stack:
        v, ix = stack.pop()
        classes = rt.sibling_classes(v)
        bases = [
            comb(table.distinguishing_raw(cls.representative, k), cls.size)
            for cls in classes
        ]
        block = 1
        for b in bases:
            block *= b
        out[v] = ix // block + 1
        rem = ix % block
        for cls, b in zip(classes, bases):
            block //= b
            ranks = _subset_unrank_desc(rem // block, cls.size)
            rem %= block
            for child, r in zip(cls.members, ranks):
                stack.append((child, r))
    return Coloring(out)


def rank_distinguishing(rt: RootedTree, k: int, coloring) -> BigCount:
    """Index of the coloring's equivalence class in the canonical order;
    inverse of :func:`unrank_distinguishing` on class representatives."""
    colors = _as_colors(coloring)
    for v in range(rt.n):
        if v not in colors:
            raise ValueError(f"coloring misses vertex {v}")
        if not 1 <= colors[v] <= k:
            raise ValueError(f"color {colors[v]} at vertex {v} outside 1..{k}")
    table = CountTable(rt)
    ranks: dict = {}
    for v in reversed(rt.bfs_order):
        idx = colors[v] - 1
        for cls in rt.sibling_classes(v):
            rs = sorted(ranks[c] for c in cls.members)
            if len(set(rs)) != cls.size:
                raise NotDistinguishingError(
                    f"children of vertex {v} carry equivalent colorings"
                )
            d = table.distinguishing_raw(cls.representative, k)
            idx = idx * comb(d, cls.size) + _subset_rank(rs)
        ranks[v] = idx
    return BigCount(ranks[rt.root])


def unrank_proper_distinguishing(rt: RootedTree, k: int, root_color: int,
                                 index) -> Coloring:
    """Representative of the index-th class of proper distinguishing
    k-colorings with the root colored ``root_color``."""
    if not 1 <= root_color <= k:
        raise ValueError(f"root color {root_color} outside 1..{k}")
    return Coloring(_unrank_proper_from(rt, CountTable(rt), rt.root, k,
                                        root_color, _exact_index(index)))


def _unrank_proper_from(rt: RootedTree, table: CountTable, start: int, k: int,
                        root_color: int, idx: int) -> dict:
    total = table.proper_raw(start, k)
    if not 0 <= idx < total:
        raise CountIndexError(f"index {idx} outside [0, {total})")
    out: dict = {}
    stack = [(start, root_color, idx)]
    while stack:
        v, color, ix = stack.pop()
        out[v] = color
        classes = rt.sibling_classes(v)
        infos = []
        block = 1
        for cls in classes:
            dchi = table.proper_raw(cls.representative, k)
            b = comb((k - 1) * dchi, cls.size)
            infos.append((cls, dchi, b))
            block *= b
        allowed = [c for c in range(1, k + 1) if c != color]
        rem = ix
        for cls, dchi, b in infos:
            block //= b
            slots = _subset_unrank_desc(rem // block, cls.size)
            rem %= block
            for child, a in zip(cls.members, slots):
                stack.append((child, allowed[a // dchi], a % dchi))
    return out


# -- properization and certificates ----------------------------------------


def properize(rt: RootedTree, coloring) -> Coloring:
    """Repair a distinguishing coloring into a proper one with one extra
    color: walking top-down, a child clashing with its parent's repaired
    color is recolored ``*`` (color 0).  The result stays distinguishing."""
    base = _as_colors(coloring)
    for v in range(rt.n):
        if v not in base:
            raise ValueError(f"coloring misses vertex {v}")
    out = {rt.root: base[rt.root]}
    for v in rt.bfs_order:
        for u in rt.children[v]:
            out[u] = STAR_COLOR if out[v] == base[u] else base[u]
    return Coloring(out)


def chi_certificate(t) -> Certificate | None:
    """Certificate that the proper parameter exceeds the plain one, or None
    when the two coincide.

    With k the distinguishing number: a tree on at least two vertices with
    k = 1 gets the degenerate certificate; otherwise some vertex of the
    rooted reduction must own a sibling class larger than the pool of
    proper colorings available to it, and the first such (vertex, class)
    pair in BFS and class order is the certificate.  Edge-centered trees
    whose halves are rigid are the 2-proper-colorable special case and
    never carry one.
    """
    table = _saturating_table(t)
    return _certificate(table, _search_d(table))


# -- whole-tree witnesses ----------------------------------------------------


def _restrict_to_origin(rt: RootedTree, coloring: Coloring) -> Coloring:
    if not rt.subdivided:
        return coloring
    return Coloring({v: c for v, c in coloring.colors.items()
                     if v != rt.subdivision_vertex})


def construct_distinguishing_coloring(t, k: int | None = None) -> Coloring:
    """A distinguishing k-coloring of the input tree (class representative
    at index 0 of the rooted reduction, synthetic vertex dropped)."""
    rt = _as_rooted(t)
    if k is None:
        k = distinguishing_number(rt)
    try:
        coloring = unrank_distinguishing(rt, k, 0)
    except CountIndexError:
        # index 0 is out of range only when the count at k is zero
        raise NoColoringError(
            f"no distinguishing {k}-coloring exists;"
            f" need at least {distinguishing_number(rt)} colors"
        ) from None
    return _restrict_to_origin(rt, coloring)


def construct_proper_distinguishing_coloring(t, k: int | None = None,
                                             index=0) -> Coloring:
    """A proper distinguishing k-coloring of the input tree.

    Vertex-centered (and plain rooted) trees take the index-th class with
    the root colored 1.  Edge-centered trees are colored half by half with
    the two central endpoints pinned to colors 1 and 2, indexing the pair
    of half classes; in their 2-colorable special case each half has one
    class, so the one witness is the distance-parity coloring.
    """
    rt = _as_rooted(t)
    if k is None:
        k = distinguishing_chromatic_number(rt)
    idx = _exact_index(index)
    table = CountTable(rt)
    if not rt.subdivided:
        if table.proper_raw(rt.root, k):
            return Coloring(_unrank_proper_from(rt, table, rt.root, k, 1, idx))
    else:
        # gluing: the subdivided reduction must not be used here, because
        # the two central endpoints are adjacent in the original tree
        u, v = rt.children[rt.root]
        right_total = table.proper_raw(v, k)
        if k >= 2 and right_total and table.proper_raw(u, k):
            left = _unrank_proper_from(rt, table, u, k, 1, idx // right_total)
            right = _unrank_proper_from(rt, table, v, k, 2, idx % right_total)
            return Coloring({**left, **right})
    raise NoColoringError(
        f"no proper distinguishing {k}-coloring exists;"
        f" need at least {distinguishing_chromatic_number(rt)} colors"
    )
