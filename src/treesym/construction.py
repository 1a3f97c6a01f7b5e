"""Parameter computation and witness construction.

Colorings live on internal vertex ids.  Color 0 is reserved for the repair
color written as ``*`` in output; palettes are 1..k.

Plain and proper witnesses come from one unrank walker over the count
recursion of :mod:`treesym.counting`: with ``a`` colors open to each child
(a = k plain, a = k - 1 proper), a class of m siblings picks an m-subset
of the a * f_a(rep) (color, pinned class) slots of its representative.
The canonical order on coloring classes, used by rank/unrank, is: root
color ascending, then sibling classes in code order, then within a class
the strictly decreasing tuple of slot ranks in subset-rank order, where
slot (c, i) has rank (position of c among the open colors) * f_a + i.
It exists purely to make counts, ranks, and constructed witnesses
deterministic and bijective.  Searches, certificate and witnesses read one
saturating table (``_table``), which an analysis shares (``_shared_table``);
only :func:`rank_distinguishing` is exact.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from math import comb

from .counting import BigCount, CountTable, _Frozen
from .errors import (
    CountIndexError,
    NoColoringError,
    NotDistinguishingError,
    SaturatedCountError,
)
from .trees import RootedTree, _color_map, to_rooted

STAR_COLOR = 0


class Coloring(_Frozen):
    """Total assignment of color ids to vertex ids."""

    __slots__ = ("colors",)

    def __init__(self, colors: dict):
        object.__setattr__(self, "colors", colors)

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    def restricted_to(self, vertices) -> "Coloring":
        keep = set(vertices)
        return Coloring({v: c for v, c in self.colors.items() if v in keep})


class Certificate(_Frozen):
    """Witness that the proper variant needs one extra color: a vertex of
    the rooted reduction together with a full sibling class that is too
    large for the colorings available to it."""

    __slots__ = ("vertex", "children", "k", "degenerate")

    def __init__(self, vertex: int, children: tuple, k: int, degenerate: bool = False):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "degenerate", degenerate)


def _exact_index(index) -> int:
    if isinstance(index, BigCount):
        if index.saturated:
            raise SaturatedCountError(
                "index is a saturated count; rerun the count uncapped"
            )
        return index.value
    idx = int(index)
    if idx < 0:
        raise CountIndexError(f"index {idx} is negative")
    return idx


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


def _table(t, idx: int = 0) -> CountTable:
    # entries clamp at max(idx, n) + 1, above every class size, so the
    # searches and the certificate stay exact, and above idx: the walker
    # splits idx as from exact counts, as an entry below the cap is exact
    # and a clamped one exceeds every digit split off idx (quotient 0).
    # Every idx <= n clamps at n + 1, as the shared table does
    rt = to_rooted(t)
    if rt._table is not None and idx <= rt.n:
        return rt._table
    return CountTable(rt, cap=idx + 1)


@contextmanager
def _shared_table(rt: RootedTree):
    """Within the block, the searches, the certificate and every witness
    at an index up to n on ``rt`` read one saturating table, with its rows
    and walk plans.  It is dropped afterwards: kept on the view, it would
    join the view's reference cycle with its tree, and every request
    would leave it to the cyclic garbage collector."""
    rt._table = CountTable(rt, cap=rt.n + 1)
    try:
        yield
    finally:
        rt._table = None


def _search_d(table: CountTable) -> int:
    rt = table.rt
    return _least_positive_k(lambda k: table.distinguishing_raw(rt.root, k) > 0,
                             start=rt.leaf_bound(), limit=2 * rt.n + 2)


def _search_chi(table: CountTable, d: int) -> int:
    return _least_positive_k(lambda k: table.tree_proper(k) > 0,
                             start=d, limit=2 * table.rt.n + 2)


def _certificate(table: CountTable, k: int) -> Certificate | None:
    if table.tree_proper(k):
        return None
    rt = table.rt
    if k == 1:
        return Certificate(rt.root, (), 1, degenerate=True)
    # a class of m siblings needs m distinct proper colorings of its
    # representative, and only (k-1) * proper(rep, k) of them exist
    row = table.row(k - 1)
    short = [False] * len(row)
    for cid, c, m in zip(*rt.class_structure()):
        if (k - 1) * row[c] < m:
            short[cid] = True
    # the first short vertex in BFS order, then its first short class in code order
    ids = rt.code_ids()
    order, span = rt.bfs_order, rt._child_span
    for v in order:
        if short[ids[v]]:
            kids = order[span[2 * v]:span[2 * v + 1]]
            sizes = Counter(map(ids.__getitem__, kids))
            cid = min((c for c, m in sizes.items() if (k - 1) * row[c] < m),
                      key=rt._class_order().__getitem__)
            return Certificate(v, tuple(sorted(w for w in kids if ids[w] == cid)), k)
    return None


def distinguishing_number(t) -> int:
    """Least k admitting a distinguishing k-coloring.

    Uses saturating counts (clamped at n+1) and searches upward from the leaf
    bound of :meth:`RootedTree.leaf_bound`, linearly and then by doubling
    and bisection, so it stays fast on large trees.
    """
    return _search_d(_table(t))


def distinguishing_chromatic_number(t) -> int:
    """Least k admitting a proper distinguishing k-coloring.

    Searched upward from the distinguishing number on the same saturating
    table, as the least k with :meth:`CountTable.tree_proper` positive.
    """
    table = _table(t)
    return _search_chi(table, _search_d(table))


def parameters(t) -> tuple:
    """``(D, chi_D, certificate)``, as :func:`distinguishing_number`,
    :func:`distinguishing_chromatic_number` and :func:`chi_certificate`
    return them, from one saturating count table and one search for D."""
    table = _table(t)
    d = _search_d(table)
    return d, _search_chi(table, d), _certificate(table, d)


# -- subset rank/unrank ----------------------------------------------------


def _subset_rank(sorted_asc) -> int:
    return sum(comb(c, i + 1) for i, c in enumerate(sorted_asc))


def _subset_unrank_desc(r: int, m: int) -> list:
    """The m-subset with subset rank r, as a strictly decreasing list.

    Each element is the largest c with C(c, i) <= r, found by galloping
    up from c = i - 1 and then bisecting, so the work grows with the bit
    length of r rather than with its value."""
    out = []
    for i in range(m, 0, -1):
        if i == 1:
            out.append(r)  # C(c, 1) = c
            break
        lo, step = i - 1, 1
        while comb(lo + step, i) <= r:
            lo += step
            step *= 2
        hi = lo + step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if comb(mid, i) <= r:
                lo = mid
            else:
                hi = mid
        out.append(lo)
        r -= comb(lo, i)
    return out


# -- rank / unrank ----------------------------------------------------------


def _unrank(table: CountTable, k: int, proper: bool, start: int,
            root_color: int, idx: int, out: list) -> None:
    """Write into ``out`` the idx-th class, in the canonical order, of
    colorings of the subtree at ``start`` with its root colored
    ``root_color``: a class of m siblings takes the m-subset of rank r
    among the a * f(rep) (color, pinned class) slots of its
    representative, a child's color being the slot's block in the colors
    open to it.  Children are read by offset in the flat sibling order,
    through their parent's walk plan; leaves are written, not pushed."""
    rt = table.rt
    a = k - 1 if proper else k
    row = table.row(a)
    ids = rt.code_ids()
    total = row[ids[start]]
    if not 0 <= idx < total:
        raise CountIndexError(f"index {idx} outside [0, {total})")
    plans = table._walk_plans(a)
    grouped, span = rt._grouped(), rt._child_span
    out[start] = root_color
    stack = [(start, idx)]
    push = stack.append
    while stack:
        v, rem = stack.pop()
        plan = plans[ids[v]]
        if plan is None:
            plan = table._plan(a, v)
        # the j-th open color is j, or j + 1 from the parent's color on
        skip = out[v] if proper else k + 1
        pos = span[2 * v]
        for m, f, later, leaf in plan:
            q = 0
            if rem >= later:
                q, rem = divmod(rem, later)
            if m == 1:
                # a lone member's slot is the quotient itself
                child = grouped[pos]
                j, r = divmod(q, f)
                j += 1
                out[child] = j if j < skip else j + 1
                if not leaf:
                    push((child, r))
                pos += 1
                continue
            end = pos + m
            slots = _subset_unrank_desc(q, m) if q else range(m - 1, -1, -1)
            for child, slot in zip(grouped[pos:end], slots):
                j, r = divmod(slot, f)
                j += 1
                out[child] = j if j < skip else j + 1
                if not leaf:
                    push((child, r))
            pos = end


def _unrank_led(table: CountTable, k: int, proper: bool, idx: int) -> dict:
    # index over the k root colors, f classes each; the root color leads,
    # as in rank order.  A clamped f exceeds idx, giving root color 1
    rt = table.rt
    f = table.row(k - 1 if proper else k)[rt.code_id(rt.root)]
    if not 0 <= idx < k * f:
        raise CountIndexError(f"index {idx} outside [0, {k * f})")
    out = [0] * rt.n
    _unrank(table, k, proper, rt.root, idx // f + 1, idx % f, out)
    return dict(enumerate(out))


def unrank_distinguishing(rt: RootedTree, k: int, index) -> Coloring:
    """Canonical representative of the index-th class of distinguishing
    k-colorings; distinct indices yield inequivalent colorings."""
    idx = _exact_index(index)
    if k < 1:
        raise ValueError("palette size k must be at least 1")
    return Coloring(_unrank_led(_table(rt, idx), k, False, idx))


def rank_distinguishing(rt: RootedTree, k: int, coloring) -> BigCount:
    """Index of the coloring's equivalence class in the canonical order;
    inverse of :func:`unrank_distinguishing` on class representatives."""
    colors = _color_map(coloring, rt.n)
    for v in range(rt.n):
        if not 1 <= colors[v] <= k:
            raise ValueError(f"color {colors[v]} at vertex {v} outside 1..{k}")
    table = CountTable(rt)
    row = table.row(k)
    plans = table._walk_plans(k)
    ids, grouped, span = rt.code_ids(), rt._grouped(), rt._child_span
    ranks = [0] * rt.n
    # the unrank order in closed form: (color - 1) * f(v), plus each
    # sibling class's subset rank times its plan's later blocks
    for v in reversed(rt.bfs_order):
        plan = plans[ids[v]]
        if plan is None:
            plan = table._plan(k, v)
        idx = (colors[v] - 1) * row[ids[v]]
        pos = span[2 * v]
        for m, _, later, _ in plan:
            rs = sorted([ranks[c] for c in grouped[pos:pos + m]])
            if len(set(rs)) != m:
                raise NotDistinguishingError(
                    f"children of vertex {v} carry equivalent colorings"
                )
            idx += _subset_rank(rs) * later
            pos += m
        ranks[v] = idx
    return BigCount(ranks[rt.root])


# -- properization and certificates ----------------------------------------


def properize(rt: RootedTree, coloring) -> Coloring:
    """Repair a distinguishing coloring into a proper one with one extra
    color: walking top-down, a child clashing with its parent's repaired
    color is recolored ``*`` (color 0).  The result stays distinguishing."""
    base = _color_map(coloring, rt.n)
    parent = rt.parent
    out = {rt.root: base[rt.root]}
    for u in rt.bfs_order[1:]:
        out[u] = STAR_COLOR if out[parent[u]] == base[u] else base[u]
    return Coloring(out)


def chi_certificate(t) -> Certificate | None:
    """Certificate that the proper parameter exceeds the plain one, or None
    when the two coincide.

    With k the distinguishing number: a tree on at least two vertices with
    k = 1 gets the degenerate certificate; otherwise some vertex of the
    rooted reduction must own a sibling class larger than the pool of
    proper colorings available to it, and the first such (vertex, class)
    pair in BFS and class order is the certificate.  One exists exactly
    when :meth:`CountTable.tree_proper` is zero at k.
    """
    table = _table(t)
    return _certificate(table, _search_d(table))


# -- whole-tree witnesses ----------------------------------------------------


def construct_distinguishing_coloring(t, k: int | None = None,
                                      index=0) -> Coloring:
    """A distinguishing k-coloring of the input tree: the representative of
    its index-th class, 0 <= index < :meth:`CountTable.tree_distinguishing`.
    The root color leads the index; an edge-centered tree's synthetic root
    is pinned to color 1 and dropped from the result."""
    rt = to_rooted(t)
    idx = _exact_index(index)
    table = _table(rt, idx)
    if k is None:
        k = _search_d(table)
    if not table.tree_distinguishing(k):
        raise NoColoringError(
            f"no distinguishing {k}-coloring exists;"
            f" need at least {_search_d(table)} colors"
        )
    if not rt.subdivided:
        return Coloring(_unrank_led(table, k, False, idx))
    out = [0] * rt.n
    _unrank(table, k, False, rt.root, 1, idx, out)
    return Coloring(dict(zip(range(rt.origin_count), out)))


def _central_colors(k: int, twins: bool, pair: int) -> tuple:
    # the pair-th (color at u, color at v) with u != v in lexicographic
    # order; isomorphic halves take u < v only, as swapping them maps
    # (cu, cv) onto (cv, cu)
    if not twins:
        cu, j = divmod(pair, k - 1)
        return cu + 1, j + 1 if j < cu else j + 2
    cu = 1
    while pair >= k - cu:
        pair -= k - cu
        cu += 1
    return cu, cu + 1 + pair


def construct_proper_distinguishing_coloring(t, k: int | None = None,
                                             index=0) -> Coloring:
    """A proper distinguishing k-coloring of the input tree: the
    representative of its index-th class, 0 <= index <
    :meth:`CountTable.tree_proper`.

    On a vertex-centered (or plain rooted) tree the root color leads the
    index.  An edge-centered tree is colored half by half: the index leads
    with the pair of colors at the central endpoints u and v (ordered
    pairs, or pairs with u's color the smaller when the halves are
    isomorphic; pair 0 is (1, 2)), then the class of u's half, then v's.
    """
    rt = to_rooted(t)
    idx = _exact_index(index)
    table = _table(rt, idx)
    if k is None:
        k = _search_chi(table, _search_d(table))
    total = table.tree_proper(k)
    if not total:
        raise NoColoringError(
            f"no proper distinguishing {k}-coloring exists;"
            f" need at least {_search_chi(table, _search_d(table))} colors"
        )
    if not rt.subdivided:
        return Coloring(_unrank_led(table, k, True, idx))
    if not 0 <= idx < total:
        raise CountIndexError(f"index {idx} outside [0, {total})")
    # the subdivided root must not take part: u and v are adjacent
    u, v = rt.halves
    fv = table.proper_raw(v, k)
    pair, rem = divmod(idx, table.proper_raw(u, k) * fv)
    cu, cv = _central_colors(k, rt.code_id(u) == rt.code_id(v), pair)
    out = [0] * rt.n
    _unrank(table, k, True, u, cu, rem // fv, out)
    _unrank(table, k, True, v, cv, rem % fv, out)
    return Coloring(dict(zip(range(rt.origin_count), out)))
