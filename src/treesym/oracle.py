"""Ground truth for small trees: explicit automorphism groups, coloring
predicates, exhaustive class counting, and brute parameter search.

Everything here exists to check the fast recursions against first
principles, so the implementations favor directness over speed.  All work
bounds are hard errors, never silent truncation.
"""

from __future__ import annotations

import itertools
from math import factorial

from .counting import BigCount, _Frozen
from .errors import EnumerationBoundError
# is_proper lives beside distinguishes and is re-exported here with the
# other coloring predicates
from .trees import RootedTree, Tree, _color_map, _edge_pairs, center, is_proper, to_rooted

DEFAULT_GROUP_BOUND = 1_000_000
DEFAULT_COLORING_BOUND = 10_000_000
DEFAULT_SEARCH_NODES = 10_000_000


class Automorphism(_Frozen):
    __slots__ = ("perm",)

    def __init__(self, perm: tuple):
        object.__setattr__(self, "perm", perm)

    @property
    def is_identity(self) -> bool:
        return all(i == p for i, p in enumerate(self.perm))


class AutGroup(_Frozen):
    __slots__ = ("elements",)

    def __init__(self, elements: tuple):
        object.__setattr__(self, "elements", elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def nontrivial_perms(self) -> list:
        return [a.perm for a in self.elements if not a.is_identity]


def _vertex_count(t) -> int:
    return t.n if isinstance(t, (Tree, RootedTree)) else len(t)


# -- automorphism groups -----------------------------------------------------


def _group_order(rt: RootedTree, bound: int, knob: str) -> int:
    # ``knob`` names the caller's parameter that set ``bound``
    ids = rt.code_ids()
    owner, _, mults = rt.class_structure()
    swaps = [1] * rt.class_count()
    for cid, mult in zip(owner, mults):
        swaps[cid] *= factorial(mult)
    order = 1
    for v in rt.bfs_order:
        order *= swaps[ids[v]]
        if order > bound:
            raise EnumerationBoundError(
                f"automorphism group order exceeds {knob}={bound}"
                f" (the {knob} argument)"
            )
    return order


def _canonical_iso(rt: RootedTree, a: int, b: int) -> dict:
    # one fixed isomorphism between two subtrees with equal codes
    ids = rt.code_ids()
    out = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        out[x] = y
        xs = sorted(rt.children[x], key=lambda c: (ids[c], c))
        ys = sorted(rt.children[y], key=lambda c: (ids[c], c))
        for cx, cy in zip(xs, ys):
            stack.append((cx, cy))
    return out


def _rooted_perms(rt: RootedTree) -> list:
    ids = rt.code_ids()
    maps: dict = {}
    for v in reversed(rt.bfs_order):
        groups: dict = {}
        for c in rt.children[v]:
            groups.setdefault(ids[c], []).append(c)
        combined = [{v: v}]
        for members in groups.values():
            members = sorted(members)
            isos = {
                (a, b): _canonical_iso(rt, a, b)
                for a in members
                for b in members
            }
            class_maps = []
            for perm in itertools.permutations(range(len(members))):
                targets = [members[j] for j in perm]
                for combo in itertools.product(*[maps[m] for m in members]):
                    piece: dict = {}
                    for m, tgt, sub in zip(members, targets, combo):
                        iso = isos[(m, tgt)]
                        for x, y in sub.items():
                            piece[x] = iso[y]
                    class_maps.append(piece)
            combined = [{**a, **b} for a in combined for b in class_maps]
        maps[v] = combined
    n = rt.n
    return [tuple(m[i] for i in range(n)) for m in maps[rt.root]]


def enumerate_automorphisms(t, bound: int = DEFAULT_GROUP_BOUND) -> AutGroup:
    """The full automorphism group, explicitly.

    Rooted trees give the root-preserving group.  Unrooted trees are rooted
    at their center (subdividing a central edge first); the rooted group of
    the reduction restricted to the original vertices is exactly the
    group of the tree.
    """
    return _automorphisms(t, bound, "bound")


def _automorphisms(t, bound: int, knob: str) -> AutGroup:
    rt = to_rooted(t)
    _group_order(rt, bound, knob)
    perms = _rooted_perms(rt)
    if rt is not t and rt.subdivided:
        # an unrooted tree's group leaves out the synthetic center
        perms = [p[: t.n] for p in perms]
    return AutGroup(tuple(Automorphism(p) for p in perms))


# -- coloring predicates -----------------------------------------------------


def is_distinguishing(t, coloring, bound: int = DEFAULT_GROUP_BOUND) -> bool:
    """Every nonidentity automorphism moves some color."""
    n = _vertex_count(t)
    colors = _color_map(coloring, n)
    rng = range(n)
    for p in enumerate_automorphisms(t, bound).nontrivial_perms():
        if all(colors[p[v]] == colors[v] for v in rng):
            return False
    return True


def coloring_orbit_form(t, coloring, bound: int = DEFAULT_GROUP_BOUND) -> tuple:
    """Canonical form of a coloring's orbit under the automorphism group;
    two colorings are equivalent iff their forms agree."""
    n = _vertex_count(t)
    colors = _color_map(coloring, n)
    rng = range(n)
    return min(
        tuple(colors[a.perm[v]] for v in rng)
        for a in enumerate_automorphisms(t, bound).elements
    )


# -- exhaustive class counting ----------------------------------------------


def brute_count_classes(t, k: int | None = None, proper: bool = False,
                        lists=None, bound: int = DEFAULT_COLORING_BOUND,
                        group_bound: int = DEFAULT_GROUP_BOUND) -> BigCount:
    """Enumerate every coloring, keep the distinguishing (and proper) ones,
    and count orbits under the automorphism group.

    ``lists`` (a mapping vertex -> iterable of colors, or an object with a
    ``lists`` attribute) replaces the uniform palette 1..k.
    """
    n = _vertex_count(t)
    if lists is not None:
        got = getattr(lists, "lists", lists)
        palettes = [sorted(got[v]) for v in range(n)]
    else:
        if k is None or k < 1:
            raise ValueError("need a positive k or an explicit list assignment")
        palettes = [list(range(1, k + 1))] * n
    total = 1
    for p in palettes:
        total *= len(p)
        if total > bound:
            raise EnumerationBoundError(
                f"coloring enumeration of size {total}+ exceeds bound={bound}"
                " (the bound argument)"
            )
    group = _automorphisms(t, group_bound, "group_bound")
    nontrivial = group.nontrivial_perms()
    all_perms = [a.perm for a in group.elements]
    edges = _edge_pairs(t)
    rng = range(n)
    forms = set()
    for phi in itertools.product(*palettes):
        if proper and any(phi[u] == phi[v] for u, v in edges):
            continue
        if any(all(phi[p[v]] == phi[v] for v in rng) for p in nontrivial):
            continue
        forms.add(min(tuple(phi[p[v]] for v in rng) for p in all_perms))
    return BigCount(len(forms))


# -- exhaustive parameter search ----------------------------------------------


def _search_distinguishing(t, k: int, proper: bool,
                           node_bound: int = DEFAULT_SEARCH_NODES,
                           group_bound: int = DEFAULT_GROUP_BOUND):
    """Exhaustive search for a distinguishing (proper) k-coloring.

    A branch dies as soon as two sibling subtrees of the same shape are
    colored identically, because swapping them preserves every color.  A
    distinguishing coloring never trips that rule, so an exhausted search
    proves nonexistence; any surviving assignment is confirmed against the
    explicit automorphism group before being returned.
    """
    if isinstance(t, RootedTree):
        rt = t
    else:
        rt = RootedTree(t, min(center(t)))
    group = _automorphisms(t, group_bound, "group_bound")
    nontrivial = group.nontrivial_perms()
    n = rt.n
    rng = range(n)

    # uncolored subtree shapes, computed locally so the search does not
    # depend on the canonical-code machinery it helps to validate
    shape: dict = {}
    for v in reversed(rt.bfs_order):
        shape[v] = tuple(sorted(shape[c] for c in rt.children[v]))

    order: list = []
    stack = [rt.root]
    while stack:
        v = stack.pop()
        order.append(v)
        for c in reversed(rt.children[v]):
            stack.append(c)
    pos = {v: i for i, v in enumerate(order)}
    sizes = rt.subtree_sizes()
    completes_at: list = [[] for _ in range(n)]
    for v in range(n):
        completes_at[pos[v] + sizes[v] - 1].append(v)
    depth = rt.depth
    for bucket in completes_at:
        bucket.sort(key=lambda v: -depth[v])

    colors: dict = {}
    forms: dict = {}
    taken: dict = {}
    budget = [node_bound]

    def backtrack(i: int):
        if i == n:
            for p in nontrivial:
                if all(colors[p[v]] == colors[v] for v in rng):
                    return None
            return dict(colors)
        v = order[i]
        par = rt.parent[v]
        for c in range(1, k + 1):
            if proper and par >= 0 and colors[par] == c:
                continue
            budget[0] -= 1
            if budget[0] < 0:
                raise EnumerationBoundError(
                    f"search exceeded node_bound={node_bound} nodes"
                    " (the node_bound argument)"
                )
            colors[v] = c
            pushed = []
            alive = True
            for u in completes_at[i]:
                f = (colors[u], tuple(sorted(forms[w] for w in rt.children[u])))
                forms[u] = f
                key = (rt.parent[u], shape[u])
                bucket = taken.setdefault(key, [])
                if f in bucket:
                    alive = False
                    break
                bucket.append(f)
                pushed.append(key)
            if alive:
                found = backtrack(i + 1)
                if found is not None:
                    return found
            for key in reversed(pushed):
                taken[key].pop()
        colors.pop(v, None)
        return None

    return backtrack(0)


def brute_distinguishing_number(t, node_bound: int = DEFAULT_SEARCH_NODES,
                                group_bound: int = DEFAULT_GROUP_BOUND) -> int:
    """Minimal k admitting a distinguishing k-coloring, by direct search."""
    n = _vertex_count(t)
    for k in range(1, n + 1):
        if _search_distinguishing(t, k, False, node_bound, group_bound) is not None:
            return k
    raise AssertionError("a tree is always distinguished by all-distinct colors")


def brute_chromatic_distinguishing_number(
        t, node_bound: int = DEFAULT_SEARCH_NODES,
        group_bound: int = DEFAULT_GROUP_BOUND) -> int:
    """Minimal k admitting a proper distinguishing k-coloring."""
    n = _vertex_count(t)
    for k in range(1, n + 2):
        if _search_distinguishing(t, k, True, node_bound, group_bound) is not None:
            return k
    raise AssertionError("all-distinct colors are proper and distinguishing")
