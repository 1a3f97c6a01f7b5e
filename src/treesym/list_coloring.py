"""List-variant counts and witnesses, by one class enumerator.

Each subtree's equivalence classes of distinguishing list colorings are
interned as colored classes (the root's color, then the sorted ids of the
children's classes), so equivalence checks reduce to id equality.  This
is the recursion of :mod:`treesym.counting` with explicit classes: a
sibling class contributes the sets of pairwise distinct classes, one per
member, that match perfectly onto its members, and the proper variant
bars from each child's pool the classes that lead with its parent's color.

Witnesses keep only as many classes per vertex as its parent can use (the
need rule of :func:`_list_witness`), so they need no cap.  Counts keep
every class below the root, and a vertex with more than ``class_cap``
classes for one root color is a hard error, never an approximation.  The
root's classes are counted, not built, so the count itself may exceed
``class_cap``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod

from .construction import Coloring
from .counting import BigCount
from .errors import ClassCapError, ListFormatError
from .trees import (
    RootedTree,
    distinguishes,
    is_proper,
    original_tree,
    to_rooted,
    vertex_orbits,
)

DEFAULT_CLASS_CAP = 100_000


@dataclass(frozen=True)
class ListAssignment:
    """Finite set of allowed colors per vertex id."""

    lists: dict

    @classmethod
    def from_dict(cls, mapping) -> "ListAssignment":
        out = {}
        for v, colors in mapping.items():
            fs = frozenset(int(c) for c in colors)
            if not fs:
                raise ListFormatError(f"vertex {v} has an empty color list")
            if any(c < 1 for c in fs):
                raise ListFormatError(f"vertex {v} lists a non-positive color")
            out[int(v)] = fs
        return cls(out)

    @classmethod
    def uniform(cls, n: int, colors) -> "ListAssignment":
        fs = frozenset(int(c) for c in colors)
        return cls.from_dict({v: fs for v in range(n)})

    def get(self, v: int) -> frozenset:
        try:
            return self.lists[v]
        except KeyError:
            raise ListFormatError(f"no color list for vertex {v}") from None

    def require_cover(self, n: int):
        for v in range(n):
            self.get(v)

    def is_uniform(self, k: int) -> bool:
        return all(len(s) == k for s in self.lists.values())

    def extended(self, v: int, colors) -> "ListAssignment":
        new = dict(self.lists)
        new[v] = frozenset(colors)
        return ListAssignment(new)

    def max_color(self) -> int:
        return max(max(s) for s in self.lists.values())


def parse_list_file(text: str, t) -> ListAssignment:
    """Parse ``label: c1,c2,...`` lines against a tree's labels.

    Blank lines and ``#`` comments are skipped; every vertex of the tree
    must receive a list.
    """
    base = t.base if isinstance(t, RootedTree) else t
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ListFormatError(f"line {lineno}: expected 'label: c1,c2,...'")
        label, _, rest = line.partition(":")
        label = label.strip()
        try:
            v = base.vertex_id(label)
        except KeyError:
            raise ListFormatError(f"line {lineno}: unknown vertex label {label!r}") from None
        if v in out:
            raise ListFormatError(f"line {lineno}: repeated vertex {label!r}")
        try:
            colors = [int(tok) for tok in rest.replace(",", " ").split()]
        except ValueError:
            raise ListFormatError(f"line {lineno}: colors must be integers") from None
        if not colors:
            raise ListFormatError(f"line {lineno}: empty color list")
        out[v] = colors
    missing = [base.labels[v] for v in range(base.n) if v not in out]
    if missing:
        raise ListFormatError(f"missing color lists for: {', '.join(sorted(missing))}")
    return ListAssignment.from_dict(out)


# -- bipartite matching ----------------------------------------------------


def _augment(x, nbrs, owner, free) -> bool:
    """Extend a matching to the left item ``x`` by an alternating path.

    ``owner`` maps each matched right item to its left item, ``nbrs(y)``
    lists the right items next to the left item ``y``, and ``free(r)``
    tells whether the right item ``r`` can be taken without moving its
    owner.  The path is searched depth-first on an explicit stack, so a
    long path cannot hit the recursion limit, and shifted into ``owner``.
    """
    seen = set()
    lefts = [x]
    rights: list = []
    iters = [iter(nbrs(x))]
    while iters:
        for r in iters[-1]:
            if r not in seen:
                seen.add(r)
                break
        else:
            iters.pop()
            lefts.pop()
            if rights:
                rights.pop()
            continue
        rights.append(r)
        if free(r):
            for y, z in zip(lefts, rights):
                owner[z] = y
            return True
        lefts.append(owner[r])
        iters.append(iter(nbrs(owner[r])))
    return False


def _match(left, nbrs) -> dict | None:
    """A matching that covers every item of ``left``, as a dict from each
    matched right item to its left item, or None when there is none."""
    owner: dict = {}
    for x in left:
        # a free neighbor saves the path search
        for r in nbrs(x):
            if r not in owner:
                owner[r] = x
                break
        else:
            if not _augment(x, nbrs, owner, lambda r: r not in owner):
                return None
    return owner


# -- class enumeration -------------------------------------------------------


def _selections(pools: list, limit: int) -> list:
    """Up to ``limit`` distinct selections for one sibling class: tuples
    with one class per member, drawn from ``pools[i]`` for member ``i``
    and pairwise distinct.

    One matching gives the first selection.  Beyond it, the candidate
    classes are decided in turn, each included or excluded.  A branch is
    feasible when its included classes match to distinct members and all
    members match into the classes it has not excluded; by the
    Mendelsohn-Dulmage theorem one perfect matching then does both.  Each
    branch carries such a matching, which is its first selection, so
    following the matching's own decisions costs nothing, and flipping one
    decision repairs it by one alternating path or shows the branch empty.
    """
    s = len(pools)
    if s == 1:
        return [(c,) for c in pools[0][:limit]]
    owner = _match(range(s), pools.__getitem__)
    if owner is None:
        return []
    branch = [None] * s
    for c, m in owner.items():
        branch[m] = c
    out = [tuple(branch)]
    if limit == 1:
        return out
    cands = list(dict.fromkeys(itertools.chain.from_iterable(pools)))
    pos = {c: p for p, c in enumerate(cands)}
    owners: dict = {}
    for m, pool in enumerate(pools):
        for c in pool:
            owners.setdefault(c, []).append(m)
    # a pending entry (p, assign) is the branch that takes assign's
    # decisions on the candidates before p and flips the one on p
    pending: list = []
    start = 0
    while len(out) < limit:
        last = max(pos[c] for c in branch)
        pending.extend((p, branch) for p in range(start, last + 1))
        branch = None
        while branch is None:
            if not pending:
                return out
            start, assign = pending.pop()
            branch = _flip(assign, start, cands[start], pos, pools, owners)
        start += 1
        out.append(tuple(branch))
    return out


def _flip(assign: list, p: int, x, pos: dict, pools: list, owners: dict):
    """The matching of the branch that flips ``assign``'s decision on the
    candidate ``x`` at position ``p``, or None when that branch is empty.
    Classes before ``p`` that ``assign`` uses are included, the others
    excluded; classes after ``p`` are open."""
    new = list(assign)
    if x in new:
        # exclude x: its member moves to an open class, perhaps by a chain
        m = new.index(x)
        owner = {c: i for i, c in enumerate(new) if i != m}
        if not _augment(m, lambda i: [c for c in pools[i] if pos[c] > p or c in owner],
                        owner, lambda c: c not in owner):
            return None
        for c, i in owner.items():
            new[i] = c
    elif not _augment(x, owners.__getitem__, new, lambda i: pos[new[i]] > p):
        # include x: a chain of members ends at one that drops an open class
        return None
    return new


def _cap_error(rt: RootedTree, v: int, pinned, class_cap: int) -> ClassCapError:
    colored = "" if pinned is None else f" colored {pinned}"
    return ClassCapError(
        f"vertex {rt.labels[v]!r}{colored} has more than class_cap={class_cap}"
        " classes (the class_cap argument of the list-count functions)"
    )


def _picks(made: list, members: list, pinned, limit: int) -> list:
    """Up to ``limit`` selections for each sibling class in ``members``,
    under a parent colored ``pinned`` (None for any color).  Each member
    offers its classes of other colors, cut at s + limit - 1 for a class
    of size s: if a member was cut, any choice for the other s - 1 members
    leaves it ``limit``; if none was, the pools are complete."""
    return [
        _selections([
            [c for c, (col, _) in made[m].items() if col != pinned][:len(ms) + limit - 1]
            for m in ms
        ], limit)
        for ms in members
    ]


def _classes(rt: RootedTree, assignment: ListAssignment, proper: bool,
             groups: list, need: list, skip_root: bool,
             class_cap: int | None = None) -> list | None:
    """Bottom-up, up to ``need[v]`` distinct colored classes at each vertex
    (the root last, unless skipped), or None once a vertex has none.

    Per vertex, a dict from class id to (color, the selections that formed
    it).  Classes are interned as (color, sorted child class ids), as in
    :func:`treesym.trees.distinguishes`, so equal ids mean equivalent
    colorings.  Proper classes are formed per root color, from the
    children's classes of other colors.

    Without ``class_cap`` these are the witness's classes: a proper vertex
    tries its colors in order and stops once, for every color its parent
    might take, its classes of the other colors meet its need; the root,
    which has no parent, stops at its first class.  With ``class_cap``,
    every need is ``class_cap + 1`` and a vertex reaching it for one root
    color raises :class:`ClassCapError`, so every set kept is complete.
    """
    table: dict = {}
    made: list = [None] * rt.n
    for v in (rt.bfs_order[:0:-1] if skip_root else reversed(rt.bfs_order)):
        made[v] = mine = {}
        colors = sorted(assignment.get(v))
        most = 0
        for pinned in (colors if proper else [None]):
            sels = _picks(made, groups[v], pinned, need[v])
            combos = itertools.product(colors if pinned is None else [pinned], *sels)
            before = len(mine)
            for color, *picks in itertools.islice(combos, need[v]):
                key = (color, tuple(sorted(itertools.chain.from_iterable(picks))))
                mine[table.setdefault(key, len(table))] = (color, picks)
            most = max(most, len(mine) - before)
            if class_cap is not None:
                if most > class_cap:
                    raise _cap_error(rt, v, pinned, class_cap)
            # the parent's color bars at most the largest color's classes
            elif len(mine) - (0 if v == rt.root else most) >= need[v]:
                break
        if not mine:
            return None
    return made


def _list_witness(rt: RootedTree, assignment: ListAssignment,
                  proper: bool) -> dict | None:
    """Colors of a distinguishing (proper on request) coloring of ``rt``
    drawn from the lists, or None when there is none.

    Need, top-down: the root needs one class, and each member of a sibling
    class of size s under a vertex that needs j classes needs s + j - 1.
    Classes, bottom-up, by :func:`_classes`, each with the selections that
    formed it; proper needs hold per root color.  On an edge-centered tree
    the two halves need one class each, so each stops at two colors, and
    they are glued with different colors at the central edge.  The
    coloring is then rebuilt top-down from the kept selections.
    """
    root = rt.root
    glue = proper and rt.subdivided
    groups = [[ms for _, ms in rt.sibling_classes(v)] for v in range(rt.n)]
    need = [1] * rt.n
    for v in rt.bfs_order:
        if not (glue and v == root):
            for ms in groups[v]:
                for m in ms:
                    need[m] = len(ms) + need[v] - 1
    made = _classes(rt, assignment, proper, groups, need, skip_root=glue)
    if made is None:
        return None
    if glue:
        u, w = rt.halves
        start = next(((a, b) for a, (ca, _) in made[u].items()
                      for b, (cb, _) in made[w].items() if ca != cb), None)
        if start is None:
            return None
        stack = [(u, start[0]), (w, start[1])]
    else:
        stack = [(root, next(iter(made[root])))]
    out = {}
    while stack:
        v, cid = stack.pop()
        out[v], picks = made[v][cid]
        for ms, pick in zip(groups[v], picks):
            stack.extend(zip(ms, pick))
    return out


def _count(rt: RootedTree, assignment: ListAssignment, proper: bool,
           class_cap: int, colors: list | None) -> int:
    """Classes of distinguishing (proper on request) list colorings of
    ``rt`` with the root colored from ``colors``, counted from the complete
    class sets below the root: per root color, the product over the root's
    sibling classes of their numbers of selections.  Without ``colors``,
    ``rt`` is a proper edge-centered reduction, and the count is of
    unordered pairs of half classes with different colors.
    """
    groups = [[ms for _, ms in rt.sibling_classes(v)] for v in range(rt.n)]
    made = _classes(rt, assignment, proper, groups, [class_cap + 1] * rt.n,
                    skip_root=True, class_cap=class_cap)
    if made is None:
        return 0
    if colors is None:
        # ordered pairs with different colors, less the pairs counted twice:
        # those of two shared classes, possible only when the halves are
        # isomorphic
        u, w = (made[h] for h in rt.halves)
        by_u = Counter(col for col, _ in u.values())
        by_w = Counter(col for col, _ in w.values())
        shared = Counter(u[c][0] for c in u.keys() & w.keys())
        pairs = len(u) * len(w) - sum(by_u[c] * by_w[c] for c in by_u)
        return pairs - (shared.total() ** 2 - sum(x * x for x in shared.values())) // 2
    total = 0
    for pinned in (colors if proper else [None]):
        sizes = [len(sel) for sel in _picks(made, groups[rt.root], pinned, class_cap + 1)]
        if 0 not in sizes:
            if max(sizes, default=0) > class_cap:
                raise _cap_error(rt, rt.root, pinned, class_cap)
            total += prod(sizes)
    return total if proper else total * len(colors)


# -- public operations -----------------------------------------------------


def count_list_distinguishing(rt: RootedTree, assignment: ListAssignment,
                              class_cap: int = DEFAULT_CLASS_CAP) -> BigCount:
    """Exact number of classes of distinguishing colorings drawn from the
    given lists."""
    assignment.require_cover(rt.n)
    return BigCount(_count(rt, assignment, False, class_cap,
                           sorted(assignment.get(rt.root))))


def count_proper_list_distinguishing(rt: RootedTree, assignment: ListAssignment,
                                     root_color: int | None = None,
                                     class_cap: int = DEFAULT_CLASS_CAP) -> BigCount:
    """Exact number of classes of proper distinguishing list colorings with
    the root colored ``root_color``, or without it the total over the input
    tree: for an edge-centered reduction, the unordered pairs of half
    classes at u and v with different colors at u and v."""
    if root_color is None and rt.subdivided:
        assignment.require_cover(rt.origin_count)
        return BigCount(_count(rt, assignment, True, class_cap, None))
    assignment.require_cover(rt.n)
    colors = sorted(assignment.get(rt.root))
    if root_color is not None:
        if root_color not in colors:
            raise ValueError(f"color {root_color} is not in the root's list")
        colors = [root_color]
    return BigCount(_count(rt, assignment, True, class_cap, colors))


@dataclass(frozen=True)
class OrbitListCheck:
    equality_expected: bool
    witness: tuple | None


def check_orbit_list_equality(rt: RootedTree, assignment: ListAssignment,
                              k: int) -> OrbitListCheck:
    """Whether vertices in a common orbit always share a list, which for
    uniform size-k lists predicts that the list count collapses to the
    plain k count (whenever the list count is positive)."""
    assignment.require_cover(rt.n)
    if not assignment.is_uniform(k):
        raise ValueError("orbit-list comparison requires uniform lists of size k")
    orbits = vertex_orbits(rt)
    first: dict = {}
    for v in rt.bfs_order:
        o = orbits[v]
        if o not in first:
            first[o] = v
        elif assignment.get(first[o]) != assignment.get(v):
            return OrbitListCheck(False, (first[o], v))
    return OrbitListCheck(True, None)


def construct_list_distinguishing_coloring(
        t, assignment: ListAssignment, proper: bool = False) -> Coloring | None:
    """A verified distinguishing (and proper, on request) coloring drawn
    from the lists, or None when no such coloring exists.

    Built by the need rule of :func:`_list_witness` at any size, with no
    class cap.  The root takes the least color of its list that admits a
    witness (on an edge-centered proper input, the least workable color of
    the first central vertex, then the least different one of the other).
    """
    rt = to_rooted(t)
    assignment.require_cover(rt.origin_count)
    work = assignment
    if rt.subdivided and not proper:
        # the synthetic vertex's color is irrelevant to symmetry
        work = assignment.extended(rt.subdivision_vertex,
                                   {assignment.max_color() + 1})
    colors = _list_witness(rt, work, proper)
    if colors is None:
        return None
    coloring = Coloring(colors).restricted_to(range(rt.origin_count))
    verify_on = original_tree(rt) if rt.subdivided else t
    if not distinguishes(verify_on, coloring) or (
            proper and not is_proper(verify_on, coloring)):
        raise AssertionError("constructed coloring failed verification")
    return coloring
