"""List-variant counting, exact at desk scale, and list witnesses at any size.

Counts materialize every subtree's equivalence classes of distinguishing
list colorings as colored canonical codes (the root's color, then the
children's codes), so equivalence checks reduce to code equality.  This
is the recursion of :mod:`treesym.counting` with explicit classes: a
sibling class contributes the code sets of its size that admit a perfect
matching between siblings and the codes available to each, and the
proper variant bars from each child's pool the codes that lead with its
parent's color.  Representative sets larger than ``class_cap`` are a hard
error, never an approximation.

Witnesses keep only as many classes per vertex as its parent can use
(the need rule of :func:`_list_witness`), so they need no cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .construction import Coloring
from .counting import BigCount
from .errors import ClassCapError, ListFormatError
from .oracle import is_proper
from .trees import (
    RootedTree,
    distinguishes,
    original_tree,
    to_rooted,
    vertex_orbits,
)

DEFAULT_CLASS_CAP = 100_000
_COMBINATION_LIMIT = 2_000_000


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


# -- representative sets (counts) -------------------------------------------


def _class_selections(avail) -> list:
    """All valid code sets for one sibling class: size-m subsets of the
    union of the members' representative codes that match perfectly onto
    the m members."""
    universe = sorted(set().union(*avail))
    m = len(avail)
    if comb(len(universe), m) > _COMBINATION_LIMIT:
        raise ClassCapError(
            f"sibling class of size {m} over {len(universe)} codes has more"
            f" than {_COMBINATION_LIMIT:,} code sets, the combination limit"
            " (_COMBINATION_LIMIT, fixed in treesym.list_coloring)"
        )
    holders = {c: [j for j, codes in enumerate(avail) if c in codes] for c in universe}
    return [codes for codes in itertools.combinations(universe, m)
            if _match(codes, holders.__getitem__) is not None]


def _combine(v: int, colors, selections, class_cap: int, result: set):
    """Add to ``result`` the representative codes at ``v`` from per-class
    valid selections, for the given root colors."""
    predicted = len(colors)
    for sel in selections:
        predicted *= len(sel)
        if predicted > class_cap:
            raise ClassCapError(
                f"representative set at vertex {v} exceeds the class cap,"
                f" class_cap={class_cap} (the class_cap argument of the"
                " list-count functions)"
            )
    for color in colors:
        for combo in itertools.product(*selections):
            result.add((color, tuple(sorted(itertools.chain.from_iterable(combo)))))


def _rep_sets(rt: RootedTree, assignment: ListAssignment, class_cap: int,
              proper: bool = False, skip_root: bool = False) -> dict:
    """Per vertex: one colored code per equivalence class of distinguishing
    list colorings of its subtree, proper ones on request.  Each code leads
    with its root's color."""
    sets: dict = {}
    for v in reversed(rt.bfs_order):
        if skip_root and v == rt.root:
            continue
        classes = [members for _, members in rt.sibling_groups(v)]
        colors = sorted(assignment.get(v))
        sets[v] = result = set()
        # plain: every root color at once; proper: each root color on its
        # own, with the children's codes of that color dropped from their pools
        for pinned in (colors if proper else [None]):
            selections = [
                _class_selections([
                    sets[m] if pinned is None
                    else {code for code in sets[m] if code[0] != pinned}
                    for m in members
                ])
                for members in classes
            ]
            _combine(v, colors if pinned is None else [pinned], selections,
                     class_cap, result)
    return sets


# -- need-bounded witnesses ----------------------------------------------------


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


def _list_witness(rt: RootedTree, assignment: ListAssignment,
                  proper: bool) -> dict | None:
    """Colors of a distinguishing (proper on request) coloring of ``rt``
    drawn from the lists, or None when there is none.

    Need, top-down: the root needs one class, and each member of a sibling
    class of size s under a vertex that needs j classes needs s + j - 1.
    That suffices: if a member was cut at s + j - 1, any choice for the
    other s - 1 members leaves it j; if none was, the pools are complete.

    Classes, bottom-up: each vertex keeps up to its need of distinct
    colored classes, interned as (color, sorted child class ids) as in
    :func:`treesym.trees.distinguishes`, each with the selections that
    formed it.  Proper needs hold per root color: a vertex colored c draws
    only on its children's classes of other colors, up to each child's
    need.  A proper vertex tries its colors in order and stops once, for
    every color its parent might take, its classes of the other colors
    meet its need; the root, which has no parent, stops at its first
    class.  On an edge-centered tree the two halves need one class each,
    so each stops at two colors, and they are glued with different colors
    at the central edge.  The coloring is then rebuilt top-down from the
    kept selections.
    """
    root = rt.root
    glue = proper and rt.subdivided
    groups: list = [()] * rt.n
    need = [1] * rt.n
    for v in rt.bfs_order:
        groups[v] = [ms for _, ms in rt.sibling_groups(v)]
        if not (glue and v == root):
            for ms in groups[v]:
                for m in ms:
                    need[m] = len(ms) + need[v] - 1
    table: dict = {}
    made: list = [None] * rt.n  # per vertex: class id -> (color, selections)
    for v in reversed(rt.bfs_order):
        if glue and v == root:
            break
        made[v] = mine = {}
        colors = sorted(assignment.get(v))
        most = 0
        for pinned in (colors if proper else [None]):
            sels = [
                _selections([
                    [c for c, (col, _) in made[m].items() if col != pinned][:need[m]]
                    for m in ms
                ], need[v])
                for ms in groups[v]
            ]
            combos = itertools.product(colors if pinned is None else [pinned], *sels)
            before = len(mine)
            for color, *picks in itertools.islice(combos, need[v]):
                key = (color, tuple(sorted(itertools.chain.from_iterable(picks))))
                mine[table.setdefault(key, len(table))] = (color, picks)
            most = max(most, len(mine) - before)
            # the parent's color bars at most the largest color's classes
            if len(mine) - (0 if v == root else most) >= need[v]:
                break
        if not mine:
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


# -- public operations -----------------------------------------------------


def count_list_distinguishing(rt: RootedTree, assignment: ListAssignment,
                              class_cap: int = DEFAULT_CLASS_CAP) -> BigCount:
    """Exact number of classes of distinguishing colorings drawn from the
    given lists."""
    assignment.require_cover(rt.n)
    return BigCount(len(_rep_sets(rt, assignment, class_cap)[rt.root]))


def count_proper_list_distinguishing(rt: RootedTree, assignment: ListAssignment,
                                     root_color: int | None = None,
                                     class_cap: int = DEFAULT_CLASS_CAP) -> BigCount:
    """Exact number of classes of proper distinguishing list colorings with
    the root colored ``root_color``, or without it the total over the input
    tree: for an edge-centered reduction, the unordered pairs of half
    classes at u and v with different colors at u and v."""
    if root_color is None and rt.subdivided:
        assignment.require_cover(rt.origin_count)
        sets = _rep_sets(rt, assignment, class_cap, proper=True, skip_root=True)
        u, v = rt.halves
        return BigCount(len({frozenset((a, b)) for a in sets[u] for b in sets[v]
                             if a[0] != b[0]}))
    assignment.require_cover(rt.n)
    if root_color is not None and root_color not in assignment.get(rt.root):
        raise ValueError(f"color {root_color} is not in the root's list")
    codes = _rep_sets(rt, assignment, class_cap, proper=True)[rt.root]
    if root_color is None:
        return BigCount(len(codes))
    return BigCount(sum(1 for code in codes if code[0] == root_color))


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
    rt = t if isinstance(t, RootedTree) else to_rooted(t)
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
