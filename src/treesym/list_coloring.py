"""Exact list-variant counting and construction, at desk scale.

Every subtree's equivalence classes of distinguishing list colorings are
materialized as colored canonical codes (the plain code interleaved with
color ids), so equivalence checks reduce to code equality.  A sibling
class contributes the number of code sets of its size that admit a perfect
matching between siblings and the codes available to each; representative
sets larger than ``class_cap`` are a hard error, never an approximation.
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


# -- representative sets -------------------------------------------------


def _matchable(codes, avail_sets) -> list | None:
    """Assign each code to a distinct sibling whose set contains it;
    returns the sibling index per code, or None."""
    m = len(codes)
    used = [False] * m
    assign = [-1] * m

    def place(i: int) -> bool:
        if i == m:
            return True
        for j in range(m):
            if not used[j] and codes[i] in avail_sets[j]:
                used[j] = True
                assign[i] = j
                if place(i + 1):
                    return True
                used[j] = False
        return False

    return assign if place(0) else None


def _class_selections(members, avail) -> list:
    """All valid code sets for one sibling class: size-m subsets of the
    union of the members' representative codes that match perfectly onto
    the members."""
    universe = sorted(set().union(*avail)) if avail else []
    m = len(members)
    if comb(len(universe), m) > _COMBINATION_LIMIT:
        raise ClassCapError(
            f"sibling class of size {m} over {len(universe)} codes is too"
            " large to enumerate exactly"
        )
    out = []
    for codes in itertools.combinations(universe, m):
        assign = _matchable(codes, avail)
        if assign is not None:
            out.append((codes, assign))
    return out


def _combine(v: int, colors, class_data, class_cap: int, witnesses: bool) -> dict:
    """Representative set at ``v`` from per-class valid selections."""
    predicted = len(colors)
    for selections, _, _ in class_data:
        predicted *= len(selections)
        if predicted > class_cap:
            raise ClassCapError(
                f"representative set at vertex {v} exceeds cap {class_cap}"
            )
    result: dict = {}
    for color in sorted(colors):
        for combo in itertools.product(*(sel for sel, _, _ in class_data)):
            merged = []
            for codes, _ in combo:
                merged.extend(codes)
            code = (color, tuple(sorted(merged)))
            if not witnesses:
                result[code] = None
                continue
            witness = {v: color}
            for (codes, assign), (_, members, member_sets) in zip(combo, class_data):
                for i, w_code in enumerate(codes):
                    member = members[assign[i]]
                    witness.update(member_sets[assign[i]][w_code])
            result[code] = witness
    return result


def _rep_sets(rt: RootedTree, assignment: ListAssignment, class_cap: int,
              witnesses: bool) -> dict:
    """Per vertex: one colored code (with optional witness coloring) per
    equivalence class of distinguishing list colorings of its subtree."""
    sets: dict = {}
    for v in reversed(rt.bfs_order):
        class_data = []
        for cls in rt.sibling_classes(v):
            member_sets = [sets[m] for m in cls.members]
            selections = _class_selections(cls.members, member_sets)
            class_data.append((selections, cls.members, member_sets))
        sets[v] = _combine(v, assignment.get(v), class_data, class_cap, witnesses)
    return sets


def _proper_rep_sets(rt: RootedTree, assignment: ListAssignment, class_cap: int,
                     witnesses: bool, skip_root: bool = False) -> dict:
    """Like :func:`_rep_sets`, keyed by (vertex, root color), restricted to
    proper colorings; children never reuse their parent's color."""
    sets: dict = {}
    for v in reversed(rt.bfs_order):
        if skip_root and v == rt.root:
            continue
        for color in sorted(assignment.get(v)):
            class_data = []
            for cls in rt.sibling_classes(v):
                member_sets = []
                for m in cls.members:
                    pool: dict = {}
                    for c2 in assignment.get(m):
                        if c2 != color:
                            pool.update(sets[(m, c2)])
                    member_sets.append(pool)
                selections = _class_selections(cls.members, member_sets)
                class_data.append((selections, cls.members, member_sets))
            sets[(v, color)] = _combine(v, [color], class_data, class_cap,
                                        witnesses)
    return sets


# -- public operations -----------------------------------------------------


@dataclass(frozen=True)
class RepresentativeSet:
    """One colored canonical code per equivalence class of distinguishing
    list colorings of a rooted subtree."""

    codes: frozenset

    @property
    def size(self) -> int:
        return len(self.codes)


def representative_set(rt: RootedTree, assignment: ListAssignment,
                       root_color: int | None = None,
                       class_cap: int = DEFAULT_CLASS_CAP) -> RepresentativeSet:
    """Representative codes for the whole tree; with ``root_color`` the
    proper variant with the root pinned to that color."""
    assignment.require_cover(rt.n)
    if root_color is None:
        sets = _rep_sets(rt, assignment, class_cap, witnesses=False)
        return RepresentativeSet(frozenset(sets[rt.root]))
    if root_color not in assignment.get(rt.root):
        raise ValueError(f"color {root_color} is not in the root's list")
    sets = _proper_rep_sets(rt, assignment, class_cap, witnesses=False)
    return RepresentativeSet(frozenset(sets[(rt.root, root_color)]))


def count_list_distinguishing(rt: RootedTree, assignment: ListAssignment,
                              class_cap: int = DEFAULT_CLASS_CAP) -> BigCount:
    """Exact number of classes of distinguishing colorings drawn from the
    given lists."""
    assignment.require_cover(rt.n)
    sets = _rep_sets(rt, assignment, class_cap, witnesses=False)
    return BigCount(len(sets[rt.root]))


def count_proper_list_distinguishing(rt: RootedTree, assignment: ListAssignment,
                                     root_color: int,
                                     class_cap: int = DEFAULT_CLASS_CAP) -> BigCount:
    """Exact number of classes of proper distinguishing list colorings with
    the root colored ``root_color``."""
    assignment.require_cover(rt.n)
    if root_color not in assignment.get(rt.root):
        raise ValueError(f"color {root_color} is not in the root's list")
    sets = _proper_rep_sets(rt, assignment, class_cap, witnesses=False)
    return BigCount(len(sets[(rt.root, root_color)]))


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
        t, assignment: ListAssignment, proper: bool = False,
        class_cap: int = DEFAULT_CLASS_CAP) -> Coloring | None:
    """A verified distinguishing (and proper, on request) coloring drawn
    from the lists, or None when no such coloring exists."""
    rooted_input = isinstance(t, RootedTree)
    rt = t if rooted_input else to_rooted(t)
    assignment.require_cover(rt.origin_count)
    verify_on = original_tree(rt) if rooted_input and rt.subdivided else t

    if not proper:
        work = assignment
        if rt.subdivided:
            # the synthetic vertex's color is irrelevant to symmetry
            work = assignment.extended(rt.subdivision_vertex,
                                       {assignment.max_color() + 1})
        sets = _rep_sets(rt, work, class_cap, witnesses=True)
        root_set = sets[rt.root]
        if not root_set:
            return None
        witness = root_set[min(root_set)]
        coloring = _strip_synthetic(rt, witness)
        if not distinguishes(verify_on, coloring):
            raise AssertionError("constructed coloring failed verification")
        return coloring

    if not rt.subdivided:
        sets = _proper_rep_sets(rt, assignment, class_cap, witnesses=True)
        for color in sorted(assignment.get(rt.root)):
            pool = sets[(rt.root, color)]
            if pool:
                coloring = Coloring(dict(pool[min(pool)]))
                _verify_proper(verify_on, coloring)
                return coloring
        return None

    # edge-centered proper case: color the two halves independently with
    # different colors at the central endpoints, then glue
    sets = _proper_rep_sets(rt, assignment, class_cap, witnesses=True,
                            skip_root=True)
    u, v = rt.children[rt.root]
    for cu in sorted(assignment.get(u)):
        for cv in sorted(assignment.get(v)):
            if cu == cv:
                continue
            pu, pv = sets[(u, cu)], sets[(v, cv)]
            if pu and pv:
                merged = dict(pu[min(pu)])
                merged.update(pv[min(pv)])
                coloring = Coloring(merged)
                _verify_proper(verify_on, coloring)
                return coloring
    return None


def _strip_synthetic(rt: RootedTree, witness: dict) -> Coloring:
    if rt.subdivided:
        witness = {v: c for v, c in witness.items() if v != rt.subdivision_vertex}
    return Coloring(dict(witness))


def _verify_proper(t, coloring: Coloring):
    if not is_proper(t, coloring) or not distinguishes(t, coloring):
        raise AssertionError("constructed coloring failed verification")
