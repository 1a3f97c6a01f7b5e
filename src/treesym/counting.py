"""Exact class counts of symmetry-breaking colorings, with an optional
saturating mode.

The counts are numbers of equivalence classes (under root-preserving
automorphisms) of distinguishing colorings.  Plain and proper counts are
one recursion: pin the color of a subtree's root and leave ``a`` colors
open to each child; a sibling class of m children with representative c
then picks m distinct classes among the a * f_a(c) (color, pinned class)
slots of c, so

    f_a(v) = prod over the sibling classes (c, m) of v of C(a * f_a(c), m).

The plain count is D(v, k) = k * f_k(v), and the proper count with the
root color pinned is P(v, k) = f_{k-1}(v), since a child may take any
color but its parent's.  One pass computes f_a for every canonical class
at once, so isomorphic subtrees are computed once.

Saturating mode clamps every intermediate at an internal cap of at least
n+1, which keeps positivity and threshold comparisons exact while the
integers stay machine-small.
"""

from __future__ import annotations

from itertools import groupby
from math import comb

from .errors import SaturatedCountError
from .trees import RootedTree


class _Frozen:
    """Base of the package's immutable value types.

    The fields are a subclass's ``__slots__``, in order.  Equality, hash and
    repr are field-wise, as a frozen dataclass's, and every assignment or
    deletion raises AttributeError; each subclass's constructor sets its
    fields through ``object.__setattr__``.  Frozen dataclasses would do the
    same, but importing :mod:`dataclasses` adds about 4 ms to every cold
    CLI request.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class BigCount(_Frozen):
    """Nonnegative count; ``saturated`` means the true value is >= ``cap``
    and was clamped there.  Unsaturated values are exact."""

    __slots__ = ("value", "saturated", "cap")

    def __init__(self, value: int, saturated: bool = False, cap: int | None = None):
        if value < 0:
            raise ValueError("count cannot be negative")
        if cap is not None and cap < 1:
            raise ValueError("cap must be a positive integer")
        if saturated and (cap is None or value != cap):
            raise ValueError("a saturated count must sit exactly at its cap")
        if not saturated and cap is not None and value >= cap:
            raise ValueError("an exact count must lie strictly below its cap")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "saturated", saturated)
        object.__setattr__(self, "cap", cap)

    def __int__(self):
        return self.value

    @property
    def positive(self) -> bool:
        return self.value > 0


def _cap_value(cap) -> int | None:
    if cap is None:
        return None
    if isinstance(cap, BigCount):
        return cap.value
    return int(cap)


# -- clamped integer kernels ---------------------------------------------
# Values are represented as min(true, icap).  The caller guarantees
# icap > every class size it will ask about, which keeps clamping sound.


def _binom(top: int, m: int, icap: int | None) -> int:
    if icap is None:
        return comb(top, m) if top >= m else 0
    if m >= icap:
        raise SaturatedCountError("internal cap too small for this class size")
    if m == 0:
        return 1 if icap > 1 else icap
    if top >= icap:
        return icap
    if m > top:
        return 0
    t = min(m, top - m)
    if t == 0:
        return 1
    if t >= icap.bit_length():
        # C(top, m) >= 2**t >= icap
        return icap
    c = 1
    for i in range(1, t + 1):
        c = c * (top - t + i) // i
        if c >= icap:
            return icap
    return c


def _pinned_pass(rt: RootedTree, a: int, icap: int | None) -> list:
    """f_a per class id: classes of colorings with the root color pinned
    and ``a`` colors open to each child.  One loop over the flat class
    structure: a class's pairs come after those of its child classes, so
    each pair multiplies its factor into a product that is complete by
    the time any parent reads it."""
    owner, kids, mults = rt.class_structure()
    table: list = [1] * rt.class_count()
    for cid, ccid, mult in zip(owner, kids, mults):
        slots = a * table[ccid]
        if icap is not None and slots >= icap:
            slots = icap
        val = table[cid] * (slots if mult == 1 else _binom(slots, mult, icap))
        table[cid] = icap if icap is not None and val >= icap else val
    return table


class CountTable:
    """Per-subtree counts memoized by (canonical class, open colors).

    ``distinguishing(v, k)`` is the class count of distinguishing
    k-colorings of the subtree at ``v``; ``proper(v, k)`` the class count
    of proper distinguishing k-colorings with the subtree root's color
    pinned.  A leaf yields k and 1 respectively.  Both read the row f_a of
    the module's recursion, a = k and a = k - 1, so a proper probe at k
    reuses the row a plain probe at k - 1 built.
    """

    def __init__(self, rt: RootedTree, cap=None):
        self.rt = rt
        self.cap = _cap_value(cap)
        self._icap = None if self.cap is None else max(self.cap, rt.n + 1)
        self._rows: dict = {}
        self._plans: dict = {}
        self._plan_pool: dict = {}

    def _check_k(self, k: int) -> int:
        k = int(k)
        if k < 1:
            raise ValueError("palette size k must be at least 1")
        return k

    def _finish(self, raw: int) -> BigCount:
        if self.cap is not None and raw >= self.cap:
            return BigCount(self.cap, True, self.cap)
        return BigCount(raw, False, self.cap)

    def row(self, a: int) -> list:
        """f_a raw values for every class, indexed by class id."""
        row = self._rows.get(a)
        if row is None:
            row = self._rows[a] = _pinned_pass(self.rt, a, self._icap)
        return row

    def _walk_plans(self, a: int) -> list:
        # walk plans of row a by class id, None until _plan builds one
        plans = self._plans.get(a)
        if plans is None:
            plans = self._plans[a] = [None] * self.rt.class_count()
        return plans

    def _plan(self, a: int, v: int) -> tuple:
        """The walk plan of v's class in row a, which the unrank and rank
        walkers read: per sibling class below v in the flat sibling order,
        (members m, f_a of the class, product of the later classes' blocks
        C(a * f_a, m), whether it is the leaf class).  Every vertex of a
        class has the same plan, so it is built from the first one a walk
        meets; equal plans of different classes are kept once."""
        rt = self.rt
        row = self.row(a)
        ids, span = rt.code_ids(), rt._child_span
        kids = rt._grouped()[span[2 * v]:span[2 * v + 1]]
        if not kids:
            plan = ()
        elif ids[kids[0]] == ids[kids[-1]]:
            # one sibling class: no runs to find
            c = ids[kids[0]]
            plan = ((len(kids), row[c], 1, c == 0),)
        else:
            plan = []
            later = 1
            for c, run in reversed([(c, len(list(g)))
                                    for c, g in groupby(kids, ids.__getitem__)]):
                plan.append((run, row[c], later, c == 0))
                later *= comb(a * row[c], run)
            plan = tuple(reversed(plan))
        plan = self._walk_plans(a)[ids[v]] = self._plan_pool.setdefault(plan, plan)
        return plan

    def distinguishing_raw(self, v: int, k: int) -> int:
        k = self._check_k(k)
        raw = k * self.row(k)[self.rt.code_id(v)]
        icap = self._icap
        return icap if icap is not None and raw >= icap else raw

    def proper_raw(self, v: int, k: int) -> int:
        k = self._check_k(k)
        return self.row(k - 1)[self.rt.code_id(v)]

    def distinguishing(self, v: int, k: int) -> BigCount:
        return self._finish(self.distinguishing_raw(v, k))

    def proper(self, v: int, k: int) -> BigCount:
        return self._finish(self.proper_raw(v, k))

    def tree_distinguishing(self, k: int) -> int:
        """Raw class count of distinguishing k-colorings of the input tree.
        An edge-centered reduction's synthetic root has no symmetry role,
        so its color is pinned: the count is f_k at the root."""
        rt = self.rt
        if rt.subdivided:
            return self.row(self._check_k(k))[rt.code_id(rt.root)]
        return self.distinguishing_raw(rt.root, k)

    def tree_proper(self, k: int) -> int:
        """Raw class count of proper distinguishing k-colorings of the input
        tree, positive exactly when the true count is.  An edge-centered
        tree, glued from the halves u and v of its reduction, has
        k(k-1) * proper(u) * proper(v), halved when the halves are
        isomorphic: swapping them pairs up the classes and fixes none."""
        rt = self.rt
        if not rt.subdivided:
            return k * self.proper_raw(rt.root, k)
        u, v = rt.halves
        total = k * (k - 1) * self.proper_raw(u, k) * self.proper_raw(v, k)
        return total // 2 if rt.code_id(u) == rt.code_id(v) else total


def count_distinguishing(rt: RootedTree, k: int, cap=None) -> BigCount:
    """Number of classes of distinguishing k-colorings of the rooted tree.

    Exact when ``cap`` is absent; with a cap the result is exact below the
    cap and saturated otherwise.
    """
    return CountTable(rt, cap).distinguishing(rt.root, k)


def count_proper_distinguishing(rt: RootedTree, k: int, cap=None) -> BigCount:
    """Number of classes of proper distinguishing k-colorings with the root
    color pinned; independent of which color is pinned.  Times k, the
    total over root colors of a vertex-centered tree; for an edge-centered
    tree see :meth:`CountTable.tree_proper`."""
    return CountTable(rt, cap).proper(rt.root, k)
