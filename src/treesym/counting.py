"""Exact class counts of symmetry-breaking colorings, with an optional
saturating mode.

The counts are numbers of equivalence classes (under root-preserving
automorphisms) of distinguishing k-colorings, and of proper distinguishing
k-colorings with the root color pinned.  Both follow the same shape: a
product over sibling classes of binomial choices among the classes
available for one representative subtree, memoized by canonical code so
isomorphic subtrees are computed once.

Saturating mode clamps every intermediate at an internal cap of at least
n+1, which keeps positivity and threshold comparisons exact while the
integers stay machine-small.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import SaturatedCountError
from .trees import RootedTree


@dataclass(frozen=True)
class BigCount:
    """Nonnegative count; ``saturated`` means the true value is >= ``cap``
    and was clamped there.  Unsaturated values are exact."""

    value: int
    saturated: bool = False
    cap: int | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("count cannot be negative")
        if self.cap is not None and self.cap < 1:
            raise ValueError("cap must be a positive integer")
        if self.saturated and (self.cap is None or self.value != self.cap):
            raise ValueError("a saturated count must sit exactly at its cap")
        if not self.saturated and self.cap is not None and self.value >= self.cap:
            raise ValueError("an exact count must lie strictly below its cap")

    @classmethod
    def clamp(cls, value: int, cap: int | None = None) -> "BigCount":
        if cap is not None and value >= cap:
            return cls(cap, True, cap)
        return cls(value, False, cap)

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


def _mul(a: int, b: int, icap: int | None) -> int:
    p = a * b
    if icap is not None and p >= icap:
        return icap
    return p


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


def _distinguishing_pass(rt: RootedTree, k: int, icap: int | None) -> list:
    order, mults = rt.class_structure()
    table: list = [None] * len(order)
    base = k if icap is None or k < icap else icap
    for cid in order:
        val = base
        for ccid, mult in mults[cid]:
            val *= table[ccid] if mult == 1 else _binom(table[ccid], mult, icap)
            if val == 0:
                break
            if icap is not None and val >= icap:
                val = icap
        table[cid] = val
    return table


def _proper_pass(rt: RootedTree, k: int, icap: int | None) -> list:
    order, mults = rt.class_structure()
    table: list = [None] * len(order)
    for cid in order:
        val = 1
        for ccid, mult in mults[cid]:
            if val == 0:
                break
            avail = _mul(k - 1, table[ccid], icap)
            val = _mul(val, _binom(avail, mult, icap), icap)
        table[cid] = val
    return table


class CountTable:
    """Per-subtree counts memoized by (canonical class, palette size).

    ``distinguishing(v, k)`` is the class count of distinguishing
    k-colorings of the subtree at ``v``; ``proper(v, k)`` the class count
    of proper distinguishing k-colorings with the subtree root's color
    pinned.  A leaf yields k and 1 respectively.
    """

    def __init__(self, rt: RootedTree, cap=None):
        self.rt = rt
        self.cap = _cap_value(cap)
        self._icap = None if self.cap is None else max(self.cap, rt.n + 1)
        self._dist: dict = {}
        self._prop: dict = {}

    def _check_k(self, k: int) -> int:
        k = int(k)
        if k < 1:
            raise ValueError("palette size k must be at least 1")
        return k

    def _finish(self, raw: int) -> BigCount:
        if self.cap is not None and raw >= self.cap:
            return BigCount(self.cap, True, self.cap)
        return BigCount(raw, False, self.cap)

    def _row(self, rows: dict, count_pass, k: int) -> list:
        k = self._check_k(k)
        row = rows.get(k)
        if row is None:
            row = rows[k] = count_pass(self.rt, k, self._icap)
        return row

    def proper_row(self, k: int) -> list:
        """``proper(., k)`` raw values for every class, indexed by class id."""
        return self._row(self._prop, _proper_pass, k)

    def distinguishing_raw(self, v: int, k: int) -> int:
        return self._row(self._dist, _distinguishing_pass, k)[self.rt.code_id(v)]

    def proper_raw(self, v: int, k: int) -> int:
        return self.proper_row(k)[self.rt.code_id(v)]

    def distinguishing(self, v: int, k: int) -> BigCount:
        return self._finish(self.distinguishing_raw(v, k))

    def proper(self, v: int, k: int) -> BigCount:
        return self._finish(self.proper_raw(v, k))

    def tree_distinguishing(self, k: int) -> int:
        """Raw class count of distinguishing k-colorings of the input tree.
        An edge-centered reduction's synthetic root adds a free factor k;
        use exact tables only, as a saturated value over k may reach 0."""
        total = self.distinguishing_raw(self.rt.root, k)
        return total // k if self.rt.subdivided else total

    def tree_proper(self, k: int) -> int:
        """Raw class count of proper distinguishing k-colorings of the input
        tree, positive exactly when the true count is.  An edge-centered
        tree, glued from the halves u and v of its reduction, has
        k(k-1) * proper(u) * proper(v), halved when the halves are
        isomorphic: swapping them pairs up the classes and fixes none."""
        rt = self.rt
        if not rt.subdivided:
            return k * self.proper_raw(rt.root, k)
        u, v = rt.children[rt.root]
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
