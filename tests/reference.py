"""Naive reference for canonical codes and sibling-class order.

Builds the Aho–Hopcroft–Ullman parenthesis string of every vertex's
subtree directly, children sorted by their own strings, and orders sibling
classes by those strings.  Quadratic on deep trees; only for tests.
"""


def vertex_strings(rt) -> list:
    """Parenthesis string of the subtree at every vertex of ``rt``."""
    out = [None] * rt.n
    for v in reversed(rt.bfs_order):
        out[v] = "(" + "".join(sorted(out[c] for c in rt.children[v])) + ")"
    return out


def sibling_order(rt, strings, v) -> list:
    """Members of each sibling class below ``v``, ascending, with the
    classes in the order of their strings."""
    groups: dict = {}
    for c in rt.children[v]:
        groups.setdefault(strings[c], []).append(c)
    return [tuple(sorted(groups[s])) for s in sorted(groups)]
