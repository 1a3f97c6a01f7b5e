import pytest

from treesym import Tree
from treesym.families import double_star, path, single_vertex, spider, star


def tree_from(*pairs) -> Tree:
    """Build a tree from labeled edge pairs."""
    labels: dict = {}
    edges = []
    for a, b in pairs:
        for s in (a, b):
            if s not in labels:
                labels[s] = len(labels)
        edges.append((labels[a], labels[b]))
    return Tree(list(labels), edges)


def labeled_edges(t: Tree) -> frozenset:
    """Edges as unordered label pairs, independent of vertex ids."""
    return frozenset(frozenset((t.labels[u], t.labels[v])) for u, v in t.edges)


@pytest.fixture
def p3():
    return path(3)


@pytest.fixture
def p4():
    return path(4)


@pytest.fixture
def k13():
    return star(3)


__all__ = ["tree_from", "labeled_edges", "double_star", "path", "single_vertex", "spider", "star"]
