import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesym import trees
from treesym import (
    RootedTree,
    Tree,
    canonical_code,
    center,
    distinguishes,
    enumerate_automorphisms,
    is_distinguishing,
    original_tree,
    parse_tree,
    to_edge_list,
    to_parens,
    to_rooted,
    vertex_orbits,
)
from treesym.construction import construct_distinguishing_coloring, parameters
from treesym.errors import InvalidTreeError, TreeSyntaxError
from treesym.families import (
    all_trees_up_to,
    path,
    random_tree,
    spider,
    star,
    tree_from_prufer,
)

from conftest import labeled_edges, tree_from
import reference
from reference import extract_subtree, is_isomorphic_rooted, sibling_order, vertex_strings


# -- parsing ---------------------------------------------------------------

def test_parse_edge_list_p3():
    t = parse_tree("a b\nb c")
    assert t.n == 3
    assert labeled_edges(t) == {frozenset("ab"), frozenset("bc")}


def test_parse_parens_star():
    rt = parse_tree("(()())", fmt="parens")
    assert isinstance(rt, RootedTree)
    assert not rt.subdivided
    assert len(rt.children[rt.root]) == 2
    assert all(not rt.children[c] for c in rt.children[rt.root])
    # whitespace anywhere between the parentheses is skipped
    spaced = parse_tree(" ( ()\n\t() ) \n", fmt="parens")
    assert (spaced.n, spaced.labels, spaced.children) == (rt.n, rt.labels, rt.children)


def test_parse_disconnected():
    with pytest.raises(InvalidTreeError, match="disconnected input: no path between 'a' and 'c'"):
        parse_tree("a b\nc d")


def test_parse_cycle():
    with pytest.raises(InvalidTreeError, match="cycle detected at edge 'c' 'a'"):
        parse_tree("a b\nb c\nc a")


def test_parse_duplicate_edge():
    with pytest.raises(InvalidTreeError, match="duplicate edge 'b' 'a'"):
        parse_tree("a b\nb a")


def test_parse_self_loop():
    with pytest.raises(InvalidTreeError, match="self-loop at 'a'"):
        parse_tree("a a")


def test_parse_empty():
    with pytest.raises(InvalidTreeError, match="empty"):
        parse_tree("   \n# only a comment\n")


def test_parse_syntax_error_reports_line():
    with pytest.raises(TreeSyntaxError, match="line 2"):
        parse_tree("a b\na b c")


def test_parse_comments_and_blanks():
    t = parse_tree("# a path\n\na b\n  b c  \n")
    assert t.n == 3


def test_parse_single_vertex_line():
    t = parse_tree("solo\n")
    assert t.n == 1
    assert t.labels == ("solo",)


def test_parse_parens_errors():
    with pytest.raises(TreeSyntaxError, match="position"):
        parse_tree("(x)", fmt="parens")
    with pytest.raises(TreeSyntaxError, match="unmatched"):
        parse_tree("())", fmt="parens")
    with pytest.raises(TreeSyntaxError):
        parse_tree("(()", fmt="parens")
    with pytest.raises(TreeSyntaxError, match="second top-level"):
        parse_tree("()()", fmt="parens")


def test_unknown_format():
    with pytest.raises(ValueError):
        parse_tree("a b", fmt="newick")


# -- center ------------------------------------------------------------------

def test_center_p3(p3):
    assert center(p3) == {1}


def test_center_p4(p4):
    assert center(p4) == {1, 2}


def test_center_star():
    assert center(star(4)) == {0}


def test_center_size_and_adjacency():
    for t in all_trees_up_to(9):
        c = sorted(center(t))
        assert len(c) in (1, 2)
        if len(c) == 2:
            assert tuple(c) in t.edges


def test_center_large_random_tree():
    t = random_tree(100_000, seed="center-check")
    c = sorted(center(t))
    assert len(c) in (1, 2)
    if len(c) == 2:
        assert tuple(c) in t.edges


# -- rooted reduction ---------------------------------------------------------

def test_to_rooted_vertex_center(p3):
    rt = to_rooted(p3)
    assert not rt.subdivided
    assert rt.n == 3
    assert rt.root == 1


def test_to_rooted_edge_center(p4):
    rt = to_rooted(p4)
    assert rt.subdivided
    assert rt.n == 5
    assert rt.root == rt.subdivision_vertex == 4
    assert sorted(rt.children[rt.root]) == [1, 2]
    assert rt.labels[:4] == p4.labels
    assert original_tree(rt) is p4


def test_to_rooted_reads_either_kind_of_tree(p4):
    rt = RootedTree(p4, 0)
    assert to_rooted(rt) is rt
    assert to_rooted(to_rooted(p4)) is to_rooted(p4)
    with pytest.raises(TypeError, match="expected Tree or RootedTree, got str"):
        to_rooted("0 1")


def test_to_rooted_single_edge_preserves_group():
    t = path(2)
    rt = to_rooted(t)
    assert rt.subdivided and rt.n == 3
    # the rooted view keeps the swap symmetry of the original edge
    assert enumerate_automorphisms(t).order == 2
    assert enumerate_automorphisms(rt).order == 2


def test_original_tree_roundtrip(p4):
    rt = to_rooted(p4)
    back = original_tree(rt)
    assert labeled_edges(back) == labeled_edges(p4)


def test_synthetic_label_never_collides():
    t = tree_from(("⟨center⟩", "x"), ("x", "y"), ("y", "z"))
    rt = to_rooted(t)
    labels = rt.base.labels
    assert len(set(labels)) == len(labels)


# -- canonical codes -----------------------------------------------------------

def test_code_of_leaf():
    rt = to_rooted(Tree(["a"], []))
    assert canonical_code(rt, 0) == "()"


def test_code_of_star2():
    rt = to_rooted(star(2))
    assert canonical_code(rt, rt.root) == "(()())"


def test_code_lengths():
    for t in all_trees_up_to(7):
        rt = to_rooted(t)
        sizes = rt.subtree_sizes()
        for v in range(rt.n):
            assert len(canonical_code(rt, v)) == 2 * sizes[v]


def _assert_order_matches_reference(rt):
    strings = vertex_strings(rt)
    assert to_parens(rt) == strings[rt.root]
    for v in range(rt.n):
        assert canonical_code(rt, v) == strings[v]
        assert [tuple(ms) for _, ms in rt.sibling_classes(v)] == sibling_order(rt, strings, v)


def _caterpillar(spine: int, leaves: int) -> Tree:
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(s, spine + s * leaves + j) for s in range(spine) for j in range(leaves)]
    return Tree([str(i) for i in range(spine * (1 + leaves))], edges)


def _complete_binary(height: int) -> Tree:
    n = 2 ** (height + 1) - 1
    return Tree([str(i) for i in range(n)], [((i - 1) // 2, i) for i in range(1, n)])


def test_class_order_matches_code_strings_small():
    # the string-free order against codes built naively, at every vertex,
    # center-rooted and rooted at vertex 0
    for t in all_trees_up_to(10):
        _assert_order_matches_reference(to_rooted(t))
        _assert_order_matches_reference(RootedTree(t, 0))


@pytest.mark.parametrize("t", [
    random_tree(1000, seed="order-1"),
    random_tree(1000, seed="order-2"),
    spider(5, 5, 4, 4, 4, 1),
    _caterpillar(41, 3),
    _complete_binary(7),
    path(401),
    path(400),
], ids=["prufer-1", "prufer-2", "spider", "caterpillar", "binary", "odd-path", "even-path"])
def test_class_order_matches_code_strings_large(t):
    _assert_order_matches_reference(to_rooted(t))


def test_parameters_memory_linear_on_paths():
    # code strings on a path take quadratic memory; the class order must not
    peaks = []
    for n in (5001, 10001):
        t = path(n)
        tracemalloc.start()
        try:
            parameters(t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 3 * peaks[0]


def test_to_parens_deep_path():
    rt = RootedTree(path(100_000), 0)
    code = to_parens(rt)
    assert len(code) == 200_000
    assert code == "(" * 100_000 + ")" * 100_000


def test_codes_match_backtracking_isomorphism():
    # code equality must coincide with the independent isomorphism test
    for t in all_trees_up_to(8):
        rt = to_rooted(t)
        ids = rt.code_ids()
        verts = list(range(rt.n))
        subs = {v: extract_subtree(rt, v) for v in verts}
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                assert (ids[u] == ids[v]) == is_isomorphic_rooted(subs[u], subs[v])


def test_rooted_symmetry_preserved_by_reduction():
    # verifying a coloring on the original tree agrees with verifying it on
    # the reduction once the synthetic vertex takes a fresh color
    import random

    rng = random.Random(4242)
    for t in all_trees_up_to(8):
        rt = to_rooted(t)
        for _ in range(3):
            phi = {v: rng.randint(1, 2) for v in range(t.n)}
            extended = dict(phi)
            if rt.subdivided:
                extended[rt.subdivision_vertex] = 99
            assert is_distinguishing(t, phi) == is_distinguishing(rt, extended)


# -- sibling classes -------------------------------------------------------------

def test_child_classes_star3():
    rt = to_rooted(star(3))
    cls = rt.sibling_classes(rt.root)
    assert len(cls) == 1
    assert len(cls[0][1]) == 3


def test_child_classes_mixed():
    # root with a bare leaf and a two-vertex branch: two singleton classes
    t = tree_from(("r", "leaf"), ("r", "mid"), ("mid", "deep"))
    rt = RootedTree(t, 0)
    cls = rt.sibling_classes(0)
    assert [len(ms) for _, ms in cls] == [1, 1]


def test_child_classes_spider():
    t = spider(3, 3, 1)
    rt = RootedTree(t, 0)
    sizes = sorted(len(ms) for _, ms in rt.sibling_classes(0))
    assert sizes == [1, 2]
    a, b = next(ms for _, ms in rt.sibling_classes(0) if len(ms) == 2)
    assert is_isomorphic_rooted(extract_subtree(rt, a), extract_subtree(rt, b))


def test_class_order_deterministic_across_relabeling():
    t1 = tree_from(("a", "b"), ("b", "c"), ("b", "d"), ("a", "e"))
    t2 = tree_from(("e", "a"), ("b", "d"), ("b", "c"), ("a", "b"))
    assert to_parens(to_rooted(t1)) == to_parens(to_rooted(t2))


# -- orbits ---------------------------------------------------------------------

def test_vertex_orbits_match_group():
    for t in all_trees_up_to(8):
        rt = to_rooted(t)
        orbits = vertex_orbits(rt)
        group = enumerate_automorphisms(rt)
        seen: dict = {}
        for v in range(rt.n):
            orbit = frozenset(a.perm[v] for a in group.elements)
            seen.setdefault(orbit, set()).add(orbits[v])
        # one refinement id per true orbit, and never merging two orbits
        assert all(len(ids) == 1 for ids in seen.values())
        assert len({ids.pop() for ids in seen.values()}) == len(seen)


# -- fast verifier -----------------------------------------------------------------

def _with_synthetic(rt, coloring, color=1):
    # a to_rooted view of an edge-centered tree also colors its synthetic root
    return {**coloring, rt.subdivision_vertex: color} if rt.subdivided else coloring


def test_distinguishes_matches_oracle_on_all_2_colorings():
    # the oracle's group of the reduction is the tree's group (see
    # test_rooted_symmetry_preserved_by_reduction), so one group judges
    # both views; it is enumerated once per tree, as is_distinguishing
    # would enumerate it for every coloring
    for t in all_trees_up_to(8):
        rt = to_rooted(t)
        perms = enumerate_automorphisms(t).nontrivial_perms()
        for colors in itertools.product((1, 2), repeat=t.n):
            phi = dict(enumerate(colors))
            want = not any(all(colors[p[v]] == colors[v] for v in range(t.n))
                           for p in perms)
            assert distinguishes(t, phi) == want
            assert distinguishes(rt, _with_synthetic(rt, phi)) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(1, 4), st.randoms(use_true_random=False))
def test_distinguishes_matches_oracle_random(n, k, rnd):
    t = random_tree(n, seed=rnd.random())
    phi = {v: rnd.randint(1, k) for v in range(n)}
    assert distinguishes(t, phi) == is_distinguishing(t, phi)
    rt = to_rooted(t)
    ext = _with_synthetic(rt, phi, rnd.randint(1, k))
    assert distinguishes(rt, ext) == is_distinguishing(rt, ext)
    # any root: the root-preserving group of that rooted view
    other = RootedTree(t, rnd.randrange(n))
    assert distinguishes(other, phi) == is_distinguishing(other, phi)


def test_distinguishes_edge_center_swap():
    # the two halves of P4 swap unless their colored shapes differ
    t = path(4)
    assert not distinguishes(t, dict(enumerate((1, 2, 2, 1))))
    assert distinguishes(t, dict(enumerate((1, 2, 1, 1))))
    assert distinguishes(t, dict(enumerate((1, 1, 1, 2))))
    assert not distinguishes(path(2), {0: 3, 1: 3})


def test_distinguishes_missing_vertex():
    t = path(4)
    rt = to_rooted(t)
    phi = {v: 1 for v in range(t.n)}
    with pytest.raises(ValueError):
        distinguishes(t, {v: 1 for v in range(t.n - 1)})
    # the rooted reduction's synthetic root is a vertex of that rooted tree
    with pytest.raises(ValueError):
        distinguishes(rt, phi)
    with pytest.raises(ValueError):
        is_distinguishing(rt, phi)
    # the least missing vertex is named, however many keys the map has
    gaps = {v: 1 for v in range(t.n + 3) if v not in (1, 2)}
    with pytest.raises(ValueError, match=r"^coloring misses vertex 1$"):
        distinguishes(t, gaps)



# the shapes of the bench's witness-deep workload (its random tree drawn
# here), and two smaller random trees
_WITNESS_DEEP = {
    "vpath-10001": lambda: path(10_001),
    "epath-10000": lambda: path(10_000),
    "caterpillar-2501x3": lambda: _caterpillar(2501, 3),
    "spider-4x2500": lambda: spider(*[2500] * 4),
    "binary-h13": lambda: _complete_binary(13),
    "vpath-501": lambda: path(501),
    "epath-500": lambda: path(500),
    "caterpillar-301x3": lambda: _caterpillar(301, 3),
    "spider-10x100": lambda: spider(*[100] * 10),
    "binary-h9": lambda: _complete_binary(9),
    "prufer-100000": lambda: random_tree(100_000, seed="verify-prufer"),
    "prufer-1000": lambda: random_tree(1000, seed="verify-1000"),
    "prufer-10000": lambda: random_tree(10_000, seed="verify-10000"),
}


def _equal_pair(rt, phi, where):
    """``phi`` with one child's subtree colored as a sibling of its class
    is, below the first vertex of ``rt`` that has such a pair of leaves
    (``where="leaves"``), such a pair at half the height (``"mid"``) or at
    the root (``"root"``); None when no vertex has one.  On a
    distinguishing ``phi`` that vertex then holds the first equal pair."""
    ids, grouped, span, depth = rt.code_ids(), rt._grouped(), rt._child_span, rt.depth
    mid = max(depth) // 2
    at = {"leaves": lambda p, c: c == 0, "mid": lambda p, c: depth[p] == mid,
          "root": lambda p, c: p == rt.root}[where]
    for p in rt.bfs_order:
        kids = grouped[span[2 * p]:span[2 * p + 1]]
        pair = next(((a, b) for a, b in zip(kids, kids[1:])
                     if ids[a] == ids[b] and at(p, ids[a])), None)
        if pair is None:
            continue
        out = dict(phi)
        # members of one class pair off in sibling order, level by level
        stack = [pair]
        while stack:
            a, b = stack.pop()
            out[b] = out[a]
            stack.extend(zip(grouped[span[2 * a]:span[2 * a + 1]],
                             grouped[span[2 * b]:span[2 * b + 1]]))
        return out
    return None


@pytest.mark.parametrize("shape", list(_WITNESS_DEEP))
def test_distinguishes_matches_reference(shape):
    # the shared kernel against the per-vertex loop it replaced, on
    # distinguishing and non-distinguishing colorings, on the input tree,
    # its center-rooted view with the synthetic root colored, and the view
    # rooted at vertex 0; recoloring only the root never flips a verdict
    t = _WITNESS_DEEP[shape]()
    rt = to_rooted(t)
    rng = random.Random(f"verify-{shape}")
    witness = construct_distinguishing_coloring(t).colors
    colorings = [witness]
    colorings += [{v: rng.randint(1, k) for v in range(t.n)} for k in (2, 3, 4)]
    if rt.subdivided:
        witness = {**witness, rt.root: 1}
    pairs = [_equal_pair(rt, witness, where) for where in ("leaves", "mid", "root")]
    assert any(pairs) and (all(pairs) or not shape.startswith("binary"))
    for phi in filter(None, pairs):
        assert not reference.distinguishes(rt, phi)
        colorings.append({v: c for v, c in phi.items() if v < t.n})
    verdicts = set()
    for phi in colorings:
        for view in (t, rt, RootedTree(t, 0)):
            col = _with_synthetic(view, phi) if view is rt else phi
            want = reference.distinguishes(view, col)
            assert distinguishes(view, col) == want
            verdicts.add(want)
            root = view.root if isinstance(view, RootedTree) else rt.root
            if root < t.n or view is rt:
                flipped = {**col, root: col[root] % 4 + 1}
                assert distinguishes(view, flipped) == want
                assert reference.distinguishes(view, flipped) == want
    assert verdicts == {True, False}


# -- serialisation ----------------------------------------------------------------

def test_edge_list_roundtrip():
    for t in all_trees_up_to(7):
        back = parse_tree(to_edge_list(t))
        assert labeled_edges(back) == labeled_edges(t)
        assert set(back.labels) == set(t.labels)


def test_parens_roundtrip():
    for t in all_trees_up_to(7):
        rt = to_rooted(t)
        back = parse_tree(to_parens(rt), fmt="parens")
        assert to_parens(back) == to_parens(rt)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 24), st.randoms(use_true_random=False))
def test_roundtrip_random_trees(n, rnd):
    t = tree_from_prufer([rnd.randrange(n) for _ in range(n - 2)])
    back = parse_tree(to_edge_list(t))
    assert labeled_edges(back) == labeled_edges(t)
    rt = to_rooted(t)
    assert parse_tree(to_parens(rt), fmt="parens").n == rt.n


# -- the flat front end against the per-vertex reference ----------------------


def _shuffled_text(t, rng) -> str:
    # the tree as edge-list text with fresh labels, shuffled line order and
    # endpoint order
    names = [f"v{i}" for i in rng.sample(range(10 * t.n), t.n)]
    lines = [f"{names[u]} {names[v]}" if rng.random() < 0.5 else f"{names[v]} {names[u]}"
             for u, v in t.edges]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n" if lines else names[0] + "\n"


def _assert_rooted_matches(rt, ref):
    assert list(rt.parent) == ref["parent"]
    assert list(rt.depth) == ref["depth"]
    assert list(rt.bfs_order) == ref["bfs_order"]
    assert list(rt.children) == ref["children"]
    assert list(rt.code_ids()) == ref["ids"]
    owner, kids, mults = rt.class_structure()
    pairs = [()] * rt.class_count()
    for cid, run in itertools.groupby(zip(owner, kids, mults), key=lambda p: p[0]):
        pairs[cid] = tuple((c, m) for _, c, m in run)
    assert pairs == ref["pairs"]
    assert list(owner) == sorted(owner)
    assert rt.class_count() == ref["classes"]
    assert rt.leaf_bound() == ref["leaf_bound"]


def _assert_front_matches(text: str, all_roots: bool):
    labels, edges = reference.parse_edge_list(text)
    t = parse_tree(text)
    assert list(t.labels) == labels
    assert t.edges == tuple(reference.check_tree(labels, edges))
    adj = reference.neighbours(t.n, edges)
    assert [list(t._adj[t._adj_off[v]:t._adj_off[v + 1]]) for v in range(t.n)] == adj
    ctr = reference.tree_center(adj)
    assert center(t) == ctr
    c = sorted(ctr)
    rt = to_rooted(t)
    if len(c) == 1:
        assert not rt.subdivided
        _assert_rooted_matches(rt, reference.rooted(adj, c[0]))
    else:
        assert rt.subdivided and rt.halves == tuple(c)
        _assert_rooted_matches(rt, reference.rooted(adj, t.n, tuple(c)))
    for r in range(t.n) if all_roots else ():
        _assert_rooted_matches(RootedTree(t, r), reference.rooted(adj, r))


def test_front_end_matches_reference_small():
    rng = random.Random("front-small")
    for t in all_trees_up_to(9):
        for _ in range(3):
            _assert_front_matches(_shuffled_text(t, rng), all_roots=True)


@pytest.mark.parametrize("n", [1000, 10_000])
def test_front_end_matches_reference_prufer(n):
    rng = random.Random(f"front-{n}")
    _assert_front_matches(_shuffled_text(random_tree(n, seed=f"front-{n}"), rng),
                          all_roots=False)


_PARSE_ERRORS = [
    ("self-loop", "a b\nb b\n", "self-loop at 'b'"),
    ("self-loop-among-n-1-edges", "a b\nc c\n", "self-loop at 'c'"),
    ("duplicate-among-n-1-edges", "a b\nb a\nc\n", "duplicate edge 'b' 'a'"),
    ("duplicate", "a b\nb c\nc b\n", "duplicate edge 'c' 'b'"),
    ("cycle-before-self-loop", "a b\nb c\nc a\nd d\n", "cycle detected at edge 'c' 'a'"),
    ("disconnected", "a b\nc d\n", "disconnected input: no path between 'a' and 'c'"),
    ("lone-label", "a b\nc\n", "disconnected input: no path between 'a' and 'c'"),
    ("lone-label-repeated", "a\na b\na\n", None),
    ("comments", "# a path\na b\n  # b x\nb c\n", None),
    ("hash-inside-a-line", "a #b\n#b c\n", None),
    ("comments-only", "# nothing\n\n", "empty input: a tree needs at least one vertex"),
    ("blank-lines", "\n\na b\n\n \t\nb c\n\n", None),
    ("bom", "\ufeffa b\nc d\n", "disconnected input: no path between '\\ufeffa' and 'c'"),
    ("three-tokens", "a b\na b c\n", "line 2: expected two whitespace-separated labels, got 3"),
    ("three-tokens-after-cycle", "a b\nb a\nx y z\n",
     "line 3: expected two whitespace-separated labels, got 3"),
    ("form-feed-splits-lines", "a\x0cb\nb c\n", "disconnected input: no path between 'a' and 'b'"),
    ("carriage-returns", "a b\r\nb c\rc d\n", None),
]


@pytest.mark.parametrize("text,message", [c[1:] for c in _PARSE_ERRORS],
                         ids=[c[0] for c in _PARSE_ERRORS])
def test_parse_error_parity(text, message):
    # the flat parser answers, or fails with the same message, exactly as
    # the per-line parser and union-find do
    if message is None:
        labels, edges = reference.parse_edge_list(text)
        t = parse_tree(text)
        assert list(t.labels) == labels
        assert t.edges == tuple(tuple(sorted(e)) for e in edges)
        return
    err = TreeSyntaxError if message.startswith("line") else InvalidTreeError
    with pytest.raises(err) as ref:
        reference.parse_edge_list(text)
    assert str(ref.value) == message
    with pytest.raises(err) as got:
        parse_tree(text)
    assert str(got.value) == message


# -- the chunked tokenizer against the line-by-line reader --------------------

# pairs over several tokenizer chunks, one label per line new
_PAIRS = "".join(f"x{i} x{i + 1}\n" for i in range(6000))

_TOKENIZER_CASES = [
    ("pairs", "a b\nb c\nc d\n"),
    ("blank-and-comment-lines", "\n# a path\na b\n\n  # b x\nb c\n \t\n"),
    ("labels-with-hash", "a#1 b#\nb# #c\n"),
    ("comment-between-pairs", "a b\n#c d\nb c\n"),
    ("lone-labels", "a\na b\nc\nb c\n"),
    # two line ends in a row after a lone label fill three token slots
    ("lone-label-then-blank-line", "a b\nb\n\n"),
    ("lone-label-after-pairs", _PAIRS + "z\n"),
    ("one-vertex", "solo\n"),
    ("one-vertex-no-newline", "solo"),
    ("three-tokens-first-chunk", "a b\nb c d\nc e\n"),
    ("three-tokens-after-boundary", _PAIRS + "p q r\n"),
    ("crlf", "a b\r\nb c\r\nc d\r\n"),
    ("lone-cr", "a b\rb c\rc d\r"),
    ("cr-splits-a-pair", "a\rb\nb c\n"),
    ("vertical-tab", "a\x0bb\nb c\n"),
    ("form-feed", "a b\x0cb c\n"),
    ("separators-1c-1e", "a b\x1cb c\x1dc d\x1ed e\n"),
    ("next-line", "a b\x85b c\n"),
    ("line-separator", "a b\u2028b c\n"),
    ("paragraph-separator", "a b\u2029b c\n"),
    ("tabs", "a\tb\n\tb \t c\t\n"),
    ("unicode-spaces", "a\xa0b\nb\u3000c\n"),
    ("nul-in-label", "a b\nb\x00 c\n"),
    ("no-final-newline", "a b\nb c"),
    ("empty", ""),
    ("whitespace-only", " \t \n  \n"),
    ("new-labels-in-later-chunks", _PAIRS + "".join(f"y{i} x{i}\n" for i in range(3000))),
    ("cycle-after-boundary", _PAIRS + "x0 x6000\n"),
]


def _parse_outcome(text: str):
    # labels, edges and center of a parse, or the type and text of its error
    try:
        t = parse_tree(text)
    except (TreeSyntaxError, InvalidTreeError) as exc:
        return type(exc), str(exc)
    return t.labels, t.edges, center(t)


def _reference_outcome(text: str):
    try:
        labels, edges = reference.parse_edge_list(text)
    except (TreeSyntaxError, InvalidTreeError) as exc:
        return type(exc), str(exc)
    return (tuple(labels), tuple(tuple(sorted(e)) for e in edges),
            reference.tree_center(reference.neighbours(len(labels), edges)))


@pytest.mark.parametrize("text", [c[1] for c in _TOKENIZER_CASES],
                         ids=[c[0] for c in _TOKENIZER_CASES])
def test_tokenizer_matches_line_reader(text, monkeypatch):
    # the split check and the line-by-line reader answer alike, at any
    # chunk size, and as the independent per-line reference does
    assert trees._CHUNK < len(_PAIRS) // 2
    expected = _reference_outcome(text)
    assert _parse_outcome(text) == expected
    for size in (1, 7, 64):
        monkeypatch.setattr(trees, "_CHUNK", size)
        assert _parse_outcome(text) == expected
    monkeypatch.setattr(trees, "_pairs", lambda chunk: None)
    assert _parse_outcome(text) == expected


def test_tokenizer_reports_the_true_line_past_chunks():
    with pytest.raises(TreeSyntaxError,
                       match="^line 6001: expected two whitespace-separated labels, got 3$"):
        parse_tree(_PAIRS + "p q r\n")


def test_parse_memory_per_vertex():
    # the tokenizer holds one chunk of tokens, not every line and token of
    # the text; a parser holding them all took about 209 B per vertex here
    text = to_edge_list(random_tree(20_000, seed="mem"))
    tracemalloc.start()
    try:
        t = parse_tree(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / t.n <= 150


@pytest.mark.parametrize("labels,edges,message", [
    (["a", "b"], [(0, 5)], "edge (0,5) references unknown vertex ids"),
    (["a", "b", "c"], [(0, 0), (1, 7)], "self-loop at 'a'"),
    (["a", "b", "c"], [(0, 1), (-1, 2)], "edge (-1,2) references unknown vertex ids"),
    (["a", "b", "c"], [(0, 1), (1, 0), (1, 2)], "duplicate edge 'b' 'a'"),
    (["a", "b", "c", "d"], [(0, 1), (2, 3)], "disconnected input: no path between 'a' and 'c'"),
    (["a", "a"], [(0, 1)], "vertex labels must be unique"),
    ([], [], "empty input: a tree needs at least one vertex"),
], ids=["out-of-range", "self-loop-first", "negative", "duplicate", "disconnected", "labels",
        "empty"])
def test_tree_error_parity(labels, edges, message):
    with pytest.raises(InvalidTreeError) as ref:
        reference.check_tree(labels, edges)
    assert str(ref.value) == message
    with pytest.raises(InvalidTreeError) as got:
        Tree(labels, edges)
    assert str(got.value) == message


def test_front_end_memory_scales_linearly():
    # parse, root and intern keep flat arrays: 10x the vertices may cost
    # at most 12x the traced peak
    peaks = []
    for n in (10_000, 100_000):
        text = to_edge_list(random_tree(n, seed="front-memory"))
        tracemalloc.start()
        try:
            to_rooted(parse_tree(text)).code_ids()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 12 * peaks[0]


def test_tree_validation_direct():
    with pytest.raises(InvalidTreeError):
        Tree([], [])
    with pytest.raises(InvalidTreeError):
        Tree(["a", "a"], [(0, 1)])
    with pytest.raises(InvalidTreeError):
        Tree(["a", "b", "c"], [(0, 1)])
    with pytest.raises(InvalidTreeError):
        Tree(["a", "b"], [(0, 5)])
