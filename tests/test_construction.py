import gc
import time
import tracemalloc
import weakref
from math import comb

import pytest

from treesym import (
    Certificate,
    Coloring,
    CountTable,
    RootedTree,
    Tree,
    brute_chromatic_distinguishing_number,
    brute_count_classes,
    brute_distinguishing_number,
    chi_certificate,
    coloring_orbit_form,
    construct_distinguishing_coloring,
    construct_proper_distinguishing_coloring,
    count_distinguishing,
    distinguishing_chromatic_number,
    distinguishing_number,
    distinguishes,
    enumerate_automorphisms,
    is_distinguishing,
    is_proper,
    parse_tree,
    properize,
    rank_distinguishing,
    to_edge_list,
    to_rooted,
    unrank_distinguishing,
)
from treesym import construction, counting
from treesym.construction import _subset_unrank_desc, parameters
from treesym.cli import _analyze_one
from treesym.errors import (
    CountIndexError,
    NoColoringError,
    NotDistinguishingError,
    SaturatedCountError,
)
from treesym.counting import BigCount
from treesym.families import (
    all_trees_up_to,
    double_star,
    nonisomorphic_rooted_trees,
    path,
    random_tree,
    single_vertex,
    spider,
    star,
)

import reference
from conftest import tree_from
from reference import extract_subtree, is_isomorphic_rooted


def leaf_rt():
    return to_rooted(single_vertex())


# -- parameters ---------------------------------------------------------------

def test_distinguishing_number_examples():
    assert distinguishing_number(single_vertex()) == 1
    assert distinguishing_number(path(2)) == 2 == brute_distinguishing_number(path(2))
    assert distinguishing_number(star(3)) == 3 == brute_distinguishing_number(star(3))
    assert distinguishing_number(path(6)) == 2 == brute_distinguishing_number(path(6))


def test_chromatic_number_examples():
    assert distinguishing_chromatic_number(single_vertex()) == 1
    assert distinguishing_chromatic_number(path(3)) == 3
    assert brute_chromatic_distinguishing_number(path(3)) == 3
    assert distinguishing_chromatic_number(path(4)) == 2
    assert brute_chromatic_distinguishing_number(path(4)) == 2
    ds = double_star(2, 2)
    assert distinguishing_chromatic_number(ds) == 3
    assert brute_chromatic_distinguishing_number(ds) == 3


def test_parameters_accept_rooted_input():
    rt = to_rooted(star(3))
    assert distinguishing_number(rt) == 3
    assert distinguishing_chromatic_number(rt) == 4


def test_parameter_search_pass_counts(monkeypatch):
    rows = []
    real = counting._pinned_pass

    def counted(rt, a, icap):
        rows.append(a)
        return real(rt, a, icap)

    monkeypatch.setattr(counting, "_pinned_pass", counted)
    # the criterion-8 trees: the leaf bound is D, so one pass finds it
    for n, d in ((10_000, 5), (100_000, 6)):
        t = random_tree(n, seed="acceptance-perf")
        assert to_rooted(t).leaf_bound() == d
        rows.clear()
        assert distinguishing_number(t) == d
        assert rows == [d]
    # D, chi_D and the certificate share one table
    t = random_tree(10_000, seed="pass-count")
    rows.clear()
    _analyze_one(t, witness=False, counts_k=None)
    assert 1 <= len(rows) <= 4
    # an odd path: D = 2 from the probe at k = 1, and chi_D = 3 reads the
    # rows a = 1 (proper at D) and a = 2 (proper at D + 1) the D search built
    rows.clear()
    assert parameters(path(7))[:2] == (2, 3)
    assert sorted(rows) == [1, 2]


@pytest.mark.parametrize("m, d", [(5, 3), (10, 4), (82, 10), (1000, 32)])
def test_spider_parameters_past_the_linear_probes(monkeypatch, m, d):
    # m legs of length 2: each leg has d^2 colorings and (d - 1)^2 proper
    # ones, so D = ceil(sqrt(m)) from leaf bound 1, and chi_D = D + 1 with
    # the legs as the certificate's class
    probes = []
    real = construction._least_positive_k

    def traced(positive, start=1, limit=None):
        return real(lambda k: probes.append(k) or positive(k), start, limit)

    monkeypatch.setattr(construction, "_least_positive_k", traced)
    t = spider(*[2] * m)
    assert to_rooted(t).leaf_bound() == 1
    d_found, chi, cert = parameters(t)
    assert (d_found, chi) == (d, d + 1)
    assert cert is not None and not cert.degenerate
    assert cert.vertex == 0 and len(cert.children) == m and cert.k == d
    if m == 82:
        # the first spider to leave the linear probes: doubling, then bisection
        assert probes[:13] == [*range(1, 10), 18, 13, 11, 10]


def test_least_positive_k_finds_every_threshold():
    for threshold in range(1, 301):
        for start in range(1, 6):
            assert (construction._least_positive_k(lambda k: k >= threshold, start)
                    == max(threshold, start))
    with pytest.raises(NoColoringError, match="^no positive count for any k <= 40$"):
        construction._least_positive_k(lambda k: False, 1, limit=40)


def test_witnesses_reuse_the_parameter_passes(monkeypatch):
    passes = []
    real = counting._pinned_pass

    def counted(rt, a, icap):
        passes.append((a, icap))
        return real(rt, a, icap)

    tables = []
    real_init = CountTable.__init__

    def tracked(self, *args, **kwargs):
        tables.append(weakref.ref(self))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(counting, "_pinned_pass", counted)
    monkeypatch.setattr(CountTable, "__init__", tracked)
    # a witness at the parameter reads the rows its own search built, on
    # one saturating table, and never an exact row; an analysis builds
    # each row once, for the searches and both witnesses
    for t in (random_tree(2000, seed="witness-passes"), path(41), path(40),
              star(5), double_star(2, 2)):
        for param, witness in ((distinguishing_number, construct_distinguishing_coloring),
                               (distinguishing_chromatic_number,
                                construct_proper_distinguishing_coloring)):
            passes.clear()
            param(t)
            searched = list(passes)
            passes.clear()
            witness(t)
            assert passes == searched
        for counts_k in (None, 2):
            passes.clear()
            tables.clear()
            gc.disable()
            try:
                _analyze_one(t, witness=True, counts_k=counts_k)
                # with the cyclic collector off, reference counting alone
                # frees every table the analysis built once it returns
                assert tables and all(ref() is None for ref in tables)
            finally:
                gc.enable()
            if counts_k is None:
                assert passes and all(icap is not None for _, icap in passes)
                assert len({a for a, _ in passes}) == len(passes)


def test_witness_memory_linear_on_paths():
    # exact rows on a path grow quadratically in bits; the witness's
    # saturating rows must not
    peaks = []
    for n in (10001, 20001):
        t = path(n)
        to_rooted(t).code_ids()
        tracemalloc.start()
        try:
            construct_distinguishing_coloring(t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0]


# -- unrank / rank ----------------------------------------------------------------

def test_unrank_leaf():
    assert unrank_distinguishing(leaf_rt(), 3, 1).colors == {0: 2}


def test_unrank_star2_classes_differ():
    rt = to_rooted(star(2))
    a = unrank_distinguishing(rt, 2, 0)
    b = unrank_distinguishing(rt, 2, 1)
    assert is_distinguishing(rt, a) and is_distinguishing(rt, b)
    assert coloring_orbit_form(rt, a) != coloring_orbit_form(rt, b)
    # an exact count is read as its value
    assert unrank_distinguishing(rt, 2, BigCount(1, False, 2)) == b


def test_unrank_bad_index():
    rt = to_rooted(star(2))
    with pytest.raises(CountIndexError):
        unrank_distinguishing(rt, 2, 2)
    with pytest.raises(CountIndexError):
        unrank_distinguishing(rt, 1, 0)
    # a negative index is refused before any count is taken
    for build in (construct_distinguishing_coloring,
                  construct_proper_distinguishing_coloring):
        with pytest.raises(CountIndexError, match="index -1 is negative"):
            build(path(9), 3, -1)


@pytest.mark.parametrize("proper, t, k, index, error, message", [
    (False, star(3), 2, 0, NoColoringError,
     "no distinguishing 2-coloring exists; need at least 3 colors"),
    (True, star(3), 3, 0, NoColoringError,
     "no proper distinguishing 3-coloring exists; need at least 4 colors"),
    (True, path(4), 1, 0, NoColoringError,
     "no proper distinguishing 1-coloring exists; need at least 2 colors"),
    (True, path(4), 2, 1, CountIndexError, "index 1 outside [0, 1)"),
    # past every count: vertex- and edge-centered, plain and proper
    (False, path(4), 2, 10**6, CountIndexError, "index 1000000 outside [0, 6)"),
    (False, path(5), 2, 10**6, CountIndexError, "index 1000000 outside [0, 12)"),
    (True, path(5), 3, 10**6, CountIndexError, "index 1000000 outside [0, 18)"),
])
def test_witness_error_messages(proper, t, k, index, error, message):
    build = (construct_proper_distinguishing_coloring if proper
             else construct_distinguishing_coloring)
    with pytest.raises(error) as exc:
        build(t, k, index)
    assert str(exc.value) == message


def test_unrank_rejects_saturated_index():
    rt = to_rooted(star(2))
    with pytest.raises(SaturatedCountError):
        unrank_distinguishing(rt, 2, BigCount(1, True, 1))


def test_rank_leaf():
    assert rank_distinguishing(leaf_rt(), 3, {0: 2}).value == 1


def test_rank_unrank_roundtrip_small():
    for n in range(1, 7):
        for rt in nonisomorphic_rooted_trees(n):
            for k in (2, 3):
                total = count_distinguishing(rt, k).value
                for i in range(total):
                    col = unrank_distinguishing(rt, k, i)
                    assert rank_distinguishing(rt, k, col).value == i


def _walk(table, k, proper, start, color, idx) -> dict:
    out = [None] * table.rt.n
    construction._unrank(table, k, proper, start, color, idx, out)
    return {v: c for v, c in enumerate(out) if c is not None}


def _binary(height: int) -> Tree:
    n = 2 ** (height + 1) - 1
    return Tree([str(i) for i in range(n)], [((i - 1) // 2, i) for i in range(1, n)])


def _differential_views():
    for t in all_trees_up_to(9):
        yield to_rooted(t)
        yield RootedTree(t, 0)
    caterpillar = Tree([str(i) for i in range(60)],
                       [(i, i + 1) for i in range(14)] + [(i % 15, i) for i in range(15, 60)])
    for t in (path(2001), path(2000), caterpillar, spider(9, 9, 9, 4, 4), _binary(6)):
        yield to_rooted(t)


def test_walkers_match_the_per_vertex_reference():
    # the unrank walker on walk plans against the per-vertex walker, from
    # every start it is called at, on the saturating table a witness at
    # that index reads; and the rank against Horner's rule.  Past nine
    # vertices every third of the first 40 indices keeps the test short
    for rt in _differential_views():
        first = range(0, 40, 1 if rt.n <= 10 else 3)
        d, chi, _ = parameters(rt)
        exact = CountTable(rt)
        for proper in (False, True):
            for k in sorted({d, chi, chi + 1}):
                row = exact.row(k - 1 if proper else k)
                for start in (rt.root, *rt.halves):
                    total = row[rt.code_id(start)]
                    # past n a table clamps above the index, so the last
                    # indices and 10^30 walk rows clamped there
                    picks = {*first, rt.n - 1, rt.n, total // 2, total - 1, total, 10**30}
                    for idx in sorted(i for i in picks if 0 <= i <= total):
                        table = construction._table(rt, idx)
                        for color in ({1, k} if proper else {1}):
                            if idx == total:
                                with pytest.raises(CountIndexError):
                                    _walk(table, k, proper, start, color, idx)
                                with pytest.raises(CountIndexError):
                                    reference.unrank(table, k, proper, start, color, idx)
                            else:
                                assert (_walk(table, k, proper, start, color, idx)
                                        == reference.unrank(table, k, proper, start, color, idx))
                if proper:
                    continue
                # the plain unrank and rank, led by the root color
                total = k * row[rt.code_id(rt.root)]
                for idx in sorted({*first, total - 1, 10**30}):
                    if 0 <= idx < total:
                        col = unrank_distinguishing(rt, k, idx)
                        f = construction._table(rt, idx).row(k)[rt.code_id(rt.root)]
                        assert col.colors == reference.unrank(
                            construction._table(rt, idx), k, False, rt.root,
                            idx // f + 1, idx % f)
                        assert (rank_distinguishing(rt, k, col).value
                                == reference.rank(rt, k, col.colors) == idx)


def test_witness_walkers_read_no_sibling_classes(monkeypatch):
    # unrank, rank and both witnesses read the flat sibling order through
    # walk plans, never through the per-call sibling_classes lists
    def refuse(self, v):
        raise AssertionError("a walker asked for sibling_classes")

    monkeypatch.setattr(RootedTree, "sibling_classes", refuse)
    for t in (random_tree(300, seed="no-sibling-lists"), path(41), path(40),
              spider(3, 3, 2), double_star(2, 2)):
        for rt in (to_rooted(t), RootedTree(t, 0)):
            k = distinguishing_number(rt) + 1
            col = unrank_distinguishing(rt, k, 1)
            assert rank_distinguishing(rt, k, col).value == 1
            # a witness colors the input tree, which a subdivided view is not
            judge = t if rt.subdivided else rt
            assert distinguishes(judge, construct_distinguishing_coloring(rt))
            col = construct_proper_distinguishing_coloring(rt)
            assert distinguishes(judge, col) and is_proper(judge, col)


def _subset_unrank_linear(r: int, m: int) -> list:
    # each element by a linear scan: the largest c with C(c, i) <= r
    out = []
    for i in range(m, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= r:
            c += 1
        out.append(c)
        r -= comb(c, i)
    return out


def test_subset_unrank_matches_linear_search():
    for m in range(7):
        for r in range(comb(20, m)):
            assert _subset_unrank_desc(r, m) == _subset_unrank_linear(r, m)


@pytest.mark.parametrize("t", [path(41), random_tree(120, seed="last-index")],
                         ids=["path-41", "prufer-120"])
def test_last_index_unranks_fast(t):
    # the index's value may be astronomically larger than its bit length
    k = distinguishing_number(t)
    last = CountTable(to_rooted(t)).tree_distinguishing(k) - 1
    start = time.perf_counter()
    col = construct_distinguishing_coloring(t, k, last)
    assert time.perf_counter() - start < 1.0
    assert distinguishes(t, col)
    if not to_rooted(t).subdivided:
        assert rank_distinguishing(to_rooted(t), k, col).value == last
    with pytest.raises(CountIndexError):
        construct_distinguishing_coloring(t, k, last + 1)


def test_equivalent_colorings_share_rank():
    rt = to_rooted(star(3))
    col = unrank_distinguishing(rt, 3, 1)
    base = rank_distinguishing(rt, 3, col).value
    for a in enumerate_automorphisms(rt).elements:
        moved = Coloring({a.perm[v]: c for v, c in col.colors.items()})
        assert rank_distinguishing(rt, 3, moved).value == base


def test_rank_rejects_non_distinguishing():
    rt = to_rooted(star(2))
    with pytest.raises(NotDistinguishingError):
        rank_distinguishing(rt, 2, {0: 1, 1: 2, 2: 2})


def test_rank_rejects_bad_palette():
    rt = to_rooted(star(2))
    with pytest.raises(ValueError):
        rank_distinguishing(rt, 2, {0: 1, 1: 2, 2: 3})


def _pinned_proper(rt, k, color, i):
    # the i-th proper class with the root colored ``color``: the root color
    # leads the index, f classes each
    f = CountTable(rt).proper_raw(rt.root, k)
    return construct_proper_distinguishing_coloring(rt, k, (color - 1) * f + i)


def test_unrank_proper_examples(p3):
    assert _pinned_proper(leaf_rt(), 3, 2, 0).colors == {0: 2}
    rt = to_rooted(p3)
    col = _pinned_proper(rt, 3, 1, 0)
    assert col.colors[rt.root] == 1
    assert sorted(col.colors[c] for c in reference.children(rt)[rt.root]) == [2, 3]
    assert is_proper(rt, col) and is_distinguishing(rt, col)
    with pytest.raises(NoColoringError):
        _pinned_proper(rt, 2, 1, 0)


def test_unrank_proper_is_proper_everywhere():
    # every root color and index gives a proper distinguishing coloring, no
    # two of them equivalent, as many as brute force counts
    for n in range(1, 8):
        for rt in nonisomorphic_rooted_trees(n):
            table = CountTable(rt)
            for k in (1, 2, 3):
                pinned = table.proper_raw(rt.root, k)
                forms = set()
                for color in range(1, k + 1):
                    for i in range(pinned):
                        col = _pinned_proper(rt, k, color, i)
                        assert col.colors[rt.root] == color
                        assert is_proper(rt, col)
                        assert is_distinguishing(rt, col)
                        forms.add(coloring_orbit_form(rt, col))
                with pytest.raises(CountIndexError if pinned else NoColoringError):
                    construct_proper_distinguishing_coloring(rt, k, k * pinned)
                assert len(forms) == k * pinned
                assert k * pinned == brute_count_classes(rt, k, proper=True).value


# -- properize -----------------------------------------------------------------

def test_properize_star_example():
    rt = to_rooted(star(2))
    out = properize(rt, {0: 1, 1: 1, 2: 2})
    assert out.colors == {0: 1, 1: 0, 2: 2}
    assert is_proper(rt, out) and is_distinguishing(rt, out)


def test_properize_keeps_already_proper():
    rt = to_rooted(path(3))
    col = _pinned_proper(rt, 3, 1, 0)
    assert properize(rt, col).colors == col.colors


def test_properize_requires_total():
    rt = to_rooted(star(2))
    with pytest.raises(ValueError):
        properize(rt, {0: 1})


def test_properize_local_structure():
    # adjacent repaired colors differ, and repaired ties between siblings
    # only occur where the original colors already tied
    for t in all_trees_up_to(8):
        rt = to_rooted(t)
        d = distinguishing_number(rt)
        base = unrank_distinguishing(rt, d, 0)
        out = properize(rt, base)
        for u, v in rt.base.edges:
            assert out.colors[u] != out.colors[v]
        for kids in reference.children(rt):
            for i, a in enumerate(kids):
                for b in kids[i + 1:]:
                    if out.colors[a] == out.colors[b]:
                        assert base.colors[a] == base.colors[b]


# -- certificates -----------------------------------------------------------------

def test_certificate_star3():
    cert = chi_certificate(star(3))
    assert cert is not None and not cert.degenerate
    assert cert.k == 3
    assert cert.vertex == 0
    assert sorted(cert.children) == [1, 2, 3]


def test_certificate_absent_for_p6():
    assert chi_certificate(path(6)) is None


def test_certificate_single_edge():
    # both parameters equal 2 here, so no certificate may appear
    assert brute_distinguishing_number(path(2)) == 2
    assert brute_chromatic_distinguishing_number(path(2)) == 2
    assert chi_certificate(path(2)) is None


def test_certificate_degenerate():
    t = tree_from(("a", "b"), ("b", "c"), ("c", "d"), ("c", "e"), ("e", "f"), ("f", "g"))
    assert distinguishing_number(t) == 1
    cert = chi_certificate(t)
    assert cert is not None and cert.degenerate and cert.k == 1


def test_certificate_matches_parameters_small():
    for t in all_trees_up_to(7):
        d = distinguishing_number(t)
        chi = distinguishing_chromatic_number(t)
        assert chi in (d, d + 1)
        cert = chi_certificate(t)
        assert (cert is not None) == (chi == d + 1)
        assert parameters(t) == (d, chi, cert)
        if cert is not None and not cert.degenerate:
            rt = to_rooted(t)
            members = cert.children
            rep = extract_subtree(rt, members[0])
            for m in members[1:]:
                assert is_isomorphic_rooted(rep, extract_subtree(rt, m))
            table = CountTable(rt)
            pool = (cert.k - 1) * table.proper_raw(members[0], cert.k)
            assert pool < len(members)


def _short_classes(rt, k):
    # the certificate's definition: the first vertex in BFS order with a
    # sibling class that outgrows its pool of proper classes, and its short
    # classes in sibling-class order, the first of which is the certificate's
    row = CountTable(rt).row(k - 1)
    for v in rt.bfs_order:
        short = [tuple(members) for cid, members in rt.sibling_classes(v)
                 if (k - 1) * row[cid] < len(members)]
        if short:
            return v, short
    return None


def test_certificate_is_first_short_class():
    seen = ranked = 0
    for t in all_trees_up_to(10):
        t = Tree(t.labels, t.edges)  # no view shared with earlier checks
        for rt in (to_rooted(t), RootedTree(t, 0)):
            cert = chi_certificate(rt)
            if cert is not None and not cert.degenerate:
                ordered = rt._order is not None
                v, short = _short_classes(rt, cert.k)
                assert (cert.vertex, cert.children) == (v, short[0])
                # only a choice between short classes reads the global order
                assert ordered == (len(short) > 1)
                seen += 1
                ranked += ordered
    assert seen > 100 and ranked > 0


@pytest.mark.parametrize("t", [path(501), spider(250, 250, 250, 250), _binary(7)],
                         ids=["path", "spider", "binary"])
def test_lone_short_class_needs_no_class_order(monkeypatch, t):
    # the certificate vertex of each of these has one short class
    expected = parameters(t)
    assert expected[2] is not None and not expected[2].degenerate

    def refuse(self):
        raise AssertionError("the global class order was built")

    monkeypatch.setattr(RootedTree, "_class_order", refuse)
    assert parameters(t) == expected


def test_certificate_with_two_short_classes():
    # the smallest tree whose certificate vertex has two short sibling
    # classes: {1, 2} comes before the leaves {3, 4} in code order, in
    # whichever order the edges list them
    for edges in ([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6)],
                  [(0, 3), (0, 4), (0, 1), (0, 2), (1, 5), (2, 6)]):
        t = Tree([str(i) for i in range(7)], edges)
        for rt in (to_rooted(t), RootedTree(t, 0)):
            assert chi_certificate(rt) == Certificate(0, (1, 2), 2)


def test_flat_sibling_order_is_built_by_walkers_only():
    # parsing, count passes, the parameter searches and the certificate read
    # child spans; the flat sibling order waits for a walker such as a witness
    for t in (random_tree(1000, seed="flat-order"), path(401), path(6)):
        rt = to_rooted(parse_tree(to_edge_list(t)))
        count_distinguishing(rt, 3)
        CountTable(rt).tree_proper(3)
        d, chi, cert = parameters(rt)
        assert (distinguishing_number(rt), distinguishing_chromatic_number(rt)) == (d, chi)
        assert chi_certificate(rt) == cert
        assert rt._groups is None
        if cert is None:
            assert rt._order is None
        construct_distinguishing_coloring(rt, d)
        assert rt._groups is not None


# -- witness construction -----------------------------------------------------------

def test_construct_star3():
    t = star(3)
    col = construct_distinguishing_coloring(t, 3)
    assert set(col.colors) == {0, 1, 2, 3}
    assert sorted(col.colors[v] for v in (1, 2, 3)) == [1, 2, 3]
    assert is_distinguishing(t, col)


def test_construct_p2():
    t = path(2)
    col = construct_distinguishing_coloring(t, 2)
    assert sorted(col.colors.values()) == [1, 2]
    assert is_distinguishing(t, col)
    with pytest.raises(NoColoringError):
        construct_distinguishing_coloring(t, 1)


def test_construct_default_k():
    for t in all_trees_up_to(9):
        col = construct_distinguishing_coloring(t)
        assert set(col.colors) == set(range(t.n))
        assert is_distinguishing(t, col)


def test_construct_proper_witnesses():
    for t in all_trees_up_to(8):
        col = construct_proper_distinguishing_coloring(t)
        assert set(col.colors) == set(range(t.n))
        assert is_proper(t, col)
        assert is_distinguishing(t, col)


def test_construct_proper_parity_case():
    t = path(6)
    col = construct_proper_distinguishing_coloring(t, 2)
    assert is_proper(t, col) and is_distinguishing(t, col)
    assert set(col.colors.values()) == {1, 2}


def test_input_tree_indices_are_a_bijection():
    # every index below the input tree's count yields a (proper)
    # distinguishing coloring, no two of them equivalent, and there are as
    # many as brute force counts
    for t in all_trees_up_to(7):
        table = CountTable(to_rooted(t))
        for k in (1, 2, 3):
            for proper, total, construct in (
                    (False, table.tree_distinguishing(k),
                     construct_distinguishing_coloring),
                    (True, table.tree_proper(k),
                     construct_proper_distinguishing_coloring)):
                forms = set()
                for i in range(total):
                    col = construct(t, k, i)
                    assert is_distinguishing(t, col)
                    assert not proper or is_proper(t, col)
                    forms.add(coloring_orbit_form(t, col))
                assert len(forms) == total
                assert total == brute_count_classes(t, k, proper=proper).value
                with pytest.raises(CountIndexError if total else NoColoringError):
                    construct(t, k, total)
