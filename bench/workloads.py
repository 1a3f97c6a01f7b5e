"""The two workloads: their corpora, their timed ops, the checks on every
output, and the in-process replays that the traced run records spans for.

A replay repeats an op's sequence of public calls in process.  It also
calls a layer's public entry point ahead of the call that would otherwise
hide it (``code_ids`` before the parameter search, ``sibling_classes``
before the certificate), so each layer gets a span of its own.  Traced and
untraced replays make identical calls; only the span recording differs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import treesym as ts
from treesym.counting import CountTable
from treesym.errors import ClassCapError, EnumerationBoundError

import check
import corpus
from check import Reduction, expect
from harness import NullTracer, Op, OpTimeout, alarm, self_peak_rss_mb

NULL = NullTracer()
# desk-lists answers are also checked by the oracle's exhaustive count when
# the lists allow at most this many colorings
BRUTE_LIMIT = 7_000


class Member:
    """One input tree, generated once per run and written to a file."""

    def __init__(self, ctx, name: str, n: int, edges: list, **info):
        rng = random.Random(f"{ctx.seed}:{name}")
        self.name = name
        self.n = n
        self.red = Reduction(n, edges)
        self.labels = corpus.shuffled_labels(n, rng)
        self.text = corpus.edge_list_text(n, edges, self.labels, rng)
        self.path = os.path.join(ctx.work, f"{name}.txt")
        self.info = info
        with open(self.path, "w", encoding="utf-8") as f:
            f.write(self.text)
        ctx.digest.add(name, self.text)

    def program_coloring(self, t, coloring: dict) -> dict:
        """Reference coloring re-keyed by the program's vertex ids."""
        return {t.vertex_id(self.labels[v]): int(c) for v, c in coloring.items()}


# -- replays ------------------------------------------------------------------


def _front(tracer, text: str):
    with tracer.span("trees.parse"):
        t = ts.parse_tree(text)
    with tracer.span("trees.root"):
        rt = ts.to_rooted(t)
    with tracer.span("trees.intern") as c:
        rt.code_ids()
        c["classes"] = rt.class_count()
    return t, rt


def _order(tracer, rt):
    with tracer.span("trees.order"):
        rt.sibling_classes(rt.root)


def replay_analyze(tracer, text: str):
    t, rt = _front(tracer, text)
    with tracer.span("construction.D"):
        d = ts.distinguishing_number(rt)
    with tracer.span("counting.sat_pass") as c:
        CountTable(rt, cap=rt.n + 1).distinguishing_raw(rt.root, d)
        c["classes"] = rt.class_count()
    with tracer.span("construction.chiD"):
        ts.distinguishing_chromatic_number(rt)
    _order(tracer, rt)
    with tracer.span("construction.cert"):
        ts.chi_certificate(rt)


def replay_color(tracer, text: str):
    t, rt = _front(tracer, text)
    with tracer.span("construction.D"):
        d = ts.distinguishing_number(rt)
    _order(tracer, rt)
    with tracer.span("construction.unrank"):
        col = ts.unrank_distinguishing(rt, d, 0)
    with tracer.span("construction.rank"):
        back = ts.rank_distinguishing(rt, d, col).value
    expect(back == 0, "replay: rank of the index-0 witness is not 0")


def replay_color_proper(tracer, text: str):
    t, rt = _front(tracer, text)
    with tracer.span("construction.chiD"):
        chi = ts.distinguishing_chromatic_number(rt)
    _order(tracer, rt)
    with tracer.span("construction.proper_witness"):
        ts.construct_proper_distinguishing_coloring(rt)
    with tracer.span("counting.proper_pass"):
        CountTable(rt).proper_raw(rt.root, chi)


def replay_count(tracer, text: str, k: int):
    t, rt = _front(tracer, text)
    with tracer.span("counting.exact_pass") as c:
        c["exact_bits"] = CountTable(rt).distinguishing_raw(rt.root, k).bit_length()


def replay_verify(tracer, text: str, member: Member, coloring: dict, proper: bool, counters):
    with tracer.span("trees.parse"):
        t = ts.parse_tree(text)
    colors = member.program_coloring(t, coloring)
    try:
        with tracer.span("oracle.group") as c:
            c["group_order"] = ts.enumerate_automorphisms(t).order
    except EnumerationBoundError:
        counters["oracle.bound_errors"] += 1
        return
    with tracer.span("oracle.verify"):
        ok = ts.is_distinguishing(t, colors) and (not proper or ts.is_proper(t, colors))
    expect(ok, "replay: oracle rejects a checked witness")


# -- op specs -------------------------------------------------------------------


class CliSpec:
    """One CLI request: argv, its check, and its replay."""

    def __init__(self, kind: str, member: Member, argv: list, check_fn, replay_fn):
        self.kind = kind
        self.member = member
        self.argv = argv
        self.check_fn = check_fn
        self.replay_fn = replay_fn
        self.label = " ".join([f"{kind}:{member.name}"] + [a for a in argv[2:] if "/" not in a])

    def execute(self, ctx, pass_no: int) -> tuple:
        return ctx.cli.op(self.kind, self.argv, self.label, pass_no)

    def check(self, ctx, op: Op, res):
        if not op.failed:
            self.check_fn(op, res)
            op.checked = True

    def replay(self, ctx, tracer, counters):
        self.replay_fn(tracer, counters)


def _check_analyze(member: Member):
    def fn(op, res):
        check.check_report(member.red, member.labels, json.loads(res.stdout))
    return fn


def _analyze_spec(member: Member) -> CliSpec:
    return CliSpec("analyze", member, ["analyze", member.path, "--json"],
                   _check_analyze(member),
                   lambda tracer, counters: replay_analyze(tracer, member.text))


class WitnessDeep:
    """Deep or highly symmetric named shapes, full CLI round trips; and
    ``analyze --json`` on a random Prüfer tree with 10^5 vertices."""

    name = "witness-deep"
    setup_argv = ["-m", "treesym", "--help"]

    # (name, shape, parameters, count palette or None, small member whose
    # witnesses are verified); counts run on vertex-centered members only
    SHAPES = (
        ("vpath-10001", "path", {"m": 5000}, 3, False),
        ("epath-10000", "epath", {"n": 10_000}, None, False),
        ("caterpillar-2501x3", "caterpillar", {"m": 1250, "leaves": 3}, 3, False),
        ("spider-4x2500", "spider", {"legs": 4, "length": 2500}, 3, False),
        ("binary-h13", "binary", {"height": 13}, 3, False),
        ("vpath-501", "path", {"m": 250}, None, True),
        ("epath-500", "epath", {"n": 500}, None, True),
        ("caterpillar-301x3", "caterpillar", {"m": 150, "leaves": 3}, None, True),
        ("spider-10x100", "spider", {"legs": 10, "length": 100}, None, True),
        ("binary-h9", "binary", {"height": 9}, None, True),
        ("prufer-100000", "prufer", {"n": 100_000}, None, False),
    )

    def __init__(self, ctx):
        self.ctx = ctx
        self.members = []
        for name, shape, p, k, verify in self.SHAPES:
            if shape == "path":
                edges = corpus.path(2 * p["m"] + 1)
            elif shape == "epath":
                edges = corpus.path(p["n"])
            elif shape == "caterpillar":
                edges = corpus.caterpillar(2 * p["m"] + 1, p["leaves"])
            elif shape == "spider":
                edges = corpus.spider(p["legs"], p["length"])
            elif shape == "prufer":
                # a fixed random shape; the seed relabels it like the others
                edges = corpus.prufer_tree(p["n"], random.Random(f"{self.name}:{name}"))
            else:
                edges = corpus.binary(p["height"])
            m = Member(ctx, name, len(edges) + 1, edges, shape=shape, p=p, k=k, verify=verify)
            self.members.append(m)
        self._specs = [s for m in self.members for s in self._member_specs(m)]

    def _member_specs(self, m: Member) -> list:
        if m.info["shape"] == "prufer":
            m.red.parameters()  # the reference answer, ahead of the run
            return [_analyze_spec(m)]
        work = self.ctx.work
        col_path = os.path.join(work, f"{m.name}.col")
        pcol_path = os.path.join(work, f"{m.name}.pcol")
        witnesses = {}

        def check_color(proper: bool, path: str):
            def fn(op, res):
                d, chi = m.red.parameters()
                k = chi if proper else d
                coloring = check.parse_coloring(res.stdout, m.labels)
                check.check_witness(m.red, coloring, {str(c) for c in range(1, k + 1)},
                                    proper, f"color{' --proper' if proper else ''} {m.name}")
                with open(path, "w", encoding="utf-8") as f:
                    f.write(res.stdout)
                witnesses[proper] = (op.pass_no, coloring)
            return fn

        def check_count(op, res):
            expected = check.closed_form_count(m.info["shape"], m.info["k"], **m.info["p"])
            expect(int(res.stdout.strip()) == expected, f"count {m.name}: wrong class count")

        def check_verify(op, res):
            expect(res.exit_code == 0 and res.stdout.startswith("PASS"),
                   f"verify {m.name}: rejects a witness the reference accepts")

        color = CliSpec("color", m, ["color", m.path], check_color(False, col_path),
                        lambda tr, c: replay_color(tr, m.text))
        color_proper = CliSpec("color", m, ["color", m.path, "--proper"],
                               check_color(True, pcol_path),
                               lambda tr, c: replay_color_proper(tr, m.text))
        if m.info["verify"]:
            # small members: emit witnesses, then verify them
            specs = [color, VerifySpec(m, col_path, False, witnesses, check_verify)]
            if m.info["shape"] in ("path", "epath"):
                specs += [color_proper, VerifySpec(m, pcol_path, True, witnesses, check_verify)]
            return specs
        specs = [color, color_proper]
        if m.info["k"] is not None:
            k = m.info["k"]
            specs.append(CliSpec("count", m, ["count", m.path, str(k)], check_count,
                                 lambda tr, c: replay_count(tr, m.text, k)))
        specs.append(_analyze_spec(m))
        return specs

    def specs(self, pass_no: int):
        return self._specs


class VerifySpec(CliSpec):
    """``verify`` of the witness the same pass emitted; skipped only when
    that ``color`` request produced no witness."""

    def __init__(self, member, col_path, proper, witnesses, check_fn):
        argv = ["verify", member.path, col_path] + (["--proper"] if proper else [])
        super().__init__("verify", member, argv, check_fn, None)
        self.proper = proper
        self.witnesses = witnesses

    def ready(self, pass_no: int) -> bool:
        return self.witnesses.get(self.proper, (None,))[0] == pass_no

    def replay(self, ctx, tracer, counters):
        replay_verify(tracer, self.member.text, self.member,
                      self.witnesses[self.proper][1], self.proper, counters)


# -- desk-lists -------------------------------------------------------------------


def _forms(red: Reduction, lists: list, proper: bool, budget: list) -> dict:
    """Colored canonical forms of the distinguishing list colorings of every
    subtree (keyed by vertex, or by (vertex, root color) when proper).
    Siblings must take pairwise different forms; partial choices are kept
    as sorted tuples, since sibling order never matters."""
    forms = {}
    for v in reversed(red.order):
        for color in (lists[v] if proper else (None,)):
            combos = {()}
            for c in red.children[v]:
                if proper:
                    pool = set()
                    for c2 in lists[c]:
                        if c2 != color:
                            pool |= forms[(c, c2)]
                else:
                    pool = forms[c]
                combos = {tuple(sorted(cb + (f,))) for cb in combos for f in pool if f not in cb}
                budget[0] -= len(combos)
                if budget[0] < 0:
                    raise OverflowError("reference enumeration budget exhausted")
            if proper:
                forms[(v, color)] = {(color, cb) for cb in combos}
            else:
                forms[v] = {(c0, cb) for c0 in lists[v] for cb in combos}
    return forms


def desk_reference(args: tuple) -> dict:
    """Reference answers for one desk request: colored-form enumeration, the
    exact class count, and the oracle's brute count when affordable."""
    n, edges, lists, k, text, labels = args
    red = Reduction(n, [tuple(e) for e in edges])
    lists = [tuple(cs) for cs in lists]
    ref = reference_list_answers(red, lists)
    ids, _ = red.plain()
    ref["total"] = red.dist_counts(k, None)[ids[red.root]]
    if k ** n <= BRUTE_LIMIT:
        t = ts.parse_tree(text)
        index = {s: i for i, s in enumerate(labels)}
        by_id = {v: lists[index[s]] for v, s in enumerate(t.labels)}
        ref["brute"] = ts.brute_count_classes(t, lists=by_id).value
    return ref


def reference_worker():
    """Child-process entry: desk reference arguments on stdin as a JSON
    list, their answers on stdout."""
    args = json.load(sys.stdin)
    json.dump([desk_reference(a) for a in args], sys.stdout)


def reference_list_answers(red: Reduction, lists: list) -> dict:
    """Exact plain list count, and whether a proper list coloring exists,
    by enumerating colored forms; the synthetic root gets a private color."""
    lists = list(lists) + ([(0,)] if red.synthetic else [])
    budget = [1_000_000]
    count = len(_forms(red, lists, False, budget)[red.root])
    half = _forms(red, lists, True, budget)
    if red.synthetic:
        # the central endpoints are adjacent in the tree: their colors differ
        u, v = red.centers
        proper_exists = any(half[(u, cu)] and half[(v, cv)]
                            for cu in lists[u] for cv in lists[v] if cu != cv)
    else:
        proper_exists = any(half[(red.root, c)] for c in lists[red.root])
    return {"count": count, "proper_exists": proper_exists}


class DeskSpec:
    """One desk-scale request: a small tree with fixed uniform lists of
    size k (the seed relabels it), run through the public list and
    rank/unrank calls in process."""

    kind = "desk"

    def __init__(self, ctx, index: int, n: int, edges: list, k: int):
        fixed = random.Random(f"desk-lists:{index}")
        self.lists = [tuple(sorted(fixed.sample(range(1, k + 2), k))) for _ in range(n)]
        self.fraction = fixed.getrandbits(64)
        rng = random.Random(f"{ctx.seed}:desk-lists:{index}")
        self.index = index
        self.k = k
        self.red = Reduction(n, edges)
        self.labels = corpus.shuffled_labels(n, rng)
        self.text = corpus.edge_list_text(n, edges, self.labels, rng)
        self.lists_text = corpus.list_text(self.lists, self.labels)
        self.label = f"desk:{index} n={n} k={k}"
        self.timeout_s = ctx.timeout_s
        self.reference = None  # filled in by DeskLists
        ctx.digest.add(self.text, self.lists_text)

    def calls(self, tracer, layers: bool) -> dict:
        with tracer.span("trees.parse"):
            t = ts.parse_tree(self.text)
        a = ts.parse_list_file(self.lists_text, t)
        with tracer.span("list_coloring.witness"):
            plain = ts.construct_list_distinguishing_coloring(t, a)
        with tracer.span("list_coloring.witness"):
            proper = ts.construct_list_distinguishing_coloring(t, a, proper=True)
        rt = ts.to_rooted(t)
        work, uniform = a, a
        if rt.subdivided:
            # as ``count --list``: the synthetic center gets a private color
            work = a.extended(rt.subdivision_vertex, {a.max_color() + 1})
            uniform = a.extended(rt.subdivision_vertex, range(1, self.k + 1))
        with tracer.span("list_coloring.count") as c:
            count = ts.count_list_distinguishing(rt, work).value
            c["repset_size"] = count
        orbit = ts.check_orbit_list_equality(rt, uniform, self.k)
        total = ts.count_distinguishing(rt, self.k).value
        out = {"t": t, "rt": rt, "plain": plain, "proper": proper, "count": count,
               "orbit": orbit, "total": total}
        if total:
            idx = (self.fraction * total) >> 64
            with tracer.span("construction.unrank"):
                col = ts.unrank_distinguishing(rt, self.k, idx)
            with tracer.span("construction.rank"):
                back = ts.rank_distinguishing(rt, self.k, col).value
            out.update(idx=idx, col=col, back=back)
        if layers:
            with tracer.span("oracle.group") as c:
                c["group_order"] = ts.enumerate_automorphisms(t).order
            if plain is not None:
                with tracer.span("oracle.verify"):
                    ts.is_distinguishing(t, plain)
        return out

    def execute(self, ctx, pass_no: int) -> tuple:
        op = Op("desk", 0.0, 0, pass_no=pass_no, label=self.label)
        out = None
        start = time.perf_counter()
        try:
            with alarm(self.timeout_s):
                out = self.calls(NULL, layers=False)
        except OpTimeout:
            op.timed_out, op.exit_code, op.error = True, 124, "timeout"
        except (ClassCapError, EnumerationBoundError) as exc:
            op.exit_code, op.error = 3, type(exc).__name__
        except Exception as exc:  # a traceback from the library counts as a failed op
            op.exit_code, op.error = 1, f"{type(exc).__name__}: {exc}"[:80]
        op.wall_s = time.perf_counter() - start
        op.rss_mb = self_peak_rss_mb()
        return op, out

    def reference_args(self) -> tuple:
        return self.red.n, self.red.edges, self.lists, self.k, self.text, self.labels

    def check(self, ctx, op: Op, out):
        if op.failed:
            return
        ref = self.reference
        t, rt = out["t"], out["rt"]
        index = {s: i for i, s in enumerate(self.labels)}
        mine = [index[s] for s in t.labels]  # program vertex id -> reference vertex
        if rt.subdivided:
            mine.append(self.red.n)
        what = f"desk {self.label}"

        def remap(coloring) -> dict:
            return {mine[v]: c for v, c in coloring.colors.items()}

        expect(out["count"] == ref["count"], f"{what}: list count {out['count']} != {ref['count']}")
        expect((out["plain"] is not None) == (ref["count"] > 0), f"{what}: plain witness existence")
        expect((out["proper"] is not None) == ref["proper_exists"], f"{what}: proper witness existence")
        for key, proper in (("plain", False), ("proper", True)):
            if out[key] is not None:
                col = remap(out[key])
                expect(len(col) == self.red.n, f"{what}: witness misses vertices")
                expect(all(col[v] in self.lists[v] for v in range(self.red.n)),
                       f"{what}: {key} witness leaves the lists")
                check.check_witness(self.red, col, set(range(1, self.k + 2)), proper,
                                    f"{what} {key}")
        orbits = self.red.orbits()
        lists = list(self.lists) + ([tuple(range(1, self.k + 1))] if rt.subdivided else [])
        first = {}
        equal = True
        for v in self.red.order:
            o = orbits[v]
            if lists[first.setdefault(o, v)] != lists[v]:
                equal = False
        expect(out["orbit"].equality_expected == equal, f"{what}: orbit-list verdict")
        if not equal:
            a, b = (mine[x] for x in out["orbit"].witness)
            expect(orbits[a] == orbits[b] and lists[a] != lists[b], f"{what}: orbit-list witness")
        expect(out["total"] == ref["total"], f"{what}: class count at k={self.k}")
        if out["total"]:
            expect(out["back"] == out["idx"], f"{what}: rank(unrank(i)) != i")
            col = {mine[v]: c for v, c in out["col"].colors.items()}
            expect(all(1 <= col[v] <= self.k for v in range(self.red.size)),
                   f"{what}: unranked coloring leaves the palette")
            cols = [col[v] for v in range(self.red.size)]
            expect(self.red.is_distinguishing(cols), f"{what}: unranked coloring not distinguishing")
        if "brute" in ref:
            expect(ref["brute"] == out["count"], f"{what}: list count disagrees with the oracle")
        op.checked = True

    def replay(self, ctx, tracer, counters):
        try:
            self.calls(tracer, layers=True)
        except ClassCapError:
            counters["list_coloring.cap_errors"] += 1


class DeskLists:
    """Every unlabeled tree up to 8 vertices under fixed list assignments."""

    name = "desk-lists"
    setup_argv = ["-c", "import treesym"]

    def __init__(self, ctx):
        self.ctx = ctx
        trees = corpus.free_trees(8)
        slots = [(n, e, k) for k in (2, 3) for n, e in trees]
        slots += [(n, e, 4) for n, e in trees if n <= 7]
        # bushy 8-vertex trees at k = 5: representative sets near the class cap
        slots += [(n, e, 5) for n, e in trees if n == 8 and _max_degree(n, e) >= 4]
        self._specs = [DeskSpec(ctx, i, n, e, k) for i, (n, e, k) in enumerate(slots)]
        # reference answers come from a child process, so their memory does
        # not count toward this process's peak RSS, which is what the
        # in-process requests report
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", "import workloads; workloads.reference_worker()"],
            input=json.dumps([s.reference_args() for s in self._specs]), env=env,
            capture_output=True, text=True, timeout=150, check=True)
        for spec, ref in zip(self._specs, json.loads(proc.stdout)):
            spec.reference = ref

    def specs(self, pass_no: int):
        return self._specs


def _max_degree(n: int, edges: list) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg)


WORKLOADS = {w.name: w for w in (WitnessDeep, DeskLists)}
