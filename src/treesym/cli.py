"""Command-line front end.

Subcommands: analyze | count | color | certify | verify | selftest.

Exit codes: 0 success (verify: pass), 1 verify/selftest failure, 2 input
or parse error, 3 cap or work bound exceeded, 4 no such coloring / index
out of range.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from pathlib import Path

from .construction import (
    STAR_COLOR,
    Coloring,
    _shared_table,
    chi_certificate,
    construct_distinguishing_coloring,
    construct_proper_distinguishing_coloring,
    distinguishing_chromatic_number,
    distinguishing_number,
    parameters,
)
from .counting import CountTable
from .errors import (
    ClassCapError,
    CountIndexError,
    EnumerationBoundError,
    InvalidTreeError,
    ListFormatError,
    NoColoringError,
    SaturatedCountError,
    TreeSyntaxError,
)
from .trees import RootedTree, distinguishes, is_proper, parse_tree, to_rooted

# json, the list code, the families and the oracle load only in the
# branches that use them, so a request never pays for what it does not run.

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_NO_COLORING = 4

_INPUT_ERRORS = (TreeSyntaxError, InvalidTreeError, ListFormatError,
                 UnicodeDecodeError, OSError)
_BOUND_ERRORS = (EnumerationBoundError, ClassCapError, SaturatedCountError)
_COLORING_ERRORS = (NoColoringError, CountIndexError)


def _read_input(path: str) -> str:
    """UTF-8 text of a file, or of stdin for ``-``, with one leading
    byte-order mark dropped."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    return data.decode("utf-8-sig")


def _positive_int(tok: str) -> int:
    k = int(tok)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {tok}")
    return k


def _selftest_size(tok: str) -> int:
    n = int(tok)
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {tok}")
    return n


def _load_tree(args):
    return parse_tree(_read_input(args.input), args.format)


def _render_color(c: int) -> str:
    return "*" if c == STAR_COLOR else str(c)


def _parse_color(tok: str) -> int:
    return STAR_COLOR if tok == "*" else int(tok)


def _coloring_lines(t, coloring: Coloring) -> list:
    labels, colors = t.labels, coloring.colors
    names = {c: _render_color(c) for c in set(colors.values())}
    return [f"{labels[v]} {names[colors[v]]}" for v in sorted(colors, key=labels.__getitem__)]


def _coloring_json(t, coloring: Coloring) -> dict:
    labels = t.labels
    return {
        labels[v]: ("*" if c == STAR_COLOR else c)
        for v, c in coloring.colors.items()
    }


def _certificate_json(rt: RootedTree, cert) -> dict | None:
    if cert is None:
        return None
    labels = rt.labels
    return {
        "vertex": labels[cert.vertex],
        "synthetic_vertex": rt.is_synthetic(cert.vertex),
        "children": sorted(labels[c] for c in cert.children),
        "k": cert.k,
        "degenerate": cert.degenerate,
    }


def _analyze_one(t, witness: bool, counts_k: int | None) -> dict:
    start = time.perf_counter()
    rt = to_rooted(t)
    rooted_input = rt is t
    with _shared_table(rt):
        d, chi, cert = parameters(rt)
        if witness:
            # each coloring is dropped once its labelled map is made
            witnesses = {
                "distinguishing":
                    _coloring_json(t, construct_distinguishing_coloring(rt, d)),
                "proper_distinguishing":
                    _coloring_json(t, construct_proper_distinguishing_coloring(rt, chi)),
            }
    if chi not in (d, d + 1) or (cert is not None) != (chi == d + 1):
        raise AssertionError("internal inconsistency between parameters and certificate")
    base = t.base if rooted_input else t
    if rooted_input:
        summary = {
            "n": base.n,
            "kind": "rooted",
            "center": None,
            "center_type": None,
            "subdivided": False,
            "rooted_n": rt.n,
        }
    else:
        ctr = sorted(base.labels[v] for v in
                     (rt.halves or (rt.root,)))
        summary = {
            "n": base.n,
            "kind": "tree",
            "center": ctr,
            "center_type": "edge" if len(ctr) == 2 else "vertex",
            "subdivided": rt.subdivided,
            "rooted_n": rt.n,
        }
    report = {
        "input": summary,
        "distinguishing_number": d,
        "distinguishing_chromatic_number": chi,
        "certificate": _certificate_json(rt, cert),
    }
    if witness:
        report["witness"] = witnesses
    if counts_k is not None:
        table = CountTable(rt)
        report["counts"] = {
            "k": counts_k,
            "distinguishing_classes": str(table.tree_distinguishing(counts_k)),
            "proper_distinguishing_classes": str(table.tree_proper(counts_k)),
        }
    report["timing_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    return report


def _emit(lines):
    # one write for every line, as an unbuffered stdout makes each print a
    # system call
    sys.stdout.write("\n".join([*lines, ""]))


def _report_lines(report: dict) -> list:
    out = []
    info = report["input"]
    noun = "vertex" if info["n"] == 1 else "vertices"
    if info["kind"] == "rooted":
        out.append(f"rooted tree on {info['n']} {noun}")
    else:
        kind = info["center_type"]
        ctr = ", ".join(info["center"])
        out.append(f"tree on {info['n']} {noun}; center: {kind} ({ctr})"
                   + ("; reduction subdivides the central edge" if info["subdivided"] else ""))
    out.append(f"distinguishing number D = {report['distinguishing_number']}")
    out.append(f"distinguishing chromatic number chi_D = "
               f"{report['distinguishing_chromatic_number']}")
    cert = report["certificate"]
    if cert is None:
        out.append("certificate: none (chi_D = D)")
    elif cert["degenerate"]:
        out.append("certificate: degenerate (D = 1 on at least two vertices)")
    else:
        kids = ", ".join(cert["children"])
        out.append(f"certificate: vertex {cert['vertex']} with sibling class {{{kids}}} "
                   f"of size {len(cert['children'])}")
    if "witness" in report:
        for title, key in (("witness distinguishing coloring:", "distinguishing"),
                           ("witness proper distinguishing coloring:",
                            "proper_distinguishing")):
            colors = report["witness"][key]
            out.append(title)
            out += [f"  {label} {colors[label]}" for label in sorted(colors)]
    if "counts" in report:
        c = report["counts"]
        out.append(f"classes at k={c['k']}: {c['distinguishing_classes']} distinguishing, "
                   f"{c['proper_distinguishing_classes']} proper distinguishing")
    out.append(f"time: {report['timing_ms']} ms")
    return out


def cmd_analyze(args) -> int:
    import json

    if args.batch:
        paths = sorted(p for p in Path(args.batch).iterdir() if p.is_file())
        reports = []
        for p in paths:
            try:
                t = parse_tree(_read_input(str(p)), args.format)
            except _INPUT_ERRORS as exc:
                print(f"error: {p.name}: {exc}", file=sys.stderr)
                reports.append({"file": p.name, "error": str(exc)})
                continue
            rep = _analyze_one(t, args.witness, args.counts)
            rep["file"] = p.name
            reports.append(rep)
        if args.json:
            print(json.dumps(reports, sort_keys=True))
        else:
            lines = []
            for rep in reports:
                lines.append(f"== {rep['file']} ==")
                if "error" in rep:
                    lines.append(f"error: {rep['error']}")
                else:
                    lines += _report_lines(rep)
            _emit(lines)
        return EXIT_INPUT if any("error" in rep for rep in reports) else EXIT_OK
    report = _analyze_one(_load_tree(args), args.witness, args.counts)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        _emit(_report_lines(report))
    return EXIT_OK


def cmd_count(args) -> int:
    if args.list and args.k is not None:
        raise TreeSyntaxError("K is not supported together with --list")
    t = _load_tree(args)
    rt = to_rooted(t)
    if args.list:
        from .list_coloring import (
            count_list_distinguishing,
            count_proper_list_distinguishing,
            parse_list_file,
        )

        assignment = parse_list_file(_read_input(args.list), t)
        if args.proper:
            print(count_proper_list_distinguishing(rt, assignment).value)
            return EXIT_OK
        if rt.subdivided:
            assignment = assignment.extended(rt.subdivision_vertex,
                                             {assignment.max_color() + 1})
        print(count_list_distinguishing(rt, assignment).value)
        return EXIT_OK
    if args.k is None:
        raise TreeSyntaxError("count needs a palette size k (or --list FILE)")
    table = CountTable(rt)
    print(table.tree_proper(args.k) if args.proper
          else table.tree_distinguishing(args.k))
    return EXIT_OK


def cmd_color(args) -> int:
    if args.list and (args.k is not None or args.index is not None):
        raise TreeSyntaxError("K and --index are not supported together with --list")
    t = _load_tree(args)
    rt = to_rooted(t)
    if args.list:
        from .list_coloring import construct_list_distinguishing_coloring, parse_list_file

        assignment = parse_list_file(_read_input(args.list), t)
        coloring = construct_list_distinguishing_coloring(t, assignment,
                                                          proper=args.proper)
        if coloring is None:
            raise NoColoringError("no distinguishing coloring from the given lists")
    else:
        build = (construct_proper_distinguishing_coloring if args.proper
                 else construct_distinguishing_coloring)
        coloring = build(rt, args.k, args.index or 0)
    _emit(_coloring_lines(t, coloring))
    return EXIT_OK


def cmd_certify(args) -> int:
    t = _load_tree(args)
    rt = to_rooted(t)
    cert = _certificate_json(rt, chi_certificate(rt))
    if args.json:
        import json

        print(json.dumps(cert, sort_keys=True))
    elif cert is None:
        print("none")
    elif cert["degenerate"]:
        print("degenerate certificate: D = 1 on at least two vertices")
    else:
        kids = ", ".join(cert["children"])
        print(f"vertex {cert['vertex']} with sibling class {{{kids}}} at k={cert['k']}")
    return EXIT_OK


def _read_coloring_file(text: str, t) -> Coloring:
    base = t.base if isinstance(t, RootedTree) else t
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ListFormatError(f"line {lineno}: expected 'label color'")
        try:
            v = base.vertex_id(parts[0])
        except KeyError:
            raise ListFormatError(f"line {lineno}: unknown vertex label {parts[0]!r}") from None
        if v in out:
            raise ListFormatError(f"line {lineno}: repeated vertex {parts[0]!r}")
        try:
            out[v] = _parse_color(parts[1])
        except ValueError:
            raise ListFormatError(f"line {lineno}: bad color {parts[1]!r}") from None
    missing = [base.labels[v] for v in range(base.n) if v not in out]
    if missing:
        raise ListFormatError(f"coloring misses: {', '.join(sorted(missing))}")
    return Coloring(out)


def cmd_verify(args) -> int:
    t = _load_tree(args)
    coloring = _read_coloring_file(_read_input(args.coloring), t)
    problems = []
    if args.proper and not is_proper(t, coloring):
        problems.append("not proper")
    if not distinguishes(t, coloring):
        problems.append("preserved by a nontrivial automorphism")
    if problems:
        print("FAIL: " + "; ".join(problems))
        return EXIT_FAIL
    print("PASS: coloring is distinguishing" + (" and proper" if args.proper else ""))
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import families, oracle
    from .list_coloring import ListAssignment, construct_list_distinguishing_coloring

    max_n = args.max_n
    failures = 0
    started = time.perf_counter()

    def check(name: str, ok: bool, cases: int, noun: str):
        # each line ends with the cases it checked and the seconds they took
        nonlocal failures, started
        now = time.perf_counter()
        noun += "" if cases == 1 else "s"
        print(f"{'ok' if ok else 'FAIL'}  {name} ({cases} {noun}, {now - started:.2f} s)")
        started = now
        if not ok:
            failures += 1

    for n in range(2, max_n + 1):
        trees = families.nonisomorphic_trees(n)
        agree = True
        for t in trees:
            if distinguishing_number(t) != oracle.brute_distinguishing_number(t):
                agree = False
            if (distinguishing_chromatic_number(t)
                    != oracle.brute_chromatic_distinguishing_number(t)):
                agree = False
        check(f"parameters match brute force on all trees with n={n}", agree,
              len(trees), "tree")

    for n in range(2, min(max_n, 8) + 1):
        trees = families.nonisomorphic_trees(n)
        agree = True
        for t in trees:
            d, chi, cert = parameters(t)
            if (cert is not None) != (chi == d + 1):
                agree = False
        check(f"certificate presence matches chi_D = D + 1 at n={n}", agree,
              len(trees), "tree")

    for n in range(2, min(max_n, 6) + 1):
        trees = families.nonisomorphic_trees(n)
        agree = True
        for t in trees:
            rt = to_rooted(t)
            table = CountTable(rt)
            for k in (1, 2, 3):
                if (table.distinguishing_raw(rt.root, k)
                        != oracle.brute_count_classes(rt, k).value):
                    agree = False
                if (k * table.proper_raw(rt.root, k)
                        != oracle.brute_count_classes(rt, k, proper=True).value):
                    agree = False
        check(f"counts match exhaustive enumeration at n={n}", agree,
              len(trees), "tree")
        agree = True
        for t in trees:
            table = CountTable(to_rooted(t))
            for k in (1, 2, 3):
                if ((table.tree_distinguishing(k), table.tree_proper(k))
                        != (oracle.brute_count_classes(t, k).value,
                            oracle.brute_count_classes(t, k, proper=True).value)):
                    agree = False
        check(f"input-tree counts match exhaustive enumeration at n={n}", agree,
              len(trees), "tree")

    top = min(max_n, 6)
    ok = True
    cases = 0
    rng = random.Random(6)
    for n in range(1, top + 1):
        for t in families.nonisomorphic_trees(n):
            for proper, k in ((False, distinguishing_number(t)),
                              (True, distinguishing_chromatic_number(t))):
                lists = ListAssignment.from_dict(
                    {v: rng.sample(range(1, 2 * k + 1), k) for v in range(n)})
                col = construct_list_distinguishing_coloring(t, lists, proper=proper)
                cases += 1
                if (col is None or any(col[v] not in lists.get(v) for v in range(n))
                        or not oracle.is_distinguishing(t, col)
                        or (proper and not is_proper(t, col))):
                    ok = False
    check(f"lists of size D (chi_D if proper) admit verified witnesses up to n={top}",
          ok, cases, "list assignment")

    top = min(max_n, 7)
    agree = True
    cases = 0
    for n in range(1, top + 1):
        for t in families.nonisomorphic_trees(n):
            for colors in itertools.product((1, 2), repeat=n):
                coloring = dict(enumerate(colors))
                cases += 1
                if distinguishes(t, coloring) != oracle.is_distinguishing(t, coloring):
                    agree = False
    check(f"verify matches the automorphism group on all 2-colorings up to n={top}",
          agree, cases, "coloring")

    print(f"selftest: {'PASS' if failures == 0 else f'{failures} FAILURES'}")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesym",
        description="Exact symmetry-breaking coloring analysis for trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", nargs="?", default="-",
                       help="input file, or - for stdin")
        p.add_argument("--format", choices=("edge-list", "parens"),
                       default="edge-list")

    p = sub.add_parser("analyze", help="parameters, certificate, optional witnesses")
    add_input(p)
    p.add_argument("--witness", action="store_true",
                   help="include witness colorings")
    p.add_argument("--counts", type=_positive_int, metavar="K",
                   help="include exact class counts at palette size K")
    p.add_argument("--json", action="store_true")
    p.add_argument("--batch", metavar="DIR",
                   help="analyze every file in DIR, ordered by name")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("count", help="exact class counts")
    add_input(p)
    p.add_argument("k", nargs="?", type=_positive_int, default=None)
    p.add_argument("--proper", action="store_true")
    p.add_argument("--list", metavar="FILE", help="list-assignment file")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("color", help="emit a witness coloring")
    add_input(p)
    p.add_argument("k", nargs="?", type=_positive_int, default=None)
    p.add_argument("--proper", action="store_true")
    p.add_argument("--list", metavar="FILE")
    p.add_argument("--index", type=int,
                   help="class index of the emitted representative (default 0)")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("certify", help="extra-color certificate or 'none'")
    add_input(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="check a coloring file")
    add_input(p)
    p.add_argument("coloring", help="file of 'label color' lines")
    p.add_argument("--proper", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="run the built-in oracle checks")
    p.add_argument("--max-n", type=_selftest_size, default=7, dest="max_n")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    # exact counts are printed in full, however many digits they have
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _BOUND_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except _COLORING_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_COLORING


if __name__ == "__main__":
    sys.exit(main())
