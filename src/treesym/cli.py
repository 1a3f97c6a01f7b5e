"""Command-line front end.

Subcommands: analyze | count | color | certify | verify | selftest.

Exit codes: 0 success (verify: pass), 1 verify/selftest failure, 2 input
or parse error, 3 cap or work bound exceeded, 4 no such coloring / index
out of range.
"""

import argparse
import sys
import time
from pathlib import Path

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

# the library modules load in the functions that run them, so ``--help``
# and usage errors load none, ``verify`` only the tree code and ``count``
# no witness code; json, the list code and the self-test (with the
# families and the oracle) load only in the branches that use them

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_NO_COLORING = 4

_INPUT_ERRORS = (TreeSyntaxError, InvalidTreeError, ListFormatError,
                 UnicodeDecodeError, OSError)
# the exit code of each error kind, the first that matches
_ERROR_EXITS = (
    (_INPUT_ERRORS, EXIT_INPUT),
    ((EnumerationBoundError, ClassCapError, SaturatedCountError), EXIT_BOUND),
    ((NoColoringError, CountIndexError), EXIT_NO_COLORING),
)


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
    from .trees import parse_tree

    return parse_tree(_read_input(args.input), args.format)


def _coloring_lines(t, coloring) -> list:
    from .trees import STAR_COLOR

    labels, colors = t.labels, coloring.colors
    names = {c: "*" if c == STAR_COLOR else str(c) for c in set(colors.values())}
    return [f"{labels[v]} {names[colors[v]]}" for v in sorted(colors, key=labels.__getitem__)]


def _coloring_json(t, colors: dict) -> dict:
    from .trees import STAR_COLOR

    labels = t.labels
    return {labels[v]: ("*" if c == STAR_COLOR else c) for v, c in colors.items()}


def _certificate_json(rt, cert) -> dict | None:
    if cert is None:
        return None
    labels = rt.labels
    return {
        "vertex": labels[cert.vertex],
        "synthetic_vertex": cert.vertex == rt.subdivision_vertex,
        "children": sorted(labels[c] for c in cert.children),
        "k": cert.k,
        "degenerate": cert.degenerate,
    }


def _analyze_one(t, witness: bool, counts_k: int | None) -> dict:
    from .construction import _parameters, _table, _witness
    from .counting import CountTable
    from .trees import to_rooted

    start = time.perf_counter()
    rt = to_rooted(t)
    rooted_input = rt is t
    # the one saturating table of the analysis: the searches, the
    # certificate and both witnesses read it, and it dies with this call
    table = _table(rt)
    d, chi, cert = _parameters(table)
    if chi not in (d, d + 1) or (cert is not None) != (chi == d + 1):
        raise AssertionError("internal inconsistency between parameters and certificate")
    ctr = None if rooted_input else sorted(t.labels[v] for v in (rt.halves or (rt.root,)))
    report = {
        "input": {
            "n": t.n,
            "kind": "rooted" if rooted_input else "tree",
            "center": ctr,
            "center_type": ctr and ("edge" if len(ctr) == 2 else "vertex"),
            "subdivided": not rooted_input and rt.subdivided,
            "rooted_n": rt.n,
        },
        "distinguishing_number": d,
        "distinguishing_chromatic_number": chi,
        "certificate": _certificate_json(rt, cert),
    }
    if witness:
        # each witness is dropped once its labelled map is made
        report["witness"] = {
            "distinguishing": _coloring_json(t, _witness(table, d, False, 0)),
            "proper_distinguishing": _coloring_json(t, _witness(table, chi, True, 0)),
        }
    if counts_k is not None:
        # an exact table, which frees the saturating one when bound
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

    from .trees import parse_tree

    if args.batch:
        reports = []
        for p in sorted(f for f in Path(args.batch).iterdir() if f.is_file()):
            try:
                t = parse_tree(_read_input(str(p)), args.format)
            except _INPUT_ERRORS as exc:
                print(f"error: {p.name}: {exc}", file=sys.stderr)
                rep = {"error": str(exc)}
            else:
                rep = _analyze_one(t, args.witness, args.counts)
            rep["file"] = p.name
            reports.append(rep)
    else:
        reports = [_analyze_one(_load_tree(args), args.witness, args.counts)]
    if args.json:
        print(json.dumps(reports if args.batch else reports[0], sort_keys=True))
    else:
        lines = []
        for rep in reports:
            if args.batch:
                lines.append(f"== {rep['file']} ==")
            lines += [f"error: {rep['error']}"] if "error" in rep else _report_lines(rep)
        _emit(lines)
    return EXIT_INPUT if any("error" in rep for rep in reports) else EXIT_OK


def cmd_count(args) -> int:
    from .counting import CountTable
    from .trees import to_rooted

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
        count = count_proper_list_distinguishing if args.proper else count_list_distinguishing
        print(count(rt, assignment).value)
        return EXIT_OK
    if args.k is None:
        raise TreeSyntaxError("count needs a palette size k (or --list FILE)")
    table = CountTable(rt)
    print(table.tree_proper(args.k) if args.proper
          else table.tree_distinguishing(args.k))
    return EXIT_OK


def cmd_color(args) -> int:
    from .construction import _construct
    from .trees import to_rooted

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
        coloring = _construct(rt, args.k, args.index or 0, args.proper)
    _emit(_coloring_lines(t, coloring))
    return EXIT_OK


def cmd_certify(args) -> int:
    from .construction import chi_certificate
    from .trees import to_rooted

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


def _read_coloring_file(text: str, t) -> dict:
    from .trees import STAR_COLOR, RootedTree

    base = t.base if isinstance(t, RootedTree) else t
    out = {}
    for lineno, v, word in base._lines(text, None, "label color", "coloring misses"):
        try:
            out[v] = STAR_COLOR if word == "*" else int(word)
        except ValueError:
            raise ListFormatError(f"line {lineno}: bad color {word!r}") from None
    return out


def cmd_verify(args) -> int:
    from .trees import distinguishes, is_proper

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
    # the checks live in their own module, which no other command loads
    from .selftest import run

    return EXIT_OK if run(args.max_n) == 0 else EXIT_FAIL


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
    p.set_defaults(func=cmd_count, parser=p)

    p = sub.add_parser("color", help="emit a witness coloring")
    add_input(p)
    p.add_argument("k", nargs="?", type=_positive_int, default=None)
    p.add_argument("--proper", action="store_true")
    p.add_argument("--list", metavar="FILE")
    p.add_argument("--index", type=int,
                   help="class index of the emitted representative (default 0)")
    p.set_defaults(func=cmd_color, parser=p)

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
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra and hasattr(args, "parser"):
        # argparse gives input and K only the words before the first flag,
        # so K in ``color FILE --proper 2`` is left over: count and color
        # parse their words again, flags and positionals intermixed
        words = sys.argv[2:] if argv is None else list(argv)[1:]
        args, extra = args.parser.parse_known_intermixed_args(words, args)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except tuple(kind for kinds, _ in _ERROR_EXITS for kind in kinds) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _ERROR_EXITS if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
