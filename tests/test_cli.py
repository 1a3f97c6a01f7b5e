import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

from treesym import (
    ListAssignment,
    brute_count_classes,
    cli,
    construct_distinguishing_coloring,
    count_list_distinguishing,
    distinguishing_chromatic_number,
    distinguishing_number,
    parse_list_file,
    parse_tree,
    to_edge_list,
    to_rooted,
)
from treesym.errors import ListFormatError
from treesym.families import all_trees_up_to, path, random_tree, spider, star

import reference

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(*args, stdin="", cwd=None, **extra_env):
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "treesym", *args],
        input=stdin, capture_output=True, text=True, env=env, cwd=cwd,
    )


def run_in_process(*argv):
    # the subcommand alone: main() would also lift this process's
    # int-to-string digit limit
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


K13 = "hub a\nhub b\nhub c\n"
P4 = "a b\nb c\nc d\n"


@pytest.fixture
def k13_file(tmp_path):
    p = tmp_path / "k13.txt"
    p.write_text(K13)
    return str(p)


@pytest.fixture
def p4_file(tmp_path):
    p = tmp_path / "p4.txt"
    p.write_text(P4)
    return str(p)


def test_analyze_k13(k13_file):
    out = run_cli("analyze", k13_file)
    assert out.returncode == 0
    assert "D = 3" in out.stdout
    assert "chi_D = 4" in out.stdout
    assert "certificate: vertex hub" in out.stdout


def test_analyze_p4_no_certificate(p4_file):
    out = run_cli("analyze", p4_file)
    assert out.returncode == 0
    assert "D = 2" in out.stdout
    assert "chi_D = 2" in out.stdout
    assert "certificate: none" in out.stdout


def test_analyze_json_roundtrip(k13_file):
    out = run_cli("analyze", k13_file, "--json", "--witness", "--counts", "3")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert json.loads(json.dumps(report, sort_keys=True)) == report
    assert report["distinguishing_number"] == 3
    assert report["distinguishing_chromatic_number"] == 4
    assert report["certificate"]["children"] == ["a", "b", "c"]
    assert report["counts"]["distinguishing_classes"] == "3"
    assert report["counts"]["proper_distinguishing_classes"] == "0"
    assert set(report["witness"]["distinguishing"]) == {"hub", "a", "b", "c"}


def test_analyze_stdin():
    out = run_cli("analyze", "-", stdin=P4)
    assert out.returncode == 0


def test_analyze_parens():
    out = run_cli("analyze", "-", "--format", "parens", "--json", stdin="(()()())")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["input"]["kind"] == "rooted"
    assert report["distinguishing_number"] == 3


def test_empty_input_exit_2():
    out = run_cli("analyze", "-", stdin="")
    assert out.returncode == 2
    assert "error" in out.stderr


def test_missing_file_exit_2():
    out = run_cli("analyze", "/nonexistent/tree.txt")
    assert out.returncode == 2


def test_count_examples(k13_file, tmp_path):
    star2 = tmp_path / "star2.txt"
    star2.write_text("hub a\nhub b\n")
    assert run_cli("count", str(star2), "2").stdout.strip() == "2"
    assert run_cli("count", str(star2), "2", "--proper").stdout.strip() == "0"
    leaf = tmp_path / "leaf.txt"
    leaf.write_text("only\n")
    assert run_cli("count", str(leaf), "7").stdout.strip() == "7"


def test_count_edge_centered(p4_file):
    # counts of P4 itself, not of its subdivided reduction (108 and 0)
    assert run_cli("count", p4_file, "3").stdout.strip() == "36"
    assert run_cli("count", p4_file, "2", "--proper").stdout.strip() == "1"
    report = json.loads(run_cli("analyze", p4_file, "--json", "--counts", "3").stdout)
    assert report["counts"]["distinguishing_classes"] == "36"
    assert report["counts"]["proper_distinguishing_classes"] == "12"


def test_edge_centered_counts_match_brute_force(tmp_path, capsys):
    for t in all_trees_up_to(8):
        if not to_rooted(t).subdivided:
            continue
        tree = tmp_path / "t.txt"
        tree.write_text(to_edge_list(t))
        for k in (2, 3):
            want = [brute_count_classes(t, k).value,
                    brute_count_classes(t, k, proper=True).value]
            assert run_in_process("count", str(tree), str(k)) == 0
            assert run_in_process("count", str(tree), str(k), "--proper") == 0
            assert run_in_process("analyze", str(tree), "--json", "--counts", str(k)) == 0
            plain, proper, line = capsys.readouterr().out.splitlines()
            counts = json.loads(line)["counts"]
            assert [int(plain), int(proper)] == want
            assert [int(counts["distinguishing_classes"]),
                    int(counts["proper_distinguishing_classes"])] == want


def test_edge_centered_list_counts_need_no_list_for_the_center(tmp_path, capsys):
    # lists name the input tree's vertices only; the synthetic center of
    # the reduction takes a color of its own inside the count
    rng = random.Random(1806)
    for t in all_trees_up_to(8):
        rt = to_rooted(t)
        if not rt.subdivided:
            continue
        tree = tmp_path / "t.txt"
        tree.write_text(to_edge_list(t))
        for _ in range(3):
            la = ListAssignment.from_dict(
                {v: rng.sample(range(1, 5), rng.randint(1, 3)) for v in range(t.n)})
            lists = tmp_path / "lists.txt"
            lists.write_text("".join(f"{t.labels[v]}: {','.join(map(str, la.get(v)))}\n"
                                     for v in range(t.n)))
            got = count_list_distinguishing(rt, la).value
            assert got == brute_count_classes(t, lists=la).value
            assert run_in_process("count", str(tree), "--list", str(lists)) == 0
            assert capsys.readouterr().out == f"{got}\n"


def test_files_missing_vertices_name_them():
    # ids e=0 .. a=4; the files miss the middle ids 1 and 3: every missing
    # label is named, sorted, and a list assignment names the least id
    t = parse_tree("e d\nd c\nc b\nb a\n")
    with pytest.raises(ListFormatError, match="^coloring misses: b, d$"):
        cli._read_coloring_file("e 1\nc 2\na 1\n", t)
    with pytest.raises(ListFormatError, match="^missing color lists for: b, d$"):
        parse_list_file("e: 1\nc: 2\na: 1\n", t)
    with pytest.raises(ListFormatError, match="^no color list for vertex 1$"):
        ListAssignment.from_dict({0: [1], 2: [2], 4: [1]}).require_cover(5)


_LIST_ERRORS = [
    # blank, blank-looking and ``#`` lines are skipped but still numbered
    ("skipped", "\n# lists\n \t\nzz: 1\n", "line 4: unknown vertex label 'zz'"),
    ("malformed", "a: 1\nb 2\n", "line 2: expected 'label: c1,c2,...'"),
    ("unknown", "a: 1\nq: 2\n", "line 2: unknown vertex label 'q'"),
    ("repeated", "a: 1\nb: 2\na: 2\n", "line 3: repeated vertex 'a'"),
    ("bad-value", "a: 1\nb: 1,x\n", "line 2: colors must be integers"),
    ("empty", "a: 1\nb: , \n", "line 2: empty color list"),
    ("missing", "c: 1\n# b: 1\n", "missing color lists for: a, b, d"),
    # a line is cut at its last ':', so a second one joins the label
    ("two-colons", "a: 1\nb: 1:2\n", "line 2: unknown vertex label 'b: 1'"),
    ("non-positive", "a: 1\nb: 2,-3\nc: 1\nd: 1\n",
     "line 2: colors must be positive integers"),
]
_COLORING_ERRORS = [
    ("skipped", "\n# coloring\n \t\nzz 1\n", "line 4: unknown vertex label 'zz'"),
    ("malformed", "a 1\nb 2 3\n", "line 2: expected 'label color'"),
    ("unknown", "a 1\nq 2\n", "line 2: unknown vertex label 'q'"),
    ("repeated", "a 1\nb 2\na 2\n", "line 3: repeated vertex 'a'"),
    ("bad-value", "a 1\nb x\n", "line 2: bad color 'x'"),
    ("empty", "a 1\nb\n", "line 2: expected 'label color'"),
    ("missing", "c 1\n# b 1\n", "coloring misses: a, b, d"),
]


@pytest.mark.parametrize("command,text,message", [
    pytest.param(command, text, message, id=f"{command}-{name}")
    for command, cases in (("count", _LIST_ERRORS), ("color", _LIST_ERRORS),
                           ("verify", _COLORING_ERRORS))
    for name, text, message in cases
])
def test_labelled_file_errors(tmp_path, command, text, message):
    # list files and coloring files share one line reader: each error has
    # one text, exit code 2 and no output
    (tmp_path / "p4.txt").write_text(P4)
    (tmp_path / "f.txt").write_text(text)
    argv = ["verify", "p4.txt", "f.txt"] if command == "verify" else [
        command, "p4.txt", "--list", "f.txt"]
    out = run_cli(*argv, cwd=tmp_path)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {message}\n")


def test_labels_with_colons_get_lists(tmp_path, capsys):
    # an edge-list label may contain ':'; its list line is cut at the last one
    (tmp_path / "t.txt").write_text("a:b c\nc d\n")
    (tmp_path / "l.txt").write_text("a:b: 1,2\nc: 1,2\nd: 1,2\n")
    assert run_in_process("count", str(tmp_path / "t.txt"), "--list",
                          str(tmp_path / "l.txt")) == 0
    assert capsys.readouterr().out == "2\n"
    out = run_cli("color", "t.txt", "--list", "l.txt", cwd=tmp_path)
    assert out.returncode == 0
    coloring = dict(line.split() for line in out.stdout.splitlines())
    assert set(coloring) == {"a:b", "c", "d"}
    assert coloring["a:b"] != coloring["d"]


def test_k_after_a_flag(p4_file, tmp_path, monkeypatch):
    # K may follow a flag, with the output of K before it
    for cmd, k, want in (("color", "2", "a 2\nb 1\nc 2\nd 1\n"), ("count", "3", "12\n")):
        for argv in ((cmd, p4_file, k, "--proper"), (cmd, p4_file, "--proper", k)):
            out = run_cli(*argv)
            assert (out.returncode, out.stdout, out.stderr) == (0, want, "")
    # a lone word after the flag is still the input file
    (tmp_path / "2").write_text(P4)
    monkeypatch.chdir(tmp_path)
    out = run_cli("color", "--proper", "2")
    assert (out.returncode, out.stdout) == (0, "a 2\nb 1\nc 2\nd 1\n")
    # any other stray word is refused as before
    for argv in (("color", p4_file, "2", "--proper", "3"), ("analyze", p4_file, "x")):
        out = run_cli(*argv)
        word = argv[-1]
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.endswith(f"treesym: error: unrecognized arguments: {word}\n")


def test_count_requires_k(p4_file):
    out = run_cli("count", p4_file)
    assert out.returncode == 2


def test_count_with_lists(p4_file, tmp_path):
    lists = tmp_path / "lists.txt"
    lists.write_text("a: 1,2\nb: 1,2\nc: 1,2\nd: 1,2\n")
    out = run_cli("count", p4_file, "--list", str(lists))
    assert out.returncode == 0
    assert out.stdout.strip().isdigit()


def test_count_list_past_class_cap(tmp_path):
    # the root's classes are counted, not built: 495000 exceeds class_cap
    t = spider(1, 2, 2)
    tree = tmp_path / "t.txt"
    tree.write_text(to_edge_list(t))
    lists = tmp_path / "lists.txt"
    lists.write_text("".join(f"{s}: {','.join(map(str, range(1, 11)))}\n" for s in t.labels))
    out = run_cli("count", str(tree), "--list", str(lists))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "495000"


def test_color_verify_roundtrip(k13_file, tmp_path):
    colored = run_cli("color", k13_file, "3")
    assert colored.returncode == 0
    col_file = tmp_path / "col.txt"
    col_file.write_text(colored.stdout)
    assert run_cli("verify", k13_file, str(col_file)).returncode == 0


def test_verify_fail_exit_1(k13_file, tmp_path):
    col_file = tmp_path / "bad.txt"
    col_file.write_text("hub 1\na 1\nb 1\nc 2\n")
    out = run_cli("verify", k13_file, str(col_file))
    assert out.returncode == 1
    assert out.stdout.startswith("FAIL")


def test_verify_proper_flag(p4_file, tmp_path):
    col_file = tmp_path / "col.txt"
    col_file.write_text("a 1\nb 2\nc 1\nd 2\n")
    assert run_cli("verify", p4_file, str(col_file), "--proper").returncode == 0
    col_file.write_text("a 1\nb 1\nc 2\nd 1\n")
    out = run_cli("verify", p4_file, str(col_file), "--proper")
    assert out.returncode == 1
    assert "not proper" in out.stdout


def test_verify_repeated_vertex_exit_2(k13_file, tmp_path):
    col_file = tmp_path / "col.txt"
    col_file.write_text("hub 1\na 1\nb 2\nc 3\na 2\n")
    out = run_cli("verify", k13_file, str(col_file))
    assert out.returncode == 2
    assert "line 5: repeated vertex 'a'" in out.stderr


@pytest.mark.parametrize("shape", ["star-10", "prufer-2000"])
def test_verify_past_group_bound(tmp_path, shape):
    # both groups have more than 10**6 elements; verify never enumerates them
    t = star(10) if shape == "star-10" else random_tree(2000, seed="verify")
    tree = tmp_path / "t.txt"
    tree.write_text(to_edge_list(t))
    colored = run_cli("color", str(tree))
    assert colored.returncode == 0
    col_file = tmp_path / "col.txt"
    col_file.write_text(colored.stdout)
    out = run_cli("verify", str(tree), str(col_file))
    assert out.returncode == 0
    assert out.stdout.startswith("PASS")
    # two leaves of one parent that share a color can be swapped
    children = reference.children(to_rooted(t))
    a, b = next(leaves[:2] for leaves in
                ([c for c in kids if not children[c]] for kids in children)
                if len(leaves) >= 2)
    colors = dict(line.split() for line in colored.stdout.splitlines())
    colors[t.labels[b]] = colors[t.labels[a]]
    col_file.write_text("".join(f"{v} {c}\n" for v, c in colors.items()))
    out = run_cli("verify", str(tree), str(col_file))
    assert out.returncode == 1
    assert out.stdout.startswith("FAIL")


def test_color_proper_star_renders(k13_file):
    out = run_cli("color", k13_file, "--proper")
    assert out.returncode == 0
    lines = dict(line.split() for line in out.stdout.splitlines())
    assert set(lines) == {"hub", "a", "b", "c"}


def test_color_star_rendering_of_repair_color(tmp_path):
    # a witness containing the repair color must render and verify as "*"
    tree = tmp_path / "t.txt"
    tree.write_text(K13)
    analyzed = run_cli("analyze", str(tree), "--witness", "--json")
    witness = json.loads(analyzed.stdout)["witness"]["proper_distinguishing"]
    col_file = tmp_path / "col.txt"
    col_file.write_text("".join(f"{k} {v}\n" for k, v in witness.items()))
    out = run_cli("verify", str(tree), str(col_file), "--proper")
    assert out.returncode == 0


def test_color_no_coloring_exit_4(p4_file):
    assert run_cli("color", p4_file, "1").returncode == 4


def test_color_index_out_of_range(k13_file):
    assert run_cli("color", k13_file, "3", "--index", "99").returncode == 4


def test_color_with_lists(p4_file, tmp_path):
    lists = tmp_path / "lists.txt"
    lists.write_text("a: 1,2\nb: 1,2\nc: 1,2\nd: 1,2\n")
    out = run_cli("color", p4_file, "--list", str(lists), "--proper")
    assert out.returncode == 0
    got = dict(line.split() for line in out.stdout.splitlines())
    assert set(got) == {"a", "b", "c", "d"}


def test_color_list_without_match_exit_4(tmp_path):
    tree = tmp_path / "t.txt"
    tree.write_text("hub a\nhub b\n")
    lists = tmp_path / "l.txt"
    lists.write_text("hub: 1\na: 1\nb: 1\n")
    assert run_cli("color", str(tree), "--list", str(lists)).returncode == 4


@pytest.mark.parametrize("shape,proper", [("prufer-2000", False), ("prufer-2000", True),
                                          ("star-12", False), ("star-12", True)])
def test_color_list_at_parameter(tmp_path, shape, proper):
    # lists of size D (chi_D for proper) always admit a witness, at any size
    t = random_tree(2000, seed="cli-lists") if shape == "prufer-2000" else star(12)
    k = (distinguishing_chromatic_number if proper else distinguishing_number)(t)
    rng = random.Random(shape)
    lists = {s: rng.sample(range(1, 2 * k + 1), k) for s in t.labels}
    tree = tmp_path / "t.txt"
    tree.write_text(to_edge_list(t))
    list_file = tmp_path / "lists.txt"
    list_file.write_text("".join(f"{s}: {','.join(map(str, cs))}\n" for s, cs in lists.items()))
    flags = ["--proper"] if proper else []
    colored = run_cli("color", str(tree), "--list", str(list_file), *flags)
    assert colored.returncode == 0, colored.stderr
    got = dict(line.split() for line in colored.stdout.splitlines())
    assert all(int(got[s]) in lists[s] for s in t.labels)
    col_file = tmp_path / "col.txt"
    col_file.write_text(colored.stdout)
    out = run_cli("verify", str(tree), str(col_file), *flags)
    assert out.returncode == 0 and out.stdout.startswith("PASS")


def test_certify(k13_file, p4_file):
    out = run_cli("certify", k13_file, "--json")
    cert = json.loads(out.stdout)
    assert cert["vertex"] == "hub" and cert["k"] == 3
    assert json.loads(run_cli("certify", p4_file, "--json").stdout) is None
    assert run_cli("certify", p4_file).stdout.strip() == "none"


def test_bad_syntax_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b c d\n")
    assert run_cli("analyze", str(bad)).returncode == 2


def test_batch_ordering(tmp_path):
    d = tmp_path / "batch"
    d.mkdir()
    (d / "b_p4.txt").write_text(P4)
    (d / "a_k13.txt").write_text(K13)
    out = run_cli("analyze", "--batch", str(d), "--json")
    assert out.returncode == 0
    reports = json.loads(out.stdout)
    assert [r["file"] for r in reports] == ["a_k13.txt", "b_p4.txt"]
    assert reports[0]["distinguishing_number"] == 3


def test_batch_reports_every_file(tmp_path):
    d = tmp_path / "batch"
    d.mkdir()
    (d / "a_p4.txt").write_text(P4)
    (d / "b_bad.txt").write_bytes(b"a b\n\xff c\n")
    (d / "c_k13.txt").write_text(K13)
    out = run_cli("analyze", "--batch", str(d), "--json")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    reports = json.loads(out.stdout)
    assert [r["file"] for r in reports] == ["a_p4.txt", "b_bad.txt", "c_k13.txt"]
    assert set(reports[1]) == {"file", "error"}
    assert reports[2]["distinguishing_number"] == 3
    text = run_cli("analyze", "--batch", str(d))
    assert text.returncode == 2
    assert "== b_bad.txt ==\nerror: " in text.stdout
    assert "== c_k13.txt ==\ntree on 4 vertices" in text.stdout


USAGE = "usage: treesym [-h] {analyze,count,color,certify,verify,selftest} ...\n"
HELP = USAGE + """
Exact symmetry-breaking coloring analysis for trees.

positional arguments:
  {analyze,count,color,certify,verify,selftest}
    analyze             parameters, certificate, optional witnesses
    count               exact class counts
    color               emit a witness coloring
    certify             extra-color certificate or 'none'
    verify              check a coloring file
    selftest            run the built-in oracle checks

options:
  -h, --help            show this help message and exit
"""
COLOR_HELP = """\
usage: treesym color [-h] [--format {edge-list,parens}] [--proper]
                     [--list FILE] [--index INDEX]
                     [input] [k]

positional arguments:
  input                 input file, or - for stdin
  k

options:
  -h, --help            show this help message and exit
  --format {edge-list,parens}
  --proper
  --list FILE
  --index INDEX         class index of the emitted representative (default 0)
"""
P4_REPORT = """\
== p4.txt ==
tree on 4 vertices; center: edge (b, c); reduction subdivides the central edge
distinguishing number D = 2
distinguishing chromatic number chi_D = 2
certificate: none (chi_D = D)
time: X ms
"""
BAD_UTF8 = "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"
BATCH_TEXT = P4_REPORT.replace("p4.txt", "a_p4.txt") + f"""\
== b_k13.txt ==
tree on 4 vertices; center: vertex (hub)
distinguishing number D = 3
distinguishing chromatic number chi_D = 4
certificate: vertex hub with sibling class {{a, b, c}} of size 3
time: X ms
== c_bad.txt ==
error: {BAD_UTF8}
"""


@pytest.mark.parametrize("argv,code,stdout,stderr", [
    pytest.param(["--help"], 0, HELP, "", id="help"),
    pytest.param(["color", "--help"], 0, COLOR_HELP, "", id="color-help"),
    pytest.param([], 2, "", USAGE + "treesym: error: the following arguments are required: "
                 "command\n", id="no-arguments"),
    pytest.param(["frob"], 2, "", USAGE + "treesym: error: argument command: invalid choice: "
                 "'frob' (choose from 'analyze', 'count', 'color', 'certify', 'verify', "
                 "'selftest')\n", id="unknown-subcommand"),
    pytest.param(["verify", "p4.txt", "good.txt"], 0,
                 "PASS: coloring is distinguishing\n", "", id="verify-pass"),
    pytest.param(["verify", "p4.txt", "good.txt", "--proper"], 0,
                 "PASS: coloring is distinguishing and proper\n", "", id="verify-proper-pass"),
    pytest.param(["verify", "p4.txt", "sym.txt"], 1,
                 "FAIL: preserved by a nontrivial automorphism\n", "", id="verify-fail"),
    pytest.param(["verify", "p4.txt", "sym.txt", "--proper"], 1,
                 "FAIL: not proper; preserved by a nontrivial automorphism\n", "",
                 id="verify-proper-fail"),
    pytest.param(["analyze", "--batch", "batch"], 2, BATCH_TEXT,
                 f"error: c_bad.txt: {BAD_UTF8}\n", id="batch-order"),
    # errors name a file as pathlib spells it, without "." parts or repeated
    # or trailing slashes, and a dangling or looping link in a batch folder
    # is no file
    pytest.param(["analyze", "./missing.txt"], 2, "",
                 "error: [Errno 2] No such file or directory: 'missing.txt'\n",
                 id="missing-file-spelling"),
    pytest.param(["verify", "p4.txt", ".//batch/./"], 2, "",
                 "error: [Errno 21] Is a directory: 'batch'\n", id="directory-spelling"),
    pytest.param(["analyze", "--batch", "./nodir/"], 2, "",
                 "error: [Errno 2] No such file or directory: 'nodir'\n",
                 id="missing-batch-spelling"),
    pytest.param(["analyze", "--batch", "links"], 0, P4_REPORT + P4_REPORT.replace(
        "p4.txt", "q_link.txt"), "", id="batch-links"),
])
def test_help_usage_and_verdict_texts(tmp_path, argv, code, stdout, stderr):
    # stdout, stderr and exit code exactly; argparse wraps at COLUMNS
    (tmp_path / "p4.txt").write_text(P4)
    (tmp_path / "good.txt").write_text("a 1\nb 2\nc 1\nd 2\n")
    (tmp_path / "sym.txt").write_text("a 1\nb 2\nc 2\nd 1\n")
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "b_k13.txt").write_text(K13)
    (batch / "a_p4.txt").write_text(P4)
    (batch / "c_bad.txt").write_bytes(b"a b\n\xff c\n")
    links = tmp_path / "links"
    links.mkdir()
    (links / "p4.txt").write_text(P4)
    os.symlink("p4.txt", links / "q_link.txt")
    os.symlink("nowhere", links / "dangling")
    os.symlink("loop", links / "loop")
    out = run_cli(*argv, cwd=tmp_path, COLUMNS="80")
    assert (out.returncode, re.sub(r"time: [0-9.]+ ms", "time: X ms", out.stdout),
            out.stderr) == (code, stdout, stderr)


class _CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, s):
        self.calls += 1
        return super().write(s)


def test_multiline_output_is_one_write(tmp_path, monkeypatch):
    # an unbuffered stdout, as under PYTHONUNBUFFERED, makes every write a
    # system call: color, the text report and a text batch write once
    src = tmp_path / "p2001.txt"
    src.write_text(to_edge_list(path(2001)))
    out = run_cli("color", str(src), PYTHONUNBUFFERED="1")
    t = parse_tree(src.read_text())
    lines = cli._coloring_lines(t, construct_distinguishing_coloring(t))
    assert out.returncode == 0
    assert out.stdout == "".join(f"{line}\n" for line in lines)
    d = tmp_path / "batch"
    d.mkdir()
    (d / "a_k13.txt").write_text(K13)
    (d / "b_p4.txt").write_text(P4)
    for argv in (["color", str(src)], ["analyze", "--witness", str(src)],
                 ["analyze", "--batch", str(d), "--witness"]):
        counted = _CountedWrites()
        monkeypatch.setattr(sys, "stdout", counted)
        assert run_in_process(*argv) == 0
        monkeypatch.undo()
        assert counted.calls == 1, argv
        if argv[0] == "color":
            assert counted.getvalue() == out.stdout


def test_count_proper_list_edge_centered(p4_file, tmp_path):
    # P4 from {1,2}: the two proper 2-colorings are swapped by the reversal
    lists = tmp_path / "lists.txt"
    lists.write_text("a: 1,2\nb: 1,2\nc: 1,2\nd: 1,2\n")
    out = run_cli("count", p4_file, "--proper", "--list", str(lists))
    assert out.returncode == 0
    assert out.stdout == "1\n"


def test_color_list_index_combination_rejected(p4_file, tmp_path):
    lists = tmp_path / "lists.txt"
    lists.write_text("a: 1,2\nb: 1,2\nc: 1,2\nd: 1,2\n")
    out = run_cli("color", p4_file, "--list", str(lists), "--index", "1")
    assert out.returncode == 2


@pytest.mark.parametrize("argv", [
    ("color", "7"),
    ("count", "7"),
    ("color", "--index", "0"),
], ids=["color-k", "count-k", "color-index-0"])
def test_list_refuses_k_and_index(p4_file, tmp_path, argv):
    # lists fix the palette and the witness, so K or --index beside --list
    # would be ignored; an explicit --index 0 is refused like any other
    lists = tmp_path / "lists.txt"
    lists.write_text("a: 1,2\nb: 1,2\nc: 1,2\nd: 1,2\n")
    out = run_cli(argv[0], p4_file, *argv[1:], "--list", str(lists))
    assert out.returncode == 2
    assert out.stdout == ""


def test_color_proper_index_on_edge_centered(p4_file):
    # indexable proper witnesses for edge-centered trees enumerate pairs of
    # half classes; P4 at k=3 has several
    first = run_cli("color", p4_file, "3", "--proper", "--index", "0")
    second = run_cli("color", p4_file, "3", "--proper", "--index", "1")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout != second.stdout


@pytest.mark.parametrize("max_n", ["1", "0", "-3"])
def test_selftest_refuses_max_n_below_2(max_n):
    # below two vertices there is nothing to check, so no PASS either
    out = run_cli("selftest", "--max-n", max_n)
    assert out.returncode == 2
    assert "PASS" not in out.stdout


def test_selftest():
    out = run_cli("selftest", "--max-n", "5")
    assert out.returncode == 0
    *checks, last = out.stdout.splitlines()
    assert last == "selftest: PASS"
    # every check line ends with its case count and seconds
    assert len(checks) == 18
    for line in checks:
        m = re.fullmatch(r"ok  .+ \((\d+) ([a-z ]+), \d+\.\d\d s\)", line)
        assert m and int(m[1]) > 0 and m[2].endswith("s") == (m[1] != "1"), line
    assert "brute force on all trees with n=5 (3 trees, " in checks[3]


def test_selftest_runs_every_case_and_counts_failed_checks(monkeypatch, capsys):
    from treesym import selftest

    seen = []

    def agree(t):
        seen.append(t.n)
        return t.n != 4

    monkeypatch.setattr(selftest, "_tree_counts_agree", agree)
    assert selftest.run(5) == 1
    *checks, last = capsys.readouterr().out.splitlines()
    assert last == "selftest: 1 FAILURES"
    [failed] = [line for line in checks if not line.startswith("ok  ")]
    assert failed.startswith("FAIL  input-tree counts match exhaustive enumeration at n=4 (2 trees, ")
    # a failed case stops no other case of its check
    assert seen == [2, 3, 4, 4, 5, 5, 5]


@pytest.mark.parametrize("case", ["counts-zero", "not-utf8", "directory",
                                  "batch-not-utf8", "bom"])
def test_input_handling(tmp_path, case):
    tree = tmp_path / "t.txt"
    tree.write_bytes(P4.encode())
    batch = tmp_path / "batch"
    batch.mkdir()
    if case == "counts-zero":
        argv = ["analyze", str(tree), "--counts", "0"]
    elif case == "not-utf8":
        tree.write_bytes(b"a b\n\xff c\n")
        argv = ["analyze", str(tree)]
    elif case == "directory":
        argv = ["analyze", str(batch)]
    elif case == "batch-not-utf8":
        (batch / "a.txt").write_bytes(P4.encode())
        (batch / "b.txt").write_bytes(b"\xfe\xff")
        argv = ["analyze", "--batch", str(batch)]
    else:
        tree.write_bytes(("\ufeff" + P4).encode())
        argv = ["color", str(tree)]
    out = run_cli(*argv)
    assert "Traceback" not in out.stderr
    if case == "bom":
        # one leading byte-order mark is not part of the first label
        assert out.returncode == 0
        assert {line.split()[0] for line in out.stdout.splitlines()} == set("abcd")
    else:
        assert out.returncode == 2
        assert "error:" in out.stderr


def test_counts_past_str_digit_limit(tmp_path):
    # P_10001 at k=3 has 3 * C(3**5000, 2) classes, 4772 digits
    tree = tmp_path / "p10001.txt"
    tree.write_text("".join(f"v{i} v{i + 1}\n" for i in range(10_000)))
    expected = 3 * (3 ** 5000) * (3 ** 5000 - 1) // 2
    out = run_cli("count", str(tree), "3")
    assert out.returncode == 0
    report = json.loads(run_cli("analyze", str(tree), "--json", "--counts", "3").stdout)
    for got in (out.stdout.strip(), report["counts"]["distinguishing_classes"]):
        # compared piecewise: this process keeps the default str-digit limit
        assert len(got) == 4772
        assert int(got[:40]) == expected // 10 ** (4772 - 40)
        assert int(got[-40:]) == expected % 10 ** 40
