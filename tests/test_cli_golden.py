"""CLI stdout and exit codes on every tree up to 8 vertices, pinned against
``tests/data/cli_golden.txt`` so that refactors keep the outputs identical.

After an intended output change, regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py --write``.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from treesym import cli, to_edge_list
from treesym.families import nonisomorphic_trees

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"
MAX_N = 8
COMMANDS = (
    ("analyze", "--json", "--witness", "--counts", "3"),
    ("count", "2"),
    ("count", "3", "--proper"),
    ("color",),
    ("color", "2", "--index", "1"),
    ("color", "--proper"),
    ("certify", "--json"),
)


def _run(argv) -> tuple:
    out = io.StringIO()
    limit = sys.get_int_max_str_digits()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        # main() lifts the int-to-string digit limit for the whole process
        sys.set_int_max_str_digits(limit)
    return code, out.getvalue()


def golden_blocks(workdir: Path) -> list:
    """One text block per (tree, command): a header naming both, the exit
    code, and stdout (``analyze`` without its ``timing_ms`` field)."""
    blocks = []
    for n in range(1, MAX_N + 1):
        for i, t in enumerate(nonisomorphic_trees(n)):
            path = workdir / f"n{n}_{i}.txt"
            path.write_text(to_edge_list(t))
            edges = " ".join(f"{t.labels[u]}-{t.labels[v]}" for u, v in t.edges)
            for cmd in COMMANDS:
                code, text = _run([cmd[0], str(path), *cmd[1:]])
                if cmd[0] == "analyze" and code == 0:
                    report = json.loads(text)
                    del report["timing_ms"]
                    text = json.dumps(report, sort_keys=True) + "\n"
                blocks.append(f"== n={n} #{i} [{edges}] {' '.join(cmd)}\n"
                              f"exit {code}\n{text}")
    return blocks


def _split(text: str) -> list:
    return re.split(r"(?m)^(?=== )", text)[1:]


def test_cli_matches_golden_file(tmp_path):
    want = _split(GOLDEN.read_text())
    got = golden_blocks(tmp_path)
    for w, g in zip(want, got):
        assert g == w
    assert len(got) == len(want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text("".join(golden_blocks(Path(tmp))))
