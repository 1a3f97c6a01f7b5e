"""Which modules a CLI request loads, and the package's lazy exports."""

import os
import subprocess
import sys

import pytest

import treesym

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# runs one request through cli.main and writes the loaded module names to
# the file named by its first argument
PROBE = """\
import sys
from treesym import cli
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    out.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""

OFF_PATH = {"treesym.oracle", "treesym.list_coloring", "treesym.families"}


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def _loaded(tmp_path, *argv) -> set:
    mods = tmp_path / "modules.txt"
    out = _python("-c", PROBE, str(mods), *argv)
    assert out.returncode == 0, out.stderr
    return set(mods.read_text().split())


@pytest.fixture(scope="module")
def bare():
    # the modules a bare interpreter has, site packages included
    out = _python("-c", "import sys; print('\\n'.join(sys.modules))")
    return set(out.stdout.split())


@pytest.fixture
def files(tmp_path):
    tree = tmp_path / "t.txt"
    tree.write_text("a b\nb c\nc d\n")
    coloring = tmp_path / "c.txt"
    coloring.write_text("a 1\nb 2\nc 1\nd 2\n")
    lists = tmp_path / "lists.txt"
    lists.write_text("a: 1,2\nb: 1,2\nc: 1,2\nd: 1,2\n")
    return str(tree), str(coloring), str(lists)


@pytest.mark.parametrize("request_args", [
    pytest.param(["analyze", "{tree}", "--json"], id="analyze-json"),
    pytest.param(["count", "{tree}", "3"], id="count-k"),
    pytest.param(["color", "{tree}"], id="color"),
    pytest.param(["color", "{tree}", "--proper"], id="color-proper"),
    pytest.param(["certify", "{tree}"], id="certify"),
    pytest.param(["verify", "{tree}", "{coloring}"], id="verify"),
    pytest.param(["verify", "{tree}", "{coloring}", "--proper"], id="verify-proper"),
])
def test_request_loads_only_what_it_runs(tmp_path, files, bare, request_args):
    tree, coloring, _ = files
    argv = [a.format(tree=tree, coloring=coloring) for a in request_args]
    loaded = _loaded(tmp_path, *argv)
    assert "treesym.trees" in loaded
    assert not loaded & OFF_PATH
    # site packages may load these before any treesym code runs
    assert "dataclasses" not in loaded or "dataclasses" in bare
    if "--json" not in argv:
        assert "json" not in loaded or "json" in bare


def test_count_list_loads_the_list_code(tmp_path, files):
    tree, _, lists = files
    assert "treesym.list_coloring" in _loaded(tmp_path, "count", tree, "--list", lists)


def test_bare_import_loads_no_submodule():
    out = _python("-c", "import sys, treesym; print('\\n'.join(sys.modules))")
    assert out.returncode == 0, out.stderr
    assert [m for m in out.stdout.split() if m.startswith("treesym.")] == []


def test_every_export_is_its_home_modules_object():
    assert sorted(treesym.__all__) == sorted(set(treesym.__all__))
    for name in treesym.__all__:
        obj = getattr(treesym, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert name in dir(treesym)
    namespace: dict = {}
    exec("from treesym import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(treesym.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'treesym' has no attribute 'nope'$"):
        treesym.nope
    assert not hasattr(treesym, "nope")
    with pytest.raises(ImportError):
        exec("from treesym import nope", {})
