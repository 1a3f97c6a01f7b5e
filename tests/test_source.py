"""Static checks over the package source."""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PKG = os.path.join(ROOT, "src", "treesym")
MODULES = sorted(f for f in os.listdir(PKG) if f.endswith(".py") and f != "__init__.py")

# names a module imports only to re-export them (the comment beside
# oracle.py's import of is_proper says why)
RE_EXPORTS = {"oracle.py": {"is_proper"}}


def unused_imports(source: str) -> set:
    """Names a module imports, at any depth, and never references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nos.sep\n") == {"b", "d"}
    assert unused_imports("def f():\n    import json\n    return 1\n") == {"json"}
    assert unused_imports("from __future__ import annotations\n") == set()


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PKG, module), encoding="utf-8") as f:
        unused = unused_imports(f.read()) - RE_EXPORTS.get(module, set())
    assert not unused, f"{module} imports but never uses: {', '.join(sorted(unused))}"


def defined_names(source: str) -> set:
    """Module-level functions, classes and constants, and methods, that a
    module defines, dunders left out."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(m.name for m in node.body
                             if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def referenced_names(source: str) -> set:
    """Names that a module reads, as a name, an attribute, an imported name
    or a string equal to one (``__all__``, ``getattr``, ``monkeypatch``)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _sources(*dirs) -> dict:
    out = {}
    for d in dirs:
        for dirpath, _, files in os.walk(os.path.join(ROOT, d)):
            for f in sorted(files):
                if f.endswith(".py"):
                    with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                        out[os.path.join(dirpath, f)] = fh.read()
    return out


def _package(sources: dict) -> dict:
    # the modules of src/treesym among ``sources``, by file name
    return {os.path.relpath(p, PKG): src for p, src in sources.items()
            if os.path.dirname(os.path.abspath(p)) == os.path.abspath(PKG)}


def dead_names(defined: dict, sources) -> dict:
    """Per module of ``defined`` (name -> source), the names it defines
    that no source in ``sources`` references."""
    used = set().union(*map(referenced_names, sources))
    return {m: sorted(dead) for m, src in defined.items()
            if (dead := defined_names(src) - used)}


def test_dead_names_are_found():
    mod = "X = 1\n_Y = 2\ndef f(): return X\nclass C:\n    def m(self): pass\n" \
          "    def __repr__(self): return ''\n"
    assert dead_names({"m": mod}, [mod]) == {"m": ["C", "_Y", "f", "m"]}
    assert dead_names({"m": mod}, [mod, "from m import f\nC().m()\ngetattr(x, '_Y')"]) == {}


def test_no_dead_names():
    # every name src/treesym defines is read somewhere in src/, tests/ or
    # bench/, which this check only reads
    sources = _sources("src", "tests", "bench")
    defined = _package(sources)
    dead = dead_names(defined, sources.values())
    assert not dead, "defined but never referenced: " + "; ".join(
        f"{m}: {', '.join(names)}" for m, names in sorted(dead.items()))


def stored_attributes(source: str) -> set:
    """Attributes that a module stores on ``self`` or ``rt``."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id in ("self", "rt")}


def read_attributes(source: str) -> set:
    """Attributes that a module reads, and its strings (``getattr``)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def dead_attributes(defined: dict, sources) -> dict:
    """Per module of ``defined`` (name -> source), the attributes it stores
    that no source in ``sources`` reads."""
    read = set().union(*map(read_attributes, sources))
    return {m: sorted(dead) for m, src in defined.items()
            if (dead := stored_attributes(src) - read)}


def test_dead_attributes_are_found():
    mod = "class C:\n    def __init__(self, rt):\n        self.a = self.b = 1\n" \
          "        self.c: dict = {}\n        self.d[0] = 2\n        rt.e, rt.f = 3, 4\n" \
          "    def g(self):\n        return self.a\n"
    assert dead_attributes({"m": mod}, [mod]) == {"m": ["b", "c", "e", "f"]}
    assert dead_attributes({"m": mod}, [mod, "x.b\nx.c.get(1)\ngetattr(x, 'e')\n"]) == {
        "m": ["f"]}


def test_no_dead_attributes():
    # every attribute src/treesym stores on an instance is read somewhere in
    # src/, tests/ or bench/
    sources = _sources("src", "tests", "bench")
    defined = _package(sources)
    dead = dead_attributes(defined, sources.values())
    assert not dead, "stored but never read: " + "; ".join(
        f"{m}: {', '.join(names)}" for m, names in sorted(dead.items()))


# public methods and properties that no src/ module reads, each with the
# reason it stays public
UNREAD_PUBLIC = {
    "AutGroup.order": "value-type API: the README and the tests read group orders",
    "BigCount.positive": "value-type API: the README and the tests ask counts for it",
    "ListAssignment.uniform": "value-type API: the README and the tests build lists by it",
    "Tree.vertex_id": "bench/workloads.py reads it",
    "ListAssignment.extended": "bench/workloads.py reads it",
    "ListAssignment.max_color": "bench/workloads.py reads it",
}


def public_members(source: str) -> set:
    """``Class.name`` of every public method and property of a module's
    classes."""
    return {f"{node.name}.{m.name}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) for m in node.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not m.name.startswith("_")}


def unread_members(defined: dict, sources) -> list:
    """The public members of the classes of ``defined`` (name -> source)
    whose name no source in ``sources`` reads as an attribute."""
    read = {node.attr for src in sources for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    members = set().union(*map(public_members, defined.values()))
    return sorted(m for m in members if m.split(".")[1] not in read)


def test_unread_members_are_found():
    mod = "class C:\n    def a(self): pass\n    @property\n    def b(self): pass\n" \
          "    def _c(self): pass\n    def __len__(self): return 0\n"
    assert unread_members({"m": mod}, [mod]) == ["C.a", "C.b"]
    # a parameter or a string of the same name is no attribute read
    assert unread_members({"m": mod}, ["def f(a): x.b()\n", "getattr(x, 'a')\n"]) == ["C.a"]


def test_public_members_are_read_in_src():
    # every public method or property of a src/treesym class is read as an
    # attribute in some src/ module, or is listed above with its reason;
    # a listed member that src/ reads leaves the list
    sources = _sources("src")
    unread = unread_members(_package(sources), sources.values())
    assert unread == sorted(UNREAD_PUBLIC), (
        f"unread and unlisted: {sorted(set(unread) - set(UNREAD_PUBLIC))}; "
        f"listed but read in src/: {sorted(set(UNREAD_PUBLIC) - set(unread))}")
