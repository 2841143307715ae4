"""No module imports a name that it never reads, and no private helper of
the package goes unread.

No linter runs on this repository, so the first scan stands in for
pyflakes' F401 over the package, the tests and the tools. Only an import
line marked ``# noqa: F401`` is exempt.

The second scan looks for dead code that the first cannot see: a
module-level or class-level ``_name`` (dunders excepted) of
``src/wakespot`` that no module of the package reads, as a name or as an
attribute.

The third scan looks for public code that only the tests, the tools or the
benchmark reach: a module-level function or class of ``src/wakespot``, or
a public method of one of its classes, that no module of the package
reads. A method is read only through an attribute access of its name; a
function or class only when a module imports it, reads it as
``module.name`` or, in its own module, loads its name. So a local
variable never stands in for either. Each one that stays lists its reason
in ``PUBLIC_BUT_UNREAD``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/wakespot", "tests", "tools")
PACKAGE = ROOT / "src" / "wakespot"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read as a plain name, in source order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        if "# noqa: F401" not in lines[node.lineno - 1]:
            imported += [(node.lineno, name) for name in names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for _, name in sorted(imported) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    sources = [path for folder in SCANNED for path in sorted((ROOT / folder).glob("*.py"))]
    assert len(sources) >= 20
    found = {
        str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8"))
        for path in sources
    }
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_unused_imports_are_found_and_marked_ones_are_kept():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "import numpy as np\n"
        "from wakespot.audio import read_wav, write_wav\n"
        "from wakespot import dtw  # noqa: F401\n"
        "def f(x: np.ndarray):\n"
        "    import math\n"
        "    return os.path.join(read_wav(x))\n"
    )
    assert unused_imports(source) == ["itertools", "write_wav", "math"]


def _names_read(tree: ast.AST) -> set[str]:
    """Every name read as a plain name or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """Each ``_name`` (dunders excepted) that a module body or a class body
    defines, by ``def``, ``class`` or assignment, with its line."""
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found = []
    for statement in (statement for body in bodies for statement in body):
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [statement.name]
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [
            (statement.lineno, name)
            for name in names
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
        ]
    return found


def unread_private_names(sources: dict[str, str]) -> dict[str, list[str]]:
    """The private names each module defines and no module in ``sources``
    reads, in source order; modules with none are left out."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(_names_read, trees.values()))
    unread = {
        name: [private for _, private in sorted(_private_definitions(tree)) if private not in read]
        for name, tree in trees.items()
    }
    return {name: names for name, names in unread.items() if names}


def test_no_private_name_of_the_package_goes_unread():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 10
    assert unread_private_names(sources) == {}


def test_unread_private_names_are_found_and_read_ones_are_kept():
    module = (
        "_USED = 1\n"
        "_UNREAD, __version__ = 2, '0'\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _dead():\n"
        "    _local = 3\n"
        "class _Box:\n"
        "    _slot: int = 0\n"
        "    def _method(self):\n"
        "        return self._slot\n"
        "    def _orphan(self):\n"
        "        pass\n"
    )
    user = "from m import _Box, _helper\n_Box()._method()\n_helper()\n"
    assert unread_private_names({"m.py": module, "user.py": user}) == {
        "m.py": ["_UNREAD", "_dead", "_orphan"]
    }


# Public names that no package module reads, each with the reason it stays.
PUBLIC_BUT_UNREAD = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "ctc.CtcForwardScorer": "perfbench wraps its step; tests check the lattice against it",
    "ctc.CtcForwardScorer.step": "perfbench wraps it",
    "ctc.forward_logprob": "perfbench wraps it; the one-sequence score criteria 1, 2, 4 and 6 compare",
    "dtw.dtw_cost": "tests use it as the reference DTW cost",
    "dtw.dtw_detect": "perfbench wraps it",
    "dtw.dtw_score": "perfbench wraps it",
    "label_model.gru_step": "perfbench wraps it; tests check run against it",
    "label_model.random_weights": "tools, tests and perfbench build weights with it",
    "label_model.zero_weights": "tests build weights with it",
    "vad.trim_to_speech": "perfbench wraps it",
    "wakeword.score": "perfbench calls it",
}


def _public_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """Each public module-level function or class, and each public method of
    a module-level class, as ``name`` or ``Class.name``, with its line."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for statement in tree.body:
        if isinstance(statement, (*functions, ast.ClassDef)) and not statement.name.startswith("_"):
            found.append((statement.lineno, statement.name))
        if isinstance(statement, ast.ClassDef):
            found += [
                (method.lineno, f"{statement.name}.{method.name}")
                for method in statement.body
                if isinstance(method, functions) and not method.name.startswith("_")
            ]
    return found


def _public_reads(module: str, tree: ast.Module) -> set[str]:
    """What ``module`` reads of the package's public names: ``.method`` for
    each attribute it reads, and ``owner.name`` for each name it imports
    from ``owner``, reads as ``owner.name``, or loads when it is ``owner``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            owner = node.module.rsplit(".", 1)[-1]
            read |= {f"{owner}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(f".{node.attr}")
            if isinstance(node.value, ast.Name):
                read.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(f"{module}.{node.id}")
    return read


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each public definition that no module in
    ``sources`` reads. A method is read through an attribute of its name; a
    function or class is read when a module imports it from its module,
    reads it as ``module.name``, or its own module loads its name."""
    trees = {name.removesuffix(".py"): ast.parse(source) for name, source in sources.items()}
    read = set().union(*(_public_reads(module, tree) for module, tree in trees.items()))
    return [
        f"{module}.{public}"
        for module, tree in trees.items()
        for _, public in sorted(_public_definitions(tree))
        if _read_key(module, public) not in read
    ]


def _read_key(module: str, public: str) -> str:
    """How ``_public_reads`` records a read of ``public`` of ``module``."""
    _, dot, method = public.partition(".")
    return f".{method}" if dot else f"{module}.{public}"


def test_no_public_name_of_the_package_goes_unread_unless_listed():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 10
    assert sorted(unread_public_names(sources)) == sorted(PUBLIC_BUT_UNREAD)


def test_unread_public_names_are_found_and_read_ones_are_kept():
    module = (
        "def used():\n"
        "    return 1\n"
        "def orphan():\n"
        "    return used()\n"
        "def by_module():\n"
        "    pass\n"
        "class Box:\n"
        "    def method(self):\n"
        "        pass\n"
        "    def lonely(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
        "class _Hidden:\n"
        "    def spare(self):\n"
        "        pass\n"
        "def _helper():\n"
        "    pass\n"
    )
    user = (
        "import m\n"
        "from m import Box\n"
        "Box().method()\n"
        "m.by_module()\n"
        "def _sum(orphan, lonely, spare):\n"
        "    return orphan + lonely + spare\n"
    )
    assert unread_public_names({"m.py": module, "user.py": user}) == [
        "m.orphan", "m.Box.lonely", "m._Hidden.spare"
    ]
