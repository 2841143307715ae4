"""No module imports a name that it never reads.

No linter runs on this repository, so this scan stands in for pyflakes'
F401 over the package, the tests and the tools. A package ``__init__.py``
imports names to export them, so it is exempt, as is any import line
marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/wakespot", "tests", "tools")


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
    sources = [
        path
        for folder in SCANNED
        for path in sorted((ROOT / folder).glob("*.py"))
        if path.name != "__init__.py"
    ]
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
