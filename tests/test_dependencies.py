"""numpy is the only runtime dependency: every import in the package is
from the standard library, numpy or the package itself. The on-device
detector loads only the modules it runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "wakespot"}
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wakespot"


def foreign_imports(source: str) -> list[str]:
    """Top-level names of absolute imports outside ``ALLOWED``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_package_imports_only_stdlib_numpy_and_itself():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    found = {p.name: foreign_imports(p.read_text(encoding="utf-8")) for p in sources}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_foreign_imports_are_found_anywhere_in_a_module():
    source = (
        "import os, numpy as np\n"
        "from . import audio\n"
        "from wakespot.audio import read_wav\n"
        "def f():\n"
        "    import scipy.signal\n"
        "    from sklearn import metrics\n"
    )
    assert foreign_imports(source) == ["scipy.signal", "sklearn"]


def test_streaming_detector_loads_only_the_modules_it_runs():
    script = (
        "import sys, wakespot.wakeword\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'wakespot'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    modules = ("audio", "ctc", "errors", "label_model", "vad", "wakeword")
    assert out == ["wakespot", *(f"wakespot.{name}" for name in modules)]
