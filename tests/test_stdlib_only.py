"""The runtime imports nothing outside the standard library, and
nothing it does not need at import time."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "plurigenera"


def test_absolute_imports_are_stdlib():
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert sources
    outside = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.setdefault(path.name, []).append(name)
    assert not outside


def test_import_leaves_multiprocessing_out():
    # only a process pool needs multiprocessing, and every CLI start
    # would pay its import
    code = (
        "import sys, plurigenera, plurigenera.cli; "
        "print('multiprocessing' in sys.modules)"
    )
    path = os.pathsep.join(
        filter(None, [str(SOURCE_DIR.parent), os.environ.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"
