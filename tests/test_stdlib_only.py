"""The runtime imports nothing outside the standard library."""

import ast
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
