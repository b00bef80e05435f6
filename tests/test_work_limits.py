"""Every module-level work limit of the package is named in the README:
a limit on the work one call may do is explicit, named and documented."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT_NAME = re.compile(r"MAX_\w+|MATERIAL_GUARD|DEFAULT_ORACLE_BOUND|FIBRE_RULE_CACHE_SIZE")


def _module_limits():
    """(module, name) of every module-level assignment to a limit name."""
    for path in sorted((ROOT / "src" / "plurigenera").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            for target in targets:
                if isinstance(target, ast.Name) and LIMIT_NAME.fullmatch(target.id):
                    yield path.stem, target.id


def test_every_work_limit_is_named_in_the_readme():
    limits = list(_module_limits())
    assert {name for _, name in limits} >= {
        "MATERIAL_GUARD",
        "DEFAULT_ORACLE_BOUND",
        "FIBRE_RULE_CACHE_SIZE",
        "MAX_SERIES_N",
        "MAX_GROUP_ORDER",
        "MAX_CHARACTERISTIC",
        "MAX_WILD_POWER",
        "MAX_MULT",
        "MAX_TAIL_WINDOW",
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [
        f"{module}.{name}"
        for module, name in limits
        if not re.search(rf"\b{name}\b", readme)
    ]
    assert not missing, f"work limits not named in README.md: {missing}"
