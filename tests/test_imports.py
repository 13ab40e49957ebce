"""Source hygiene: no module of the package (apart from `__init__`, whose
imports are its exports) or of the tests imports a name it never uses."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ([p for p in sorted((ROOT / "src" / "waveconsensus").glob("*.py"))
            if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list:
    """The names that `source`'s imports bind and no other line reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_scanner_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport math as m\n"
              "from numpy import pi, e as euler\nprint(m.tau, pi)\n")
    assert unused_imports(source) == ["euler", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
