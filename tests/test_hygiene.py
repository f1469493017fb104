"""Source hygiene: no module imports a name it never uses.

No linter ships with the package, so this walks each module's syntax tree.
__init__.py is skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qcdense"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds the name a
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_scanner_flags_an_unused_name():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(2, 3)\n") == ["os", "gcd"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
