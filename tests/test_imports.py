"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sentihier"


def unused_imports(source: str) -> list:
    """(line, name) of each name an import binds that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import math\nfrom dataclasses import field\n"
                          "import os.path\nos.sep\n") == [(1, "math"), (2, "field")]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
