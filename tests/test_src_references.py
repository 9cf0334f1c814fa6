"""No helper in src/sentihier is used only by tests.

Every function, class and method defined in the package, dunders aside,
must be referenced by name (a Name, an Attribute or an import) somewhere in
the package outside its own definition. The check is by name only, so a
method counts as used when any attribute of that name is read.
"""

import ast
from pathlib import Path

import sentihier

SRC = Path(sentihier.__file__).parent

# Exists for tests and demos: it generates the synthetic corpora they train
# on, and the package never needs a corpus of its own.
ALLOWED = {"make_marker_dataset"}


def definitions_and_references():
    """([(file, name, first line, last line)] of every definition, and
    [(file, name, line)] of every reference) in the package."""
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.name, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.attr, node.lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                refs += [(path.name, alias.name, node.lineno) for alias in node.names]
    return defs, refs


def test_every_definition_is_referenced_outside_itself():
    defs, refs = definitions_and_references()
    unused = sorted(
        f"{file}:{first} {name}" for file, name, first, last in defs
        if not (name.startswith("__") and name.endswith("__"))
        and name not in ALLOWED
        and not any(ref == name and (ref_file != file or not first <= line <= last)
                    for ref_file, ref, line in refs))
    assert unused == []


def test_the_allowed_names_are_defined_and_otherwise_unreferenced():
    # An allowance that no longer names a test-only definition goes.
    defs, refs = definitions_and_references()
    assert ALLOWED <= {name for _, name, _, _ in defs}
    referenced = {ref for _, ref, _ in refs}
    assert not ALLOWED & referenced
