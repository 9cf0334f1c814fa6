"""The model is the one module that rejects a bad model input.

HiCnnLstmModel.forward and loss_and_grads check the documents and labels a
caller hands them; the layers below receive only shapes that the model
builds, so they hold math and no input checks. A rewrite of a layer (a
whole-batch LSTM, say) must keep it that way: a check it needs belongs in
model.py, where a caller of the public API can reach it.
"""

import ast
from pathlib import Path

import sentihier

LAYERS = Path(sentihier.__file__).parent / "layers.py"


def layers_tree():
    return ast.parse(LAYERS.read_text(encoding="utf-8"), str(LAYERS))


def test_layers_raise_nothing():
    raises = [node.lineno for node in ast.walk(layers_tree()) if isinstance(node, ast.Raise)]
    assert raises == [], f"layers.py raises at lines {raises}; check the input in model.py"


def test_layers_import_nothing_from_errors():
    imports = []
    for node in ast.walk(layers_tree()):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            if any(name.split(".")[-1] == "errors" for name in names):
                imports.append(node.lineno)
    assert imports == [], f"layers.py imports from errors at lines {imports}"
