"""The model is the one module that rejects a bad model input.

HiCnnLstmModel.forward and loss_and_grads check the documents and labels a
caller hands them; the layers below receive only shapes that the model
builds, so they hold math and no input checks. A rewrite of a layer (a
whole-batch LSTM, say) must keep it that way: a check it needs belongs in
model.py, where a caller of the public API can reach it. Dropout lives in
the model too: it draws every mask, and the layers draw no random number.
"""

import ast
from pathlib import Path

import numpy as np

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


# Every public method of a numpy Generator, and np.random itself: a layer
# that draws no random number names none of them.
RANDOM_NAMES = {name for name in dir(np.random.Generator) if not name.startswith("_")}


def test_layers_draw_no_dropout_mask():
    # The model draws every dropout mask and applies all but the LSTM's
    # recurrent one, which run_batch takes as an array.
    tree = layers_tree()
    draws = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in RANDOM_NAMES]
    assert draws == [], f"layers.py draws random numbers at lines {draws}; draw in model.py"
    masks = [node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and ("mask" in node.name.lower() or "dropout" in node.name.lower())]
    assert masks == [], f"layers.py defines {masks}; masks are drawn in model.py"


def test_dense_forward_takes_one_array():
    (dense,) = [node for node in layers_tree().body
                if isinstance(node, ast.ClassDef) and node.name == "DenseLayer"]
    (forward,) = [node for node in dense.body
                  if isinstance(node, ast.FunctionDef) and node.name == "forward"]
    args = forward.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["self", "x"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg or args.defaults)
