"""The names and arguments that the benchmark's span tracer hooks
(perfbench/tracing.py) must keep finding in sentihier.

perfbench/tests cannot be collected beside these tests (both directories
import from a conftest module of their own), so this test loads the tracer
by path and drives the CLI under it the way a traced benchmark run does.
"""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import write_dataset_csv
from sentihier import cli
from sentihier.synthetic import make_marker_dataset
from sentihier.textprep import tokenize_document

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
FILTER_WIDTH = 3
SMALL_MODEL = [
    "--override", "embedding_dim=6", "--override", f"filter_width={FILTER_WIDTH}",
    "--override", "num_filters=4", "--override", "sentence_dim=4",
    "--override", "lstm_hidden=3", "--override", "max_epochs=2", "--override", "patience=2",
]
PREDICT_LINES = ["the build is broken. again", "Wonderful!", "merge it. review the patch now"]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def windows(texts, f: int) -> int:
    """Windows the convolution sees over the sentences of `texts`, each
    sentence zero-padded up to the filter width."""
    return sum(max(len(sent), f) - f + 1
               for text in texts for sent in tokenize_document(text).sentences)


def write_inputs(tmp_path):
    """A 40-document dataset config, the predict input and the checkpoint path."""
    ds = make_marker_dataset(40, seed=5)
    write_dataset_csv(ds, tmp_path / "d.csv")
    conf = tmp_path / "d.conf"
    conf.write_text("name = d\npath = d.csv\ntext_column = text\nlabel_column = label\n",
                    encoding="utf-8")
    lines = tmp_path / "lines.txt"
    lines.write_text("\n".join(PREDICT_LINES) + "\n", encoding="utf-8")
    return ds, conf, lines, tmp_path / "model.ckpt"


def test_train_and_predict_keep_every_traced_name_and_count(tracing, tmp_path):
    ds, conf, lines, ckpt = write_inputs(tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed(), redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--dataset", str(conf), "--out", str(ckpt),
                         *SMALL_MODEL]) == 0
        assert cli.main(["predict", "--model", str(ckpt), "--input", str(lines)]) == 0
    assert tracer.missing == []
    m = tracer.metrics()
    # Every epoch runs each document once: backward on the training split,
    # forward on the validation split.
    epochs = m["train.epochs"]
    assert epochs == 2
    want = epochs * windows(ds.texts(), FILTER_WIDTH) + windows(PREDICT_LINES, FILTER_WIDTH)
    assert m["layers.conv.windows"] == want
    assert m["layers.conv.pad_window_ratio"] > 0
    assert m["layers.sentence_matrix.calls"] == m["layers.conv.forward.calls"]


def test_predict_reaches_every_line_through_the_loaded_models_forward(tmp_path, monkeypatch):
    # The benchmark's predict set-up time ends at the first call of `forward`
    # on the model that cli.load_checkpoint returns (perfbench/run.py,
    # work_boundary), so predict must look `forward` up on that instance.
    _, conf, lines, ckpt = write_inputs(tmp_path)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--dataset", str(conf), "--out", str(ckpt),
                         *SMALL_MODEL]) == 0
    calls = []
    load = cli.load_checkpoint

    def load_counting(*args, **kwargs):
        model = load(*args, **kwargs)
        forward = model.forward

        def counting_forward(*a, **k):
            calls.append(a[0])
            return forward(*a, **k)
        model.forward = counting_forward
        return model

    monkeypatch.setattr(cli, "load_checkpoint", load_counting)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["predict", "--model", str(ckpt), "--input", str(lines)]) == 0
    assert len(calls) == len(PREDICT_LINES) == len(out.getvalue().splitlines())
