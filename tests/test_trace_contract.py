"""The names and arguments that the benchmark's span tracer hooks
(perfbench/tracing.py) must keep finding in sentihier.

perfbench/tests cannot be collected beside these tests (both directories
import from a conftest module of their own), so these tests load the tracer
by path and drive the CLI under it the way a traced benchmark run does, and
run the benchmark's own suite in a process of its own.
"""

import importlib.util
import io
import math
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import write_dataset_csv
from sentihier import cli
from sentihier.model import INFERENCE_CHUNK, MAX_SENTENCES
from sentihier.synthetic import make_marker_dataset
from sentihier.textprep import tokenize_document
from sentihier.train import VAL_FRACTION, TrainConfig

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
FILTER_WIDTH = 3
SMALL_MODEL = [
    "--override", "embedding_dim=6", "--override", f"filter_width={FILTER_WIDTH}",
    "--override", "num_filters=4", "--override", "sentence_dim=4",
    "--override", "lstm_hidden=3", "--override", "max_epochs=2", "--override", "patience=2",
]
# One line of one sentence, and one of more sentences than the model reads.
PREDICT_LINES = ["the build is broken. again", "Wonderful!", "merge it. review the patch now",
                 " ".join(f"step {n} done." for n in range(MAX_SENTENCES + 3))]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sentences(texts) -> list:
    """The sentences the model reads of `texts`: each one's first MAX_SENTENCES."""
    return [sent for text in texts
            for sent in tokenize_document(text).sentences[:MAX_SENTENCES]]


def rows(texts, f: int) -> int:
    """Rows the convolution gets for the sentences of `texts`, each
    sentence zero-padded up to the filter width."""
    return sum(max(len(sent), f) for sent in sentences(texts))


def inference_chunks(n: int) -> int:
    """Forward calls of probabilities over n documents: one document, then
    INFERENCE_CHUNK at a time."""
    return 1 + math.ceil((n - 1) / INFERENCE_CHUNK)


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
    # Every epoch runs each document once: one forward call per training
    # batch, and one per inference chunk of the validation split.
    epochs = m["train.epochs"]
    assert epochs == 2
    val = math.floor(VAL_FRACTION * len(ds.texts()) + 0.5)
    per_epoch = (math.ceil((len(ds.texts()) - val) / TrainConfig().batch_size)
                 + inference_chunks(val))
    calls = epochs * per_epoch + inference_chunks(len(PREDICT_LINES))
    assert m["layers.conv.forward.calls"] == calls
    assert m["layers.sentence_matrix.calls"] == m["layers.conv.forward.calls"]
    # The tracer counts a call's windows as if its rows were one sentence:
    # rows - f + 1.
    want = (epochs * rows(ds.texts(), FILTER_WIDTH) + rows(PREDICT_LINES, FILTER_WIDTH)
            - (FILTER_WIDTH - 1) * calls)
    assert m["layers.conv.windows"] == want
    assert m["layers.conv.pad_window_ratio"] > 0
    # Both LSTM directions step once per sentence read, and each runs once
    # per document, a one-sentence document too, and backpropagates once per
    # training document: perfbench/tests pins these counts, and the tracer
    # counts a run's steps as the rows of its first argument.
    assert [len(tokenize_document(line).sentences) for line in PREDICT_LINES[1:]] == [
        1, 2, MAX_SENTENCES + 3]
    assert m["layers.lstm.steps"] == 2 * (epochs * len(sentences(ds.texts()))
                                          + len(sentences(PREDICT_LINES)))
    assert len(sentences(PREDICT_LINES)) == 2 + 1 + 2 + MAX_SENTENCES
    docs_run = epochs * len(ds.texts()) + len(PREDICT_LINES)
    assert m["layers.lstm_fwd.run.calls"] == m["layers.lstm_bwd.run.calls"] == docs_run
    for direction in ("fwd", "bwd"):
        assert m[f"layers.lstm_{direction}.backward.calls"] == epochs * (len(ds.texts()) - val)


def test_predict_reaches_every_line_through_the_loaded_models_forward(tmp_path, monkeypatch):
    # The benchmark's predict set-up time ends at the first call of `forward`
    # on the model that cli.load_checkpoint returns (perfbench/run.py,
    # work_boundary), so predict must look `forward` up on that instance,
    # and its first call must carry one document: a larger first chunk
    # would move tokenizing more lines into that set-up time.
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
    assert [len(docs) for docs in calls] == [1, len(PREDICT_LINES) - 1]
    assert len(out.getvalue().splitlines()) == len(PREDICT_LINES)


def test_the_benchmarks_own_suite_passes():
    # It pins, among other things, one LSTM run per document and direction
    # on a traced training run; nothing under tests/ reaches those tests.
    done = subprocess.run([sys.executable, "-m", "pytest", "perfbench/tests", "-q"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
