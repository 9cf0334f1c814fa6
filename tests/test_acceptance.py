"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line. Criteria that require the real Jira dataset (and optionally
the pretrained 300-d vectors) are skipped unless the environment provides
them:

    SENTIHIER_JIRA_CONFIG  path to a dataset config file for the Jira CSV
    SENTIHIER_W2V          path to pretrained vectors (.bin or text); when
                           absent those runs use --embeddings random

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import os
import struct
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import desk_model, finite_difference_check, save_word2vec_text, write_dataset_csv
from sentihier.classifiers import HiCnnLstmClassifier, NaiveBayesClassifier, prepare
from sentihier.cli import main
from sentihier.errors import ConfigurationError
from sentihier.evaluation import (
    compute_metrics,
    cross_validate,
    learning_curve,
    resample_plan,
    round_half_away,
    stratified_kfold,
    stratified_split_70_30,
)
from sentihier.model import ModelConfig, load_checkpoint, save_checkpoint
from sentihier.textprep import Document
from sentihier.train import TrainConfig
from test_baseline import brute_force_posterior, doc as nb_doc
from test_evaluation import brute_force_metrics

JIRA_CONFIG = os.environ.get("SENTIHIER_JIRA_CONFIG")
W2V_PATH = os.environ.get("SENTIHIER_W2V")

SMALL_MODEL = dict(embedding_dim=32, filter_width=3, num_filters=32,
                   sentence_dim=32, lstm_hidden=16)


def announce(number, name, passed=True):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'}")


@pytest.fixture(scope="module")
def synthetic_config(tmp_path_factory):
    from sentihier.synthetic import make_marker_dataset
    tmp = tmp_path_factory.mktemp("accept")
    ds = make_marker_dataset(120, seed=33)
    write_dataset_csv(ds, tmp / "synthetic.csv")
    cfg = tmp / "synthetic.conf"
    cfg.write_text("name = synthetic\npath = synthetic.csv\n"
                   "text_column = text\nlabel_column = label\n", encoding="utf-8")
    return cfg


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(20240901)
    for num_classes in (2, 3):
        model = desk_model(num_classes=num_classes, seed=3 + num_classes)
        doc = Document(((2, 3, 4), (5, 6, 7, 8)), label=num_classes - 1)

        def loss_fn():
            loss, _ = model.loss_and_grads([doc])
            return loss

        _, grads = model.loss_and_grads([doc])
        finite_difference_check(loss_fn, model.params(), model.views(grads), rng,
                                eps=1e-5, coords_per_tensor=100, rtol=1e-4)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    announce(1, "gradient correctness")


def test_criterion_2_cli_determinism(synthetic_config, tmp_path):
    def reports(out: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name != "manifest.json"}

    fast = ["--override", "embedding_dim=12", "--override", "filter_width=2",
            "--override", "num_filters=8", "--override", "sentence_dim=8",
            "--override", "lstm_hidden=6", "--override", "max_epochs=3",
            "--override", "patience=2"]
    runs = {}
    for tag, extra in {
        "cv_nb_1": ["crossval", "--classifier", "nb", "--folds", "3"],
        "cv_nb_2": ["crossval", "--classifier", "nb", "--folds", "3"],
        "cv_hi_1": ["crossval", "--classifier", "hicnnlstm", "--folds", "2", *fast],
        "cv_hi_2": ["crossval", "--classifier", "hicnnlstm", "--folds", "2", *fast],
        "lc_1": ["learning-curve", "--classifier", "nb", "--fractions", "0.5,1.0"],
        "lc_2": ["learning-curve", "--classifier", "nb", "--fractions", "0.5,1.0"],
    }.items():
        out = tmp_path / tag
        assert main([extra[0], "--dataset", str(synthetic_config),
                     "--out", str(out), *extra[1:]]) == 0
        runs[tag] = reports(out)
    assert runs["cv_nb_1"] == runs["cv_nb_2"]
    assert runs["cv_hi_1"] == runs["cv_hi_2"]
    assert runs["lc_1"] == runs["lc_2"]
    announce(2, "CLI determinism")


def test_criterion_3_metric_and_fold_oracles():
    rng = np.random.default_rng(777)
    for _ in range(1000):
        C = int(rng.integers(2, 5))
        n = int(rng.integers(1, 31))
        gold = rng.integers(0, C, size=n).tolist()
        pred = rng.integers(0, C, size=n).tolist()
        rep = compute_metrics(gold, pred, C)
        acc, per_class = brute_force_metrics(gold, pred, C)
        assert rep.accuracy == acc
        for m, (p, r, f1, support) in zip(rep.per_class, per_class):
            assert (m.precision, m.recall, m.f1, m.support) == (p, r, f1, support)
    for _ in range(1000):
        n = int(rng.integers(4, 80))
        C = int(rng.integers(2, 6))
        labels = rng.integers(0, C, size=n).tolist()
        k = int(rng.integers(2, min(8, n) + 1))
        seed = int(rng.integers(0, 10_000))
        if k > max(Counter(labels).values()):  # some fold would hold no document
            with pytest.raises(ConfigurationError, match="largest class"):
                stratified_kfold(labels, k, seed)
            continue
        folds = stratified_kfold(labels, k, seed)
        assert sorted(i for f in folds for i in f) == list(range(n))
        for cls in set(labels):
            counts = [sum(1 for i in f if labels[i] == cls) for f in folds]
            assert max(counts) - min(counts) <= 1
    announce(3, "metric/fold oracles")


def test_criterion_4_synthetic_convergence():
    from sentihier.classifiers import embedding_matrix_for
    from sentihier.model import HiCnnLstmModel
    from sentihier.synthetic import make_marker_dataset
    from sentihier.textprep import build_vocab, encode
    from sentihier.train import fit

    start = time.monotonic()
    ds = make_marker_dataset(300, seed=1)
    tokenized, labels = prepare(ds)
    train_ix, test_ix = stratified_split_70_30(labels, seed=11)
    vocab = build_vocab(tokenized[i] for i in train_ix)
    matrix = embedding_matrix_for(vocab, None, 32, embedding_seed=5)

    def to_doc(i, with_label=True):
        return encode(tokenized[i], vocab, labels[i] if with_label else None)

    cfg = ModelConfig(**SMALL_MODEL)
    model = HiCnnLstmModel(cfg, matrix, vocab, ds.label_set, seed=99)
    tcfg = TrainConfig(max_epochs=50, patience=8, learning_rate=0.005)
    model, history = fit(model, [to_doc(i) for i in train_ix], tcfg, seed=99)
    assert len(history.epochs) <= 50

    def accuracy(ix):
        probs = model.probabilities(to_doc(i, False) for i in ix)
        return np.mean([int(np.argmax(p)) == labels[i] for p, i in zip(probs, ix)])

    train_acc = accuracy(train_ix)
    test_acc = accuracy(test_ix)
    elapsed = time.monotonic() - start
    assert train_acc == 1.0, f"training accuracy {train_acc}"
    assert test_acc >= 0.95, f"held-out accuracy {test_acc}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    announce(4, f"synthetic convergence (train {train_acc:.3f}, held-out {test_acc:.3f}, "
                f"{elapsed:.0f}s)")


def _jira_setup():
    """(dataset, tokenized docs, class indices, word vectors or None), the
    vectors holding only the rows of the dataset's tokens, as the CLI loads them."""
    from sentihier.datasets import load_dataset_config, load_from_config
    from sentihier.embeddings import load_vectors
    cfg = load_dataset_config(JIRA_CONFIG)
    ds, warnings = load_from_config(cfg)
    assert len(ds.samples) == 926, f"expected 926 Jira samples, got {len(ds.samples)}"
    counts = ds.class_counts
    neg_pct = 100.0 * counts["negative"] / 926
    assert abs(neg_pct - 68.7) <= 0.5, f"negative share {neg_pct:.1f}%"
    tokenized, labels = prepare(ds)
    table = load_vectors(W2V_PATH, tokenized) if W2V_PATH else None
    return ds, tokenized, labels, table


@pytest.mark.skipif(not JIRA_CONFIG, reason="SENTIHIER_JIRA_CONFIG not set; "
                    "the real Jira dataset is required for this criterion")
def test_criterion_5_jira_reproduction():
    start = time.monotonic()
    ds, tokenized, labels, table = _jira_setup()
    dim = table.dim if table else 300
    mcfg = ModelConfig(embedding_dim=dim)
    clf = HiCnnLstmClassifier(mcfg, TrainConfig(), ds.label_set, table,
                              embedding_seed=42)
    _, pooled = cross_validate(clf.fit_predict_factory(tokenized, labels),
                               labels, k=10, seed=42, num_classes=2)
    elapsed = time.monotonic() - start
    threshold = 0.93 if table else 0.88
    assert pooled.accuracy >= threshold, f"pooled accuracy {pooled.accuracy:.4f}"
    assert elapsed <= 3600.0, f"10-fold run took {elapsed:.0f}s"
    announce(5, f"Jira reproduction (accuracy {pooled.accuracy:.4f}, {elapsed:.0f}s)")


def test_criterion_6_naive_bayes_oracle():
    rng = np.random.default_rng(4242)
    from sentihier.baseline import nb_fit, nb_predict
    for _ in range(300):
        vocab_size = int(rng.integers(3, 7))
        num_classes = int(rng.integers(2, 4))
        n_docs = int(rng.integers(num_classes, 9))
        train = [nb_doc(rng.integers(2, vocab_size, size=rng.integers(1, 5)).tolist(),
                        i % num_classes) for i in range(n_docs)]
        model = nb_fit(train, vocab_size, num_classes)
        test = nb_doc(rng.integers(0, vocab_size, size=rng.integers(1, 6)).tolist())
        assert nb_predict(model, test) == brute_force_posterior(
            train, vocab_size, num_classes, 1.0, test)
    announce(6, "Naive Bayes brute-force oracle")


@pytest.mark.skipif(not JIRA_CONFIG, reason="SENTIHIER_JIRA_CONFIG not set; "
                    "the real Jira dataset is required for this criterion")
def test_criterion_6_naive_bayes_jira_accuracy():
    _, tokenized, labels, _ = _jira_setup()
    clf = NaiveBayesClassifier()
    _, pooled = cross_validate(clf.fit_predict_factory(tokenized, labels),
                               labels, k=10, seed=42, num_classes=2)
    assert pooled.accuracy >= 0.85, f"NB pooled accuracy {pooled.accuracy:.4f}"
    announce(6, f"Naive Bayes Jira accuracy ({pooled.accuracy:.4f})")


def test_criterion_7_resample_sizes():
    # These sizes depend only on dataset size and class mix.
    jira_labels = [0] * 636 + [1] * 290
    train, _ = stratified_split_70_30(jira_labels, seed=42)
    assert len(train) == 649
    sizes = [round_half_away(f * len(train)) for f in (0.2, 1.0)]
    assert sizes == [130, 649]
    app_labels = [2] * 186 + [1] * 25 + [0] * 130
    train_app, _ = stratified_split_70_30(app_labels, seed=42)
    assert len(train_app) == 239
    assert round_half_away(0.2 * len(train_app)) == 48
    _, _, draws = resample_plan(app_labels, [0.2], seed=42)
    assert len(draws[0][1]) == 48
    announce(7, "resample rounding convention (48, 130 -> 649)")


@pytest.mark.skipif(not JIRA_CONFIG, reason="SENTIHIER_JIRA_CONFIG not set; "
                    "the real Jira dataset is required for this criterion")
def test_criterion_7_jira_curve_monotone_ends():
    ds, tokenized, labels, table = _jira_setup()
    dim = table.dim if table else 300
    mcfg = ModelConfig(embedding_dim=dim)
    clf = HiCnnLstmClassifier(mcfg, TrainConfig(), ds.label_set, table,
                              embedding_seed=42)
    points, _ = learning_curve(clf.fit_predict_factory(tokenized, labels),
                               labels, [0.2, 1.0], seed=42, num_classes=2)
    assert points[0].resample_size == 130 and points[1].resample_size == 649
    assert points[1].test_accuracy >= points[0].test_accuracy
    announce(7, f"Jira curve ends ({points[0].test_accuracy:.3f} -> "
                f"{points[1].test_accuracy:.3f})")


def test_criterion_8_format_round_trips(tmp_path, rng):
    # Checkpoint round trip: bit-identical predictions on 10 random docs.
    model = desk_model(seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for _ in range(10):
        sents = tuple(
            tuple(int(t) for t in rng.integers(2, 9, size=rng.integers(1, 6)))
            for _ in range(rng.integers(1, 4)))
        d = Document(sents)
        (p1,) = model.probabilities([d])  # one forward call per document on each side
        (p2,) = loaded.probabilities([d])
        np.testing.assert_array_equal(p1, p2)

    # word2vec binary fixture -> text -> reload within 1e-6 relative error.
    from sentihier.embeddings import load_word2vec_binary, load_word2vec_text
    bin_path = tmp_path / "vec.bin"
    entries = [(f"w{i}", rng.normal(size=7).astype(np.float32)) for i in range(5)]
    with open(bin_path, "wb") as fh:
        fh.write(b"5 7\n")
        for token, vec in entries:
            fh.write(token.encode() + b" " + struct.pack("<7f", *vec) + b"\n")
    table = load_word2vec_binary(bin_path)
    txt_path = tmp_path / "vec.txt"
    save_word2vec_text({token: table.lookup(token) for token, _ in entries}, txt_path)
    reloaded = load_word2vec_text(txt_path, {token for token, _ in entries})
    for token, _ in entries:
        np.testing.assert_allclose(reloaded.lookup(token), table.lookup(token),
                                   rtol=1e-6)
    announce(8, "format round trips")
