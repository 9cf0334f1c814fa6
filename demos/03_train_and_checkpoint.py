"""Train the hierarchical model on a small synthetic dataset, then save and
reload a checkpoint and confirm predictions are bit-identical.
"""

import tempfile
from pathlib import Path

import numpy as np

from sentihier.classifiers import embedding_matrix_for, prepare
from sentihier.evaluation import stratified_split_70_30
from sentihier.model import HiCnnLstmModel, ModelConfig, load_checkpoint, save_checkpoint
from sentihier.synthetic import make_marker_dataset
from sentihier.textprep import build_vocab, encode
from sentihier.train import TrainConfig, fit

ds = make_marker_dataset(200, seed=1)
tokenized, labels = prepare(ds)
train_ix, test_ix = stratified_split_70_30(labels, seed=11)

vocab = build_vocab(tokenized[i] for i in train_ix)
matrix = embedding_matrix_for(vocab, None, 32, embedding_seed=5)


def to_doc(i, with_label=True):
    return encode(tokenized[i], vocab, labels[i] if with_label else None)


config = ModelConfig(embedding_dim=32, filter_width=3, num_filters=32,
                     sentence_dim=32, lstm_hidden=16)
model = HiCnnLstmModel(config, matrix, vocab, ds.label_set, seed=99)
model, history = fit(model, [to_doc(i) for i in train_ix],
                     TrainConfig(max_epochs=50, patience=8, learning_rate=0.005), seed=99)

for rec in history.epochs[-3:]:
    print(f"epoch {rec.epoch:2d}  train_loss {rec.train_loss:.4f}  "
          f"val_loss {rec.val_loss:.4f}  val_acc {rec.val_accuracy:.3f}")

test_docs = [to_doc(i, False) for i in test_ix]
test_acc = np.mean([probs.argmax() == labels[i]
                    for i, probs in zip(test_ix, model.probabilities(test_docs))])
print(f"held-out accuracy: {test_acc:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.ckpt"
    save_checkpoint(model, path)
    print(f"checkpoint: {path.stat().st_size} bytes")
    loaded = load_checkpoint(path)
    for p1, p2 in zip(model.probabilities(test_docs[:20]),
                      loaded.probabilities(test_docs[:20])):
        assert np.array_equal(p1, p2)
print("reloaded model reproduces probabilities bit-for-bit.")
