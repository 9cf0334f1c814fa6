"""End-to-end hierarchical model: per-sentence CNN encoder, BiLSTM over the
sentence vectors, softmax head; plus checkpoint persistence.

Documents are processed one at a time (variable length, no cross-document
padding); batch gradients are the mean of per-document gradients.
"""

import io
import json
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import layers
from .errors import (
    CheckpointFingerprintError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ContractViolation,
    ShapeError,
)
from .layers import DropoutMask

CHECKPOINT_MAGIC = b"SHCK"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 300
    filter_width: int = 5
    num_filters: int = 150
    sentence_dim: int = 150
    lstm_hidden: int = 128
    num_classes: int = 2
    dense_dropout: float = 0.4
    lstm_dropout: float = 0.2
    max_sentences_per_doc: int = 50
    seed: int = 0

    def __post_init__(self):
        dims = (self.embedding_dim, self.filter_width, self.num_filters,
                self.sentence_dim, self.lstm_hidden, self.max_sentences_per_doc)
        if any(d <= 0 for d in dims):
            raise ContractViolation(f"all dimensions must be positive: {self}")
        if self.num_classes < 2:
            raise ContractViolation(f"num_classes must be >= 2, got {self.num_classes}")
        for rate in (self.dense_dropout, self.lstm_dropout):
            if not 0.0 <= rate < 1.0:
                raise ContractViolation(f"dropout rates must be in [0, 1): {self}")


@dataclass(frozen=True)
class Document:
    """Sentences of token indices, with an optional gold label."""
    sentences: tuple  # tuple of tuples of int
    label: int | None = None

    def __post_init__(self):
        if len(self.sentences) == 0 or any(len(s) == 0 for s in self.sentences):
            raise ContractViolation("a document needs at least one non-empty sentence")


class HiCnnLstmModel:
    """All trainable parameters plus the static embedding matrix."""

    def __init__(self, config: ModelConfig, embedding_matrix: np.ndarray,
                 vocab_fingerprint: int = 0):
        if embedding_matrix.ndim != 2 or embedding_matrix.shape[1] != config.embedding_dim:
            raise ShapeError(
                f"embedding matrix shape {embedding_matrix.shape} does not match "
                f"embedding_dim {config.embedding_dim}"
            )
        self.config = config
        self.embedding_matrix = np.ascontiguousarray(embedding_matrix, dtype=np.float64)
        self.vocab_fingerprint = vocab_fingerprint
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xA11]))
        self.conv = layers.ConvLayer(config.filter_width, config.num_filters,
                                     config.embedding_dim, rng)
        self.dense = layers.DenseLayer(config.sentence_dim, config.num_filters, rng)
        self.lstm_fwd = layers.LstmCell(config.sentence_dim, config.lstm_hidden, rng)
        self.lstm_bwd = layers.LstmCell(config.sentence_dim, config.lstm_hidden, rng)
        self.head = layers.SoftmaxHead(config.num_classes, 2 * config.lstm_hidden, rng)

    def params(self) -> dict:
        """Name -> array views of every trainable parameter."""
        return {
            "conv.filters": self.conv.filters,
            "conv.bias": self.conv.bias,
            "dense.weights": self.dense.weights,
            "dense.bias": self.dense.bias,
            "lstm_fwd.input_weights": self.lstm_fwd.input_weights,
            "lstm_fwd.recurrent_weights": self.lstm_fwd.recurrent_weights,
            "lstm_fwd.bias": self.lstm_fwd.bias,
            "lstm_bwd.input_weights": self.lstm_bwd.input_weights,
            "lstm_bwd.recurrent_weights": self.lstm_bwd.recurrent_weights,
            "lstm_bwd.bias": self.lstm_bwd.bias,
            "head.weights": self.head.weights,
            "head.bias": self.head.bias,
        }

    def zero_grads(self) -> dict:
        return {name: np.zeros_like(p) for name, p in self.params().items()}

    def snapshot(self) -> dict:
        return {name: p.copy() for name, p in self.params().items()}

    def restore(self, snapshot: dict):
        for name, p in self.params().items():
            p[...] = snapshot[name]

    def _masks(self, dropout_rng):
        cfg = self.config
        dense = DropoutMask.sample(dropout_rng, cfg.num_filters, cfg.dense_dropout)
        lstm = tuple(DropoutMask.sample(dropout_rng, d, cfg.lstm_dropout) for d in
                     (cfg.sentence_dim, cfg.lstm_hidden, cfg.sentence_dim, cfg.lstm_hidden))
        return dense, lstm

    def forward(self, doc: Document, train: bool = False, dropout_rng=None):
        """Returns (class probabilities, cache). Dropout is active only when
        train=True and a dropout_rng is supplied; masks are fixed per document."""
        cfg = self.config
        sentences = doc.sentences[: cfg.max_sentences_per_doc]
        rng = dropout_rng if train else None
        dense_mask, lstm_masks = self._masks(rng)
        sent_vecs = []
        conv_caches = []
        dense_caches = []
        for sent in sentences:
            s = layers.sentence_matrix(sent, self.embedding_matrix, cfg.filter_width)
            feats, conv_cache = self.conv.forward(s)
            vec, dense_cache = self.dense.forward(feats, dense_mask)
            conv_caches.append(conv_cache)
            dense_caches.append(dense_cache)
            sent_vecs.append(vec)
        encoded, bilstm_cache = layers.bilstm_encode(sent_vecs, self.lstm_fwd,
                                                     self.lstm_bwd, lstm_masks)
        probs = self.head.probs(encoded)
        cache = None
        if train:
            cache = {"conv_caches": conv_caches, "dense_caches": dense_caches,
                     "bilstm_cache": bilstm_cache, "encoded": encoded}
        return probs, cache

    def predict(self, doc: Document) -> int:
        probs, _ = self.forward(doc, train=False)
        return int(np.argmax(probs))  # ties break toward the lowest index

    def loss_and_grads(self, batch, dropout_rng=None):
        """Mean cross-entropy loss and mean gradients over a batch of documents."""
        if len(batch) == 0:
            raise ContractViolation("loss_and_grads on an empty batch")
        grads = self.zero_grads()
        total_loss = 0.0
        for doc in batch:
            if doc.label is None:
                raise ContractViolation("loss_and_grads requires labeled documents")
            loss = self._document_backward(doc, grads, dropout_rng)
            total_loss += loss
        n = float(len(batch))
        for g in grads.values():
            g /= n
        return total_loss / n, grads

    def _document_backward(self, doc: Document, grads: dict, dropout_rng) -> float:
        probs, cache = self.forward(doc, train=True, dropout_rng=dropout_rng)
        loss, _, grad_enc, grad_head_w, grad_head_b = self.head.loss_and_grads(
            cache["encoded"], doc.label)
        grads["head.weights"] += grad_head_w
        grads["head.bias"] += grad_head_b
        grad_seq, fwd_g, bwd_g = layers.bilstm_backward(
            grad_enc, self.lstm_fwd, self.lstm_bwd, cache["bilstm_cache"])
        for name, g in zip(("input_weights", "recurrent_weights", "bias"), fwd_g):
            grads[f"lstm_fwd.{name}"] += g
        for name, g in zip(("input_weights", "recurrent_weights", "bias"), bwd_g):
            grads[f"lstm_bwd.{name}"] += g
        for t in range(len(grad_seq)):
            grad_feats, grad_dw, grad_db = self.dense.backward(
                grad_seq[t], cache["dense_caches"][t])
            grads["dense.weights"] += grad_dw
            grads["dense.bias"] += grad_db
            grad_cf, grad_cb = self.conv.backward(grad_feats, cache["conv_caches"][t])
            grads["conv.filters"] += grad_cf
            grads["conv.bias"] += grad_cb
        return loss


def save_checkpoint(model: HiCnnLstmModel, path):
    """Versioned little-endian binary container: config JSON, vocabulary
    fingerprint, embedding matrix and every trainable parameter."""
    cfg_json = json.dumps(model.config.__dict__, sort_keys=True).encode("utf-8")
    arrays = dict(model.params())
    arrays["embedding_matrix"] = model.embedding_matrix
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(cfg_json)))
    buf.write(cfg_json)
    buf.write(struct.pack("<Q", model.vocab_fingerprint))
    buf.write(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        name_b = name.encode("utf-8")
        buf.write(struct.pack("<I", len(name_b)))
        buf.write(name_b)
        buf.write(struct.pack("<I", arr.ndim))
        for d in arr.shape:
            buf.write(struct.pack("<I", d))
        buf.write(arr.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path, expected_fingerprint: int | None = None) -> HiCnnLstmModel:
    """Reads each stored array straight into the model's own buffer: no copy
    of the file is held, which keeps start-up cost low for a large model."""
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        if reader.take(4) != CHECKPOINT_MAGIC:
            raise CheckpointVersionError(f"{path}: not a sentihier checkpoint")
        version = reader.unpack("<I")
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
        cfg = ModelConfig(**json.loads(reader.take(reader.unpack("<I")).decode("utf-8")))
        fingerprint = reader.unpack("<Q")
        if expected_fingerprint is not None and fingerprint != expected_fingerprint:
            raise CheckpointFingerprintError(
                f"{path}: vocabulary fingerprint {fingerprint:#x} does not match "
                f"expected {expected_fingerprint:#x}")
        stored = {}  # name -> (shape, file offset of its data)
        for _ in range(reader.unpack("<I")):
            name = reader.take(reader.unpack("<I")).decode("utf-8")
            shape = tuple(reader.unpack("<I") for _ in range(reader.unpack("<I")))
            stored[name] = shape, reader.skip(8 * (int(np.prod(shape)) if shape else 1))
        if "embedding_matrix" not in stored:
            raise CheckpointTruncatedError(f"{path}: missing embedding matrix")
        shape, at = stored.pop("embedding_matrix")
        model = HiCnnLstmModel(cfg, reader.read_into(np.empty(shape), at), fingerprint)
        params = model.params()
        found = {(name, shape) for name, (shape, _) in stored.items()}
        expected = {(name, p.shape) for name, p in params.items()}
        if found != expected:
            raise CheckpointTruncatedError(
                f"{path}: parameter set mismatch: {sorted(found ^ expected)}")
        for name, (_, at) in stored.items():
            reader.read_into(params[name], at)
    return model


class _Reader:
    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size

    def skip(self, n: int) -> int:
        """Moves past the next n bytes, which must exist; returns their offset."""
        at = self.fh.tell()
        if at + n > self.size:
            raise CheckpointTruncatedError(
                f"{self.path}: truncated at byte {at} (needed {n} more bytes)")
        self.fh.seek(n, 1)
        return at

    def take(self, n: int) -> bytes:
        self.fh.seek(self.skip(n))
        return self.fh.read(n)

    def unpack(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def read_into(self, arr: np.ndarray, at: int) -> np.ndarray:
        """Fills arr with the little-endian float64 values stored at offset `at`."""
        self.fh.seek(at)
        if self.fh.readinto(arr) != arr.nbytes:
            raise CheckpointTruncatedError(f"{self.path}: file shrank while being read")
        if sys.byteorder != "little":
            arr.byteswap(inplace=True)
        return arr
