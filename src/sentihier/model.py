"""End-to-end hierarchical model: per-sentence CNN encoder, BiLSTM over the
sentence vectors, softmax head; plus checkpoint persistence.

Documents are processed one at a time (variable length, no cross-document
padding). Within a document the sentences stay stacked as (S, .) rows from
forward to gradient: the convolution pools each sentence into one row, the
dense layer runs once on all S rows, and the backward pass gates and writes
them as one block. Batch gradients are the mean of per-document gradients,
formed once per batch from the factors every document's backward pass collects.

The convolution reads its filter products from a layers.ProjectionScope,
which projects each distinct word vector once for as long as the conv
weights stay fixed. Only this module makes scopes: one per call of
probabilities, the one inference path, which admits one document at a time,
and one per loss_and_grads batch, projected at once into the idle gradients.

A model carries the vocabulary that indexes its embedding rows and the names
of its classes, so one checkpoint file is all `predict` needs.
"""

import itertools
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import layers
from .errors import (
    CheckpointError,
    CheckpointFingerprintError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ContractViolation,
    ShapeError,
)
from .textprep import Document, Vocabulary

CHECKPOINT_MAGIC = b"SHCK"
CHECKPOINT_VERSION = 2


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
        if any(type(getattr(self, f.name)) is not type(f.default) for f in fields(self)):
            raise ContractViolation(f"every field must have the type of its default: {self}")
        for name in ("embedding_dim", "filter_width", "num_filters", "sentence_dim",
                     "lstm_hidden", "max_sentences_per_doc"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_classes < 2:
            raise ContractViolation(f"num_classes must be >= 2, got {self.num_classes}")
        for name in ("dense_dropout", "lstm_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ContractViolation(f"{name} must be in [0, 1), got {getattr(self, name)}")


class HiCnnLstmModel:
    """All trainable parameters plus the static embedding matrix, whose row i
    is the vector of vocab token i; labels[c] names class c."""

    def __init__(self, config: ModelConfig, embedding_matrix: np.ndarray,
                 vocab: Vocabulary, labels, *, _draw_weights: bool = True):
        """Weights are drawn from config.seed. load_checkpoint passes
        _draw_weights=False: it reads every parameter from the file, so the
        weight buffers are left uninitialised instead."""
        if embedding_matrix.shape != (len(vocab), config.embedding_dim):
            raise ShapeError(
                f"embedding matrix shape {embedding_matrix.shape} does not match "
                f"{len(vocab)} tokens x embedding_dim {config.embedding_dim}"
            )
        if len(labels) != config.num_classes:
            raise ContractViolation(
                f"{len(labels)} label names for {config.num_classes} classes")
        self.config = config
        self.embedding_matrix = np.ascontiguousarray(embedding_matrix, dtype=np.float64)
        self.vocab = vocab
        self.labels = tuple(labels)
        rng = (np.random.default_rng(np.random.SeedSequence([config.seed, 0xA11]))
               if _draw_weights else None)
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

    def snapshot(self) -> dict:
        return {name: p.copy() for name, p in self.params().items()}

    def restore(self, snapshot: dict):
        for name, p in self.params().items():
            p[...] = snapshot[name]

    def _masks(self, dropout_rng):
        cfg = self.config
        dense = layers.dropout_mask(dropout_rng, cfg.num_filters, cfg.dense_dropout)
        lstm = tuple(layers.dropout_mask(dropout_rng, d, cfg.lstm_dropout) for d in
                     (cfg.sentence_dim, cfg.lstm_hidden, cfg.sentence_dim, cfg.lstm_hidden))
        return dense, lstm

    def probabilities(self, docs):
        """Yields the class probabilities of each document of `docs` in
        inference mode. The documents share one ProjectionScope, so the
        weights must not change until the generator is done."""
        scope = layers.ProjectionScope(self.conv, self.embedding_matrix)
        for doc in docs:
            yield self.forward(doc, scope=scope)[0]

    def forward(self, doc: Document, train: bool = False, dropout_rng=None, *, scope):
        """Returns (class probabilities, cache). Dropout is active only when
        train=True and a dropout_rng is supplied; masks are fixed per document.

        The convolution reads the word vectors' filter products from `scope`
        (a ProjectionScope of this model), which projects the vectors of the
        document's tokens it does not hold yet.
        """
        cfg = self.config
        sentences = doc.sentences[: cfg.max_sentences_per_doc]
        scope.admit(np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.intp))
        dense_mask, lstm_masks = self._masks(dropout_rng if train else None)
        features = np.empty((len(sentences), cfg.num_filters))
        windows = (np.empty((len(sentences), cfg.num_filters, cfg.filter_width), dtype=np.intp)
                   if train else None)
        for t, sent in enumerate(sentences):
            rows = layers.sentence_matrix(sent, scope, cfg.filter_width)
            features[t], argmax = self.conv.forward(rows, scope)
            if train:
                windows[t] = self.conv.window_rows(rows, argmax)
        sent_vecs, dense_cache = self.dense.forward(features, dense_mask)
        encoded, bilstm_cache = layers.bilstm_encode(sent_vecs, self.lstm_fwd,
                                                     self.lstm_bwd, lstm_masks)
        probs = self.head.probs(encoded)
        cache = None
        if train:
            cache = {"features": features, "windows": windows, "dense": dense_cache,
                     "bilstm": bilstm_cache, "encoded": encoded}
        return probs, cache

    def loss_and_grads(self, batch, dropout_rng=None):
        """Mean cross-entropy loss and mean gradients over a batch of documents.

        Each document's backward pass yields its input gradients plus small
        per-row factors (one row per document for the head, one per sentence
        elsewhere); once the batch is done, every weight gradient is one
        matrix product over the factors of all its rows.
        """
        if len(batch) == 0:
            raise ContractViolation("loss_and_grads on an empty batch")
        if any(doc.label is None for doc in batch):
            raise ContractViolation("loss_and_grads requires labeled documents")
        cfg = self.config
        sentences = [doc.sentences[: cfg.max_sentences_per_doc] for doc in batch]
        ends = np.cumsum([len(s) for s in sentences])
        B, n, F, m, H = (len(batch), int(ends[-1]), cfg.num_filters, cfg.sentence_dim,
                         cfg.lstm_hidden)
        # Allocated up front, so that no array of one document outlives it:
        # small per-document arrays kept across the batch fragment the heap
        # (train-jira peak RSS read 86 MB that way, against 78 MB).
        rows = {"head.grad": np.empty((B, cfg.num_classes)), "head.x": np.empty((B, 2 * H)),
                "dense.grad": np.empty((n, m)), "dense.x": np.empty((n, F)),
                "conv.grad": np.empty((n, F)),
                "conv.windows": np.empty((n, F, cfg.filter_width), dtype=np.intp)}
        for d in ("fwd", "bwd"):
            rows.update({f"{d}.dz": np.empty((n, 4 * H)), f"{d}.x_m": np.empty((n, m)),
                         f"{d}.h_m": np.empty((n, H))})
        sizes = [p.size for p in self.params().values()]
        block = np.empty(sum(sizes))
        grads = {name: part.reshape(p.shape) for (name, p), part in
                 zip(self.params().items(), np.split(block, np.cumsum(sizes)[:-1]))}
        # The gradients are views of one block, written only after every
        # document has run: until then it holds the batch's projection table.
        scope = layers.ProjectionScope(self.conv, self.embedding_matrix, memory=block)
        scope.admit(np.fromiter(itertools.chain.from_iterable(itertools.chain(*sentences)),
                                dtype=np.intp))
        total_loss = 0.0
        for i, doc in enumerate(batch):
            span = slice(int(ends[i]) - len(sentences[i]), int(ends[i]))
            total_loss += self._document_backward(doc, i, span, rows, scope, dropout_rng)
        layers.linear_param_grads(rows["head.grad"], rows["head.x"],
                                  grads["head.weights"], grads["head.bias"])
        for d in ("fwd", "bwd"):
            layers.LstmCell.param_grads(rows[f"{d}.dz"], rows[f"{d}.x_m"], rows[f"{d}.h_m"],
                                        grads[f"lstm_{d}.input_weights"],
                                        grads[f"lstm_{d}.recurrent_weights"],
                                        grads[f"lstm_{d}.bias"])
        layers.linear_param_grads(rows["dense.grad"], rows["dense.x"],
                                  grads["dense.weights"], grads["dense.bias"])
        self.conv.param_grads(scope.vectors(), rows["conv.windows"], rows["conv.grad"],
                              grads["conv.filters"], grads["conv.bias"])
        block /= B
        return total_loss / B, grads

    def _document_backward(self, doc: Document, i: int, span: slice, rows: dict,
                           scope: layers.ProjectionScope, dropout_rng) -> float:
        """Backward pass of one document: writes its factors to row i of the
        per-document buffers and to rows `span` of the per-sentence ones."""
        probs, cache = self.forward(doc, train=True, dropout_rng=dropout_rng, scope=scope)
        loss, grad_enc, grad_logits = self.head.loss_and_grads(probs, doc.label)
        rows["head.grad"][i] = grad_logits
        rows["head.x"][i] = cache["encoded"]
        bilstm_cache = cache["bilstm"]
        grad_seq, dz_fwd, dz_bwd = layers.bilstm_backward(
            grad_enc, self.lstm_fwd, self.lstm_bwd, bilstm_cache)
        for d, dz in (("fwd", dz_fwd), ("bwd", dz_bwd)):
            rows[f"{d}.dz"][span] = dz
            rows[f"{d}.x_m"][span] = bilstm_cache[d]["x_m"]
            rows[f"{d}.h_m"][span] = bilstm_cache[d]["h_m"]
        grad_feats, rows["dense.grad"][span] = self.dense.backward(grad_seq, cache["dense"])
        rows["dense.x"][span] = cache["dense"]["x_masked"]
        rows["conv.grad"][span] = self.conv.backward(grad_feats, cache["features"])
        rows["conv.windows"][span] = cache["windows"]
        return loss


def save_checkpoint(model: HiCnnLstmModel, path):
    """Versioned little-endian binary container: the config, the token list
    (in index order) and the label names (in class order) as JSON records,
    the token list's fingerprint, then the embedding matrix and every
    trainable parameter. The arrays are written from their own memory,
    never gathered into a buffer of the whole file."""
    arrays = dict(model.params())
    arrays["embedding_matrix"] = model.embedding_matrix
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for record in (model.config.__dict__, model.vocab.index_to_token, model.labels):
            raw = json.dumps(record, sort_keys=True).encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        fh.write(struct.pack("<Q", model.vocab.fingerprint()))
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f8")
            name_b = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(name_b)}sI{arr.ndim}I", len(name_b), name_b, arr.ndim,
                                 *arr.shape))
            fh.write(arr.reshape(-1).view(np.uint8))


def load_checkpoint(path) -> HiCnnLstmModel:
    """Reads each stored array straight into the model's own buffer: no copy
    of the file is held, which keeps start-up cost low for a large model.
    Every way the file can be malformed raises a CheckpointError naming it."""
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        if reader.take(4) != CHECKPOINT_MAGIC:
            raise CheckpointVersionError(f"{path}: not a sentihier checkpoint")
        version = reader.unpack("<I")
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"{path}: checkpoint format version {version}, but this sentihier reads "
                f"only version {CHECKPOINT_VERSION}; retrain the model with `sentihier train`")
        try:
            cfg = ModelConfig(**reader.json("config"))
        except (TypeError, ContractViolation) as exc:
            raise CheckpointError(f"{path}: malformed config record: {exc}") from None
        vocab = Vocabulary.of(_names(reader.json("token"), path, "token"))
        labels = _names(reader.json("label"), path, "label")
        fingerprint = reader.unpack("<Q")
        if fingerprint != vocab.fingerprint():
            raise CheckpointFingerprintError(
                f"{path}: stored vocabulary fingerprint {fingerprint:#x} does not match "
                f"its token list ({vocab.fingerprint():#x})")
        stored = {}  # name -> (shape, file offset of its data)
        for _ in range(reader.unpack("<I")):
            name = reader.take(reader.unpack("<I")).decode("utf-8", "backslashreplace")
            shape = tuple(reader.unpack("<I") for _ in range(reader.unpack("<I")))
            stored[name] = shape, reader.skip(8 * math.prod(shape))
        if "embedding_matrix" not in stored:
            raise CheckpointTruncatedError(f"{path}: missing embedding matrix")
        shape, at = stored.pop("embedding_matrix")
        try:
            model = HiCnnLstmModel(cfg, reader.read_into(np.empty(shape), at), vocab, labels,
                                   _draw_weights=False)
        except (ShapeError, ContractViolation, MemoryError) as exc:
            # a token or label count that is off, or a config too large to build
            raise CheckpointError(f"{path}: {exc}") from None
        params = model.params()
        found = {(name, shape) for name, (shape, _) in stored.items()}
        expected = {(name, p.shape) for name, p in params.items()}
        if found != expected:
            raise CheckpointTruncatedError(
                f"{path}: parameter set mismatch: {sorted(found ^ expected)}")
        for name, (_, at) in stored.items():
            reader.read_into(params[name], at)
    return model


def _names(names, path, kind: str) -> tuple:
    """The tokens or the label names: a non-empty list of distinct strings."""
    if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)
            and len(set(names)) == len(names)):
        raise CheckpointError(f"{path}: malformed {kind} record: "
                              f"not a non-empty list of distinct {kind} names")
    return tuple(names)


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

    def json(self, kind: str):
        """The value of a length-prefixed JSON record."""
        try:
            return json.loads(self.take(self.unpack("<I")).decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or JSON
            raise CheckpointError(f"{self.path}: malformed {kind} record: {exc}") from None

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
