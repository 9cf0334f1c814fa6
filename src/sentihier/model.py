"""End-to-end hierarchical model: per-sentence CNN encoder, BiLSTM over the
sentence vectors, softmax head; plus checkpoint persistence.

A forward call runs a list of documents with no cross-document padding:
their sentences stay one stack of rows through the convolution, the dense
layer and each LSTM direction, which projects all the rows in one GEMM and
runs every document's first step at once; only the rest of each recurrence
runs one document at a time, from a zero state (LstmCell.run_batch). The
head takes one row per document. A batch's gradients are the mean of
per-document gradients, formed once per batch from the factors of all rows.
Training draws its dropout masks at the paper's fixed rates: 0.4 on the
dense layer's inputs, 0.2 on each LSTM direction's inputs and recurrent
state. Only a document's first 50 sentences are read. A training forward
call projects its own documents' word vectors for the convolution;
inference (probabilities) projects those of a group of 64-document chunks
once, and runs the group's chunks in forward calls that share the table. A
group's table is bounded in bytes (PROJECTION_BYTES), not by a count of
documents alone, since its size grows with the distinct words read.

A model carries the vocabulary that indexes its embedding rows and the names
of its classes, so one checkpoint file (format version 6, see
save_checkpoint) is all `predict` needs.
"""

import itertools
import json
import math
import os
import struct
import sys
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import layers
from .errors import ConfigurationError, ParseError, SentihierError
from .textprep import Vocabulary

CHECKPOINT_MAGIC = b"SHCK"
CHECKPOINT_VERSION = 6
INFERENCE_CHUNK = 64  # documents per forward call of probabilities, after the first
PROJECTION_GROUP = 16 * INFERENCE_CHUNK  # most documents whose words probabilities projects at once
PROJECTION_BYTES = 8 << 20  # most bytes of such a table, unless one chunk alone needs more
DENSE_DROPOUT = 0.4
LSTM_DROPOUT = 0.2
MAX_SENTENCES = 50  # sentences read per document; the rest are dropped


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 300
    filter_width: int = 5
    num_filters: int = 150
    sentence_dim: int = 150
    lstm_hidden: int = 128

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 1:
                raise ConfigurationError(f"{f.name} must be an int >= 1, got {value!r}")


class HiCnnLstmModel:
    """All trainable parameters plus the static embedding matrix, whose row i
    is the vector of vocab token i; labels[c] names class c, one per class.

    The parameters live in one flat float64 block, each layer's weights and
    then its bias, back to back in the order conv, dense, lstm_fwd, lstm_bwd,
    head; every layer is built over views into it. A gradient block and
    Adam's moments share the layout, so an Adam step, a snapshot and a
    restore each run over one array; views(block) names the parts of any."""

    def __init__(self, config: ModelConfig, embedding_matrix: np.ndarray,
                 vocab: Vocabulary, labels, *, seed: int | None):
        """Each weight matrix is drawn Glorot-uniform from `seed` into its view,
        in block order; biases start at 0, LSTM forget gates at 1. With
        seed=None nothing is set, for load_checkpoint to read the block in."""
        if embedding_matrix.shape != (len(vocab), config.embedding_dim):
            raise SentihierError(
                f"embedding matrix shape {embedding_matrix.shape} does not match "
                f"{len(vocab)} tokens x embedding_dim {config.embedding_dim}")
        self.config, self.vocab, self.labels = config, vocab, tuple(labels)
        self.embedding_matrix = np.ascontiguousarray(embedding_matrix, dtype=np.float64)
        F, S, H, C = config.num_filters, config.sentence_dim, config.lstm_hidden, len(self.labels)
        lstm = {"input_weights": (4 * H, S), "recurrent_weights": (4 * H, H), "bias": (4 * H,)}
        shapes = {"conv.filters": (F, config.filter_width * config.embedding_dim),
                  "conv.bias": (F,), "dense.weights": (S, F), "dense.bias": (S,),
                  **{f"{cell}.{name}": shape for cell in ("lstm_fwd", "lstm_bwd")
                     for name, shape in lstm.items()},
                  "head.weights": (C, 2 * H), "head.bias": (C,)}
        ends = list(itertools.accumulate(map(math.prod, shapes.values())))
        self._layout = {name: (slice(end - math.prod(shape), end), shape)
                        for (name, shape), end in zip(shapes.items(), ends)}
        self.block = np.empty(ends[-1])
        p = self.params()
        if seed is not None:
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11]))
            self.block[...] = 0.0
            for view in (v for v in p.values() if v.ndim == 2):
                # rng.uniform(-limit, limit), drawn in place: -limit + 2 limit u.
                limit = np.sqrt(6.0 / sum(view.shape))
                rng.random(out=view)
                view *= 2 * limit
                view -= limit
            p["lstm_fwd.bias"][H : 2 * H] = p["lstm_bwd.bias"][H : 2 * H] = 1.0  # forget gates
        self.conv = layers.ConvLayer(config.filter_width, p["conv.filters"], p["conv.bias"])
        self.dense = layers.DenseLayer(p["dense.weights"], p["dense.bias"])
        self.lstm_fwd, self.lstm_bwd = (layers.LstmCell(*(p[f"{cell}.{name}"] for name in lstm))
                                        for cell in ("lstm_fwd", "lstm_bwd"))
        self.head = layers.SoftmaxHead(p["head.weights"], p["head.bias"])

    def _new_block(self) -> np.ndarray:
        """An uninitialised block of this model's layout."""
        return np.empty_like(self.block)

    def views(self, block: np.ndarray) -> dict:
        """Name -> view of each parameter's part of `block`, any block of this layout."""
        return {name: block[part].reshape(shape) for name, (part, shape) in self._layout.items()}

    def params(self) -> dict:
        """Name -> view of every trainable parameter."""
        return self.views(self.block)

    def snapshot(self) -> np.ndarray:
        return self.block.copy()

    def restore(self, snapshot: np.ndarray):
        self.block[...] = snapshot

    def _masks(self, dropout_rng, counts) -> list:
        """The [dense, fwd input, fwd recurrent, bwd input, bwd recurrent]
        inverted-dropout masks, 0 or 1/(1 - rate), of documents of counts[d]
        sentences: one draw takes them document by document. The dense and
        input masks have a row per sentence, each document's row repeated,
        and the recurrent masks a row per document."""
        cfg = self.config
        widths = (cfg.num_filters, *[cfg.sentence_dim, cfg.lstm_hidden] * 2)
        keep = 1.0 - np.repeat([DENSE_DROPOUT] + [LSTM_DROPOUT] * 4, widths)
        drawn = (dropout_rng.random((len(counts), len(keep))) < keep).astype(np.float64) / keep
        masks = np.split(drawn, np.cumsum(widths)[:-1], axis=1)
        return [m if i in (2, 4) else np.repeat(m, counts, axis=0) for i, m in enumerate(masks)]

    def _lstm_directions(self):
        """(name, cell, reverse) of each direction; bwd reads sentences last to first."""
        return ("lstm_fwd", self.lstm_fwd, False), ("lstm_bwd", self.lstm_bwd, True)

    def probabilities(self, docs):
        """Yields the class probabilities of each document of `docs` in
        inference mode. forward runs a first chunk of one document, so the
        first result comes after one document's work. The rest is read in
        chunks of INFERENCE_CHUNK, and consecutive chunks form a group
        (_groups) whose distinct word vectors are projected once
        (ConvLayer.project) into a table that all its forward calls read.
        A group ends before the chunk that would take its table past
        PROJECTION_BYTES, or its documents past PROJECTION_GROUP, so a
        table holds at most PROJECTION_BYTES, or one chunk's own distinct
        words where those alone take more (f x F floats a word). It is
        freed before the next group's is made. A document's probabilities
        depend on its chunk and group only through the rounding of the
        BLAS products."""
        docs = iter(docs)
        first = list(itertools.islice(docs, 1))
        if first:
            yield from self.forward(first)[0]
        for group, ids in self._groups(docs):
            projected = self._projection(ids)
            for at in range(0, len(group), INFERENCE_CHUNK):
                yield from self.forward(group[at : at + INFERENCE_CHUNK], projected=projected)[0]
            del projected

    def _groups(self, docs):
        """Yields (group, ids): consecutive whole chunks of INFERENCE_CHUNK
        documents of `docs`, and the sorted distinct tokens they read. A
        chunk starts a new group when the group's table would otherwise
        pass PROJECTION_BYTES or the group PROJECTION_GROUP documents."""
        cfg = self.config
        max_rows = PROJECTION_BYTES // (8 * cfg.filter_width * cfg.num_filters)
        group, ids = [], None
        while chunk := list(itertools.islice(docs, INFERENCE_CHUNK)):
            own = np.unique(_tokens(chunk))
            if group:
                merged = np.union1d(ids, own)
                if len(merged) < max_rows and len(group) + len(chunk) <= PROJECTION_GROUP:
                    group += chunk
                    ids = merged
                    continue
                yield group, ids
            group, ids = chunk, own
        if group:
            yield group, ids

    def _projection(self, ids: np.ndarray):
        """(ids, table): sorted distinct tokens and the ConvLayer.project
        table of their word vectors, whose row 1 + i is that of ids[i]."""
        return ids, self.conv.project(self.embedding_matrix[ids])

    def forward(self, docs, train: bool = False, dropout_rng=None, *, projected=None):
        """Returns ((B, C) class probabilities of the B documents `docs`,
        cache). Masks are drawn (_masks) only when train=True and a
        dropout_rng is supplied; otherwise no mask is built at all and
        nothing is masked (no dropout). With train=True the cache for
        loss_and_grads is kept, masks or not.

        The sentences of all documents run through the convolution and the
        dense layer as one stack of rows. The model applies the masks: the
        dense mask to the features before the dense layer, each direction's
        input mask to the sentence vectors before its projection, and the
        recurrent masks through LstmCell.run_batch. The convolution reads
        the filter products of the documents' word vectors from projected,
        an (ids, table) pair of _projection whose ids must hold every token
        the documents read (a SentihierError otherwise); with none given,
        this call projects the documents' own distinct tokens into a table
        that is freed as soon as the convolution has read it. An empty
        `docs` is a SentihierError too: the layers below check no input of
        their own.
        """
        if len(docs) == 0:
            raise SentihierError("forward needs at least one document")
        cfg = self.config
        sentences = [doc.sentences[:MAX_SENTENCES] for doc in docs]
        seqs = list(itertools.chain.from_iterable(sentences))
        tokens = _tokens(docs)
        ids, table = projected or self._projection(np.unique(tokens))
        distinct = np.searchsorted(ids, tokens)
        if projected is not None and not np.array_equal(ids.take(distinct, mode="clip"), tokens):
            raise SentihierError("the projected table lacks a token of the documents")
        counts = [len(s) for s in sentences]
        masks = (self._masks(dropout_rng, counts) if train and dropout_rng is not None
                 else [None] * 5)
        rows, starts = layers.sentence_matrix(seqs, distinct, cfg.filter_width)
        features, windows = self.conv.forward(rows, starts, table, first_max=train)
        del table, projected  # a table of this call's own is freed here
        dense_in = _masked(features, masks[0])
        sent_vecs, dense_pre = self.dense.forward(dense_in)
        H = cfg.lstm_hidden
        encoded = np.empty((len(sentences), 2 * H))
        lstm = []
        for d, (_, cell, reverse) in enumerate(self._lstm_directions()):
            x_m = _masked(sent_vecs, masks[1 + 2 * d])
            encoded[:, d * H : (d + 1) * H], run = cell.run_batch(
                cell.project(x_m), counts, masks[2 + 2 * d], reverse)
            lstm.append({"x_m": x_m, "run": run})
        cache = {"ids": ids, "rows": rows, "windows": windows, "features": features,
                 "masks": masks, "dense_in": dense_in, "dense_pre": dense_pre, "lstm": lstm,
                 "encoded": encoded} if train else None
        return self.head.probs(encoded), cache

    def loss_and_grads(self, batch, dropout_rng=None):
        """Mean cross-entropy loss over a batch of documents, and the block of
        its mean gradients, laid out as the parameter block (views names its parts).

        One forward pass runs the batch. The backward pass runs the head, the
        dense layer and the convolution once each over all their rows (one
        row per document for the head, one per sentence elsewhere), and each
        LSTM direction's backpropagation through time over all its rows, with
        only the recurrence one document at a time (LstmCell.backward_batch);
        then each LSTM direction's input gradient and every weight gradient
        is one product over all rows.
        A label that is not an int (or a numpy integer) in [0, C) is a
        SentihierError before any work: a -1 would pick the last class, and
        the head would cast 0.5 to class 0 and 1.9 to class 1. A bool is not
        a label either. An empty batch is a SentihierError too, in forward.
        """
        gold, C = [doc.label for doc in batch], len(self.labels)
        for label in gold:
            if (not isinstance(label, (int, np.integer)) or isinstance(label, bool)
                    or not 0 <= label < C):
                raise SentihierError(
                    f"loss_and_grads needs every label in [0, {C}), got {label!r}")
        # The gradient block is made after the forward pass, whose projection
        # table is freed by then: the two are never alive at once.
        probs, cache = self.forward(batch, train=True, dropout_rng=dropout_rng)
        grad_block = self._new_block()
        grads = self.views(grad_block)
        loss, grad_enc, grad_logits = self.head.loss_and_grads(probs, gold)
        H, masks = self.config.lstm_hidden, cache["masks"]
        grad_seq = 0.0
        for d, (name, cell, _) in enumerate(self._lstm_directions()):
            lstm = cache["lstm"][d]
            dz = cell.backward_batch(grad_enc[:, d * H : (d + 1) * H], lstm["run"])
            grad_seq = grad_seq + _masked(dz @ cell.input_weights, masks[1 + 2 * d])
            layers.linear_param_grads(dz, lstm["x_m"], grads[f"{name}.input_weights"],
                                      grads[f"{name}.bias"])
            np.matmul(dz.T, lstm["run"]["h_m"], out=grads[f"{name}.recurrent_weights"])
        grad_in, grad_pre = self.dense.backward(grad_seq, cache["dense_pre"])
        gated = self.conv.backward(_masked(grad_in, masks[0]), cache["features"])
        layers.linear_param_grads(grad_logits, cache["encoded"],
                                  grads["head.weights"], grads["head.bias"])
        layers.linear_param_grads(grad_pre, cache["dense_in"],
                                  grads["dense.weights"], grads["dense.bias"])
        self.conv.param_grads(self.embedding_matrix, cache["ids"], cache["rows"], cache["windows"],
                              gated, grads["conv.filters"], grads["conv.bias"])
        grad_block /= len(batch)
        return loss / len(batch), grad_block


def _masked(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """x times its dropout mask, or x itself under no mask."""
    return x if mask is None else x * mask


def _tokens(docs) -> np.ndarray:
    """Every token that the model reads of `docs`, chained: those of each
    document's first MAX_SENTENCES sentences."""
    return np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(
        doc.sentences[:MAX_SENTENCES] for doc in docs)), dtype=np.intp)


def _record(value) -> bytes:
    """A JSON record: its length, its UTF-8 bytes, then the CRC-32 of both."""
    raw = json.dumps(value, sort_keys=True).encode("utf-8")
    framed = struct.pack("<I", len(raw)) + raw
    return framed + struct.pack("<I", zlib.crc32(framed))


def replace_file(path, chunks):
    """Writes the bytes-like `chunks` to `<path>.partial`, then renames it
    over `path`; on any exception the partial file is removed, so a failed
    or interrupted write leaves a previous `path` whole."""
    partial = f"{os.fspath(path)}.partial"
    try:
        with open(partial, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(partial, path)
    except BaseException:
        Path(partial).unlink(missing_ok=True)
        raise


def save_checkpoint(model: HiCnnLstmModel, path):
    """Versioned little-endian binary container: the magic and version; the
    config, the token list (in index order) and the label names (in class
    order) as JSON records, each followed by a CRC-32; then the float64
    values of the parameter block, then those of the embedding matrix. The
    records fix the size and layout of both, so the values need no framing.
    They are written in place, never gathered into a buffer of the whole
    file, and carry no checksum: a CRC-32 over them made a load about 50%
    slower. The file is written by replace_file."""
    records = (model.config.__dict__, model.vocab.index_to_token, model.labels)
    header = b"".join([CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
                       *map(_record, records)])
    replace_file(path, [header, *(np.ascontiguousarray(arr, dtype="<f8")
                                  for arr in (model.block, model.embedding_matrix))])


def load_checkpoint(path) -> HiCnnLstmModel:
    """Reads the file once, front to back. The records are checked against
    their CRC-32 before the model is built from them; the parameter block
    and the embedding matrix are then read straight into the model's own
    buffers, and the file must end there. No copy of the file is held,
    which keeps start-up cost low for a large model. Every way the file can
    be malformed raises a ParseError naming it."""
    with open(path, "rb") as fh:
        reader = _Reader(fh, path)
        if reader.take(4) != CHECKPOINT_MAGIC:
            raise ParseError(f"{path}: not a sentihier checkpoint")
        version = reader.unpack("<I")
        if version != CHECKPOINT_VERSION:
            raise ParseError(
                f"{path}: checkpoint format version {version}, but this sentihier reads "
                f"only version {CHECKPOINT_VERSION}; retrain the model with `sentihier train`")
        try:
            cfg = ModelConfig(**reader.record("config"))
        except (TypeError, ConfigurationError) as exc:
            raise ParseError(f"{path}: malformed config record: {exc}") from None
        vocab = Vocabulary.of(_names(reader.record("token"), path, "token", 1))
        labels = _names(reader.record("label"), path, "label", 2)  # one per class of the head
        try:
            model = HiCnnLstmModel(cfg, np.empty((len(vocab), cfg.embedding_dim)), vocab,
                                   labels, seed=None)
        except (MemoryError, ValueError) as exc:  # a config too large to build
            raise ParseError(f"{path}: cannot build the model: {exc}") from None
        reader.read_into(model.block)
        reader.read_into(model.embedding_matrix)
        if reader.at != reader.size:
            raise ParseError(f"{path}: the embedding matrix ends at byte {reader.at}, "
                             f"but the file has {reader.size} bytes")
    return model


def _names(names, path, kind: str, least: int) -> tuple:
    """The tokens or the label names: a list of `least` or more distinct strings."""
    if not (isinstance(names, list) and len(names) >= least
            and all(isinstance(n, str) for n in names) and len(set(names)) == len(names)):
        raise ParseError(f"{path}: malformed {kind} record: "
                         f"not a list of {least} or more distinct {kind} names")
    return tuple(names)


class _Reader:
    """Reads a file front to back; no read runs past its end."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size
        self.at = 0

    def _claim(self, n: int):
        """Checks that the next n bytes exist, before they are read or allocated."""
        if self.at + n > self.size:
            raise ParseError(
                f"{self.path}: truncated at byte {self.at} (needed {n} more bytes)")
        self.at += n

    def take(self, n: int) -> bytes:
        self._claim(n)
        return self.fh.read(n)

    def record(self, kind: str):
        """The value of a JSON record, once its CRC-32 matches."""
        framed = self.take(4)
        framed += self.take(struct.unpack("<I", framed)[0])
        if self.unpack("<I") != zlib.crc32(framed):
            raise ParseError(f"{self.path}: {kind} record fails its CRC-32 check")
        try:
            return json.loads(framed[4:].decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or JSON
            raise ParseError(f"{self.path}: malformed {kind} record: {exc}") from None

    def unpack(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def read_into(self, arr: np.ndarray):
        """Fills arr with the next arr.size little-endian float64 values."""
        self._claim(arr.nbytes)
        if self.fh.readinto(arr) != arr.nbytes:
            raise ParseError(f"{self.path}: file shrank while being read")
        if sys.byteorder != "little":
            arr.byteswap(inplace=True)
