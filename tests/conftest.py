import csv
import struct
import zlib

import numpy as np
import pytest

from sentihier.model import HiCnnLstmModel, ModelConfig
from sentihier.textprep import Document, Vocabulary


def desk_config():
    """Tiny dimensions so finite-difference checks stay fast."""
    return ModelConfig(embedding_dim=4, filter_width=2, num_filters=3,
                       sentence_dim=3, lstm_hidden=2)


def desk_names(vocab_size, num_classes):
    """Stand-in (vocabulary, label names) for a model built in a test."""
    tokens = ["<unk>", "<pad>"] + [f"w{i}" for i in range(2, vocab_size)]
    return Vocabulary.of(tokens), tuple(f"class{c}" for c in range(num_classes))


def desk_model(num_classes=2, seed=7, vocab_size=9, emb_seed=0):
    rng = np.random.default_rng(emb_seed)
    emb = rng.normal(size=(vocab_size, 4))
    emb[0] = 0.0
    emb[1] = 0.0
    return HiCnnLstmModel(desk_config(), emb, *desk_names(vocab_size, num_classes), seed=seed)


def dropout_mask(rng, size, rate):
    """Reference inverted-dropout mask of shape `size`: 0 or 1/(1 - rate),
    for one rate or one per column, as HiCnnLstmModel._masks draws it."""
    keep = 1.0 - rate
    return (rng.random(size) < keep).astype(np.float64) / keep


def finite_difference_check(loss_fn, params, grads, rng, eps=1e-5,
                            coords_per_tensor=100, rtol=1e-4):
    """Central finite differences on randomly sampled coordinates.

    loss_fn() must recompute the scalar loss from the (mutated) params.
    Returns the worst relative error seen.
    """
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        g = grads[name].reshape(-1)
        n_coords = min(coords_per_tensor, flat.size)
        for i in rng.choice(flat.size, size=n_coords, replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            loss_plus = loss_fn()
            flat[i] = orig - eps
            loss_minus = loss_fn()
            flat[i] = orig
            fd = (loss_plus - loss_minus) / (2 * eps)
            denom = max(abs(fd), abs(g[i]), 1e-8)
            rel = abs(fd - g[i]) / denom
            assert rel <= rtol, f"{name}[{i}]: analytic {g[i]}, fd {fd}, rel {rel}"
            worst = max(worst, rel)
    return worst


def write_dataset_csv(ds, path):
    """A LabeledDataset as the (text, label) CSV that load_csv reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        writer.writerows(ds.samples)


def save_word2vec_text(vectors: dict, path):
    """Token -> vector pairs in the word2vec text format."""
    dim = len(next(iter(vectors.values())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(vectors)} {dim}\n")
        for token, vec in vectors.items():
            fh.write(f"{token} {' '.join(repr(float(v)) for v in vec)}\n")


def replace_record(data: bytes, index: int, record: bytes) -> bytes:
    """A checkpoint with its index-th JSON record (0 config, 1 tokens,
    2 labels) replaced, under a valid CRC-32."""
    at = 8
    for _ in range(index):
        at += 8 + struct.unpack_from("<I", data, at)[0]
    (old_len,) = struct.unpack_from("<I", data, at)
    framed = struct.pack("<I", len(record)) + record
    return data[:at] + framed + struct.pack("<I", zlib.crc32(framed)) + data[at + 8 + old_len :]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
