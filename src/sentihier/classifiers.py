"""Classifier pipelines for the evaluation harness.

Each pipeline owns the fold-local preprocessing (vocabulary built from the
training indices only, embedding matrix assembly) and exposes a fit_predict
closure compatible with evaluation.cross_validate / learning_curve.
"""

import time

import numpy as np

from . import baseline
from .embeddings import EmbeddingTable, random_table
from .errors import ConfigurationError
from .model import HiCnnLstmModel, ModelConfig
from .textprep import UNK_INDEX, Vocabulary, build_vocab, encode, tokenize_document
from .train import TrainConfig, fit

CLASSIFIER_NAMES = ("hicnnlstm", "nb")


def embedding_matrix_for(vocab, table: EmbeddingTable | None, dim: int,
                         embedding_seed: int) -> np.ndarray:
    """One row per vocabulary index; the UNK row stays zero. A table's vectors
    have dimension `dim`: HiCnnLstmClassifier checks that once, not per fold.

    With no table (random mode), random_table hashes the whole vocabulary: a
    row depends only on (embedding_seed, token), so it is identical across folds.
    """
    if table is None:
        matrix = random_table(vocab.index_to_token, dim, embedding_seed)
        matrix[UNK_INDEX] = 0.0
        return matrix
    matrix = np.zeros((len(vocab), dim), dtype=np.float64)
    for idx, token in enumerate(vocab.index_to_token[1:], start=1):
        matrix[idx] = table.lookup(token)
    return matrix


def prepare(dataset):
    """Tokenize every sample once; returns (tokenized docs, class indices)."""
    tokenized = [tokenize_document(text) for text in dataset.texts()]
    return tokenized, dataset.labels()


class HiCnnLstmClassifier:
    """Hierarchical CNN-BiLSTM pipeline."""

    def __init__(self, model_config: ModelConfig, train_config: TrainConfig, label_names,
                 table: EmbeddingTable | None = None, embedding_seed: int = 42):
        """Checks that the word vectors have the configured dimension, and
        that a model of this config can be allocated: its buffers are made
        once with seed=None, which draws nothing and touches no page."""
        if table is not None and table.dim != model_config.embedding_dim:
            raise ConfigurationError(f"the word vectors have dimension {table.dim}, but "
                                     f"embedding_dim is {model_config.embedding_dim}")
        try:
            HiCnnLstmModel(model_config, np.empty((0, model_config.embedding_dim)),
                           Vocabulary.of(()), label_names, seed=None)
        except (MemoryError, ValueError) as exc:
            raise ConfigurationError(f"{model_config} is too large to build: {exc}") from None
        self.model_config = model_config
        self.train_config = train_config
        self.label_names = label_names
        self.table = table
        self.embedding_seed = embedding_seed

    def build(self, tokenized, labels, seed: int):
        """Encoded documents and a fresh model seeded with `seed`, whose
        vocabulary is that of `tokenized`."""
        vocab = build_vocab(tokenized)
        matrix = embedding_matrix_for(vocab, self.table, self.model_config.embedding_dim,
                                      self.embedding_seed)
        docs = [encode(t, vocab, label) for t, label in zip(tokenized, labels)]
        model = HiCnnLstmModel(self.model_config, matrix, vocab, self.label_names, seed=seed)
        return docs, model

    def fit_predict_factory(self, tokenized, labels):
        def fit_predict(train_ix, test_ix, seed):
            train_docs, model = self.build(
                [tokenized[i] for i in train_ix], [labels[i] for i in train_ix], seed)
            t0 = time.perf_counter()
            model, history = fit(model, train_docs, self.train_config, seed)
            t1 = time.perf_counter()
            test_docs = (encode(tokenized[i], model.vocab) for i in test_ix)
            preds = [int(np.argmax(p)) for p in model.probabilities(test_docs)]
            t2 = time.perf_counter()
            return {"predictions": preds, "history": history,
                    "train_seconds": t1 - t0, "test_seconds": t2 - t1}
        return fit_predict


class NaiveBayesClassifier:
    """Multinomial NB bag-of-words pipeline with add-one smoothing."""

    def fit_predict_factory(self, tokenized, labels):
        num_classes = max(labels) + 1
        def fit_predict(train_ix, test_ix, seed):
            vocab = build_vocab(tokenized[i] for i in train_ix)
            t0 = time.perf_counter()
            nb = baseline.nb_fit([encode(tokenized[i], vocab, labels[i]) for i in train_ix],
                                 len(vocab), num_classes)
            t1 = time.perf_counter()
            preds = [baseline.nb_predict(nb, encode(tokenized[i], vocab)) for i in test_ix]
            t2 = time.perf_counter()
            return {"predictions": preds, "history": None,
                    "train_seconds": t1 - t0, "test_seconds": t2 - t1}
        return fit_predict
