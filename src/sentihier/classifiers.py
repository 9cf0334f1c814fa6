"""Classifier pipelines for the evaluation harness.

A pipeline holds a dataset's tokenized documents and class indices. Its
fit(train_ix, seed) does the fold-local preprocessing (vocabulary built from
the training indices only, embedding matrix assembly), trains, and returns
(predict, history), where predict(test_ix) gives one class index per test
index: the protocol of evaluation.cross_validate / learning_curve, which time
both calls.
"""

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
    """Hierarchical CNN-BiLSTM pipeline over `tokenized` documents of class `labels`."""

    def __init__(self, tokenized, labels, model_config: ModelConfig, train_config: TrainConfig,
                 label_names, table: EmbeddingTable | None = None, embedding_seed: int = 42):
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
        self.tokenized = tokenized
        self.labels = labels
        self.model_config = model_config
        self.train_config = train_config
        self.label_names = label_names
        self.table = table
        self.embedding_seed = embedding_seed

    def build(self, ix, seed: int):
        """The encoded documents `ix` and a fresh model seeded with `seed`,
        whose vocabulary is that of those documents."""
        vocab = build_vocab(self.tokenized[i] for i in ix)
        matrix = embedding_matrix_for(vocab, self.table, self.model_config.embedding_dim,
                                      self.embedding_seed)
        docs = [encode(self.tokenized[i], vocab, self.labels[i]) for i in ix]
        model = HiCnnLstmModel(self.model_config, matrix, vocab, self.label_names, seed=seed)
        return docs, model

    def fit(self, train_ix, seed: int):
        docs, model = self.build(train_ix, seed)
        model, history = fit(model, docs, self.train_config, seed)

        def predict(test_ix):
            test_docs = (encode(self.tokenized[i], model.vocab) for i in test_ix)
            return [int(np.argmax(p)) for p in model.probabilities(test_docs)]
        return predict, history


class NaiveBayesClassifier:
    """Multinomial NB bag-of-words pipeline with add-one smoothing; it draws
    nothing, so fit ignores its seed."""

    def __init__(self, tokenized, labels):
        self.tokenized = tokenized
        self.labels = labels

    def fit(self, train_ix, seed: int):
        vocab = build_vocab(self.tokenized[i] for i in train_ix)
        nb = baseline.nb_fit([encode(self.tokenized[i], vocab, self.labels[i]) for i in train_ix],
                             len(vocab), max(self.labels) + 1)

        def predict(test_ix):
            return [baseline.nb_predict(nb, encode(self.tokenized[i], vocab)) for i in test_ix]
        return predict, None
