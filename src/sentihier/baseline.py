"""Multinomial Naive Bayes over bag-of-words counts with Laplace smoothing.

All scores are accumulated in log space. Tokens outside the training
vocabulary (the UNK index included) are skipped at prediction time, since
no likelihood mass exists for them.
"""

import numpy as np

from .errors import ConfigurationError
from .textprep import UNK_INDEX


class NbModel:
    def __init__(self, class_log_prior: np.ndarray, token_log_likelihood: np.ndarray):
        self.class_log_prior = class_log_prior
        self.token_log_likelihood = token_log_likelihood


def nb_fit(docs, vocab_size: int, num_classes: int) -> NbModel:
    """Fit from labeled Documents; counts are pooled across sentences, and
    every count is smoothed by adding 1 (Laplace)."""
    class_counts = np.zeros(num_classes, dtype=np.float64)
    token_counts = np.zeros((num_classes, vocab_size), dtype=np.float64)
    for doc in docs:
        class_counts[doc.label] += 1
        for sent in doc.sentences:
            for tok in sent:
                token_counts[doc.label, tok] += 1
    if np.any(class_counts == 0):
        missing = np.flatnonzero(class_counts == 0).tolist()
        raise ConfigurationError(f"classes {missing} have no training samples")
    class_log_prior = np.log(class_counts / class_counts.sum())
    totals = token_counts.sum(axis=1, keepdims=True)
    token_log_likelihood = np.log((token_counts + 1.0) / (totals + vocab_size))
    return NbModel(class_log_prior, token_log_likelihood)


def nb_predict(model: NbModel, doc) -> int:
    """Argmax of prior + summed token log-likelihoods; ties to the lowest class."""
    scores = model.class_log_prior.copy()
    V = model.token_log_likelihood.shape[1]
    for sent in doc.sentences:
        for tok in sent:
            if tok == UNK_INDEX or tok >= V:
                continue
            scores += model.token_log_likelihood[:, tok]
    return int(np.argmax(scores))
