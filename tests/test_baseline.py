import itertools
import math

import numpy as np
import pytest

from sentihier.baseline import nb_fit, nb_predict
from sentihier.errors import ConfigurationError
from sentihier.textprep import UNK_INDEX, Document


def doc(tokens, label=None):
    return Document((tuple(tokens),), label)


def brute_force_posterior(train_docs, vocab_size, num_classes, alpha, test_doc):
    """Independent oracle: enumerate the smoothed posterior directly."""
    best_score, best_class = -math.inf, 0
    n = len(train_docs)
    for c in range(num_classes):
        class_docs = [d for d in train_docs if d.label == c]
        score = math.log(len(class_docs) / n)
        counts = [0] * vocab_size
        for d in class_docs:
            for sent in d.sentences:
                for t in sent:
                    counts[t] += 1
        total = sum(counts)
        for sent in test_doc.sentences:
            for t in sent:
                if t == UNK_INDEX:
                    continue
                score += math.log((counts[t] + alpha) / (total + alpha * vocab_size))
        if score > best_score:
            best_score, best_class = score, c
    return best_class


class TestNbFit:
    def test_closed_form_likelihood(self):
        # Docs: "good" -> pos(1), "bad" -> neg(0); V = {unk, w1, good, bad}.
        train = [doc([2], 1), doc([3], 0)]
        model = nb_fit(train, vocab_size=4, num_classes=2)
        # P(good|pos) = (1+1)/(1+4) with the reserved indices in V; check the
        # two-token universe explicitly instead: counts 1 of 1 token, V=4.
        assert math.isclose(math.exp(model.token_log_likelihood[1, 2]), 2 / 5)
        assert math.isclose(math.exp(model.token_log_likelihood[0, 2]), 1 / 5)

    def test_two_token_universe_matches_hand_arithmetic(self):
        # With only the two content tokens in V: P(good|pos) = (1+1)/(1+2).
        train = [doc([0], 1), doc([1], 0)]
        model = nb_fit(train, vocab_size=2, num_classes=2)
        assert math.isclose(math.exp(model.token_log_likelihood[1, 0]), 2 / 3)

    def test_balanced_priors(self):
        train = [doc([2], 0), doc([3], 1), doc([2], 0), doc([3], 1)]
        model = nb_fit(train, vocab_size=4, num_classes=2)
        np.testing.assert_allclose(model.class_log_prior, np.log([0.5, 0.5]))

    def test_likelihood_rows_normalize(self):
        rng = np.random.default_rng(0)
        train = [doc(rng.integers(0, 6, size=5).tolist(), int(rng.integers(0, 2)))
                 for _ in range(10)]
        train.append(doc([0], 0))
        train.append(doc([0], 1))
        model = nb_fit(train, vocab_size=6, num_classes=2)
        sums = np.exp(model.token_log_likelihood).sum(axis=1)
        np.testing.assert_allclose(sums, np.ones(2), atol=1e-9)

    def test_missing_class_rejected(self):
        with pytest.raises(ConfigurationError):
            nb_fit([doc([2], 0)], vocab_size=3, num_classes=2)


class TestNbPredict:
    def test_hand_enumerated_example(self):
        train = [doc([2], 1), doc([3], 0)]  # good -> pos, bad -> neg
        model = nb_fit(train, vocab_size=4, num_classes=2)
        assert nb_predict(model, doc([2])) == 1
        assert nb_predict(model, doc([3])) == 0

    def test_all_oov_falls_back_to_prior(self):
        train = [doc([2], 0), doc([2], 0), doc([3], 1)]
        model = nb_fit(train, vocab_size=4, num_classes=2)
        assert nb_predict(model, doc([UNK_INDEX, UNK_INDEX])) == 0

    def test_token_duplication_preserves_argmax(self):
        train = [doc([2], 1), doc([3], 0)]
        model = nb_fit(train, vocab_size=4, num_classes=2)
        assert nb_predict(model, doc([2, 2])) == nb_predict(model, doc([2]))

    def test_no_underflow_on_long_documents(self):
        train = [doc([2], 0), doc([3], 1)]
        model = nb_fit(train, vocab_size=4, num_classes=2)
        long_doc = doc([2] * 10_000)
        assert nb_predict(model, long_doc) == 0

    def test_matches_brute_force_oracle_on_tiny_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            vocab_size = int(rng.integers(3, 7))
            num_classes = int(rng.integers(2, 4))
            n_docs = int(rng.integers(num_classes, 9))
            train = []
            for i in range(n_docs):
                label = i % num_classes
                tokens = rng.integers(2, vocab_size, size=rng.integers(1, 5)).tolist()
                train.append(doc(tokens, label))
            model = nb_fit(train, vocab_size, num_classes)
            test = doc(rng.integers(0, vocab_size, size=rng.integers(1, 6)).tolist())
            assert nb_predict(model, test) == brute_force_posterior(
                train, vocab_size, num_classes, 1.0, test)
