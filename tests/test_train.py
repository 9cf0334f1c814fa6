import weakref

import numpy as np
import pytest

from conftest import desk_model
from sentihier import train
from sentihier.errors import ConfigurationError, SentihierError
from sentihier.textprep import Document
from sentihier.train import AdamState, TrainConfig, fit


def fit_recording_split(monkeypatch, model, docs, cfg, seed):
    """Runs fit; returns (history, train indices, validation indices), the
    indices into docs of the documents that fit trained and evaluated on."""
    at = {id(doc): i for i, doc in enumerate(docs)}
    trained, evaluated = set(), []
    loss_and_grads, evaluate = model.loss_and_grads, train._evaluate
    monkeypatch.setattr(model, "loss_and_grads", lambda batch, **kw: (
        trained.update(at[id(d)] for d in batch) or loss_and_grads(batch, **kw)))
    monkeypatch.setattr(train, "_evaluate", lambda m, val: (
        evaluated.append([at[id(d)] for d in val]) or evaluate(m, val)))
    _, history = fit(model, docs, cfg, seed=seed)
    return history, sorted(trained), evaluated[0]


def labeled_docs(rng, n, vocab_size=9):
    docs = []
    for i in range(n):
        label = i % 2
        # Token 2 marks class 0, token 3 marks class 1.
        marker = 2 + label
        sents = ((marker,) + tuple(int(t) for t in rng.integers(4, vocab_size, size=3)),)
        docs.append(Document(sents, label))
    return docs


class TestAdam:
    def test_zero_gradient_is_fixpoint(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState(params.size)
        before = params.copy()
        state.step(params, np.zeros(3))
        np.testing.assert_array_equal(params, before)
        assert state.t == 1

    def test_first_step_magnitude(self):
        # Direct evaluation of the recurrences at t=1 for g=0.5, lr=1e-3:
        # m_hat = g, v_hat = g^2, update = lr*g/(|g| + eps) ~= lr.
        params = np.array([0.0])
        state = AdamState(params.size, learning_rate=1e-3)
        state.step(params, np.array([0.5]))
        expected = -1e-3 * 0.5 / (0.5 + 1e-8)
        np.testing.assert_allclose(params, [expected], rtol=1e-12)
        assert abs(params[0] + 1e-3) < 1e-6

    def test_determinism(self):
        def run():
            params = np.linspace(-1, 1, 5)
            state = AdamState(params.size)
            for step in range(10):
                state.step(params, np.sin(params + step))
            return params

        np.testing.assert_array_equal(run(), run())

    def test_in_place_step_is_bit_identical_to_the_formula(self):
        def reference_step(p, m, v, g, t, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
            corr1 = 1.0 - beta1 ** t
            corr2 = 1.0 - beta2 ** t
            m += (1.0 - beta1) * (g - m)
            v += (1.0 - beta2) * (g * g - v)
            m_hat = m / corr1
            v_hat = v / corr2
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)

        rng = np.random.default_rng(3)
        size = 3 * AdamState.CHUNK + 5  # whole chunks, then a ragged last one
        params = rng.normal(size=size)
        expected, m, v = params.copy(), np.zeros(size), np.zeros(size)
        state = AdamState(size)
        for t in range(1, 4):
            grads = rng.normal(size=size)
            reference_step(expected, m, v, grads.copy(), t)
            state.step(params, grads)
            assert params.tobytes() == expected.tobytes()
            assert state.m.tobytes() == m.tobytes()
            assert state.v.tobytes() == v.tobytes()


class TestFit:
    def test_too_small_dataset(self, rng):
        model = desk_model()
        with pytest.raises(ConfigurationError):
            fit(model, labeled_docs(rng, 5), TrainConfig(), seed=1)

    def test_non_finite_loss_raises_with_epoch_and_batch(self, rng, monkeypatch):
        model = desk_model()
        real = type(model).loss_and_grads
        weights_seen = []

        def nan_on_second_batch(self, batch, dropout_rng=None):
            weights_seen.append(self.snapshot())
            loss, grads = real(self, batch, dropout_rng)
            return (float("nan") if len(weights_seen) == 2 else loss), grads

        monkeypatch.setattr(type(model), "loss_and_grads", nan_on_second_batch)
        with pytest.raises(SentihierError, match="epoch 1, batch 2: loss is nan"):
            fit(model, labeled_docs(rng, 40), TrainConfig(batch_size=8), seed=1)
        assert len(weights_seen) == 2
        # The diverged batch's update was not applied.
        np.testing.assert_array_equal(model.block, weights_seen[1])

    def test_batch_gradients_are_released_before_the_next_batch(self, rng):
        model = desk_model()
        real = model.loss_and_grads
        previous = []

        def tracked(batch, dropout_rng=None):
            assert all(ref() is None for ref in previous), "last batch's gradients alive"
            loss, grads = real(batch, dropout_rng)
            previous[:] = [weakref.ref(grads)]
            return loss, grads

        model.loss_and_grads = tracked
        fit(model, labeled_docs(rng, 40), TrainConfig(batch_size=8, max_epochs=2), seed=1)
        assert previous

    def test_converges_on_marker_task(self, rng):
        model = desk_model()
        docs = labeled_docs(rng, 40)
        cfg = TrainConfig(batch_size=8, max_epochs=50, patience=50, learning_rate=0.01)
        model, history = fit(model, docs, cfg, seed=1)
        probs = model.probabilities(Document(d.sentences) for d in docs)
        correct = sum(int(np.argmax(p)) == d.label for p, d in zip(probs, docs))
        assert correct == len(docs)

    def test_stopping_rule_patience_one(self, rng):
        # patience=1 stops one epoch after validation loss stops improving.
        model = desk_model()
        docs = labeled_docs(rng, 20)
        cfg = TrainConfig(batch_size=4, max_epochs=50, patience=1,
                          learning_rate=10.0)  # huge lr forces divergence
        model, history = fit(model, docs, cfg, seed=3)
        assert len(history.epochs) == history.best_epoch + 1

    def test_best_epoch_has_min_val_loss(self, rng):
        model = desk_model()
        cfg = TrainConfig(batch_size=8, max_epochs=10, patience=3)
        model, history = fit(model, labeled_docs(rng, 30), cfg, seed=5)
        losses = [e.val_loss for e in history.epochs]
        assert history.best_epoch == int(np.argmin(losses)) + 1

    def test_restored_weights_reproduce_best_val_loss(self, rng, monkeypatch):
        model = desk_model()
        docs = labeled_docs(rng, 30)
        cfg = TrainConfig(batch_size=8, max_epochs=10, patience=10)
        evaluate = train._evaluate
        history, _, val_ix = fit_recording_split(monkeypatch, model, docs, cfg, seed=5)
        val_loss, _ = evaluate(model, [docs[i] for i in val_ix])
        best = min(e.val_loss for e in history.epochs)
        assert abs(val_loss - best) <= 1e-12

    def test_same_seed_identical_history(self, rng):
        def run():
            model = desk_model()
            _, history = fit(model, labeled_docs(np.random.default_rng(0), 24),
                             TrainConfig(batch_size=6, max_epochs=6, patience=6), seed=9)
            return list(history.to_csv_rows())

        assert run() == run()

    def test_initial_loss_near_log_c(self, rng):
        # Balanced random labels, fresh model: first-epoch loss ~= ln C.
        model = desk_model()
        docs = [Document(((int(t),) + (4,),), label=i % 2)
                for i, t in enumerate(rng.integers(2, 9, size=40))]
        cfg = TrainConfig(batch_size=8, max_epochs=1, patience=1)
        _, history = fit(model, docs, cfg, seed=2)
        assert abs(history.epochs[0].train_loss - np.log(2)) / np.log(2) < 0.05


class TestValSplitPinned:
    def test_known_split(self, monkeypatch):
        # fit's split at seed 5, with a 20% share: round(0.2 * 23) = 5 slots
        # for 8/15 per class; floors 1/3 leave one, which goes to class 1
        # (remainder 0.6).
        monkeypatch.setattr(train, "VAL_FRACTION", 0.2)
        docs = [Document(((2, 3),), int(i % 3 == 0)) for i in range(23)]
        cfg = TrainConfig(batch_size=32, max_epochs=1, patience=1)
        _, train_ix, val_ix = fit_recording_split(monkeypatch, desk_model(), docs, cfg, seed=5)
        assert val_ix == [6, 10, 12, 19, 22]
        assert train_ix == [i for i in range(23) if i not in val_ix]
