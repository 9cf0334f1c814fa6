"""Mini-batch training: Adam with bias correction over the model's flat
parameter block (its moments are blocks of the same layout), and early
stopping on a stratified 10% validation split with best-weight restore."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SentihierError
from .evaluation import round_half_away, stratified_pick

VAL_FRACTION = 0.1  # the share of a training set held out for early stopping


class AdamState:
    """First and second moment blocks of a flat parameter block, and the step counter."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the defaults of Kingma & Ba 2015
    CHUNK = 32768  # values per pass: the five arrays' chunks (1.3 MB) stay in cache

    def __init__(self, size: int, learning_rate: float = 1e-3):
        self.t = 0
        self.learning_rate = learning_rate
        self.m, self.v = np.zeros(size), np.zeros(size)

    def step(self, params: np.ndarray, grads: np.ndarray):
        """Update the params block in place with one bias-corrected Adam step.

        Consumes grads: the gradient block is overwritten as a temporary.
        The operations are those of
            m += (1 - BETA1) * (g - m);  v += (1 - BETA2) * (g * g - v)
            p -= lr * (m / corr1) / (sqrt(v / corr2) + EPS)
        in the same order, one CHUNK of the blocks at a time, so the result
        is bit-identical to that formula.
        """
        self.t += 1
        corr1 = 1.0 - self.BETA1 ** self.t
        corr2 = 1.0 - self.BETA2 ** self.t
        scratch = np.empty(min(self.CHUNK, params.size))
        for at in range(0, params.size, self.CHUNK):
            p, g, m, v = (a[at : at + self.CHUNK] for a in (params, grads, self.m, self.v))
            tmp = scratch[: len(p)]
            np.subtract(g, m, out=tmp)
            tmp *= 1.0 - self.BETA1
            m += tmp
            np.multiply(g, g, out=g)
            g -= v
            g *= 1.0 - self.BETA2
            v += g
            np.divide(m, corr1, out=tmp)  # m_hat
            np.divide(v, corr2, out=g)    # v_hat
            np.sqrt(g, out=g)
            g += self.EPS
            tmp *= self.learning_rate
            tmp /= g
            p -= tmp


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 5
    learning_rate: float = 1e-3

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigurationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)
    best_epoch: int = 0

    def to_csv_rows(self):
        yield "epoch,train_loss,val_loss,val_acc"
        for rec in self.epochs:
            yield f"{rec.epoch},{rec.train_loss!r},{rec.val_loss!r},{rec.val_accuracy!r}"


def _evaluate(model, docs):
    """Mean cross-entropy and accuracy in inference mode."""
    total, correct = 0.0, 0
    for doc, probs in zip(docs, model.probabilities(docs)):
        total += -np.log(max(probs[doc.label], 1e-300))
        correct += int(np.argmax(probs)) == doc.label
    return float(total / len(docs)), correct / len(docs)


def fit(model, train_set, config: TrainConfig = TrainConfig(), seed: int = 42):
    """Train until validation loss stops improving for `patience` epochs.

    A stratified VAL_FRACTION slice is carved off first and never trained on.
    Shuffling, the validation split and dropout each draw from their own
    stream, spawned from `seed`, so the run is fully reproducible. The model
    is restored to the best epoch's weights before returning. A NaN or
    infinite batch loss raises a SentihierError before its update is applied,
    and so does such a validation loss, before its epoch is recorded.
    """
    train_set = list(train_set)
    if len(train_set) < 10:
        raise ConfigurationError(
            f"training set has {len(train_set)} documents, need at least 10")
    split_rng, shuffle_rng, dropout_rng = (
        np.random.default_rng(s)
        for s in np.random.SeedSequence(seed).spawn(3)
    )
    # The validation slice keeps the class proportions.
    n_val = max(1, round_half_away(VAL_FRACTION * len(train_set)))
    val_ix, train_ix = stratified_pick([doc.label for doc in train_set], VAL_FRACTION, n_val,
                                       split_rng)
    train_docs = [train_set[i] for i in train_ix]
    val_docs = [train_set[i] for i in val_ix]

    opt = AdamState(model.block.size, learning_rate=config.learning_rate)
    history = TrainHistory()
    best_loss = np.inf  # epoch 1 always improves on it, so best_weights is set there
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_docs))
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, len(order), config.batch_size), 1):
            batch = [train_docs[i] for i in order[start : start + config.batch_size]]
            loss, grads = model.loss_and_grads(batch, dropout_rng=dropout_rng)
            if not math.isfinite(loss):
                raise SentihierError(f"epoch {epoch}, batch {batch_no}: loss is {loss}")
            opt.step(model.block, grads)
            del grads  # consumed by Adam; free them before the next batch allocates its own
            epoch_loss += loss * len(batch)
        val_loss, val_acc = _evaluate(model, val_docs)
        if not math.isfinite(val_loss):
            raise SentihierError(f"epoch {epoch}: validation loss is {val_loss}")
        history.epochs.append(EpochRecord(epoch, float(epoch_loss / len(train_docs)),
                                          val_loss, val_acc))
        if val_loss < best_loss:
            best_loss = val_loss
            best_weights = model.snapshot()
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.restore(best_weights)
    return model, history
