"""Verify the hand-derived backward pass against finite differences.

Every gradient in sentihier is written by hand (no autodiff), so the first
thing worth seeing is that analytic gradients agree with a central-difference
probe on a small randomly initialized model.
"""

import numpy as np

from sentihier.model import HiCnnLstmModel, ModelConfig
from sentihier.textprep import Document, Vocabulary

config = ModelConfig(embedding_dim=4, filter_width=2, num_filters=3,
                     sentence_dim=3, lstm_hidden=2)
matrix = np.random.default_rng(0).normal(scale=0.3, size=(9, 4))
matrix[0] = 0.0  # the UNK row stays zero
vocab = Vocabulary.of(["<unk>"] + [f"w{i}" for i in range(1, 9)])
model = HiCnnLstmModel(config, matrix, vocab, ("negative", "neutral", "positive"), seed=7)

doc = Document(((2, 3, 4), (5, 6, 7, 8)), label=1)
loss, grads = model.loss_and_grads([doc])
print(f"loss at init: {loss:.6f}")

eps = 1e-5
rng = np.random.default_rng(42)
worst = 0.0
grads = model.views(grads)  # the gradient block, by parameter name
for name, tensor in model.params().items():
    flat = tensor.reshape(-1)
    for idx in rng.choice(flat.size, size=min(20, flat.size), replace=False):
        keep = flat[idx]
        flat[idx] = keep + eps
        plus, _ = model.loss_and_grads([doc])
        flat[idx] = keep - eps
        minus, _ = model.loss_and_grads([doc])
        flat[idx] = keep
        numeric = (plus - minus) / (2 * eps)
        analytic = grads[name].reshape(-1)[idx]
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, rel)

print(f"worst relative error over sampled coordinates: {worst:.2e}")
assert worst < 1e-4
print("analytic gradients match finite differences.")
