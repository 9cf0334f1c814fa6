"""Seeded synthetic datasets for tests, demos and self-contained benchmarks.

The marker-token task: a document belongs to a class iff its class marker
token appears somewhere in the text. Any working classifier should reach
perfect training accuracy on it.
"""

import numpy as np

from .datasets import LabeledDataset

_FILLER = [
    "build", "merge", "review", "commit", "branch", "test", "deploy", "issue",
    "ticket", "patch", "module", "config", "server", "client", "cache",
    "thread", "queue", "stack", "parser", "logger", "socket", "buffer",
    "kernel", "driver", "schema", "index", "query", "batch", "deploys",
    "release", "version", "update", "script", "docker", "linter", "runner",
]

_MARKERS = {
    "negative": "broken",
    "positive": "wonderful",
    "neutral": "unclear",
}


def make_marker_dataset(n: int, seed: int, class_fractions=None,
                        label_set=("negative", "positive"),
                        name: str = "synthetic") -> LabeledDataset:
    """Generate n documents whose label is determined by one marker token.

    Every document of a class contains that class's single marker token
    exactly once; filler words never include any marker. class_fractions,
    when given, maps label -> fraction of samples; counts are rounded and the
    remainder goes to the first label.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E7]))
    if class_fractions is None:
        class_fractions = {lab: 1.0 / len(label_set) for lab in label_set}
    counts = {lab: int(round(class_fractions[lab] * n)) for lab in label_set}
    counts[label_set[0]] += n - sum(counts.values())
    samples = []
    for label in label_set:
        for _ in range(counts[label]):
            n_sents = int(rng.integers(1, 4))
            marker_sent = int(rng.integers(0, n_sents))
            sentences = []
            for s in range(n_sents):
                words = list(rng.choice(_FILLER, size=int(rng.integers(4, 10))))
                if s == marker_sent:
                    words.insert(int(rng.integers(0, len(words) + 1)), _MARKERS[label])
                sentences.append(" ".join(words) + ".")
            samples.append((" ".join(sentences), label))
    order = rng.permutation(len(samples))
    return LabeledDataset(name=name, samples=tuple(samples[i] for i in order),
                          label_set=tuple(label_set))
