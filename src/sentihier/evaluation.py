"""Experimental protocols: stratified k-fold cross-validation, learning curves
over bootstrap resamples of a fixed 70/30 split, and metric computation.

The k folds (a fold count is checked by `check_folds` alone), the 70/30 split
and the resample draws depend only on (labels, seed), never on the classifier,
so every classifier sees identical data partitions for a given seed.
"""

import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SentihierError


def round_half_away(x: float) -> int:
    """round() with halves away from zero, independent of banker's rounding."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def check_folds(k: int, class_counts: dict):
    """Reject a k below 2 or above the largest class of `class_counts` (label ->
    documents), naming it: folds are dealt class by class, so a later one is empty."""
    if k < 2:
        raise ConfigurationError(f"--folds must be >= 2, got {k}")
    size, label = max(((n, lab) for lab, n in class_counts.items()), default=(0, None))
    if k > size:
        raise ConfigurationError(f"--folds {k} exceeds the {size} documents of the "
                                 f"largest class, {label!r}")


def _shuffled_by_class(labels, rng: np.random.Generator) -> dict:
    """Label -> its indices, in label order, each class permuted by `rng` in turn."""
    by_class = {}
    for idx, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(idx)
    return {lab: rng.permutation(by_class[lab]).tolist() for lab in sorted(by_class)}


def stratified_kfold(labels, k: int, seed: int) -> tuple:
    """The k folds, a tuple of k sorted tuples of indices that partition the
    dataset: per class, a seeded shuffle dealt round-robin across the folds.

    Per-class fold counts therefore differ by at most one; classes smaller
    than k simply land in the first folds of their deal. So fold i holds a
    document only if some class has more than i, and `check_folds` rejects a
    k above the largest class.
    """
    labels = list(labels)
    check_folds(k, Counter(labels))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF07D]))
    folds = [[] for _ in range(k)]
    for ix in _shuffled_by_class(labels, rng).values():
        for pos, idx in enumerate(ix):
            folds[pos % k].append(idx)
    return tuple(tuple(sorted(f)) for f in folds)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    confusion: np.ndarray  # rows = gold, cols = predicted
    accuracy: float
    per_class: tuple  # ClassMetrics per class index


def compute_metrics(gold, predicted, num_classes: int) -> MetricsReport:
    """Accuracy plus per-class precision/recall/F1 from the num_classes x
    num_classes confusion matrix.

    A class with zero precision and recall gets F1 = 0 (no division error).
    """
    gold = list(gold)
    predicted = list(predicted)
    if len(gold) != len(predicted):
        raise SentihierError(
            f"gold has {len(gold)} entries, predicted has {len(predicted)}")
    if not gold:
        raise SentihierError("compute_metrics on empty sequences")
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    for g, p in zip(gold, predicted):
        confusion[g, p] += 1
    accuracy = float(np.trace(confusion)) / len(gold)
    per_class = []
    for c in range(num_classes):
        tp = confusion[c, c]
        gold_c = confusion[c, :].sum()
        pred_c = confusion[:, c].sum()
        precision = float(tp / pred_c) if pred_c else 0.0
        recall = float(tp / gold_c) if gold_c else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
        per_class.append(ClassMetrics(precision, recall, f1, int(gold_c)))
    return MetricsReport(confusion=confusion, accuracy=accuracy, per_class=tuple(per_class))


@dataclass
class FoldResult:
    """One fold's scores. train_seconds spans the fold's whole fit (its
    vocabulary, embedding matrix and model, then training), test_seconds its
    predict (encoding and classifying the test documents)."""
    fold: int
    report: MetricsReport
    train_seconds: float
    test_seconds: float
    history: object


def _fit_and_score(fit, labels, train_ix, test_ix, seed: int, num_classes: int, tag: tuple):
    """One fold or curve point: `fit(train_ix, seed)` returns (predict,
    history), and `predict(test_ix)` one class index per test index, scored
    against `labels`. Returns (predictions, MetricsReport, history, seconds
    in fit, seconds in predict). An exception raised in a fold or point
    propagates unchanged, with the attribute that `tag` names, such as
    ("fold", 3), set on it."""
    try:
        t0 = time.perf_counter()
        predict, history = fit(train_ix, seed)
        t1 = time.perf_counter()
        predicted = list(predict(test_ix))
        t2 = time.perf_counter()
        report = compute_metrics([labels[i] for i in test_ix], predicted, num_classes)
    except Exception as exc:
        setattr(exc, *tag)
        raise
    return predicted, report, history, t1 - t0, t2 - t1


def cross_validate(fit, labels, k: int = 10, seed: int = 42, *, num_classes: int):
    """Run the k-fold protocol for one classifier: fold f tests, the others train.

    fit(train_indices, fold_seed) is called once per fold, in fold order (see
    `_fit_and_score`). Returns (list of FoldResult, pooled MetricsReport). Fold
    seeds are drawn up front, so a fold's result does not depend on the folds
    run before it. An exception raised in a fold carries the fold number in
    its `fold` attribute.
    """
    labels = list(labels)
    folds = stratified_kfold(labels, k, seed)
    fold_seeds = [int(s.generate_state(1)[0])
                  for s in np.random.SeedSequence([seed, 0xCF0]).spawn(k)]

    results, pooled_gold, pooled_pred = [], [], []
    for fold, test_ix in enumerate(folds):
        train_ix = sorted(i for f, ix in enumerate(folds) if f != fold for i in ix)
        predicted, report, history, train_s, test_s = _fit_and_score(
            fit, labels, train_ix, test_ix, fold_seeds[fold], num_classes, ("fold", fold))
        results.append(FoldResult(fold, report, train_s, test_s, history))
        pooled_gold.extend(labels[i] for i in test_ix)
        pooled_pred.extend(predicted)
    return results, compute_metrics(pooled_gold, pooled_pred, num_classes)


def stratified_pick(labels, fraction: float, total: int, rng: np.random.Generator):
    """(picked, rest): the sorted indices of `total` items drawn class by
    class in proportion, and the sorted indices of the others.

    Each class gets floor(fraction * its size) items; the rest of `total` goes
    one item per class to the largest remainders, ties to the lower label.
    Classes are then shuffled by `rng` in label order and their first items kept.
    """
    by_class = _shuffled_by_class(labels, rng)
    shares = {c: fraction * len(ix) for c, ix in by_class.items()}
    take = {c: int(math.floor(s)) for c, s in shares.items()}
    leftover = total - sum(take.values())
    order = sorted(by_class, key=lambda c: (-(shares[c] - take[c]), c))
    for c in order[:max(leftover, 0)]:
        take[c] += 1
    picked, rest = [], []
    for c, ix in by_class.items():
        picked.extend(ix[: take[c]])
        rest.extend(ix[take[c] :])
    return sorted(picked), sorted(rest)


def stratified_split_70_30(labels, seed: int):
    """One seeded stratified split; train size = N - floor(0.3*N).

    This convention gives 926 -> 649 and 341 -> 239, which plain
    round-half-away of 0.7*N does not (926 -> 648).
    """
    labels = list(labels)
    n = len(labels)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7030]))
    return stratified_pick(labels, 0.7, n - int(math.floor(0.3 * n + 1e-9)), rng)


@dataclass(frozen=True)
class CurvePoint:
    fraction: float
    resample_size: int
    test_accuracy: float


def resample_plan(labels, fractions, seed: int):
    """The split plus one bootstrap draw per fraction, fixed for all classifiers."""
    train_ix, test_ix = stratified_split_70_30(labels, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))
    draws = []
    for frac in fractions:
        size = round_half_away(frac * len(train_ix))
        picks = rng.integers(0, len(train_ix), size=size)
        draws.append((frac, [train_ix[i] for i in picks]))
    return train_ix, test_ix, draws


def learning_curve(fit, labels, fractions=(0.2, 0.4, 0.6, 0.8, 1.0),
                   seed: int = 42, *, num_classes: int):
    """Bootstrap learning curve on a fixed stratified 70/30 split, at
    fractions strictly ascending in (0, 1] (cli.cmd_learning_curve checks them).

    fit(resample indices, point_seed) is called once per point that is not
    skipped, as in `cross_validate`. Returns (list of CurvePoint, list of
    skipped-point warnings). A point whose resample has no document of some
    class is skipped; the draws depend only on the labels and the seed, so
    every classifier skips the same points with the same warnings. An
    exception raised at a point carries the point's fraction in its
    `fraction` attribute.
    """
    labels = list(labels)
    train_ix, test_ix, draws = resample_plan(labels, fractions, seed)
    point_seeds = [int(s.generate_state(1)[0])
                   for s in np.random.SeedSequence([seed, 0xC0]).spawn(len(draws))]
    points = []
    warnings = []
    for (frac, sample_ix), pseed in zip(draws, point_seeds):
        missing = sorted(set(range(num_classes)) - {labels[i] for i in sample_ix})
        if missing:
            warnings.append(f"fraction {frac}: resample of {len(sample_ix)} documents has no "
                            f"document of classes {missing}, skipped")
            continue
        report = _fit_and_score(fit, labels, sample_ix, test_ix, pseed, num_classes,
                                ("fraction", frac))[1]
        points.append(CurvePoint(frac, len(sample_ix), report.accuracy))
    return points, warnings


def report_to_csv_rows(report: MetricsReport, label_names):
    yield "class,precision,recall,f1,support"
    for c, m in enumerate(report.per_class):
        yield f"{label_names[c]},{m.precision!r},{m.recall!r},{m.f1!r},{m.support}"
    yield f"accuracy,{report.accuracy!r},,,{int(report.confusion.sum())}"


def report_to_markdown(report: MetricsReport, label_names) -> str:
    width = max(8, max(len(n) for n in label_names))
    lines = [
        f"| {'class'.ljust(width)} | P     | R     | F1    | support |",
        f"|{'-' * (width + 2)}|-------|-------|-------|---------|",
    ]
    for c, m in enumerate(report.per_class):
        lines.append(
            f"| {label_names[c].ljust(width)} | {m.precision:.3f} | {m.recall:.3f} "
            f"| {m.f1:.3f} | {m.support:7d} |")
    lines.append(f"| {'accuracy'.ljust(width)} | {report.accuracy:.3f} |       |       "
                 f"| {int(report.confusion.sum()):7d} |")
    return "\n".join(lines)
