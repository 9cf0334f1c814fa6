"""Stratified 10-fold cross-validation of the Naive Bayes baseline on a
synthetic dataset, with per-class precision/recall/F1.

Swap in `HiCnnLstmClassifier(tokenized, labels, model_config, train_config,
ds.label_set)` for the neural model — same protocol, same fold plan, so the
comparison is apples-to-apples. cross_validate calls the classifier's
`fit(train_ix, seed)` once per fold and the `predict(test_ix)` it returns,
and times each call.
"""

from sentihier.classifiers import NaiveBayesClassifier, prepare
from sentihier.evaluation import cross_validate, report_to_markdown
from sentihier.synthetic import make_marker_dataset

ds = make_marker_dataset(400, seed=7,
                         class_fractions={"negative": 0.6, "positive": 0.4})
tokenized, labels = prepare(ds)

clf = NaiveBayesClassifier(tokenized, labels)
folds, pooled = cross_validate(clf.fit, labels, k=10, seed=42, num_classes=2)

for fold in folds:
    print(f"fold {fold.fold}: accuracy {fold.report.accuracy:.3f} "
          f"({fold.train_seconds * 1e3:.1f} ms fit, {fold.test_seconds * 1e3:.1f} ms predict)")

print()
print(report_to_markdown(pooled, label_names=list(ds.label_set)))
