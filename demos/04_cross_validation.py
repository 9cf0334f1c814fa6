"""Stratified 10-fold cross-validation of the Naive Bayes baseline on a
synthetic dataset, with per-class precision/recall/F1.

Swap in `HiCnnLstmClassifier(model_config, train_config, ds.label_set)` for
the neural model — same protocol, same fold plan, so the comparison is
apples-to-apples.
"""

from sentihier.classifiers import NaiveBayesClassifier, prepare
from sentihier.evaluation import cross_validate, report_to_markdown
from sentihier.synthetic import make_marker_dataset

ds = make_marker_dataset(400, seed=7,
                         class_fractions={"negative": 0.6, "positive": 0.4})
tokenized, labels = prepare(ds)

clf = NaiveBayesClassifier()
folds, pooled = cross_validate(clf.fit_predict_factory(tokenized, labels),
                               labels, k=10, seed=42, num_classes=2)

for i, fold in enumerate(folds):
    print(f"fold {i}: accuracy {fold.report.accuracy:.3f} "
          f"({fold.train_seconds * 1e3:.1f} ms train)")

print()
print(report_to_markdown(pooled, label_names=list(ds.label_set)))
