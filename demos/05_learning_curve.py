"""Bootstrap learning curve: how test accuracy grows with training-set size.

A single stratified 70/30 split is fixed first; each curve point trains on a
bootstrap resample of the training portion (20%..100% of its size) and
evaluates on the same untouched test portion: the classifier's
`fit(resample_ix, seed)` trains, and the `predict(test_ix)` it returns scores.
"""

from sentihier.classifiers import NaiveBayesClassifier, prepare
from sentihier.evaluation import learning_curve
from sentihier.synthetic import make_marker_dataset

ds = make_marker_dataset(500, seed=3)
tokenized, labels = prepare(ds)

clf = NaiveBayesClassifier(tokenized, labels)
points, warnings = learning_curve(clf.fit, labels, fractions=[0.2, 0.4, 0.6, 0.8, 1.0],
                                  seed=42, num_classes=2)

print("fraction  resample  test accuracy")
for p in points:
    bar = "#" * int(round(40 * p.test_accuracy))
    print(f"  {p.fraction:4.1f}    {p.resample_size:5d}     {p.test_accuracy:.3f}  {bar}")
for w in warnings:
    print(f"warning: {w}")
