from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentihier.errors import ConfigurationError, ParseError, SentihierError
from sentihier.evaluation import (
    compute_metrics,
    cross_validate,
    learning_curve,
    report_to_csv_rows,
    report_to_markdown,
    resample_plan,
    round_half_away,
    stratified_kfold,
    stratified_split_70_30,
)


def brute_force_metrics(gold, pred, C):
    """Independent oracle: recount everything from scratch."""
    conf = [[0] * C for _ in range(C)]
    for g, p in zip(gold, pred):
        conf[g][p] += 1
    acc = sum(conf[c][c] for c in range(C)) / len(gold)
    per_class = []
    for c in range(C):
        tp = conf[c][c]
        pred_c = sum(conf[r][c] for r in range(C))
        gold_c = sum(conf[c])
        p = tp / pred_c if pred_c else 0.0
        r = tp / gold_c if gold_c else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        per_class.append((p, r, f1, gold_c))
    return acc, per_class


class TestStratifiedKfold:
    def test_exact_divisibility(self):
        labels = [0] * 5 + [1] * 5
        for fold in stratified_kfold(labels, k=5, seed=1):
            assert len(fold) == 2
            assert sorted(labels[i] for i in fold) == [0, 1]

    def test_jira_scale_fold_sizes(self):
        # 926 samples at the Table-I split: 636 negative, 290 positive.
        labels = [0] * 636 + [1] * 290
        folds = stratified_kfold(labels, k=10, seed=42)
        sizes = sorted(len(f) for f in folds)
        assert set(sizes) <= {92, 93}
        for fold in folds:
            negs = sum(1 for i in fold if labels[i] == 0)
            assert negs in (63, 64)

    def test_partition_and_determinism(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=40).tolist()
        p1 = stratified_kfold(labels, k=4, seed=7)
        p2 = stratified_kfold(labels, k=4, seed=7)
        assert p1 == p2
        p3 = stratified_kfold(labels, k=4, seed=8)
        assert p3 != p1
        # Different seeds still give identical per-fold class counts.
        for f3, f1 in zip(p3, p1):
            assert sorted(labels[i] for i in f3) == sorted(labels[i] for i in f1)

    def test_k_too_large(self):
        with pytest.raises(ConfigurationError,
                           match="--folds 3 exceeds the 2 documents of the largest class, 1"):
            stratified_kfold([0, 1, 1], k=3, seed=1)
        with pytest.raises(ConfigurationError, match="folds must be >= 2"):
            stratified_kfold([0, 1] * 5, k=1, seed=1)
        with pytest.raises(ConfigurationError, match="largest class"):
            stratified_kfold([], k=2, seed=1)

    def test_known_plan(self):
        # Pinned: the seed's per-class shuffles, dealt round-robin, decide
        # every fold, so a change in the draws shows here.
        labels = [2, 0, 1, 0, 0, 1, 2, 0, 1, 0, 0, 1, 0, 2]
        assert stratified_kfold(labels, 3, seed=5) == (
            (0, 1, 2, 5, 7, 9), (3, 11, 12, 13), (4, 6, 8, 10))

    @given(st.lists(st.integers(0, 4), min_size=4, max_size=60),
           st.integers(2, 6), st.integers(0, 1000))
    @settings(max_examples=300, deadline=None)
    def test_partition_and_stratification_properties(self, labels, k, seed):
        if k > max(Counter(labels).values()):  # some fold would hold no document
            with pytest.raises(ConfigurationError, match="largest class"):
                stratified_kfold(labels, k, seed)
            return
        folds = stratified_kfold(labels, k, seed)
        all_ix = sorted(i for f in folds for i in f)
        assert all_ix == list(range(len(labels)))
        for cls in set(labels):
            counts = [sum(1 for i in f if labels[i] == cls) for f in folds]
            assert max(counts) - min(counts) <= 1


class TestComputeMetrics:
    def test_all_correct(self):
        rep = compute_metrics([0, 1, 2], [0, 1, 2], 3)
        assert rep.accuracy == 1.0
        for m in rep.per_class:
            assert m.precision == m.recall == m.f1 == 1.0

    def test_worked_example(self):
        rep = compute_metrics([0, 0, 1, 1, 2, 2], [0, 1, 1, 1, 2, 0], 3)
        assert rep.accuracy == pytest.approx(4 / 6)
        assert rep.per_class[0].precision == pytest.approx(1 / 2)
        assert rep.per_class[0].recall == pytest.approx(1 / 2)
        assert rep.per_class[0].f1 == pytest.approx(1 / 2)
        assert rep.per_class[1].precision == pytest.approx(2 / 3)
        assert rep.per_class[1].recall == pytest.approx(1.0)
        assert rep.per_class[2].precision == pytest.approx(1.0)
        assert rep.per_class[2].recall == pytest.approx(1 / 2)

    def test_absent_class_is_all_zero(self):
        rep = compute_metrics([0, 0], [0, 0], num_classes=2)
        m = rep.per_class[1]
        assert (m.precision, m.recall, m.f1, m.support) == (0.0, 0.0, 0.0, 0)

    def test_length_mismatch(self):
        with pytest.raises(SentihierError, match="gold has 2 entries, predicted has 1"):
            compute_metrics([0, 1], [0], 2)

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            C = int(rng.integers(2, 5))
            n = int(rng.integers(1, 31))
            gold = rng.integers(0, C, size=n).tolist()
            pred = rng.integers(0, C, size=n).tolist()
            rep = compute_metrics(gold, pred, C)
            acc, per_class = brute_force_metrics(gold, pred, C)
            assert rep.accuracy == acc
            for m, (p, r, f1, support) in zip(rep.per_class, per_class):
                assert (m.precision, m.recall, m.f1, m.support) == (p, r, f1, support)

    def test_binary_accuracy_equals_weighted_recall(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            gold = rng.integers(0, 2, size=n).tolist()
            pred = rng.integers(0, 2, size=n).tolist()
            rep = compute_metrics(gold, pred, 2)
            weighted = sum(m.support * m.recall for m in rep.per_class) / n
            assert abs(rep.accuracy - weighted) <= 1e-12


def stub_result(predictions, **fields):
    """What a classifier's fit_predict returns: every key cross_validate reads."""
    return {"predictions": predictions, "history": None, "train_seconds": 0.0,
            "test_seconds": 0.0, **fields}


class TestCrossValidate:
    def test_perfect_stub(self):
        labels = [0, 1] * 20
        kfold = stratified_kfold(labels, 4, seed=1)

        def perfect(train_ix, test_ix, seed):
            # the test fold, and the sorted union of the others to train on
            fold = kfold.index(test_ix)
            assert train_ix == sorted(i for f in kfold if f != test_ix for i in f)
            return stub_result([labels[i] for i in test_ix], history=f"h{fold}",
                               train_seconds=fold + 0.5, test_seconds=fold + 0.25)

        folds, pooled = cross_validate(perfect, labels, k=4, seed=1, num_classes=2)
        assert pooled.accuracy == 1.0
        assert all(f.report.accuracy == 1.0 for f in folds)
        assert [(f.history, f.train_seconds, f.test_seconds) for f in folds] == [
            (f"h{fold}", fold + 0.5, fold + 0.25) for fold in range(4)]

    def test_majority_stub_accuracy_equals_majority_share(self):
        labels = [0] * 636 + [1] * 290  # Jira-scale distribution

        def majority(train_ix, test_ix, seed):
            return stub_result([0] * len(test_ix))

        _, pooled = cross_validate(majority, labels, k=10, seed=42, num_classes=2)
        assert pooled.accuracy == pytest.approx(636 / 926)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=50).tolist()

        def noisy_but_seeded(train_ix, test_ix, seed):
            r = np.random.default_rng(seed)
            return stub_result(r.integers(0, 2, size=len(test_ix)).tolist())

        r1 = cross_validate(noisy_but_seeded, labels, k=5, seed=9, num_classes=2)
        r2 = cross_validate(noisy_but_seeded, labels, k=5, seed=9, num_classes=2)
        assert np.array_equal(r1[1].confusion, r2[1].confusion)


    @pytest.mark.parametrize("exc", [
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
        ParseError("row 3: bad label"),
    ])
    def test_error_in_a_fold_keeps_its_type_and_names_the_fold(self, exc):
        labels = [0, 1] * 10
        calls = []

        def fails_in_fold_2(train_ix, test_ix, seed):
            calls.append(seed)  # serial folds run in order
            if len(calls) == 3:
                raise exc
            return stub_result([0] * len(test_ix))

        with pytest.raises(type(exc)) as info:
            cross_validate(fails_in_fold_2, labels, k=4, seed=5, num_classes=2)
        assert info.value is exc
        assert info.value.fold == 2


class TestSplitAndResample:
    def test_jira_sizes(self):
        labels = [0] * 636 + [1] * 290
        train, test = stratified_split_70_30(labels, seed=42)
        assert len(train) == 649  # quintupling 130 -> 649
        assert round_half_away(0.2 * len(train)) == 130

    def test_app_reviews_sizes(self):
        # 341 samples: 186 positive / 25 neutral / 130 negative per Table I.
        labels = [2] * 186 + [1] * 25 + [0] * 130
        train, test = stratified_split_70_30(labels, seed=42)
        assert len(train) == 239
        assert round_half_away(0.2 * len(train)) == 48

    def test_split_is_stratified_and_partitions(self):
        labels = [0] * 70 + [1] * 30
        train, test = stratified_split_70_30(labels, seed=1)
        assert sorted(train + test) == list(range(100))
        assert sum(1 for i in train if labels[i] == 0) == 49
        assert len(train) == 70

    def test_resample_plan_fixed_across_calls(self):
        labels = [0, 1] * 50
        p1 = resample_plan(labels, [0.2, 1.0], seed=4)
        p2 = resample_plan(labels, [0.2, 1.0], seed=4)
        assert p1 == p2

    def test_resamples_draw_with_replacement_from_train_only(self):
        labels = [0, 1] * 50
        train, test, draws = resample_plan(labels, [1.0], seed=4)
        frac, sample = draws[0]
        assert len(sample) == len(train)
        assert set(sample) <= set(train)
        assert len(set(sample)) < len(sample)  # bootstrap implies duplicates


class TestLearningCurve:
    def test_majority_stub_matches_test_split_share(self):
        labels = [0] * 80 + [1] * 20

        def majority(train_ix, test_ix, seed):
            return {"predictions": [0] * len(test_ix)}

        points, warnings = learning_curve(majority, labels, [1.0], seed=6, num_classes=2)
        train, test, _ = resample_plan(labels, [1.0], seed=6)
        share = sum(1 for i in test if labels[i] == 0) / len(test)
        assert points[0].test_accuracy == pytest.approx(share)
        assert not warnings

    def test_sizes_follow_rounding_convention(self):
        labels = [0, 1] * 50
        points, _ = learning_curve(
            lambda a, b, s: {"predictions": [0] * len(b)}, labels,
            [0.2, 0.4, 0.6, 0.8, 1.0], seed=2, num_classes=2)
        train, _, _ = resample_plan(labels, [1.0], seed=2)
        for p in points:
            assert p.resample_size == round_half_away(p.fraction * len(train))

    def test_tiny_resample_skipped_with_warning(self):
        labels = [0, 1, 2] * 10
        points, warnings = learning_curve(
            lambda a, b, s: {"predictions": [0] * len(b)}, labels,
            [0.05, 1.0], seed=1, num_classes=3)
        assert len(warnings) == 1 and "skipped" in warnings[0]
        assert len(points) == 1

    def test_exception_at_a_learning_curve_point_carries_its_fraction(self):
        exc = ValueError("boom")

        def fails_at_the_second_point(train_ix, test_ix, seed):
            if len(train_ix) > 20:
                raise exc
            return stub_result([0] * len(test_ix))

        with pytest.raises(ValueError) as info:
            learning_curve(fails_at_the_second_point, [0, 1] * 20, [0.5, 1.0], seed=3,
                           num_classes=2)
        assert info.value is exc and info.value.fraction == 1.0


class TestReportExport:
    def test_csv_rows(self):
        rep = compute_metrics([0, 1], [0, 1], 2)
        rows = list(report_to_csv_rows(rep, ["negative", "positive"]))
        assert rows[0] == "class,precision,recall,f1,support"
        assert rows[1].startswith("negative,1.0,1.0,1.0,1")
        assert rows[-1].startswith("accuracy,1.0")

    def test_markdown_table_shape(self):
        rep = compute_metrics([0, 1, 1], [0, 1, 0], 2)
        md = report_to_markdown(rep, ["negative", "positive"])
        lines = md.splitlines()
        assert len(lines) == 5  # header, rule, two classes, accuracy
        assert all(line.startswith("|") for line in lines)


class TestSplitPinned:
    def test_known_split(self):
        # 5/12/3 per class: floors 3/8/2 leave one slot, which goes to the
        # class with the largest remainder (class 0, 0.5).
        labels = [0, 1, 1, 0, 2, 1, 1, 0, 1, 1, 2, 1, 0, 1, 1, 1, 0, 2, 1, 1]
        train, test = stratified_split_70_30(labels, seed=3)
        assert train == [0, 1, 3, 4, 5, 7, 8, 9, 13, 14, 15, 16, 17, 18]
        assert test == [2, 6, 10, 11, 12, 19]
