import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2bnvae.errors import DataError, LabelError
from c2bnvae.metrics import (EvalReport, accuracy, confusion, format_percent,
                             per_class_prf, results_table, round_half_up)

REFERENCE_CM = np.array([[2, 0], [1, 1]])


def weighted(cm) -> tuple[float, float, float]:
    """The report's percent (Pre_w, Recall_w, F1_w) of ``cm``."""
    report = EvalReport.from_confusion("row", cm)
    return report.pre_w, report.recall_w, report.f1_w


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        y = np.array([0, 1, 2, 1, 0])
        cm = confusion(y, y, 3)
        assert np.array_equal(cm, np.diag([2, 2, 1]))

    def test_empty_input_zero_matrix(self):
        cm = confusion([], [], 4)
        assert cm.shape == (4, 4)
        assert cm.sum() == 0

    def test_hand_count(self):
        cm = confusion([0, 0, 1, 1], [0, 0, 0, 1], 2)
        assert np.array_equal(cm, REFERENCE_CM)

    def test_label_range_enforced(self):
        with pytest.raises(LabelError):
            confusion([0, 2], [0, 0], 2)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion([0, 1], [0], 2)


class TestAccuracy:
    def test_diagonal_is_hundred(self):
        assert accuracy(np.diag([3, 4, 5])) == 100.0

    def test_reference_example(self):
        assert accuracy(REFERENCE_CM) == pytest.approx(75.0)

    def test_uniform_two_by_two(self):
        assert accuracy(np.ones((2, 2), dtype=int)) == pytest.approx(50.0)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            accuracy(np.zeros((3, 3), dtype=int))


class TestWeighted:
    def test_perfect_predictions(self):
        assert weighted(np.diag([5, 2, 9])) == pytest.approx((100.0, 100.0, 100.0))

    def test_reference_example(self):
        pre_w, recall_w, f1_w = weighted(REFERENCE_CM)
        assert round_half_up(pre_w) == pytest.approx(83.33)
        assert round_half_up(recall_w) == pytest.approx(75.0)
        assert round_half_up(f1_w) == pytest.approx(73.33)

    def test_absent_class_contributes_zero_weight(self):
        cm = np.array([[3, 0, 0], [1, 2, 0], [0, 0, 0]])  # class 2 never true
        precision, recall, f1, flags = per_class_prf(cm)
        assert recall[2] == 0.0
        assert any("absent" in f for f in flags)
        pre_w, recall_w, f1_w = weighted(cm)
        assert recall_w == pytest.approx(accuracy(cm))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=4, max_size=25))
    def test_accuracy_equals_weighted_recall(self, flat):
        side = int(np.sqrt(len(flat)))
        cm = np.array(flat[: side * side]).reshape(side, side)
        if cm.sum() == 0:
            cm[0, 0] = 1
        _, recall_w, _ = weighted(cm)
        assert recall_w == pytest.approx(accuracy(cm), abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=9, max_size=9),
           st.permutations(list(range(3))))
    def test_permutation_invariance(self, flat, perm):
        cm = np.array(flat).reshape(3, 3)
        if cm.sum() == 0:
            cm[1, 2] = 3
        perm = np.array(perm)
        permuted = cm[np.ix_(perm, perm)]
        assert weighted(permuted) == pytest.approx(weighted(cm))
        assert accuracy(permuted) == pytest.approx(accuracy(cm))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=9, max_size=9))
    def test_weighted_f1_bounded_by_class_extremes(self, flat):
        cm = np.array(flat).reshape(3, 3)
        if cm.sum() == 0:
            cm[0, 1] = 2
        _, _, f1, _ = per_class_prf(cm)
        weights = cm.sum(axis=1) / cm.sum()
        present = weights > 0
        f1_w = float(weights @ f1) * 100.0
        assert f1_w <= 100.0 * f1[present].max() + 1e-9
        assert f1_w >= 100.0 * (f1[present].min() * weights[present].sum()) - 1e-9


class TestRounding:
    def test_half_up(self):
        assert round_half_up(83.335) == 83.34
        assert round_half_up(83.334) == 83.33
        assert format_percent(75.0) == "75.00"
        assert format_percent(79.399) == "79.40"


class TestReport:
    def test_from_confusion_reference(self):
        report = EvalReport.from_confusion("test", REFERENCE_CM)
        assert report.headline() == pytest.approx((75.0, 250.0 / 3, 75.0, 220.0 / 3))
        assert report.per_class_f1[0] == pytest.approx(80.0)
        assert report.confusion_matrix == [[2, 0], [1, 1]]

    def test_json_round_trips_and_has_metrics(self):
        import json

        report = EvalReport.from_confusion("demo", REFERENCE_CM)
        payload = json.loads(report.to_json(manifest={"seed": 5}))
        assert payload["metrics"] == {"Acc": 75.0, "Pre_w": 83.33,
                                      "Recall_w": 75.0, "F1_w": 73.33}
        assert payload["manifest"] == {"seed": 5}

    def test_results_table_layout(self):
        report = EvalReport.from_confusion("SMOTE", REFERENCE_CM)
        text = results_table([("SMOTE", report), ("Broken", "no samples")])
        lines = text.strip().split("\n")
        assert lines[0].split() == ["Algorithms", "Acc", "Pre_w", "Recall_w", "F1_w"]
        assert "75.00" in lines[2] and "83.33" in lines[2] and "73.33" in lines[2]
        assert "FAILED: no samples" in lines[3]
