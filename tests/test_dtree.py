import numpy as np
import pytest

from c2bnvae.dtree import TreeParams, best_split, export_text, fit, predict
from c2bnvae.errors import DataError, ShapeError

XOR_FEATURES = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_LABELS = np.array([0, 1, 1, 0])


class TestBestSplit:
    def test_hand_example_exact(self):
        features = np.array([[1.0], [2.0], [3.0], [4.0]])
        labels = np.array([0, 0, 1, 1])
        feature, threshold, gain = best_split(features, labels)
        assert feature == 0
        assert threshold == 2.5
        assert gain == 0.5

    def test_pure_labels_no_split(self):
        features = np.array([[1.0], [2.0], [3.0]])
        assert best_split(features, np.array([1, 1, 1])) is None

    def test_constant_features_no_split(self):
        features = np.ones((4, 3))
        assert best_split(features, np.array([0, 1, 0, 1])) is None

    def test_tie_breaks_to_lower_feature_and_threshold(self):
        # both features separate perfectly; feature 0 must win
        features = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        labels = np.array([0, 0, 1, 1])
        feature, threshold, _ = best_split(features, labels)
        assert feature == 0
        assert threshold == 1.5

    def test_positive_min_gain_rule_is_strict(self):
        features = np.array([[1.0], [2.0], [3.0], [4.0]])
        labels = np.array([0, 0, 1, 1])
        assert best_split(features, labels, TreeParams(min_gain=0.5)) is None
        assert best_split(features, labels, TreeParams(min_gain=0.49)) is not None

    def test_zero_gain_split_allowed_by_default(self):
        found = best_split(XOR_FEATURES, XOR_LABELS)
        assert found is not None
        assert found[2] == 0.0

    def test_min_samples_split_respected(self):
        features = np.array([[1.0], [2.0], [3.0]])
        labels = np.array([0, 1, 0])
        assert best_split(features, labels, TreeParams(min_samples_split=4)) is None


class TestFit:
    def test_single_class_is_single_leaf(self):
        tree = fit(np.random.default_rng(0).random((10, 3)), np.full(10, 2))
        assert tree.is_leaf
        assert tree.prediction == 2

    def test_xor_depth_two_and_perfect(self):
        tree = fit(XOR_FEATURES, XOR_LABELS)
        assert tree.depth() == 2
        assert np.array_equal(predict(tree, XOR_FEATURES), XOR_LABELS)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        features = rng.random((60, 4))
        labels = rng.integers(0, 3, size=60)
        a = fit(features, labels)
        b = fit(features, labels)
        assert export_text(a) == export_text(b)

    def test_distinct_rows_reach_full_training_accuracy(self):
        rng = np.random.default_rng(5)
        features = rng.random((200, 5))  # continuous draws: rows all distinct
        labels = rng.integers(0, 4, size=200)
        tree = fit(features, labels)
        assert np.array_equal(predict(tree, features), labels)

    def test_max_depth_limits_growth(self):
        rng = np.random.default_rng(6)
        features = rng.random((100, 3))
        labels = rng.integers(0, 2, size=100)
        tree = fit(features, labels, TreeParams(max_depth=2))
        assert tree.depth() <= 2

    def test_every_split_has_admissible_gain(self):
        rng = np.random.default_rng(7)
        features = rng.random((150, 4))
        labels = rng.integers(0, 3, size=150)
        params = TreeParams(min_gain=0.01)
        tree = fit(features, labels, params)

        def walk(node, idx):
            if node.is_leaf:
                return
            found = best_split(features[idx], labels[idx], params)
            assert found is not None and found[2] > params.min_gain
            go_left = features[idx, node.feature] <= node.threshold
            walk(node.left, idx[go_left])
            walk(node.right, idx[~go_left])

        walk(tree, np.arange(150))

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_negative_label_rejected(self):
        with pytest.raises(DataError, match="nonnegative"):
            fit(np.array([[0.0], [1.0]]), np.array([0, -1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, bad):
        features = np.array([[0.0], [bad], [1.0], [2.0]])
        with pytest.raises(DataError, match="finite"):
            fit(features, np.array([0, 1, 0, 1]))

    def test_tree_deeper_than_the_recursion_limit_reports_its_size(self):
        # alternating labels along one column: each split peels off one row
        n = 2400
        tree = fit(np.arange(float(n))[:, None], np.arange(n) % 2)
        assert tree.depth() == n - 1
        assert tree.node_count() == 2 * n - 1

    def test_leaf_tie_predicts_lowest_class(self):
        features = np.array([[1.0], [1.0]])
        labels = np.array([0, 1])  # inseparable: single leaf with a tie
        tree = fit(features, labels)
        assert tree.is_leaf
        assert tree.prediction == 0


class TestPredict:
    def test_memorization_on_distinct_rows(self):
        rng = np.random.default_rng(8)
        features = rng.random((50, 3))
        labels = rng.integers(0, 2, size=50)
        tree = fit(features, labels)
        assert np.array_equal(predict(tree, features), labels)

    def test_boundary_value_routes_left(self):
        features = np.array([[0.0], [1.0]])
        labels = np.array([0, 1])
        tree = fit(features, labels)
        assert tree.threshold == 0.5
        assert predict(tree, np.array([[0.5]]))[0] == 0

    @pytest.mark.parametrize("lower, upper", [
        (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
        (1e308, 1.7e308),
        (-1.7e308, -1e308),
    ], ids=["midpoint_rounds_up", "sum_overflows", "sum_overflows_negative"])
    def test_threshold_stays_below_upper_value(self, lower, upper):
        features = np.array([[lower], [upper]])
        tree = fit(features, np.array([0, 1]))
        assert lower <= tree.threshold < upper
        assert predict(tree, features).tolist() == [0, 1]

    def test_width_mismatch_rejected(self):
        tree = fit(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1]))
        with pytest.raises(ShapeError):
            predict(tree, np.zeros((1, 1)))


class TestExport:
    def test_preorder_one_node_per_line(self):
        tree = fit(XOR_FEATURES, XOR_LABELS)
        text = export_text(tree)
        lines = text.strip().split("\n")
        assert len(lines) == tree.node_count() == 7
        assert lines[0].startswith("split feature=0")
        assert sum("leaf" in line for line in lines) == 4

    def test_params_validation(self):
        with pytest.raises(ShapeError):
            TreeParams(min_samples_split=1)
        with pytest.raises(ShapeError):
            TreeParams(min_gain=-0.1)
