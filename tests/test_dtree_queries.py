"""``fit`` given query rows grows only the nodes that some query row reaches.

A node's split depends on its own training rows alone, so the query-grown
tree must be the full tree with every node that no query row reaches cut
back to a leaf (``dtree_reference.prune_unreached``), down to every
threshold's last bit, and must predict the query rows as the full tree does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2bnvae.dtree import TreeParams, export_text, fit, predict
from c2bnvae.errors import ShapeError

from dtree_reference import prune_unreached

BLOCK = 3  # one one-hot block, as a categorical field is encoded
# signed zeros, a pair whose midpoint is exactly 0.0, and adjacent floats
# whose midpoint rounds up to the upper one
NUMERIC = [-1.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0, float(np.nextafter(1.0, 2.0)), 2.0]
# strictly inside (0, 1), where a decoder puts every one-hot cell
FRACTIONAL = [1e-9, 0.1, 0.3, 0.5, 0.7, float(np.nextafter(1.0, 0.0))]
OUTSIDE = [-7.0, 9.0]  # beyond every training value


def assert_grown_is_pruned(features, labels, params, queries):
    grown = fit(features, labels, params, queries)
    full = fit(features, labels, params)
    assert export_text(grown) == export_text(prune_unreached(full, queries))
    assert np.array_equal(predict(grown, queries), predict(full, queries))
    assert grown.n_features == features.shape[1]
    return grown, full


def thresholds(tree) -> list[float]:
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            found.append(node.threshold)
            stack += [node.left, node.right]
    return found


def draw_row(data, width, block_values, numeric_values, label):
    """A one-hot block, crisp as a real record's or fractional as a
    generated row's, then ``width`` numeric cells."""
    if data.draw(st.booleans(), label=f"{label} crisp"):
        block = [0.0] * BLOCK
        block[data.draw(st.integers(0, BLOCK - 1), label=f"{label} hot")] = 1.0
    else:
        block = data.draw(st.lists(st.sampled_from(block_values), min_size=BLOCK,
                                   max_size=BLOCK), label=f"{label} block")
    numeric = data.draw(st.lists(st.sampled_from(numeric_values), min_size=width,
                                 max_size=width), label=f"{label} numeric")
    return block + numeric


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_query_grown_tree_is_the_pruned_full_tree(data):
    n = data.draw(st.integers(1, 60), label="rows")
    width = data.draw(st.integers(0, 3), label="numeric columns")
    # rows drawn from fewer prototypes repeat
    distinct = data.draw(st.integers(1, n), label="distinct rows")
    prototypes = [draw_row(data, width, FRACTIONAL, NUMERIC, "prototype")
                  for _ in range(distinct)]
    picks = data.draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n),
                      label="picks")
    features = np.array([prototypes[i] for i in picks])
    classes = data.draw(st.sampled_from([2, 3, 5, 8, 10]), label="classes")
    labels = np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=n,
                                         max_size=n), label="labels"))
    params = TreeParams(
        max_depth=data.draw(st.sampled_from([None, 0, 1, 3, 12]), label="max_depth"),
        min_samples_split=data.draw(st.integers(2, 6), label="min_samples_split"),
        min_gain=data.draw(st.sampled_from([0.0, 0.01, 0.2]), label="min_gain"))
    # queries may sit exactly on the full tree's thresholds
    cuts = thresholds(fit(features, labels, params))
    m = data.draw(st.integers(0, 12), label="queries")
    queries = np.array([draw_row(data, width, FRACTIONAL + cuts, NUMERIC + OUTSIDE + cuts,
                                 "query") for _ in range(m)]).reshape(m, BLOCK + width)
    assert_grown_is_pruned(features, labels, params, queries)


# the full tree splits at 3.5 and again on both sides of it
LINE = np.arange(8.0)[:, None]
LINE_LABELS = np.array([0, 1, 0, 0, 1, 1, 0, 1])


@pytest.mark.parametrize("value, side", [(3.5, "left"), (float(np.nextafter(3.5, 4.0)), "right"),
                                         (-0.0, "left"), (100.0, "right")])
def test_a_query_on_one_side_grows_only_that_side(value, side):
    full = fit(LINE, LINE_LABELS)
    assert full.threshold == 3.5
    assert not full.left.is_leaf and not full.right.is_leaf
    grown, _ = assert_grown_is_pruned(LINE, LINE_LABELS, TreeParams(), np.array([[value]]))
    other = "right" if side == "left" else "left"
    assert not getattr(grown, side).is_leaf and getattr(grown, other).is_leaf
    assert getattr(grown, other).histogram.tolist() == getattr(full, other).histogram.tolist()


def test_no_query_rows_leave_the_root_a_leaf():
    grown = fit(LINE, LINE_LABELS, queries=np.empty((0, 1)))
    assert grown.is_leaf
    assert grown.histogram.tolist() == [4, 4] and grown.n_features == 1
    assert predict(grown, np.empty((0, 1))).shape == (0,)


@pytest.mark.parametrize("queries", [np.zeros(1), np.zeros((1, 1, 1)), np.float64(0.0)],
                         ids=["1-D", "3-D", "0-D"])
def test_queries_must_be_2d(queries):
    with pytest.raises(ShapeError, match="queries must be 2-D"):
        fit(LINE, LINE_LABELS, queries=queries)


@pytest.mark.parametrize("width", [0, 2])
def test_queries_must_be_as_wide_as_the_features(width):
    with pytest.raises(ShapeError, match=f"1-wide rows, got {width}-wide queries"):
        fit(LINE, LINE_LABELS, queries=np.zeros((3, width)))


def test_queries_are_read_as_float64_as_predict_reads_rows():
    # the root splits column 0 between 0.1 and float32 0.1, which lies above
    # it in float64; only the right child holds rows left to split
    low, high = 0.1, float(np.float32(0.1))
    features = np.array([[low, 0.0], [high, 0.0], [high, 1.0]])
    labels = np.array([0, 1, 0])
    single = np.array([[0.1, 0.0]], dtype=np.float32)
    grown, _ = assert_grown_is_pruned(features, labels, TreeParams(), single)
    assert low < grown.threshold < high and not grown.right.is_leaf
    grown, _ = assert_grown_is_pruned(features, labels, TreeParams(), [[0.1, 0]])
    assert grown.right.is_leaf
