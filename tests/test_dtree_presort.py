"""The presorted split search grows exactly the trees of the reference scan.

``dtree_reference`` keeps the per-node, per-column argsort scan; ``fit``
sorts each column once per tree and must agree with it node for node, down
to every threshold's last bit, which ``export_text`` prints with ``repr``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2bnvae.balancers import BalanceRequest, smote
from c2bnvae.dtree import TreeParams, best_split, export_text, fit
from c2bnvae.nslkdd import default_taxonomy, fit_schema, read_records, transform

import corpus
from dtree_reference import reference_best_split, reference_fit

PARAMS = [
    TreeParams(),
    TreeParams(max_depth=0),
    TreeParams(max_depth=3),
    TreeParams(min_gain=0.01),
    TreeParams(min_samples_split=9),
]
PARAM_IDS = ["unlimited", "depth0", "depth3", "min_gain", "min_samples_split"]


def assert_same_tree(features, labels, params):
    tree = fit(features, labels, params)
    assert export_text(tree) == export_text(reference_fit(features, labels, params))
    assert tree.n_features == features.shape[1]


@pytest.fixture(scope="module")
def encoded_corpus(tmp_path_factory):
    train_path, test_path = corpus.write_corpus(tmp_path_factory.mktemp("presort"))
    train, test = read_records(train_path), read_records(test_path)
    schema = fit_schema(train, extra_vocab_records=test, pad_to=123)
    return transform(train, schema, default_taxonomy())


@pytest.fixture(scope="module")
def smote_balanced(encoded_corpus):
    return smote(BalanceRequest(dataset=encoded_corpus, seed=7))


@pytest.mark.parametrize("params", PARAMS, ids=PARAM_IDS)
def test_encoded_corpus(encoded_corpus, params):
    assert_same_tree(encoded_corpus.features, encoded_corpus.labels, params)


@pytest.mark.parametrize("params", PARAMS, ids=PARAM_IDS)
def test_smote_balanced_corpus(smote_balanced, params):
    assert_same_tree(smote_balanced.features, smote_balanced.labels, params)


@pytest.mark.parametrize("params", PARAMS, ids=PARAM_IDS)
def test_continuous_generator_like(params):
    # sigmoid-like outputs: every column varies, almost every row distinct
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(600, 40))
    features = 1.0 / (1.0 + np.exp(-logits))
    labels = (logits[:, 0] + logits[:, 3] > 0.2) + 2 * (logits[:, 7] > 0.5)
    labels[rng.random(600) < 0.1] = 4
    assert np.all(features.max(axis=0) > features.min(axis=0))
    assert_same_tree(features, labels, params)


@pytest.mark.parametrize("params", PARAMS, ids=PARAM_IDS)
def test_small_integers_heavy_ties(params):
    rng = np.random.default_rng(12)
    features = rng.integers(0, 3, size=(400, 9)).astype(np.float64)
    features[:, 4] = 1.0  # plus a constant column
    labels = rng.integers(0, 4, size=400)
    assert_same_tree(features, labels, params)


def test_all_constant_features_give_a_leaf():
    features = np.full((30, 5), 0.25)
    labels = np.arange(30) % 3
    tree = fit(features, labels)
    assert tree.is_leaf
    assert export_text(tree) == export_text(reference_fit(features, labels))


def test_best_split_matches_reference(smote_balanced):
    features, labels = smote_balanced.features, smote_balanced.labels
    for rows in (slice(None), slice(0, 300), slice(1000, 1400)):
        assert (best_split(features[rows], labels[rows])
                == reference_best_split(features[rows], labels[rows]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_small_matrices(data):
    n = data.draw(st.integers(1, 40), label="rows")
    width = data.draw(st.integers(1, 5), label="columns")
    # 1.0 and the next float up have a midpoint that rounds to 1.0 itself
    values = st.sampled_from([-1.5, -0.0, 0.0, 1e-12, 0.25, 0.5, 1.0,
                              float(np.nextafter(1.0, 2.0)), 2.0])
    features = np.array(data.draw(st.lists(st.lists(values, min_size=width,
                                                    max_size=width),
                                           min_size=n, max_size=n),
                                  label="features"))
    # up to 10 classes: np.sum rounds rows of 8 or more terms pairwise
    classes = data.draw(st.sampled_from([2, 3, 5, 8, 10]), label="classes")
    labels = np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=n,
                                         max_size=n), label="labels"))
    params = TreeParams(
        max_depth=data.draw(st.sampled_from([None, 0, 1, 2, 4]), label="max_depth"),
        min_samples_split=data.draw(st.integers(2, 6), label="min_samples_split"),
        min_gain=data.draw(st.sampled_from([0.0, 0.01, 0.2]), label="min_gain"))
    assert_same_tree(features, labels, params)
    assert (best_split(features, labels, params)
            == reference_best_split(features, labels, params))


def inner_nodes_missing_a_class(tree):
    """Inner nodes whose histogram lacks a class below their largest one:
    the nodes ``fit`` searches with their classes renumbered."""
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        present = np.flatnonzero(node.histogram)
        if present.size < present[-1] + 1:
            found.append(node)
        stack += [node.left, node.right]
    return found


def bands_without_class_2(seed=5):
    """Class 2 alone at x0 = 0; classes 0, 1, 3, 4 at x0 = 1 in noisy bands
    of x1, so the root's right child and the nodes under it lack class 2."""
    rng = np.random.default_rng(seed)
    n_rest = 160
    x1 = rng.random(n_rest)
    rest = np.array([0, 1, 3, 4])[np.minimum((x1 * 4).astype(int), 3)]
    noisy = rng.random(n_rest) < 0.15
    rest[noisy] = rng.choice([0, 1, 3, 4], size=int(noisy.sum()))
    features = np.vstack([np.column_stack([np.zeros(80), rng.random(80), rng.random(80)]),
                          np.column_stack([np.ones(n_rest), x1, rng.random(n_rest)])])
    labels = np.concatenate([np.full(80, 2), rest])
    return features, labels


@pytest.mark.parametrize("params", PARAMS, ids=PARAM_IDS)
def test_inner_nodes_that_lose_a_middle_class(params):
    features, labels = bands_without_class_2()
    assert_same_tree(features, labels, params)
    if params.max_depth != 0:
        assert inner_nodes_missing_a_class(fit(features, labels, params))


@pytest.mark.parametrize("classes, seed", [(8, 56), (10, 37), (8, 74), (10, 45)])
def test_eight_classes_and_more_are_searched_uncompacted(classes, seed):
    # np.sum adds 8 or more class terms pairwise, so dropping an absent
    # class's +0.0 would round the gains otherwise; with these seeds a search
    # that compacted such nodes too grows a different tree
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 120))
    width = int(rng.integers(1, 5))
    features = rng.integers(0, 4, size=(n, width)).astype(np.float64)
    labels = rng.integers(0, classes, size=n)
    tree = fit(features, labels)
    assert any(np.flatnonzero(node.histogram)[-1] + 1 >= 8
               for node in inner_nodes_missing_a_class(tree))
    assert export_text(tree) == export_text(reference_fit(features, labels))


def test_min_gain_gate_on_a_node_that_lacks_a_class():
    features, labels = bands_without_class_2()
    right = features[:, 0] == 1.0  # the root's right child holds classes 0, 1, 3, 4
    _, _, gain = reference_best_split(features[right], labels[right])
    # a gain equal to min_gain is refused, one float above it is accepted
    at_gate = fit(features, labels, TreeParams(min_gain=gain))
    below_gate = fit(features, labels, TreeParams(min_gain=float(np.nextafter(gain, 0.0))))
    assert at_gate.feature == 0 and at_gate.threshold == 0.5
    assert at_gate.right.is_leaf and not below_gate.right.is_leaf
    for tree, min_gain in ((at_gate, gain), (below_gate, float(np.nextafter(gain, 0.0)))):
        reference = reference_fit(features, labels, TreeParams(min_gain=min_gain))
        assert export_text(tree) == export_text(reference)
