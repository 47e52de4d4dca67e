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
