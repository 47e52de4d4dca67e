"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 8's full-data leg needs the real NSL-KDD files; point NSLKDD_DIR
at a directory holding KDDTrain+.txt and KDDTest+.txt to enable it (it is
skipped otherwise, and a synthetic-corpus stand-in exercises the identical
pipeline end to end).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from c2bnvae import balancers as bal
from c2bnvae import dtree
from c2bnvae import model as mm
from c2bnvae.costing import count_params_flops
from c2bnvae.experiment import ExperimentConfig, preprocess, run_all
from c2bnvae.losses import kl_gaussian, mse_loss
from c2bnvae.metrics import EvalReport, accuracy
from c2bnvae.nn import CondBatchNorm1d
from c2bnvae.nslkdd import EncodedDataset, class_counts, synthetic_schema

import corpus
from helpers import assert_backward_matches_finite_differences

NSLKDD_DIR = os.environ.get("NSLKDD_DIR", "")


def _real_data_paths():
    if not NSLKDD_DIR:
        return None
    train = Path(NSLKDD_DIR) / "KDDTrain+.txt"
    test = Path(NSLKDD_DIR) / "KDDTest+.txt"
    if train.exists() and test.exists():
        return train, test
    return None


def announce(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {message}")


# ----------------------------------------------------------------------
# criterion 1: cost accounting
# ----------------------------------------------------------------------

def test_criterion_1_cost_accounting(capsys):
    from c2bnvae.cli import main

    start = time.perf_counter()
    report = count_params_flops(mm.C2BNVAE(mm.ModelConfig(feature_dim=123, num_classes=5)))
    assert report.components["encoder"] == (22744, 22560)
    assert report.components["decoder"] == (20883, 20640)
    assert report.total == (43627, 43200)
    assert main(["count"]) == 0
    out = capsys.readouterr().out
    for number in ("22744", "22560", "20883", "20640", "43627", "43200"):
        assert number in out
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, f"encoder (22744, 22560), decoder (20883, 20640), "
                f"total (43627, 43200) in {elapsed:.3f}s")


# ----------------------------------------------------------------------
# criterion 2: gradient suite
# ----------------------------------------------------------------------

def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(20):
        feature_dim = int(rng.integers(3, 8))
        num_classes = int(rng.integers(2, 5))
        latent = int(rng.integers(2, 4))
        widths = tuple(int(rng.integers(3, 7))
                       for _ in range(int(rng.integers(1, 3))))
        config = mm.ModelConfig(
            feature_dim=feature_dim, num_classes=num_classes, latent_dim=latent,
            hidden_widths=widths, seed=trial,
            use_cbn=bool(trial % 2 == 0),
            cbn_placement="encoder_and_decoder" if trial % 3 else "decoder_only",
            kl_weight=float(rng.uniform(0.1, 2.0)))
        model = mm.C2BNVAE(config)
        batch = int(rng.integers(3, 7))
        x = rng.random((batch, feature_dim))
        labels = rng.integers(0, num_classes, size=batch)
        assert_backward_matches_finite_differences(model, x, labels, rel_tol=1e-4)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 20
    assert elapsed < 60.0
    announce(2, f"{checked} random models, every layer type, rel err < 1e-4 "
                f"in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 3: loss identities
# ----------------------------------------------------------------------

def test_criterion_3_loss_identities():
    assert kl_gaussian(np.zeros((1, 1)), np.zeros((1, 1))).item() == 0.0
    assert abs(kl_gaussian(np.array([[1.0]]), np.array([[0.0]])).item() - 0.5) < 1e-12
    assert mse_loss(np.array([[0.0], [2.0]]), np.array([[1.0], [1.0]])).item() == 1.0
    assert mse_loss(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])).item() == 12.5
    x = np.random.default_rng(0).random((5, 4))
    assert mse_loss(x, x.copy()).item() == 0.0
    announce(3, "kl(0,0)=0, kl(1,0)=0.5 within 1e-12, mse examples exact")


# ----------------------------------------------------------------------
# criterion 4: conditional batch normalization
# ----------------------------------------------------------------------

def test_criterion_4_cbn_correctness():
    rng = np.random.default_rng(4)
    # identical banks equal plain BN, elementwise exact
    width, classes = 7, 5
    gamma = rng.normal(size=width)
    beta = rng.normal(size=width)
    bank = CondBatchNorm1d(classes, width, eps=1e-5)
    bank.gamma[...] = np.tile(gamma, (classes, 1))
    bank.beta[...] = np.tile(beta, (classes, 1))
    bn = CondBatchNorm1d(1, width, eps=1e-5)  # plain BN: one bank, class 0
    bn.gamma[...] = gamma[None, :]
    bn.beta[...] = beta[None, :]
    x = rng.normal(size=(40, width))
    labels = rng.integers(0, classes, size=40)
    assert np.array_equal(bank(x, labels, training=True),
                          bn(x, np.zeros(40, dtype=int), training=True))

    # per-class affine hand examples
    single = CondBatchNorm1d(1, 1, eps=1e-12)
    single.gamma[...] = np.array([[2.0]])
    single.beta[...] = np.array([[1.0]])
    np.testing.assert_allclose(
        single(np.array([[1.0], [3.0]]), np.array([0, 0]), True),
        [[-1.0], [3.0]], atol=1e-9)
    pair = CondBatchNorm1d(2, 1, eps=1e-12)
    pair.gamma[...] = np.array([[1.0], [3.0]])
    pair.beta[...] = np.array([[0.0], [-1.0]])
    np.testing.assert_allclose(
        pair(np.array([[0.0], [2.0]]), np.array([0, 1]), True),
        [[-1.0], [2.0]], atol=1e-9)

    # pre-affine normalized statistics
    plain = CondBatchNorm1d(3, 6, eps=1e-12)
    data = rng.normal(loc=2.0, scale=1.5, size=(512, 6))
    normalized = plain(data, rng.integers(0, 3, size=512), True)
    assert np.max(np.abs(normalized.mean(axis=0))) < 1e-6
    assert np.max(np.abs(normalized.var(axis=0) - 1.0)) < 1e-6
    announce(4, "CBN==BN with equal banks, affine examples exact, "
                "normalized stats within 1e-6")


# ----------------------------------------------------------------------
# criterion 5: oversampler properties
# ----------------------------------------------------------------------

def test_criterion_5_oversampler_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    major = np.clip(rng.normal(0.3, 0.06, size=(70, 3)), 0, 1)
    minor = np.clip(rng.normal(0.7, 0.06, size=(14, 3)), 0, 1)
    data = EncodedDataset(features=np.vstack([major, minor]),
                          labels=np.array([0] * 70 + [1] * 14),
                          schema=synthetic_schema(3))
    ckpt, _ = mm.train(data, mm.ModelConfig(
        feature_dim=3, num_classes=2, latent_dim=2, hidden_widths=(8,),
        lr=3e-3, epochs=20, batch_size=32, seed=5))

    outputs = {}
    for name in ("random_oversample", "smote", "borderline_smote", "kmeans_smote",
                 "svm_smote"):
        outputs[name] = getattr(bal, name)(bal.BalanceRequest(data, seed=50))
    outputs["generative"] = bal.generative_balance(
        bal.BalanceRequest(data, seed=50), ckpt)
    lo, hi = minor.min(axis=0), minor.max(axis=0)
    for name, out in outputs.items():
        assert class_counts(out).tolist() == [70, 70, 0, 0, 0], name
        synth = out.features[len(data):]
        if name in ("smote", "borderline_smote", "kmeans_smote", "svm_smote"):
            assert np.all(synth >= lo - 1e-12) and np.all(synth <= hi + 1e-12), name

    # Borderline DANGER construction and KMeans cluster filter, from the
    # module-level tests, re-asserted here
    from test_balancers import TestBorderline, TestKmeansSmote

    TestBorderline().test_safe_and_noise_points_are_never_seeds()
    TestKmeansSmote().test_two_islands_both_receive_points()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(5, f"all balancers hit the max count, convex bounds and seed-set "
                f"constructions hold in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 6: classifier oracle
# ----------------------------------------------------------------------

def test_criterion_6_classifier_oracle():
    rng = np.random.default_rng(6)
    features = rng.random((300, 6))
    labels = rng.integers(0, 5, size=300)
    tree = dtree.fit(features, labels)
    assert np.array_equal(dtree.predict(tree, features), labels)

    xor_x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    xor_y = np.array([0, 1, 1, 0])
    xor_tree = dtree.fit(xor_x, xor_y)
    assert xor_tree.depth() == 2
    assert np.array_equal(dtree.predict(xor_tree, xor_x), xor_y)

    found = dtree.best_split(np.array([[1.0], [2.0], [3.0], [4.0]]),
                             np.array([0, 0, 1, 1]))
    assert found == (0, 2.5, 0.5)
    announce(6, "distinct rows memorized, XOR tree depth 2, "
                "best_split (0, 2.5, 0.5) exact")


# ----------------------------------------------------------------------
# criterion 7: metrics oracle
# ----------------------------------------------------------------------

def test_criterion_7_metrics_oracle():
    cm = np.array([[2, 0], [1, 1]])
    acc = accuracy(cm)
    report = EvalReport.from_confusion("row", cm)
    pre_w, recall_w, f1_w = report.pre_w, report.recall_w, report.f1_w
    assert abs(acc - 75.00) < 0.01
    assert abs(pre_w - 83.33) < 0.01
    assert abs(recall_w - 75.00) < 0.01
    assert abs(f1_w - 73.33) < 0.01

    rng = np.random.default_rng(7)
    for _ in range(1000):
        side = int(rng.integers(2, 6))
        random_cm = rng.integers(0, 40, size=(side, side))
        if random_cm.sum() == 0:
            random_cm[0, 0] = 1
        recall = EvalReport.from_confusion("row", random_cm).recall_w
        assert recall == pytest.approx(accuracy(random_cm), abs=1e-9)
    announce(7, "reference matrix within 0.01, Acc == Recall_w on 1000 "
                "random matrices")


# ----------------------------------------------------------------------
# criterion 8: desk-scale end to end
# ----------------------------------------------------------------------

# Desk-scale generator settings: the corpus has ~38 batches per epoch, so
# epochs scale up to reach a step budget comparable to the full dataset at
# the published settings; kl_weight rebalances the element-mean MSE against
# the dim-summed KL; the capped tree makes capacity bind, so the class mass
# of the balanced training set can influence split selection.
SURROGATE = dict(epochs=800, lr=2e-3, batch_size=32, kl_weight=0.0005,
                 latent_dim=8, max_depth=7, seed=2)


@pytest.fixture(scope="module")
def surrogate_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    train, test = corpus.write_corpus(tmp)
    config = ExperimentConfig(train_path=str(train), test_path=str(test),
                              out_dir=str(tmp / "exp"), **SURROGATE)
    preprocess(config)
    started = time.perf_counter()
    rows = run_all(config)
    return config, rows, time.perf_counter() - started


@pytest.mark.slow
def test_criterion_8_desk_scale_surrogate(surrogate_run):
    config, rows, elapsed = surrogate_run
    assert elapsed < 30 * 60
    outcomes = dict(rows)
    for name, outcome in outcomes.items():
        assert isinstance(outcome, EvalReport), f"{name} failed: {outcome}"
    original = outcomes["Original imbalanced Data"].f1_w
    ours = outcomes["C2BNVAE"].f1_w
    assert ours > original, (f"C2BNVAE F1 {ours:.2f} does not exceed "
                             f"original {original:.2f}")
    announce(8, f"synthetic-format desk run in {elapsed:.0f}s, weighted F1 "
                f"{original:.2f} -> {ours:.2f}")


@pytest.mark.skipif(_real_data_paths() is None,
                    reason="real NSL-KDD files not present; set NSLKDD_DIR")
def test_criterion_8_real_nslkdd_subsample(tmp_path):
    train, test = _real_data_paths()
    config = ExperimentConfig(train_path=str(train), test_path=str(test),
                              out_dir=str(tmp_path / "exp"), seed=1,
                              subsample=0.1, kl_weight=0.008, max_depth=12)
    artifacts = preprocess(config)
    assert artifacts["feature_dim"] == 123
    assert artifacts["counts"][0] == 6734  # 10% of the 67343 Normal rows
    started = time.perf_counter()
    rows = run_all(config)
    elapsed = time.perf_counter() - started
    assert elapsed < 30 * 60
    outcomes = dict(rows)
    original = outcomes["Original imbalanced Data"].f1_w
    ours = outcomes["C2BNVAE"].f1_w
    assert ours > original
    announce(8, f"real 10% subsample in {elapsed:.0f}s, weighted F1 "
                f"{original:.2f} -> {ours:.2f}")


@pytest.mark.skipif(_real_data_paths() is None or not os.environ.get("NSLKDD_FULL"),
                    reason="full-data run is optional; set NSLKDD_DIR and NSLKDD_FULL=1")
def test_criterion_8_real_nslkdd_full(tmp_path):
    train, test = _real_data_paths()
    config = ExperimentConfig(train_path=str(train), test_path=str(test),
                              out_dir=str(tmp_path / "exp"), seed=1,
                              kl_weight=0.008, max_depth=12)
    artifacts = preprocess(config)
    assert artifacts["counts"][0] == 67343
    started = time.perf_counter()
    rows = run_all(config)
    elapsed = time.perf_counter() - started
    assert elapsed < 4 * 3600
    outcomes = dict(rows)
    original = outcomes["Original imbalanced Data"]
    ours = outcomes["C2BNVAE"]
    assert abs(original.acc - 75.88) <= 4.0
    assert ours.f1_w - original.f1_w >= 2.0
    announce(8, f"full run in {elapsed:.0f}s, original Acc {original.acc:.2f}, "
                f"weighted F1 {original.f1_w:.2f} -> {ours.f1_w:.2f}")


# ----------------------------------------------------------------------
# criterion 9: determinism
# ----------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    train, test = corpus.write_corpus(tmp_path)
    artifacts = []
    for sub in ("one", "two"):
        config = ExperimentConfig(train_path=str(train), test_path=str(test),
                                  out_dir=str(tmp_path / sub), seed=9,
                                  epochs=3, lr=1e-3, batch_size=64,
                                  latent_dim=8, hidden_widths=(16, 16))
        preprocess(config)
        run_all(config)
        results = config.results_dir()
        artifacts.append({p.name: p.read_bytes() for p in sorted(results.iterdir())})
    assert artifacts[0].keys() == artifacts[1].keys()
    for name in artifacts[0]:
        assert artifacts[0][name] == artifacts[1][name], f"{name} differs"
    announce(9, f"two runs, {len(artifacts[0])} result files byte-identical "
                f"(reports, table, chart CSV)")
