import numpy as np
import pytest

from c2bnvae import balancers
from c2bnvae.balancers import (BalanceRequest, borderline_smote,
                               generative_balance, kmeans_smote,
                               random_oversample, smote, svm_smote)
from c2bnvae.errors import ConvergenceError, DataError
from c2bnvae.model import ModelConfig, generate, train
from c2bnvae.nslkdd import (EncodedDataset, class_counts, default_taxonomy,
                            fit_schema, read_records, synthetic_schema, transform)

import corpus


def toy_dataset(features, labels) -> EncodedDataset:
    features = np.asarray(features, dtype=np.float64)
    return EncodedDataset(features=features,
                          labels=np.asarray(labels, dtype=np.int64),
                          schema=synthetic_schema(features.shape[1]))


def imbalanced_blobs(n_major=60, n_minor=12, dim=3, seed=0) -> EncodedDataset:
    rng = np.random.default_rng(seed)
    major = np.clip(rng.normal(0.3, 0.05, size=(n_major, dim)), 0, 1)
    minor = np.clip(rng.normal(0.7, 0.05, size=(n_minor, dim)), 0, 1)
    return toy_dataset(np.vstack([major, minor]), [0] * n_major + [1] * n_minor)


OVERSAMPLERS = ("borderline_smote", "kmeans_smote", "random_oversample", "smote",
                "svm_smote")
BALANCERS = OVERSAMPLERS + ("generative_balance",)


@pytest.fixture(scope="module")
def three_class_checkpoint():
    """A 3-class generator for 3-wide toy datasets."""
    config = ModelConfig(feature_dim=3, num_classes=3, latent_dim=2, hidden_widths=(8,),
                         lr=3e-3, epochs=2, batch_size=32, seed=3)
    return train(imbalanced_blobs(), config)[0]


def balance(name: str, data: EncodedDataset, checkpoint) -> EncodedDataset:
    request = BalanceRequest(data, seed=4)
    if name == "generative_balance":
        return generative_balance(request, checkpoint)
    return getattr(balancers, name)(request)


class TestSharedInvariants:
    @pytest.mark.parametrize("name", OVERSAMPLERS)
    def test_counts_prefix_and_determinism(self, name):
        data = imbalanced_blobs()
        balancer = getattr(balancers, name)
        out_a = balancer(BalanceRequest(data, seed=11))
        out_b = balancer(BalanceRequest(data, seed=11))
        counts = class_counts(out_a)[:2]
        assert counts.tolist() == [60, 60]
        # originals unchanged, in order, as a prefix
        assert np.array_equal(out_a.features[: len(data)], data.features)
        assert np.array_equal(out_a.labels[: len(data)], data.labels)
        # fixed seed reproduces bit for bit
        assert np.array_equal(out_a.features, out_b.features)
        assert np.array_equal(out_a.labels, out_b.labels)
        different = balancer(BalanceRequest(data, seed=12))
        assert not np.array_equal(out_a.features, different.features)

    @pytest.mark.parametrize("name", OVERSAMPLERS)
    def test_no_deficit_is_identity(self, name):
        data = toy_dataset(np.random.default_rng(0).random((10, 2)),
                           [0] * 5 + [1] * 5)
        out = getattr(balancers, name)(BalanceRequest(data, seed=0))
        assert np.array_equal(out.features, data.features)
        assert np.array_equal(out.labels, data.labels)

    @pytest.mark.parametrize("name", BALANCERS)
    def test_empty_dataset_rejected(self, name, three_class_checkpoint):
        with pytest.raises(DataError, match="empty"):
            balance(name, toy_dataset(np.zeros((0, 3)), []), three_class_checkpoint)

    @pytest.mark.parametrize("name", BALANCERS)
    def test_output_is_read_only(self, name, three_class_checkpoint):
        out = balance(name, imbalanced_blobs(), three_class_checkpoint)
        with pytest.raises(ValueError, match="read-only"):
            out.features[-1, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            out.labels[-1] = 0

    @pytest.mark.parametrize("absent", [1, 2], ids=["middle", "top"])
    @pytest.mark.parametrize("name", BALANCERS)
    def test_absent_class_is_skipped_wherever_it_sits(self, name, absent,
                                                      three_class_checkpoint):
        blobs = imbalanced_blobs()
        present = 3 - absent  # the minority class takes the other label
        data = toy_dataset(blobs.features, np.where(blobs.labels == 1, present, 0))
        out = balance(name, data, three_class_checkpoint)
        expected = [60, 60, 60]
        expected[absent] = 0
        assert class_counts(out)[:3].tolist() == expected


class TestRandomOversample:
    def test_synthetic_rows_are_copies_of_same_class(self):
        data = imbalanced_blobs()
        out = random_oversample(BalanceRequest(data, seed=3))
        originals = data.features[data.labels == 1]
        for row, label in zip(out.features[len(data):], out.labels[len(data):]):
            assert label == 1
            assert any(np.array_equal(row, orig) for orig in originals)

    def test_absent_class_is_skipped(self):
        # class 1 has a deficit of 3 but no row to copy: it stays absent
        data = toy_dataset(np.random.default_rng(0).random((4, 2)), [0, 0, 0, 2])
        out = random_oversample(BalanceRequest(data, seed=0))
        assert class_counts(out).tolist() == [3, 0, 3, 0, 0]


class TestSmote:
    def test_two_point_class_stays_on_segment(self):
        data = toy_dataset([[0.5, 0.5]] * 5 + [[0.0, 0.0], [1.0, 1.0]],
                           [0] * 5 + [1] * 2)
        out = smote(BalanceRequest(data, seed=1), k=1)
        synth = out.features[len(data):]
        assert len(synth) == 3
        # points on the segment have equal coordinates (lambda, lambda)
        np.testing.assert_allclose(synth[:, 0], synth[:, 1], atol=1e-12)
        assert np.all(synth >= 0.0) and np.all(synth <= 1.0)

    def test_duplicate_points_reproduce_themselves(self):
        data = toy_dataset([[0.2, 0.8]] * 3 + [[0.5, 0.5]] * 6,
                           [1] * 3 + [0] * 6)
        out = smote(BalanceRequest(data, seed=2), k=2)
        for row in out.features[len(data):]:
            np.testing.assert_allclose(row, [0.2, 0.8], atol=1e-12)

    def test_convex_combination_bounds(self):
        data = imbalanced_blobs(seed=4)
        out = smote(BalanceRequest(data, seed=4), k=3)
        originals = data.features[data.labels == 1]
        lo, hi = originals.min(axis=0), originals.max(axis=0)
        synth = out.features[len(data):]
        assert np.all(synth >= lo - 1e-12) and np.all(synth <= hi + 1e-12)

    def test_single_sample_class_rejected(self):
        data = toy_dataset(np.random.default_rng(0).random((5, 2)), [0, 0, 0, 0, 1])
        with pytest.raises(DataError):
            smote(BalanceRequest(data, seed=0), k=1)


def knn_oracle(queries, points, k, exclude_self=False):
    """``_knn_indices`` as it was: ``_sq_dists`` of each 128-query chunk,
    norms and temporaries recomputed per chunk."""
    n = len(queries)
    k = min(k, len(points) - (1 if exclude_self else 0))
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, 128):
        stop = min(n, start + 128)
        d2 = balancers._sq_dists(queries[start:stop], points)
        if exclude_self:
            d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        if k < d2.shape[1]:
            part = np.argpartition(d2, kth=k - 1, axis=1)[:, :k]
        else:
            part = np.broadcast_to(np.arange(d2.shape[1]), d2.shape).copy()
        sub = np.take_along_axis(d2, part, axis=1)
        order = np.lexsort((part, sub), axis=1)
        out[start:stop] = np.take_along_axis(part, order, axis=1)
    return out


class TestKnnIndices:
    @staticmethod
    def encoded_like(n, seed):
        # continuous columns, one-hot blocks and exact duplicates, as the
        # encoded splits have, so that distance ties occur
        rng = np.random.default_rng(seed)
        dense = rng.random((n, 30))
        onehot = np.eye(12)[rng.integers(0, 12, size=n)]
        rows = np.hstack([dense, onehot, np.zeros((n, 5))])
        rows[rng.integers(0, n, size=n // 5)] = rows[rng.integers(0, n, size=n // 5)]
        return rows

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["all points", "own class"])
    def test_same_tables_as_the_per_chunk_formula(self, seed, shape):
        points = self.encoded_like(333, seed=seed)  # three chunks, the last short
        if shape == "all points":
            queries, k, exclude_self = points[::2] + 0.0, 11, False
        else:
            queries, k, exclude_self = points, 5, True
        got = balancers._knn_indices(queries, points, k, exclude_self=exclude_self)
        assert np.array_equal(got, knn_oracle(queries, points, k, exclude_self))

    def test_k_past_the_point_count_lists_every_point(self):
        points = self.encoded_like(9, seed=2)
        got = balancers._knn_indices(points, points, 20, exclude_self=True)
        assert got.shape == (9, 8)
        assert np.array_equal(got, knn_oracle(points, points, 20, exclude_self=True))


class TestBorderline:
    @staticmethod
    def configuration():
        """A 2-D layout with safe, danger and noise minority points.

        safe   cluster at (0.10, 0.10): each sees only minority neighbors
        danger pair (0.50, 0.50)/(0.51, 0.50): mixed m-neighborhood
        noise  (0.90, 0.90): all m neighbors are majority
        """
        minority = np.array([
            [0.10, 0.10], [0.11, 0.10], [0.10, 0.11], [0.09, 0.10], [0.10, 0.09],
            [0.50, 0.50], [0.51, 0.50],
            [0.90, 0.90],
        ])
        majority = np.vstack([
            np.array([[0.55, 0.50], [0.55, 0.55], [0.50, 0.55]]),
            np.array([[0.88, 0.90], [0.92, 0.90], [0.90, 0.88], [0.90, 0.92],
                      [0.88, 0.88], [0.92, 0.92], [0.88, 0.92], [0.92, 0.88]]),
            np.tile([0.75, 0.25], (20, 1)) + np.linspace(0, 0.02, 20)[:, None],
        ])
        features = np.vstack([minority, majority])
        labels = np.array([1] * len(minority) + [0] * len(majority))
        return toy_dataset(features, labels), minority

    def test_safe_and_noise_points_are_never_seeds(self):
        data, minority = self.configuration()
        # k=1: every synthetic point lies on the segment between a seed and
        # its single nearest minority neighbor. The danger pair are mutual
        # nearest neighbors, so legitimate output stays on y = 0.50 between
        # x = 0.50 and 0.51; a safe or noise seed would leave that segment.
        out = borderline_smote(BalanceRequest(data, seed=5), k=1, m=4)
        synth = out.features[len(data):]
        assert len(synth) > 0
        np.testing.assert_allclose(synth[:, 1], 0.50, atol=1e-12)
        assert np.all(synth[:, 0] >= 0.50 - 1e-12)
        assert np.all(synth[:, 0] <= 0.51 + 1e-12)

    def test_fallback_when_no_danger(self, caplog):
        # minority fully surrounded by itself: DANGER empty, falls back
        rng = np.random.default_rng(6)
        minority = np.clip(rng.normal(0.2, 0.02, size=(10, 2)), 0, 1)
        majority = np.clip(rng.normal(0.8, 0.02, size=(30, 2)), 0, 1)
        data = toy_dataset(np.vstack([majority, minority]),
                           [0] * 30 + [1] * 10)
        with caplog.at_level("INFO"):
            out = borderline_smote(BalanceRequest(data, seed=6), k=3, m=5)
        assert class_counts(out)[:2].tolist() == [30, 30]
        assert any("falling back" in r.message for r in caplog.records)

    def test_balanced_counts(self):
        data, _ = self.configuration()
        out = borderline_smote(BalanceRequest(data, seed=7), k=2, m=4)
        counts = class_counts(out)[:2]
        assert counts[0] == counts[1]


def kmeans_oracle(points, n_clusters, rng):
    """``_kmeans`` as it was: ``_sq_dists`` at every seeding and Lloyd step,
    the rows' squared norms and doubled values recomputed each time."""
    n = len(points)
    n_clusters = min(n_clusters, n)
    centers = np.empty((n_clusters, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = balancers._sq_dists(points, centers[:1])[:, 0]
    for j in range(1, n_clusters):
        total = d2.sum()
        if total <= 0:
            centers[j] = points[rng.integers(n)]
        else:
            pick = np.searchsorted(np.cumsum(d2 / total), rng.random())
            if pick == n:
                pick = np.flatnonzero(d2)[-1]
            centers[j] = points[pick]
        d2 = np.minimum(d2, balancers._sq_dists(points, centers[j:j + 1])[:, 0])
    assign = np.full(n, -1, dtype=np.int64)
    for _iteration in range(balancers.KMEANS_MAX_ITER):
        new_assign = np.argmin(balancers._sq_dists(points, centers), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(n_clusters):
            members = points[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return assign


@pytest.fixture(scope="module", params=[1, 3], ids=["1x", "3x"])
def corpus_features(request, tmp_path_factory):
    """The encoded training split of the test corpus at seed 1, both class
    mixes scaled by 1 or 3."""
    scale = request.param
    train_path, test_path = corpus.write_corpus(
        tmp_path_factory.mktemp(f"kmeans{scale}x"), seed=1,
        train_mix={k: v * scale for k, v in corpus.TRAIN_MIX.items()},
        test_mix={k: v * scale for k, v in corpus.TEST_MIX.items()})
    train, test = read_records(train_path), read_records(test_path)
    schema = fit_schema(train, extra_vocab_records=test, pad_to=123)
    return transform(train, schema, default_taxonomy()).features


class TestKmeans:
    @staticmethod
    def assert_same_as_oracle(points, n_clusters, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = balancers._kmeans(points, n_clusters, rng)
        assert np.array_equal(got, kmeans_oracle(points, n_clusters, oracle_rng))
        assert rng.random() == oracle_rng.random()  # the same draws were taken

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_corpus_assignments_equal_the_per_step_formula(self, corpus_features, seed):
        self.assert_same_as_oracle(corpus_features, 8, seed)

    @pytest.mark.parametrize("n_clusters", [3, 6, 9, 40])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_duplicate_rows_and_clusters_past_the_distinct_rows(self, n_clusters, seed):
        # 6 distinct rows, each 5 times: from 6 clusters on, seeding runs out
        # of rows at a positive distance and draws uniformly instead
        distinct = np.random.default_rng(seed).random((6, 4))
        points = np.repeat(distinct, 5, axis=0)[np.random.default_rng(0).permutation(30)]
        self.assert_same_as_oracle(points, n_clusters, seed)


class TestKmeansSmote:
    def test_degenerate_single_cluster_behaves_like_smote(self):
        data = imbalanced_blobs(seed=8)
        out = kmeans_smote(BalanceRequest(data, seed=8), k=3, n_clusters=1,
                           imbalance_threshold=0.0)
        counts = class_counts(out)[:2]
        assert counts.tolist() == [60, 60]
        originals = data.features[data.labels == 1]
        lo, hi = originals.min(axis=0), originals.max(axis=0)
        synth = out.features[len(data):]
        assert np.all(synth >= lo - 1e-12) and np.all(synth <= hi + 1e-12)

    def test_two_islands_both_receive_points(self):
        rng = np.random.default_rng(9)
        island_a = np.clip(rng.normal(0.15, 0.02, size=(8, 2)), 0, 1)
        island_b = np.clip(rng.normal(0.85, 0.02, size=(8, 2)), 0, 1)
        majority = np.clip(rng.normal([0.5, 0.1], 0.03, size=(60, 2)), 0, 1)
        data = toy_dataset(np.vstack([majority, island_a, island_b]),
                           [0] * 60 + [1] * 16)
        out = kmeans_smote(BalanceRequest(data, seed=9), k=3, n_clusters=4,
                           imbalance_threshold=0.5)
        synth = out.features[len(data):]
        near_a = np.linalg.norm(synth - island_a.mean(axis=0), axis=1) < 0.15
        near_b = np.linalg.norm(synth - island_b.mean(axis=0), axis=1) < 0.15
        assert near_a.any() and near_b.any()
        # nothing on the bridge: every point is inside one island's hull bounds
        assert np.all(near_a | near_b)

    def test_seeding_draw_past_the_rounded_cumsum(self, monkeypatch):
        class StubRng:
            def integers(self, n):
                return 0

            def random(self):
                return np.nextafter(1.0, 0.0)

        points = np.random.default_rng(0).random((51, 2))
        points = np.vstack([points, points[:1]])  # last row: distance 0 to the first center
        d2 = balancers._sq_dists(points, points[:1])[:, 0]
        assert np.cumsum(d2 / d2.sum())[-1] < StubRng().random()
        monkeypatch.setattr(balancers, "KMEANS_MAX_ITER", 1)
        assign = balancers._kmeans(points, 2, StubRng())
        # the second center is the last row with a positive distance, row 50
        assert assign[50] == 1 and assign[0] == assign[51] == 0

    def test_fallback_when_no_cluster_qualifies(self, caplog):
        data = imbalanced_blobs(seed=10)
        with caplog.at_level("INFO"):
            out = kmeans_smote(BalanceRequest(data, seed=10), k=3, n_clusters=1,
                               imbalance_threshold=0.99)
        assert class_counts(out)[:2].tolist() == [60, 60]
        assert any("falling back" in r.message for r in caplog.records)


class TestSvmSmote:
    @staticmethod
    def blobs():
        rng = np.random.default_rng(13)
        majority = np.clip(rng.normal([0.3, 0.5], 0.06, size=(80, 2)), 0, 1)
        minority = np.clip(rng.normal([0.7, 0.5], 0.06, size=(16, 2)), 0, 1)
        data = toy_dataset(np.vstack([majority, minority]),
                           [0] * 80 + [1] * 16)
        return data, minority

    def test_seeds_are_nearer_the_hyperplane_than_the_centroid(self):
        from c2bnvae.balancers import _linear_svm

        data, minority = self.blobs()
        signs = np.where(data.labels == 1, 1.0, -1.0)
        w = _linear_svm(data.features, signs, penalty=10.0)
        rows_aug = np.hstack([minority, np.ones((len(minority), 1))])
        margins = rows_aug @ w
        seeds = minority[margins <= 1.0 + 1e-12]
        assert 0 < len(seeds) < len(minority)
        norm = np.linalg.norm(w[:-1])
        seed_dist = np.abs(np.hstack([seeds, np.ones((len(seeds), 1))]) @ w) / norm
        centroid = minority.mean(axis=0)
        centroid_dist = abs(np.concatenate([centroid, [1.0]]) @ w) / norm
        assert seed_dist.mean() < centroid_dist

    def test_balanced_counts_and_convex_bounds(self):
        data, minority = self.blobs()
        out = svm_smote(BalanceRequest(data, seed=13), k=3, penalty=10.0)
        synth = out.features[len(data):]
        assert len(synth) == 64
        assert class_counts(out)[:2].tolist() == [80, 80]
        lo, hi = minority.min(axis=0), minority.max(axis=0)
        assert np.all(synth >= lo - 1e-12) and np.all(synth <= hi + 1e-12)

    def test_degenerate_one_class_rejected(self):
        data = toy_dataset(np.random.default_rng(0).random((6, 2)),
                           [1, 1, 1, 1, 1, 0])
        with pytest.raises(DataError):
            svm_smote(BalanceRequest(data, seed=0))

    def test_iteration_cap_raises_naming_the_class(self, monkeypatch):
        data, _ = self.blobs()
        monkeypatch.setattr(balancers, "SVM_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="class 1"):
            svm_smote(BalanceRequest(data, seed=13), k=3, penalty=10.0)

    def test_solver_draws_no_random_numbers(self, monkeypatch):
        data, minority = self.blobs()
        entry_states = []
        real = balancers._smote_from_seeds

        def recording(rows, is_seed, deficit, k, rng, empty):
            entry_states.append(rng.bit_generator.state)
            return real(rows, is_seed, deficit, k, rng, empty)
        monkeypatch.setattr(balancers, "_smote_from_seeds", recording)
        out = svm_smote(BalanceRequest(data, seed=13), k=3, penalty=10.0)
        # the class rng reaches SMOTE untouched by the solver ...
        assert entry_states == [balancers._class_rng(13, 1).bit_generator.state]
        # ... so the fill equals the SMOTE draws alone from a fresh rng
        signs = np.where(data.labels == 1, 1.0, -1.0)
        w = balancers._linear_svm(data.features, signs, 10.0)
        is_seed = np.hstack([minority, np.ones((len(minority), 1))]) @ w <= 1.0 + 1e-12
        expected = real(minority, is_seed, 64, 3, balancers._class_rng(13, 1), "")
        assert np.array_equal(out.features[len(data):], expected)


def padded_encoding(seed=21):
    """A 123-wide matrix laid out like the padded NSL-KDD encoding: numeric
    columns, one-hot blocks with unused entries, a constant numeric and
    zero padding; it repeats rows and holds a class of two rows."""
    rng = np.random.default_rng(seed)
    n = 90
    features = np.zeros((n, 123))
    features[:, :30] = rng.random((n, 30))
    features[:, 30] = 1.0  # constant numeric
    for start, width, used in ((31, 3, 3), (34, 70, 12), (104, 11, 5)):
        features[np.arange(n), start + rng.integers(0, used, size=n)] = 1.0
    features[60:75] = features[:15]  # duplicated rows
    labels = np.repeat([0, 1, 2, 3], [50, 28, 10, 2])
    labels[60:75] = labels[:15]
    return features, labels


class TestLinearSvm:
    @staticmethod
    def kkt_residual(features, signs, penalty, w):
        x = np.hstack([features, np.ones((len(features), 1))])
        active = signs * (x @ w) < 1.0
        x_a, y_a = x[active], signs[active]
        residual = np.linalg.norm(w / penalty - x_a.T @ (y_a - x_a @ w))
        scale = 1.0 + np.linalg.norm(x_a.T @ y_a)
        return residual, scale

    @pytest.mark.parametrize("penalty", [0.1, 1.0, 100.0])
    def test_kkt_residual_vanishes_at_the_solution(self, penalty):
        data = imbalanced_blobs(seed=17)
        signs = np.where(data.labels == 1, 1.0, -1.0)
        w = balancers._linear_svm(data.features, signs, penalty)
        residual, scale = self.kkt_residual(data.features, signs, penalty, w)
        assert residual <= 1e-8 * scale

    def test_solution_is_a_minimum_of_the_objective(self):
        data = imbalanced_blobs(seed=18)
        signs = np.where(data.labels == 1, 1.0, -1.0)
        x = np.hstack([data.features, np.ones((len(data), 1))])

        def objective(v):
            return v @ v / 2.0 + 0.5 * np.sum(np.maximum(0.0, 1.0 - signs * (x @ v)) ** 2)
        w = balancers._linear_svm(data.features, signs, 1.0)
        rng = np.random.default_rng(18)
        for _ in range(20):
            assert objective(w) <= objective(w + 1e-3 * rng.normal(size=w.shape))

    def test_line_search_is_exact(self):
        data = imbalanced_blobs(seed=20)
        signs = np.where(data.labels == 1, 1.0, -1.0)
        x = np.hstack([data.features, np.ones((len(data), 1))])

        def objective(v):
            return v @ v / 4.0 + 0.5 * np.sum(np.maximum(0.0, 1.0 - signs * (x @ v)) ** 2)
        rng = np.random.default_rng(20)
        for _ in range(10):
            w, step = rng.normal(size=4), rng.normal(size=4)
            if objective(w + 1e-6 * step) > objective(w):
                step = -step  # a descent direction, as a Newton step is
            t = balancers._line_search(data.features, signs, 2.0, w, step)
            assert t > 0
            best = objective(w + t * step)
            for other in (0.999 * t, 1.001 * t, 0.5 * t, 2.0 * t):
                assert best <= objective(w + other * step)

    def test_identical_across_calls(self):
        data = imbalanced_blobs(seed=19)
        signs = np.where(data.labels == 1, 1.0, -1.0)
        first = balancers._linear_svm(data.features, signs, 1.0)
        assert np.array_equal(first, balancers._linear_svm(data.features, signs, 1.0))

    @pytest.mark.parametrize("label", [0, 1, 2, 3])
    def test_converges_on_the_padded_encoding(self, label):
        features, labels = padded_encoding()
        signs = np.where(labels == label, 1.0, -1.0)
        w = balancers._linear_svm(features, signs, 1.0)
        assert np.all(np.isfinite(w))
        residual, scale = self.kkt_residual(features, signs, 1.0, w)
        assert residual <= 1e-8 * scale

    def test_svm_smote_balances_the_padded_encoding(self):
        features, labels = padded_encoding()
        out = svm_smote(BalanceRequest(toy_dataset(features, labels), seed=21), k=3)
        assert np.bincount(labels).tolist() == [65, 13, 10, 2]
        assert class_counts(out)[:4].tolist() == [65] * 4


class TestGenerativeBalance:
    @pytest.fixture(scope="class")
    @staticmethod
    def trained():
        data = imbalanced_blobs(n_major=80, n_minor=16, dim=4, seed=14)
        config = ModelConfig(feature_dim=4, num_classes=2, latent_dim=2,
                             hidden_widths=(12, 12), lr=3e-3, epochs=25,
                             batch_size=32, seed=14)
        ckpt, _ = train(data, config)
        return data, ckpt

    def test_counts_range_and_conservation(self, trained):
        data, ckpt = trained
        out = generative_balance(BalanceRequest(data, seed=15), ckpt)
        counts = class_counts(out)[:2]
        assert counts.tolist() == [80, 80]
        synth = out.features[len(data):]
        assert np.all((synth > 0.0) & (synth < 1.0))
        assert len(out) == len(data) + 64

    @pytest.fixture(scope="class")
    @staticmethod
    def trained_with_constant_columns():
        # blobs, a zero pad column, a constant 0.5 column, and a column that is
        # constant within the minority class only
        blobs = imbalanced_blobs(n_major=80, n_minor=16, dim=4, seed=14)
        n = len(blobs)
        features = np.hstack([blobs.features, np.zeros((n, 1)), np.full((n, 1), 0.5)])
        features[blobs.labels == 1, 3] = 0.9
        data = toy_dataset(features, blobs.labels)
        config = ModelConfig(feature_dim=6, num_classes=2, latent_dim=2,
                             hidden_widths=(12, 12), lr=3e-3, epochs=25,
                             batch_size=32, seed=14)
        ckpt, _ = train(data, config)
        return data, ckpt

    def test_training_constant_columns_hold_their_value(self,
                                                        trained_with_constant_columns):
        data, ckpt = trained_with_constant_columns
        out = generative_balance(BalanceRequest(data, seed=15), ckpt)
        assert np.array_equal(out.features[:len(data)], data.features)
        synth = out.features[len(data):]
        assert synth.shape == (64, 6)
        assert np.all(synth[:, 4] == 0.0)
        assert np.all(synth[:, 5] == 0.5)
        generated = generate(1, 64, ckpt, balancers._class_rng(15, 1))
        assert np.all((generated[:, 4:] > 0.0) & (generated[:, 4:] < 1.0))
        # every other column, the class-constant one too, is the model's output
        assert np.array_equal(synth[:, :4], generated[:, :4])

    def test_fingerprint_mismatch_refused(self, trained):
        data, ckpt = trained
        other = EncodedDataset(features=data.features, labels=data.labels,
                               schema=synthetic_schema(4))
        hacked = type(ckpt)(config=ckpt.config, params=ckpt.params,
                            stats=ckpt.stats, schema_fingerprint="f" * 64)
        with pytest.raises(DataError, match="schema"):
            generative_balance(BalanceRequest(other, seed=0), hacked)

    def test_determinism(self, trained):
        data, ckpt = trained
        a = generative_balance(BalanceRequest(data, seed=16), ckpt)
        b = generative_balance(BalanceRequest(data, seed=16), ckpt)
        assert np.array_equal(a.features, b.features)
