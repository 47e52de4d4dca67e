"""Class balancers: fill every class up to the majority count.

All six methods share the same contract: the original rows come back
unchanged and in order as a prefix, synthetic rows are appended per class in
ascending class order, and a fixed seed reproduces the output bit for bit.
Per-class generation draws from an rng derived from (seed, class index), so
classes are independent streams.

Distances are plain Euclidean in the encoded [0,1] space; one-hot blocks
are not reweighted, which keeps every method comparable on the same
geometry.

The balancers trust their keyword settings (``k``, ``m``, ``n_clusters``,
``imbalance_threshold``, ``penalty``): ``ExperimentConfig`` checks them once,
when a config loads.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .errors import ConvergenceError, DataError, LabelError
from .nslkdd import EncodedDataset, class_counts

Array = np.ndarray

logger = logging.getLogger(__name__)


@dataclass
class BalanceRequest:
    dataset: EncodedDataset
    seed: int = 0


def _class_rng(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, label]))


def _balance(request: BalanceRequest, fill) -> EncodedDataset:
    """Fill every class up to the majority count.

    ``fill(label, rows, deficit, rng)`` returns the ``deficit`` new rows of
    class ``label`` from the class's own ``rows`` and the class rng. Classes
    with no deficit are skipped, and so is a class with no rows, wherever
    its label sits: no method has anything to draw its rows from. The new
    rows follow the originals in class order.
    """
    dataset = request.dataset
    if dataset.labels.size == 0:
        raise DataError("cannot balance an empty dataset")
    counts = class_counts(dataset)
    features, labels = [dataset.features], [dataset.labels]
    for label, count in enumerate(counts):
        deficit = int(counts.max() - count)
        if deficit == 0 or count == 0:
            continue
        rows = dataset.features[dataset.labels == label]
        synthetic = fill(label, rows, deficit, _class_rng(request.seed, label))
        features.append(synthetic)
        labels.append(np.full(len(synthetic), label, dtype=np.int64))
    return EncodedDataset(features=np.vstack(features), labels=np.concatenate(labels),
                          schema=dataset.schema)


# ----------------------------------------------------------------------
# neighbor search, k-means and a linear SVM, all seeded and deterministic
# ----------------------------------------------------------------------

def _sq_dists(queries: Array, points: Array) -> Array:
    # ||a-b||^2 via the dot-product expansion; clip tiny negatives from rounding
    return _expanded_sq_dists(np.sum(queries**2, axis=1)[:, None], 2.0 * queries,
                              points)


def _expanded_sq_dists(query_norms: Array, twice_queries: Array,
                       points: Array) -> Array:
    """``_sq_dists`` from its query terms, ``sum(q**2)`` as a column and
    ``2.0 * q``, so that a caller who measures the same queries against
    many point sets computes them once."""
    d2 = (query_norms + np.sum(points**2, axis=1)[None, :]
          - twice_queries @ points.T)
    return np.maximum(d2, 0.0)


def _knn_indices(queries: Array, points: Array, k: int,
                 exclude_self: bool = False) -> Array:
    """Indices of the k nearest ``points`` per query row, nearest first.

    ``exclude_self`` treats query i as points[i] (same array) and drops it.
    Deterministic for identical inputs; exact-distance ties order by point
    index within the selected k.
    """
    n = len(queries)
    k = min(k, len(points) - (1 if exclude_self else 0))
    out = np.empty((n, k), dtype=np.int64)
    point_norms = np.sum(points**2, axis=1)
    for start in range(0, n, KNN_CHUNK):
        stop = min(n, start + KNN_CHUNK)
        chunk = queries[start:stop]
        # _sq_dists' operations in its order, written into one array
        d2 = np.sum(chunk**2, axis=1)[:, None] + point_norms
        d2 -= 2.0 * chunk @ points.T
        np.maximum(d2, 0.0, out=d2)
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


def _drop_own_row(table: Array, own_positions: Array) -> Array:
    """Remove each query's own row from a (q x k+1) neighbor table.

    When the own row is not present (duplicates crowded it out), the farthest
    slot is dropped instead, so exactly k neighbors remain.
    """
    q, width = table.shape
    is_self = table == own_positions[:, None]
    drop = np.where(is_self.any(axis=1), is_self.argmax(axis=1), width - 1)
    keep = np.ones_like(table, dtype=bool)
    keep[np.arange(q), drop] = False
    return table[keep].reshape(q, width - 1)


def _kmeans(points: Array, n_clusters: int, rng: np.random.Generator) -> Array:
    """Seeded k-means++ assignment over rows; returns cluster index per row."""
    n = len(points)
    n_clusters = min(n_clusters, n)
    # the rows' terms of every distance below, computed once
    norms, twice = np.sum(points**2, axis=1)[:, None], 2.0 * points
    centers = np.empty((n_clusters, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = _expanded_sq_dists(norms, twice, centers[:1])[:, 0]
    for j in range(1, n_clusters):
        total = d2.sum()
        if total <= 0:
            centers[j] = points[rng.integers(n)]
        else:
            pick = np.searchsorted(np.cumsum(d2 / total), rng.random())
            if pick == n:  # the rounded cumsum ended below the draw
                pick = np.flatnonzero(d2)[-1]
            centers[j] = points[pick]
        d2 = np.minimum(d2, _expanded_sq_dists(norms, twice, centers[j:j + 1])[:, 0])
    assign = np.full(n, -1, dtype=np.int64)
    for _iteration in range(KMEANS_MAX_ITER):
        new_assign = np.argmin(_expanded_sq_dists(norms, twice, centers), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(n_clusters):
            members = points[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return assign


# query rows whose distances to every point are computed at once. Kept in
# rows, not sized by cells: BLAS sums a product of another row count in
# another order, which moves distance bits and so the order of near ties
KNN_CHUNK = 128
KMEANS_MAX_ITER = 300  # backstop only: Lloyd's loop ends once no assignment changes
SVM_MAX_ITER = 100  # backstop only: the Newton loop ends in finitely many steps


def _margins(features: Array, signs: Array, w: Array) -> Array:
    """y_i * (x_i . w) with the bias as the last entry of ``w``."""
    return signs * (features @ w[:-1] + w[-1])


def _newton_point(features: Array, signs: Array, penalty: float) -> Array:
    """Minimiser of the squared hinge with every given row active: the
    solution of (X^T X + I/C) w = X^T y over rows augmented with a 1."""
    d = features.shape[1]
    system = np.empty((d + 1, d + 1))
    system[:d, :d] = features.T @ features
    system[:d, d] = system[d, :d] = features.sum(axis=0)
    system[d, d] = len(features)
    system.flat[::d + 2] += 1.0 / penalty
    return np.linalg.solve(system, np.append(features.T @ signs, signs.sum()))


def _line_search(features: Array, signs: Array, penalty: float,
                 w: Array, step: Array) -> float:
    """Exact minimiser t > 0 of the objective along ``w + t*step``.

    Along the line each margin is o_i + t*s_i, and the derivative of the
    objective is piecewise linear and increasing in t, with a breakpoint
    where a margin crosses 1 (Keerthi & DeCoste 2005). Walking the sorted
    breakpoints, the root lies in the first segment whose derivative is
    nonnegative at its end.
    """
    o = _margins(features, signs, w)
    s = _margins(features, signs, step)
    active = o < 1.0
    slope = w @ step / penalty - s[active] @ (1.0 - o[active])
    curvature = step @ step / penalty + s[active] @ s[active]
    # rows that leave the active set (margin rises through 1) or enter it
    crossing = (active & (s > 0)) | (~active & (s < 0))
    at = (1.0 - o[crossing]) / s[crossing]
    order = np.argsort(at, kind="stable")
    leaves = np.where(active[crossing], 1.0, -1.0)[order]
    s_c, o_c = s[crossing][order], o[crossing][order]
    slope = np.append(slope, slope + np.cumsum(leaves * s_c * (1.0 - o_c)))
    curvature = np.append(curvature, curvature - np.cumsum(leaves * s_c * s_c))
    ends = np.append(at[order], np.inf)
    segment = np.argmax(slope + curvature * ends >= 0.0)
    return -slope[segment] / curvature[segment]


def _linear_svm(features: Array, signs: Array, penalty: float) -> Array:
    """Soft-margin linear L2-SVM, solved in the primal by Newton's method.

    Minimises 1/(2C)*||w||^2 + 1/2*sum_i max(0, 1 - y_i*(x_i . w))^2 with
    C = ``penalty``; ``w`` is augmented with the bias as its last entry, and
    the bias is regularised with the rest. Each iteration takes the Newton
    point of the rows whose margin is below 1 (the active set) at the
    current iterate (Chapelle 2007). When the active set of that point is
    the same set, the point is the unique minimiser and is returned;
    otherwise an exact line search moves toward it, so the objective falls
    at every step and the loop ends after finitely many. No random numbers
    are drawn. Raises ConvergenceError after ``SVM_MAX_ITER`` iterations.
    """
    w = np.zeros(features.shape[1] + 1)
    active = np.ones(len(features), dtype=bool)  # every margin of w = 0 is 0
    for _ in range(SVM_MAX_ITER):
        w_bar = _newton_point(features[active], signs[active], penalty)
        reached = _margins(features, signs, w_bar) < 1.0
        if np.array_equal(reached, active):
            return w_bar
        step = w_bar - w
        w = w + _line_search(features, signs, penalty, w, step) * step
        active = _margins(features, signs, w) < 1.0
    raise ConvergenceError(f"linear SVM did not converge in {SVM_MAX_ITER} "
                           f"Newton iterations")


# ----------------------------------------------------------------------
# the balancers
# ----------------------------------------------------------------------

def random_oversample(request: BalanceRequest) -> EncodedDataset:
    """Duplicate existing rows of each deficient class uniformly with replacement."""
    def fill(label, rows, deficit, rng):
        return rows[rng.integers(0, len(rows), size=deficit)]

    return _balance(request, fill)


def _interpolate(seeds: Array, neighbor_pool: Array, neighbor_table: Array,
                 deficit: int, rng: np.random.Generator) -> Array:
    """p + lambda*(q - p) with q one of p's tabled neighbors, lambda ~ U[0,1]."""
    k = neighbor_table.shape[1]
    seed_idx = rng.integers(0, len(seeds), size=deficit)
    nbr_slot = rng.integers(0, k, size=deficit)
    lam = rng.random(deficit)[:, None]
    p = seeds[seed_idx]
    q = neighbor_pool[neighbor_table[seed_idx, nbr_slot]]
    return p + lam * (q - p)


def _smote_one_class(rows: Array, deficit: int, k: int,
                     rng: np.random.Generator) -> Array:
    if len(rows) < 2:
        raise DataError("SMOTE needs at least 2 samples in a deficient class")
    k_eff = min(k, len(rows) - 1)
    table = _knn_indices(rows, rows, k_eff, exclude_self=True)
    return _interpolate(rows, rows, table, deficit, rng)


def _smote_from_seeds(rows: Array, is_seed: Array, deficit: int, k: int,
                      rng: np.random.Generator, empty: str) -> Array:
    """SMOTE from the class rows marked ``is_seed`` toward their same-class
    neighbors; with no seed row, log ``empty`` and fall back to plain SMOTE."""
    seeds = rows[is_seed]
    if len(seeds) == 0:
        logger.info("%s, falling back to plain SMOTE", empty)
        return _smote_one_class(rows, deficit, k, rng)
    k_eff = min(k, len(rows) - 1)
    table = _knn_indices(seeds, rows, k_eff + 1)
    table = _drop_own_row(table, np.flatnonzero(is_seed))
    return _interpolate(seeds, rows, table, deficit, rng)


def smote(request: BalanceRequest, k: int = 5) -> EncodedDataset:
    """Classic interpolation between a class row and one of its k nearest
    same-class neighbors."""
    return _balance(request,
                    lambda label, rows, deficit, rng: _smote_one_class(rows, deficit, k, rng))


def borderline_smote(request: BalanceRequest, k: int = 5, m: int = 10) -> EncodedDataset:
    """Borderline-1: seeds restricted to the DANGER set, i.e. minority rows
    whose m-neighborhood over all classes holds >= m/2 but < m other-class
    rows; interpolation stays toward same-class neighbors."""
    dataset = request.dataset

    def fill(label, rows, deficit, rng):
        if len(rows) < 2:
            raise DataError("Borderline-SMOTE needs at least 2 samples in a "
                            "deficient class")
        m_eff = min(m, len(dataset.features) - 1)
        table = _knn_indices(rows, dataset.features, m_eff + 1)
        neighborhood = _drop_own_row(table, np.flatnonzero(dataset.labels == label))
        other_counts = (dataset.labels[neighborhood] != label).sum(axis=1)
        danger = (2 * other_counts >= m_eff) & (other_counts < m_eff)
        return _smote_from_seeds(rows, danger, deficit, k, rng,
                                 f"borderline_smote: DANGER set empty for class {label}")

    return _balance(request, fill)


def kmeans_smote(request: BalanceRequest, k: int = 5, n_clusters: int = 8,
                 imbalance_threshold: float = 0.5) -> EncodedDataset:
    """SMOTE restricted to k-means clusters where the class's fraction exceeds
    the threshold; the deficit is apportioned proportionally to each eligible
    cluster's minority density (members / mean pairwise distance)."""
    dataset = request.dataset

    def fill(label, rows, deficit, rng):
        if len(rows) < 2:
            raise DataError("KMeans-SMOTE needs at least 2 samples in a "
                            "deficient class")
        assign = _kmeans(dataset.features, n_clusters, rng)
        member_assign = assign[dataset.labels == label]
        eligible = []
        for cluster in range(assign.max() + 1):
            size = int(np.sum(assign == cluster))
            members = rows[member_assign == cluster]
            if size == 0 or len(members) < 2:
                continue
            fraction = len(members) / size
            if fraction > imbalance_threshold:
                spread = np.sqrt(_sq_dists(members, members))
                mean_dist = spread.sum() / (len(members) * (len(members) - 1))
                density = len(members) / (mean_dist + 1e-12)
                eligible.append((members, density))
        if not eligible:
            logger.info("kmeans_smote: no eligible cluster for class %d, "
                        "falling back to plain SMOTE", label)
            return _smote_one_class(rows, deficit, k, rng)
        weights = np.array([d for _, d in eligible])
        shares = _apportion(deficit, weights / weights.sum())
        parts = []
        for (members, _), share in zip(eligible, shares):
            if share == 0:
                continue
            parts.append(_smote_one_class(members, share, k, rng))
        return np.vstack(parts)

    return _balance(request, fill)


def _apportion(total: int, fractions: Array) -> Array:
    """Largest-remainder split of ``total`` into integer shares."""
    raw = fractions * total
    shares = np.floor(raw).astype(np.int64)
    remainder = total - shares.sum()
    if remainder > 0:
        order = np.argsort(-(raw - shares), kind="stable")
        shares[order[:remainder]] += 1
    return shares


def svm_smote(request: BalanceRequest, k: int = 5, penalty: float = 1.0) -> EncodedDataset:
    """SMOTE seeded from the class's support vectors of a one-vs-rest linear
    SVM (rows on or inside the margin); interpolation toward same-class
    neighbors only (no extrapolation).

    The SVM is the squared-hinge soft-margin problem with C = ``penalty``,
    solved exactly by ``_linear_svm``; it draws no random numbers, so the
    class rng feeds only the SMOTE interpolation.
    """
    dataset = request.dataset

    def fill(label, rows, deficit, rng):
        mask = dataset.labels == label
        if len(rows) < 2 or int(np.sum(~mask)) < 2:
            raise DataError("SVM-SMOTE needs at least 2 samples on each side "
                            "of the one-vs-rest split")
        signs = np.where(mask, 1.0, -1.0)
        try:
            w = _linear_svm(dataset.features, signs, penalty)
        except ConvergenceError as exc:
            raise ConvergenceError(f"svm_smote: class {label}: {exc}") from None
        margins = np.hstack([rows, np.ones((len(rows), 1))]) @ w
        return _smote_from_seeds(rows, margins <= 1.0 + 1e-12, deficit, k, rng,
                                 f"svm_smote: no support vectors for class {label}")

    return _balance(request, fill)


def generative_balance(request: BalanceRequest,
                       checkpoint: model_mod.Checkpoint) -> EncodedDataset:
    """Fill deficits with model-generated rows, kept in encoded space.

    A column that is constant over the training rows (``max == min``, the
    rule ``dtree.fit`` drops columns by) holds that training value in every
    generated row: padding, vocabulary entries no training row uses and
    numerics the data never varies. The decoder's sigmoid would put a value
    strictly inside (0, 1) there, which no real row holds. Every other
    column is exactly what ``model.generate`` returned.
    """
    dataset = request.dataset
    if checkpoint.schema_fingerprint != dataset.schema.fingerprint:
        raise DataError("checkpoint was trained against a different encoding "
                        f"schema (checkpoint {checkpoint.schema_fingerprint[:12]}..., "
                        f"dataset {dataset.schema.fingerprint[:12]}...)")
    if dataset.labels.size and dataset.labels.max() >= checkpoint.config.num_classes:
        raise LabelError("dataset holds labels outside the checkpoint's classes")
    real = dataset.features

    @functools.cache  # at the first fill: _balance refuses an empty set before that
    def constant_columns() -> Array:
        return real.max(axis=0) == real.min(axis=0)

    def fill(label, rows, deficit, rng):
        generated = model_mod.generate(label, deficit, checkpoint, rng)
        constant = constant_columns()
        generated[:, constant] = real[0, constant]
        return generated

    return _balance(request, fill)
