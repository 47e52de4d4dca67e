"""Reference CART split search: the per-node, per-column argsort scan.

This is the straightforward form of ``c2bnvae.dtree``'s search, kept only
as a test oracle. Every node re-sorts every column, which is slow but
obviously correct; ``c2bnvae.dtree.fit`` presorts once per tree and must
grow exactly the same trees (compare with ``export_text``). Given query
rows, ``fit`` must grow the full tree with every node that no query row
reaches cut back to a leaf: ``prune_unreached``.
"""

from __future__ import annotations

import copy

import numpy as np

from c2bnvae.dtree import TreeNode, TreeParams


def reference_best_split(features, labels, params: TreeParams | None = None):
    params = params or TreeParams()
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if n < params.min_samples_split:
        return None
    classes = labels.max() + 1
    total_counts = np.bincount(labels, minlength=classes).astype(np.float64)
    if np.count_nonzero(total_counts) <= 1:
        return None  # pure node
    parent = 1.0 - np.sum((total_counts / n) ** 2)
    one_hot = np.zeros((n, classes))
    one_hot[np.arange(n), labels] = 1.0

    best = None
    for f in range(features.shape[1]):
        col = features[:, f]
        order = np.argsort(col, kind="stable")
        sorted_vals = col[order]
        boundaries = np.flatnonzero(sorted_vals[1:] > sorted_vals[:-1])
        if boundaries.size == 0:
            continue  # constant feature
        cum = np.cumsum(one_hot[order], axis=0)
        left_counts = cum[boundaries]
        right_counts = total_counts - left_counts
        n_left = (boundaries + 1).astype(np.float64)
        n_right = n - n_left
        gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
        gains = parent - (n_left / n) * gini_left - (n_right / n) * gini_right
        gains = np.maximum(gains, 0.0)
        j = int(np.argmax(gains))  # first maximum: lowest threshold wins ties
        if best is None or gains[j] > best[2]:
            threshold = 0.5 * (sorted_vals[boundaries[j]] + sorted_vals[boundaries[j] + 1])
            best = (f, float(threshold), float(gains[j]))
    if best is None:
        return None
    if params.min_gain > 0 and best[2] <= params.min_gain:
        return None
    return best


def reference_fit(features, labels, params: TreeParams | None = None) -> TreeNode:
    params = params or TreeParams()
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    classes = int(labels.max()) + 1

    def make_leaf(idx):
        histogram = np.bincount(labels[idx], minlength=classes)
        return TreeNode(histogram=histogram, prediction=int(np.argmax(histogram)))

    root = make_leaf(np.arange(n))
    root.n_features = features.shape[1]
    stack = [(root, np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if params.max_depth is not None and depth >= params.max_depth:
            continue
        found = reference_best_split(features[idx], labels[idx], params)
        if found is None:
            continue
        node.feature, node.threshold, _gain = found
        go_left = features[idx, node.feature] <= node.threshold
        left_idx, right_idx = idx[go_left], idx[~go_left]
        node.left = make_leaf(left_idx)
        node.right = make_leaf(right_idx)
        stack.append((node.left, left_idx, depth + 1))
        stack.append((node.right, right_idx, depth + 1))
    return root


def prune_unreached(tree: TreeNode, queries) -> TreeNode:
    """A copy of ``tree`` in which every node that no row of ``queries``
    reaches (value <= threshold goes left) is a leaf."""
    queries = np.asarray(queries, dtype=np.float64)
    pruned = copy.deepcopy(tree)
    stack = [(pruned, np.arange(len(queries)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            continue
        if idx.size == 0:
            node.feature = node.threshold = node.left = node.right = None
            continue
        go_left = queries[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return pruned
