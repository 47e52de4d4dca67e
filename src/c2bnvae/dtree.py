"""CART-style decision tree with the Gini criterion.

Deterministic by construction, so the downstream evaluation is seed-free:
candidate thresholds are midpoints between consecutive distinct sorted
values (the lower value when the midpoint does not lie strictly below the
upper one: it rounds up between adjacent floats, or overflows), ties in gain
break toward the lower feature index and then the lower threshold, values
equal to a threshold route left, and leaves predict the histogram argmax
(ties to the lowest class index).

Gain gating: a split needs gain > min_gain when min_gain is positive; at
the default min_gain = 0 zero-gain splits of impure nodes are accepted,
which is what lets parity-style data (XOR corners) and any distinct-row
dataset reach purity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, ShapeError

Array = np.ndarray


@dataclass
class TreeParams:
    max_depth: int | None = None  # None: unlimited
    min_samples_split: int = 2
    min_gain: float = 0.0

    def __post_init__(self):
        if self.min_samples_split < 2:
            raise ShapeError(f"min_samples_split must be >= 2, "
                             f"got {self.min_samples_split}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ShapeError(f"max_depth must be None or >= 0, got {self.max_depth}")
        if self.min_gain < 0:
            raise ShapeError(f"min_gain must be >= 0, got {self.min_gain}")


@dataclass
class TreeNode:
    histogram: Array
    prediction: int
    feature: int | None = None
    threshold: float | None = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    n_features: int | None = None  # set on the root by fit()

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    # walked with explicit stacks, as fit grows them: a tree deeper than the
    # recursion limit must still report itself
    def depth(self) -> int:
        deepest, stack = 0, [(self, 0)]
        while stack:
            node, level = stack.pop()
            if node.is_leaf:
                deepest = max(deepest, level)
            else:
                stack += [(node.left, level + 1), (node.right, level + 1)]
        return deepest

    def node_count(self) -> int:
        count, stack = 0, [self]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack += [node.left, node.right]
        return count


def best_split(features: Array, labels: Array,
               params: TreeParams | None = None) -> tuple[int, float, float] | None:
    """Exhaustive scan for the (feature, midpoint threshold, gain) maximizing
    the Gini decrease; None when no admissible split exists.

    Sorts every column of this one node, then runs the scan ``fit`` uses.
    """
    params = params or TreeParams()
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) < params.min_samples_split:
        return None
    counts = np.bincount(labels)
    if np.count_nonzero(counts) <= 1:
        return None  # pure node
    columns = np.ascontiguousarray(features.T)
    order = np.argsort(columns, axis=1, kind="stable")
    return _search(columns, labels, order, counts, params.min_gain)


# sorted-order cells (columns x node rows) handled per numpy call: enough to
# amortize the call overhead, few enough that the per-block class counts and
# gains stay around a megabyte each
_BLOCK_CELLS = 1 << 14


def _blocks(n_columns: int, n_rows: int):
    """Slices of whole columns, about _BLOCK_CELLS cells each."""
    step = max(1, _BLOCK_CELLS // n_rows)
    return (slice(start, start + step) for start in range(0, n_columns, step))


def _search(columns: Array, labels: Array, order: Array, counts: Array,
            min_gain: float) -> tuple[int, float, float] | None:
    """Best split of one node, given each column's sorted row order.

    ``columns`` is features transposed ([F x N]); row f of ``order`` lists
    the node's m rows (indices into N) by ascending value of column f.
    ``labels`` is read at the node's rows only, and ``counts`` is their
    class histogram, as long as their largest label + 1. Returns (column
    row in ``columns``, threshold, gain) or None.
    """
    n = order.shape[1]
    counts = counts.astype(np.float64)
    parent = 1.0 - np.sum((counts / n) ** 2)
    best: tuple[int, float, float] | None = None
    for part in _blocks(*order.shape):
        block = order[part]
        start = part.start
        # flat gather of columns[start + i, block[i]] for every block row i
        offsets = np.arange(start, start + len(block))[:, None] * columns.shape[1]
        values = np.take(columns, block + offsets)
        # candidate k sits after sorted position pos[k] of block column col[k]
        step = np.flatnonzero(values[:, 1:] > values[:, :-1])
        if step.size == 0:
            continue  # every column in the block is constant here
        col = step // (n - 1)
        pos = step - col * (n - 1)
        # per-class running counts down each sorted column: one-hot, summed
        cum = np.zeros(block.size * len(counts), dtype=np.int32)
        cum[np.arange(0, cum.size, len(counts)) + labels[block].ravel()] = 1
        cum = cum.reshape(*block.shape, len(counts))
        np.cumsum(cum, axis=1, out=cum)
        left = np.take(cum.reshape(-1, len(counts)), step + col, axis=0)
        left = left.T.astype(np.float64, order="C")  # [classes x candidates]
        right = counts[:, None] - left
        n_left = (pos + 1).astype(np.float64)
        n_right = n - n_left
        left /= n_left
        left **= 2
        right /= n_right
        right **= 2
        gini_left = 1.0 - _class_sum(left)
        gini_right = 1.0 - _class_sum(right)
        gains = parent - (n_left / n) * gini_left - (n_right / n) * gini_right
        gains = np.maximum(gains, 0.0)  # clip float noise; true gain is >= 0
        # candidates run column by column, thresholds ascending, so the
        # first maximum is the lowest feature, then the lowest threshold
        j = int(np.argmax(gains))
        if best is None or gains[j] > best[2]:
            lower, upper = values[col[j], pos[j]], values[col[j], pos[j] + 1]
            with np.errstate(over="ignore"):
                threshold = 0.5 * (lower + upper)
            if not lower <= threshold < upper:
                # the midpoint of adjacent floats can round up to the upper
                # value, and a huge pair's sum overflows to an infinity: both
                # would route every row one way, so split at the lower value
                threshold = lower
            best = (start + int(col[j]), float(threshold), float(gains[j]))
    if best is None:
        return None
    if min_gain > 0 and best[2] <= min_gain:
        return None
    return best


def _class_sum(a: Array) -> Array:
    """Per-candidate sum over the rows of a [classes x candidates] array,
    rounded exactly as np.sum rounds each candidate's row of class terms."""
    if len(a) >= 8:
        # np.sum adds 8 or more values pairwise; let it, on the same layout
        return np.sum(np.ascontiguousarray(a.T), axis=1)
    # np.sum adds fewer than 8 values in order, one short row per candidate,
    # which costs about 10x these whole-row adds; their rounding is the same
    total = a[0] + a[1]
    for row in a[2:]:
        total += row
    return total


def fit(features: Array, labels: Array, params: TreeParams | None = None,
        queries: Array | None = None) -> TreeNode:
    """Grow a tree by splitting nodes until the stop conditions hold.

    Each column is sorted once, at the root, into one int32 order matrix
    (features x positions). A node owns a range of positions, its rows
    sorted by each feature; a stable in-place partition of that range hands
    each child its rows still sorted, so no node sorts again.

    With ``queries`` (rows as wide as ``features``), only the nodes that
    some query row reaches are grown: the query rows go down with the
    training rows, by ``predict``'s ``value <= threshold``, and a node that
    none reaches stays a leaf. A node's split depends on its own training
    rows alone, so every reached node splits as in the full tree, and
    ``predict(tree, queries)`` equals the full tree's.
    """
    params = params or TreeParams()
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2:
        raise ShapeError(f"features must be 2-D, got shape {features.shape}")
    n = features.shape[0]
    if n == 0:
        raise DataError("cannot fit a tree on an empty training set")
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match {n} rows")
    if labels.min() < 0:
        raise DataError(f"labels must be nonnegative, got {int(labels.min())}")
    if not np.all(np.isfinite(features)):
        raise DataError("features must be finite (no NaN or infinity)")
    if queries is not None:
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ShapeError(f"queries must be 2-D, got shape {queries.shape}")
        if queries.shape[1] != features.shape[1]:
            raise ShapeError(f"tree is fit on {features.shape[1]}-wide rows, "
                             f"got {queries.shape[1]}-wide queries")
    classes = int(labels.max()) + 1

    def make_leaf(idx: Array) -> TreeNode:
        histogram = np.bincount(labels[idx], minlength=classes)
        return TreeNode(histogram=histogram, prediction=int(np.argmax(histogram)))

    root = make_leaf(np.arange(n))
    root.n_features = features.shape[1]
    # a column constant on the whole set can never split a node
    kept = np.flatnonzero(features.max(axis=0) > features.min(axis=0))
    if kept.size == 0:
        return root
    columns = np.ascontiguousarray(features.T[kept])
    order = np.empty(columns.shape, dtype=np.int32)
    for rows in _blocks(*columns.shape):
        order[rows] = np.argsort(columns[rows], axis=1, kind="stable")
    go_left = np.zeros(n, dtype=bool)  # scratch, valid on the current node's rows
    codes = np.zeros(n, dtype=np.int64)  # scratch, likewise: compacted labels
    code_of = np.zeros(classes, dtype=np.int64)  # scratch: class -> its code
    # the query rows at each node: every row at the root, or None for all
    # nodes when there are no queries
    reach = None if queries is None else np.arange(queries.shape[0])
    # explicit stack: trees on memorization-grade data outgrow the recursion limit
    stack: list[tuple[TreeNode, Array, int, Array | None]] = [(root, order, 0, reach)]
    while stack:
        node, order, depth, reach = stack.pop()
        if reach is not None and reach.size == 0:
            continue  # no query row gets here
        if params.max_depth is not None and depth >= params.max_depth:
            continue
        if order.shape[1] < params.min_samples_split:
            continue
        present = np.flatnonzero(node.histogram)
        if present.size <= 1:
            continue  # pure node
        node_labels, counts = labels, node.histogram[:present[-1] + 1]
        if present.size < len(counts) < 8:
            # the node lacks a class below its largest: number the classes it
            # holds 0, 1, ... and search with those. An absent class only adds
            # exact +0.0 terms to _class_sum's in-order sums, so the gains keep
            # their bits; from 8 classes np.sum adds pairwise and a dropped
            # term would change the rounding
            code_of[present] = np.arange(present.size)
            codes[order[0]] = code_of[labels[order[0]]]
            node_labels, counts = codes, node.histogram[present]
        found = _search(columns, node_labels, order, counts, params.min_gain)
        if found is None:
            continue
        column, threshold, _gain = found
        node.feature = int(kept[column])
        node.threshold = threshold
        go_left[order[0]] = columns[column, order[0]] <= threshold
        n_left = _partition(order, go_left)
        left_order, right_order = order[:, :n_left], order[:, n_left:]
        node.left = make_leaf(left_order[0])
        node.right = make_leaf(right_order[0])
        left_reach = right_reach = None
        if reach is not None:
            goes_left = queries[reach, node.feature] <= threshold
            left_reach, right_reach = reach[goes_left], reach[~goes_left]
        stack.append((node.left, left_order, depth + 1, left_reach))
        stack.append((node.right, right_order, depth + 1, right_reach))
    return root


def _partition(order: Array, go_left: Array) -> int:
    """Stable in-place partition of every row of ``order``: the entries with
    ``go_left`` set move to the front, each side keeping its sorted order.
    Returns how many went left (the same count in every row)."""
    for rows in _blocks(*order.shape):
        block = order[rows]
        mask = go_left[block]
        left, right = block[mask], block[~mask]
        n_left = left.size // len(block)
        block[:, :n_left] = left.reshape(len(block), n_left)
        block[:, n_left:] = right.reshape(len(block), -1)
    return n_left


def predict(tree: TreeNode, rows: Array) -> Array:
    """Route every row root-to-leaf (value <= threshold goes left); ``tree``
    is a root that ``fit`` returned, which records its training width."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError(f"rows must be 2-D, got shape {rows.shape}")
    if rows.shape[1] != tree.n_features:
        raise ShapeError(f"tree was fit on {tree.n_features}-wide rows, "
                         f"got {rows.shape[1]}")
    out = np.empty(rows.shape[0], dtype=np.int64)
    stack: list[tuple[TreeNode, Array]] = [(tree, np.arange(rows.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.prediction
            continue
        go_left = rows[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def export_text(tree: TreeNode) -> str:
    """Pre-order dump, one node per line, indented by depth."""
    lines: list[str] = []
    stack: list[tuple[TreeNode, int]] = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if node.is_leaf:
            lines.append(f"{pad}leaf class={node.prediction} "
                         f"counts={node.histogram.tolist()}")
        else:
            lines.append(f"{pad}split feature={node.feature} "
                         f"threshold={node.threshold!r}")
            stack.append((node.right, depth + 1))
            stack.append((node.left, depth + 1))
    return "\n".join(lines) + "\n"
