"""Confusion-matrix evaluation: accuracy and weighted precision/recall/F1.

Weights are the true-class frequencies of the evaluated set, which makes the
weighted recall identical to accuracy (both reduce to sum of true positives
over the total). Per-class terms with a zero denominator contribute 0 and
are flagged rather than propagating NaN. Reported percentages round half-up
to two decimals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import DataError, LabelError

Array = np.ndarray

TABLE_COLUMNS = ("Acc", "Pre_w", "Recall_w", "F1_w")


def confusion(y_true, y_pred, num_classes: int) -> Array:
    """Counts[t][p] over (true, predicted) label pairs."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise DataError(f"label vectors must be equal-length 1-D, got "
                        f"{y_true.shape} and {y_pred.shape}")
    for name, values in (("true", y_true), ("predicted", y_pred)):
        if values.size and (values.min() < 0 or values.max() >= num_classes):
            raise LabelError(f"{name} labels must lie in [0, {num_classes})")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def accuracy(cm: Array) -> float:
    """100 * trace / total."""
    cm = np.asarray(cm)
    total = cm.sum()
    if total == 0:
        raise DataError("accuracy is undefined for an empty confusion matrix")
    return 100.0 * float(np.trace(cm)) / float(total)


def per_class_prf(cm: Array) -> tuple[Array, Array, Array, list[str]]:
    """Per-class precision/recall/F1 in [0,1] plus zero-denominator flags."""
    cm = np.asarray(cm, dtype=np.float64)
    tp = np.diag(cm)
    predicted = cm.sum(axis=0)
    actual = cm.sum(axis=1)
    flags: list[str] = []
    precision = np.zeros(len(cm))
    recall = np.zeros(len(cm))
    f1 = np.zeros(len(cm))
    for c in range(len(cm)):
        if predicted[c] > 0:
            precision[c] = tp[c] / predicted[c]
        else:
            flags.append(f"class {c}: no predictions, precision set to 0")
        if actual[c] > 0:
            recall[c] = tp[c] / actual[c]
        else:
            flags.append(f"class {c}: absent from y_true, recall set to 0")
        if precision[c] + recall[c] > 0:
            f1[c] = 2.0 * precision[c] * recall[c] / (precision[c] + recall[c])
        # both zero: F1 stays 0, already covered by the flags above when
        # caused by an empty denominator
    return precision, recall, f1, flags


def _weighted(cm: Array, per_class: tuple[Array, Array, Array]) -> tuple[float, float, float]:
    """Percent weighted means of ``per_class_prf(cm)``'s three value arrays."""
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    if total == 0:
        raise DataError("weighted metrics are undefined for an empty confusion matrix")
    weights = cm.sum(axis=1) / total
    precision, recall, f1 = per_class
    return (100.0 * float(weights @ precision),
            100.0 * float(weights @ recall),
            100.0 * float(weights @ f1))


def round_half_up(value: float, places: int = 2) -> float:
    quantum = Decimal(10) ** -places
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def format_percent(value: float) -> str:
    return f"{round_half_up(value):.2f}"


@dataclass
class EvalReport:
    """One result-table row: headline metrics plus the per-class breakdown."""
    algorithm: str
    acc: float
    pre_w: float
    recall_w: float
    f1_w: float
    per_class_precision: list[float]
    per_class_recall: list[float]
    per_class_f1: list[float]
    confusion_matrix: list[list[int]]
    flags: list[str] = field(default_factory=list)

    @classmethod
    def from_confusion(cls, algorithm: str, cm: Array) -> "EvalReport":
        precision, recall, f1, flags = per_class_prf(cm)
        pre_w, recall_w, f1_w = _weighted(cm, (precision, recall, f1))
        return cls(algorithm=algorithm, acc=accuracy(cm), pre_w=pre_w,
                   recall_w=recall_w, f1_w=f1_w,
                   per_class_precision=[100.0 * p for p in precision],
                   per_class_recall=[100.0 * r for r in recall],
                   per_class_f1=[100.0 * f for f in f1],
                   confusion_matrix=np.asarray(cm).astype(int).tolist(),
                   flags=list(flags))

    def headline(self) -> tuple[float, float, float, float]:
        return (self.acc, self.pre_w, self.recall_w, self.f1_w)

    def to_json(self, manifest: dict | None = None) -> str:
        payload = {"algorithm": self.algorithm,
                   "metrics": {metric: round_half_up(value)
                               for metric, value in zip(TABLE_COLUMNS, self.headline())},
                   "per_class": {"precision": self.per_class_precision,
                                 "recall": self.per_class_recall,
                                 "f1": self.per_class_f1},
                   "confusion_matrix": self.confusion_matrix,
                   "flags": self.flags}
        if manifest is not None:
            payload["manifest"] = manifest
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def results_table(rows: list[tuple[str, EvalReport | str]]) -> str:
    """Aligned text table with the published column layout; failed rows show
    their reason instead of numbers."""
    name_width = max(len("Algorithms"), *(len(name) for name, _ in rows)) if rows else 10
    header = f"{'Algorithms':<{name_width}}  " + "  ".join(f"{c:>8}" for c in TABLE_COLUMNS)
    lines = [header, "-" * len(header)]
    for name, outcome in rows:
        if isinstance(outcome, EvalReport):
            cells = "  ".join(f"{format_percent(v):>8}" for v in outcome.headline())
            lines.append(f"{name:<{name_width}}  {cells}")
        else:
            lines.append(f"{name:<{name_width}}  FAILED: {outcome}")
    return "\n".join(lines) + "\n"
