"""Confusion matrix and the derived classification metrics.

Convention: matrix rows are actual classes, columns are predicted classes.
Zero-denominator metrics report 0.0 with an explicit undefined flag instead
of raising, because rare classes are legitimately absent from small test
splits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # (k, k) ints, rows = actual, cols = predicted
    class_names: list[str]

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ClassMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    precision_undefined: bool = False
    recall_undefined: bool = False
    f1_undefined: bool = False


@dataclass
class EvaluationReport:
    matrix: ConfusionMatrix
    per_class: list[ClassMetrics]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def to_dict(self) -> dict:
        return {
            "class_names": list(self.matrix.class_names),
            "confusion_matrix": self.matrix.counts.tolist(),
            "per_class_metrics": [{"class": name, **asdict(m)}
                                  for name, m in zip(self.matrix.class_names, self.per_class)],
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
        }


def confusion_matrix(actual, predicted, k: int, class_names: list[str] | None = None) -> ConfusionMatrix:
    actual = np.asarray(actual, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if actual.shape != predicted.shape or actual.ndim != 1 or len(actual) == 0:
        raise DataError(f"actual/predicted must be equal-length non-empty vectors, "
                        f"got {actual.shape} and {predicted.shape}")
    if actual.min() < 0 or predicted.min() < 0 or actual.max() >= k or predicted.max() >= k:
        raise DataError(f"class index out of range for k={k}")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (actual, predicted), 1)
    if class_names is None:
        class_names = [str(i) for i in range(k)]
    return ConfusionMatrix(counts=counts, class_names=list(class_names))


def class_metrics(cm: ConfusionMatrix, c: int) -> ClassMetrics:
    if not 0 <= c < cm.k:
        raise DataError(f"class index {c} out of range for k={cm.k}")
    tp = int(cm.counts[c, c])
    fp = int(cm.counts[:, c].sum()) - tp
    fn = int(cm.counts[c, :].sum()) - tp
    tn = cm.total - tp - fp - fn

    p_undef = tp + fp == 0
    r_undef = tp + fn == 0
    precision = 0.0 if p_undef else tp / (tp + fp)
    recall = 0.0 if r_undef else tp / (tp + fn)
    f1_value, f1_undef = f1(precision, recall)
    return ClassMetrics(tp=tp, fp=fp, fn=fn, tn=tn,
                        precision=precision, recall=recall, f1=f1_value,
                        precision_undefined=p_undef, recall_undefined=r_undef,
                        f1_undefined=f1_undef)


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise DataError("accuracy of an empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def f1(precision: float, recall: float) -> tuple[float, bool]:
    """Harmonic mean of precision and recall; (0.0, True) when both are 0."""
    if precision + recall == 0.0:
        return 0.0, True
    return 2.0 * precision * recall / (precision + recall), False


def macro_aggregate(per_class: list[ClassMetrics]) -> tuple[float, float, float]:
    """Unweighted class means; undefined entries contribute their 0.0 value."""
    k = len(per_class)
    macro_p = sum(m.precision for m in per_class) / k
    macro_r = sum(m.recall for m in per_class) / k
    macro_f = sum(m.f1 for m in per_class) / k
    return macro_p, macro_r, macro_f


def evaluate(actual, predicted, class_names: list[str]) -> EvaluationReport:
    """Convenience builder: confusion matrix plus every metric in one report."""
    cm = confusion_matrix(actual, predicted, len(class_names), class_names)
    per_class = [class_metrics(cm, c) for c in range(cm.k)]
    macro_p, macro_r, macro_f = macro_aggregate(per_class)
    return EvaluationReport(matrix=cm, per_class=per_class, accuracy=accuracy(cm),
                            macro_precision=macro_p, macro_recall=macro_r, macro_f1=macro_f)
