"""Independent brute-force oracles used to pin expected values in the tests.

Everything here deliberately avoids the implementation paths it checks:
eigenvalues come from power iteration with deflation instead of a library
eigensolver, metrics from explicit pair counting, SVM objectives from a
multi-resolution lattice search, separability from exhaustive threshold
enumeration, the best tree split from exhaustive midpoint enumeration
with row-by-row class counting, the boundary points a split search scores
from per-value class sets, the SVM's gradient from a row-by-row sum, and CSV
loading from the two-pass loader that parses one Python float per field.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from typing import NamedTuple

import numpy as np

from cyclonids.dataset import CATEGORICAL, NUMERIC, RawDataset, _not_utf8, synthetic_schema
from cyclonids.errors import DataError, unreadable


def power_iteration_eigenvalues(matrix: np.ndarray, max_steps: int = 10000,
                                tol: float = 1e-14) -> np.ndarray:
    """All eigenvalues of a symmetric PSD matrix, descending, by power
    iteration with deflation.

    Start vectors are drawn from a fixed-seed generator (an arbitrary fixed
    vector can be exactly orthogonal to an eigenvector), and each iterate is
    re-orthogonalized against the eigenvectors already found so deflation
    round-off cannot leak earlier components back in.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    p = a.shape[0]
    rng = np.random.default_rng(12345)
    found: list[np.ndarray] = []
    eigenvalues = []
    for _ in range(p):
        v = rng.standard_normal(p)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(max_steps):
            w = a @ v
            for u in found:
                w -= (u @ w) * u
            norm = np.linalg.norm(w)
            if norm < 1e-200:
                lam = 0.0
                break
            v_next = w / norm
            lam_next = float(v_next @ a @ v_next)
            converged = abs(lam_next - lam) < tol * max(1.0, abs(lam_next))
            v, lam = v_next, lam_next
            if converged:
                break
        eigenvalues.append(max(lam, 0.0))
        found.append(v)
        a = a - lam * np.outer(v, v)
    return np.array(sorted(eigenvalues, reverse=True))


def pair_count_metrics(actual, predicted, k: int) -> dict:
    """Per-class tp/fp/fn/tn plus precision/recall/f1 and accuracy by explicit loops."""
    actual = list(actual)
    predicted = list(predicted)
    total = len(actual)
    out = {"per_class": [], "accuracy": sum(a == p for a, p in zip(actual, predicted)) / total}
    for c in range(k):
        tp = sum(1 for a, p in zip(actual, predicted) if a == c and p == c)
        fp = sum(1 for a, p in zip(actual, predicted) if a != c and p == c)
        fn = sum(1 for a, p in zip(actual, predicted) if a == c and p != c)
        tn = total - tp - fp - fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
        out["per_class"].append({"tp": tp, "fp": fp, "fn": fn, "tn": tn,
                                 "precision": precision, "recall": recall, "f1": f1})
    out["macro_precision"] = sum(m["precision"] for m in out["per_class"]) / k
    out["macro_recall"] = sum(m["recall"] for m in out["per_class"]) / k
    out["macro_f1"] = sum(m["f1"] for m in out["per_class"]) / k
    return out


def best_threshold_errors(x: np.ndarray, y: np.ndarray) -> int:
    """Minimum training errors of any 1-D threshold rule (both orientations)."""
    values = np.sort(np.unique(x))
    cuts = [values[0] - 1.0]
    cuts += [(a + b) / 2.0 for a, b in zip(values[:-1], values[1:])]
    cuts += [values[-1] + 1.0]
    best = len(y)
    for cut in cuts:
        left = x <= cut
        for lo, hi in ((0, 1), (1, 0)):
            errors = int(np.sum(y[left] != lo) + np.sum(y[~left] != hi))
            best = min(best, errors)
    return best


def best_linear_rule_accuracy(points: np.ndarray, labels: np.ndarray,
                              angles: int = 720, offsets: int = 801,
                              radius: float = 4.0) -> float:
    """Best accuracy of any 2-D halfplane rule, by dense grid over direction/offset.

    Each direction is tested against every offset at once, and its projection is
    summed term by term rather than by a BLAS product.
    """
    offset_column = np.linspace(-radius, radius, offsets)[:, None]
    best = 0.0
    for t in range(angles):
        theta = 2.0 * math.pi * t / angles
        projections = points[:, 0] * math.cos(theta) + points[:, 1] * math.sin(theta)
        pred = (projections + offset_column > 0).astype(int)  # (offsets, n)
        best = max(best, float((pred == labels).mean(axis=1).max()))
    return best


def svm_primal_objective(x: np.ndarray, y_pm: np.ndarray, w: np.ndarray,
                         b: float, c: float) -> float:
    slack = np.maximum(0.0, 1.0 - y_pm * (x @ w + b))
    return 0.5 * float(w @ w) + c * float(slack @ slack)


def svm_primal_gradient(x: np.ndarray, y_pm: np.ndarray, w: np.ndarray,
                        b: float, c: float) -> np.ndarray:
    """Gradient of ``svm_primal_objective`` in (w, b), summed row by row."""
    grad = np.append(np.asarray(w, dtype=float), 0.0)
    for row, y in zip(x, y_pm):
        slack = 1.0 - y * (float(row @ w) + b)
        if slack > 0.0:
            grad -= 2.0 * c * slack * y * np.append(row, 1.0)
    return grad


def svm_lattice_minimum(x: np.ndarray, y_pm: np.ndarray, c: float,
                        radius: float = 8.0, grid: int = 17, levels: int = 8) -> float:
    """Multi-resolution lattice search over (w, b) for the squared-hinge objective.

    The objective is convex, so refining a grid around the current argmin with
    a window of two old cells cannot lose the basin.
    """
    p = x.shape[1]
    center = np.zeros(p + 1)
    half = radius
    best_val = math.inf
    for _ in range(levels):
        axes = [np.linspace(center[i] - half, center[i] + half, grid) for i in range(p + 1)]
        points = np.array(list(itertools.product(*axes)))  # (grid^(p+1), p+1)
        w_all, b_all = points[:, :p], points[:, p]
        margins = y_pm[None, :] * (x @ w_all.T).T  # (points, n)
        margins = margins + (y_pm[None, :] * b_all[:, None])
        slack = np.maximum(0.0, 1.0 - margins)
        values = 0.5 * (w_all * w_all).sum(axis=1) + c * (slack * slack).sum(axis=1)
        at = int(np.argmin(values))
        if values[at] < best_val:
            best_val = float(values[at])
            center = points[at]
        half = half * (2.0 / (grid - 1)) * 2.0
    return best_val


def best_gini_split(x: np.ndarray, y: np.ndarray, k: int):
    """Exhaustive best split of the rows (x, y): (gain, feature, threshold), or None.

    Tries every feature and every midpoint between consecutive distinct
    values, counts each side's classes row by row, and scores the split
    with the forest's documented Gini gain in plain Python floats. A gain
    must beat the best so far strictly, so a tie goes to the lowest
    feature, then the lowest threshold. None means no feature has two
    distinct values.
    """
    n = len(y)
    labels = [int(c) for c in y]

    def gini(counts: list[int], m: int) -> float:
        return 1.0 - float(sum(c * c for c in counts)) / (m * m)

    total = [labels.count(c) for c in range(k)]
    parent = gini(total, n)
    best = None
    for f in range(x.shape[1]):
        column = [float(v) for v in x[:, f]]
        values = sorted(set(column))
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2.0
            left = [0] * k
            for v, c in zip(column, labels):
                if v <= threshold:
                    left[c] += 1
            right = [t - l for t, l in zip(total, left)]
            n_left = sum(left)
            n_right = n - n_left
            gain = parent - (n_left * gini(left, n_left) + n_right * gini(right, n_right)) / n
            if best is None or gain > best[0]:
                best = (gain, f, threshold)
    return best


def boundary_cuts(values, classes) -> list:
    """The cuts a boundary-point split search scores: each distinct value ``lo`` whose cut
    to the next larger value is kept, ascending.

    A cut between two adjacent distinct values is dropped only when every
    row of both values holds one and the same class (Fayyad & Irani's
    boundary points); all other cuts are kept.
    """
    seen: dict = {}
    for v, c in zip(values, classes):
        seen.setdefault(v, set()).add(c)
    distinct = sorted(seen)
    return [lo for lo, hi in zip(distinct[:-1], distinct[1:])
            if not (len(seen[lo]) == 1 and seen[lo] == seen[hi])]


# --------------------------------------------------------------------------
# Reference CSV loader: the two-pass loader that held before load_csv read
# each file once. `reference_read_synthetic_schema` scans a `cyclonids gen`
# file for its header and classes, and `reference_load_csv` then parses the
# file row by row, each numeric field through `_reference_parse_numeric`.
# --------------------------------------------------------------------------

def reference_read_synthetic_schema(path: str):
    """Schema of a CSV written by `cyclonids gen`: feature names from its
    header, class names (sorted) from its last column."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            classes: dict[str, None] = {}
            for row in csv.reader(handle):
                # load_csv skips blank records and stops at a blank label
                if row and (len(row) > 1 or row[0].strip()) and row[-1].strip():
                    classes.setdefault(row[-1].strip(), None)
    except OSError as exc:
        raise unreadable(path, exc) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if len(header) < 2:
        raise DataError(f"cannot infer synthetic schema from {path}")
    return synthetic_schema(header[:-1], sorted(classes))


def _reference_parse_numeric(token: str) -> float | None:
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        try:
            value = float(token.replace(" ", ""))
        except ValueError:
            return None
    return value if math.isfinite(value) else None


def _reference_looks_like_header(row: list[str], schema) -> bool:
    numeric_positions = [c.position for c in schema.columns
                         if c.kind == NUMERIC and c.position not in schema.drop_columns]
    if not numeric_positions:
        return False
    return all(_reference_parse_numeric(row[pos]) is None for pos in numeric_positions)


def raw_columns(raw: RawDataset) -> list[np.ndarray]:
    """The feature columns of ``raw``'s rows in schema order: float64 numeric columns, read
    from whichever numeric block holds each, and the int32 codes of each categorical one."""
    rows = raw.block_rows(0, raw.n)
    floats, ints = iter(raw.numbers[rows].T), iter(raw.ints[rows].T.astype(np.float64))
    numbers = iter([next(ints) if j in raw.int_columns else next(floats)
                    for j in range(raw.numbers.shape[1] + raw.ints.shape[1])])
    codes = iter(raw.codes[rows].T)
    return [next(codes) if col.kind == CATEGORICAL else next(numbers)
            for col in raw.schema.feature_columns()]


def decode_columns(raw: RawDataset) -> list[np.ndarray]:
    """The feature columns of ``raw`` in schema order, each categorical column decoded into an
    object array of its tokens."""
    tables = iter(raw.tokens)
    return [np.array(next(tables), dtype=object)[values] if col.kind == CATEGORICAL else values
            for col, values in zip(raw.schema.feature_columns(), raw_columns(raw))]


def raw_dataset(schema, columns, labels, rejected_rows=()) -> RawDataset:
    """A RawDataset of schema-order feature columns, each categorical one given as tokens:
    its table holds the distinct tokens in first-seen order, its codes are int32."""
    n = len(labels)
    tokens, numbers, codes = [], [], []
    for col, values in zip(schema.feature_columns(), columns):
        if col.kind == CATEGORICAL:
            table = list(dict.fromkeys(values.tolist()))
            index = {tok: i for i, tok in enumerate(table)}
            tokens.append(table)
            codes.append([index[tok] for tok in values.tolist()])
        else:
            numbers.append(values)
    return RawDataset(schema, np.array(numbers, dtype=np.float64).reshape(-1, n).T.copy(),
                      np.array(codes, dtype=np.int32).reshape(-1, n).T.copy(),
                      np.asarray(labels), tokens, list(rejected_rows))


class ReferenceLoad(NamedTuple):
    """What ``reference_load_csv`` parsed: float64 numeric columns and object token columns
    in schema order, class indices and the 1-based lines of rejected rows."""

    schema: object
    columns: list
    labels: np.ndarray
    rejected_rows: list


def reference_load_csv(path: str, schema) -> ReferenceLoad:
    """Parse a CSV file against a schema, one Python float or token per field."""
    feature_cols = schema.feature_columns()
    values: list[list] = [[] for _ in feature_cols]
    labels: list[int] = []
    rejected: list[int] = []
    class_index = {name: i for i, name in enumerate(schema.class_names)}

    first = True
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            for lineno, row in enumerate(csv.reader(handle), start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != schema.arity:
                    raise DataError(
                        f"arity mismatch at row {lineno}: expected {schema.arity} fields, got {len(row)}")
                if first:
                    first = False
                    if _reference_looks_like_header(row, schema):
                        continue

                # KDD99 rows terminate the label with a period.
                raw_label = row[schema.label_position].strip().rstrip(".").lower()
                if raw_label not in schema.label_map:
                    raise DataError(f"unknown label '{row[schema.label_position].strip()}' at row {lineno}")

                parsed: list = []
                ok = True
                for col in feature_cols:
                    token = row[col.position]
                    if col.kind == NUMERIC:
                        value = _reference_parse_numeric(token)
                        if value is None:
                            ok = False
                            break
                        parsed.append(value)
                    else:
                        parsed.append(token.strip())
                if not ok:
                    rejected.append(lineno)
                    continue

                for store, value in zip(values, parsed):
                    store.append(value)
                labels.append(class_index[schema.label_map[raw_label]])
    except OSError as exc:
        raise unreadable(path, exc) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None

    if not labels and not rejected:
        raise DataError(f"empty file: {path}")
    if not labels:
        raise DataError(f"no usable rows in {path}: all {len(rejected)} rows had unparseable numeric fields")
    if rejected:
        logging.getLogger("cyclonids.dataset").warning(
            "%s: rejected %d row(s) with unparseable numeric fields (first: row %d)",
            path, len(rejected), rejected[0])

    columns = []
    for col, store in zip(feature_cols, values):
        if col.kind == NUMERIC:
            columns.append(np.asarray(store, dtype=np.float64))
        else:
            columns.append(np.asarray(store, dtype=object))
    return ReferenceLoad(schema=schema, columns=columns, labels=np.asarray(labels, dtype=np.int64),
                         rejected_rows=rejected)
