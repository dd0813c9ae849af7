"""Independent brute-force oracles used to pin expected values in the tests.

Everything here deliberately avoids the implementation paths it checks:
eigenvalues come from power iteration with deflation instead of a library
eigensolver, metrics from explicit pair counting, SVM objectives from a
multi-resolution lattice search, separability from exhaustive threshold
enumeration, the best tree split from exhaustive midpoint enumeration
with row-by-row class counting, and the SVM's SMO trajectory from the plain
solver that rebuilds its gradient and working sets on every step.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
    """Best accuracy of any 2-D halfplane rule, by dense grid over direction/offset."""
    best = 0.0
    n = len(labels)
    for t in range(angles):
        theta = 2.0 * math.pi * t / angles
        direction = np.array([math.cos(theta), math.sin(theta)])
        projections = points @ direction
        for b in np.linspace(-radius, radius, offsets):
            pred = (projections + b > 0).astype(int)
            best = max(best, float(np.mean(pred == labels)))
    return best


def svm_primal_objective(x: np.ndarray, y_pm: np.ndarray, w: np.ndarray,
                         b: float, c: float) -> float:
    hinge = np.maximum(0.0, 1.0 - y_pm * (x @ w + b)).sum()
    return 0.5 * float(w @ w) + c * float(hinge)


def svm_lattice_minimum(x: np.ndarray, y_pm: np.ndarray, c: float,
                        radius: float = 8.0, grid: int = 17, levels: int = 8) -> float:
    """Multi-resolution lattice search over (w, b) for the soft-margin objective.

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
        hinge = np.maximum(0.0, 1.0 - margins).sum(axis=1)
        values = 0.5 * (w_all * w_all).sum(axis=1) + c * hinge
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


def _reference_bias(y_pm, f, alpha, c) -> float:
    r = y_pm - f
    free = (alpha > 1e-12 * c) & (alpha < c * (1.0 - 1e-12))
    if free.any():
        return float(r[free].mean())
    at_zero = alpha <= 1e-12 * c
    at_c = ~at_zero
    lower = r[(at_zero & (y_pm > 0)) | (at_c & (y_pm < 0))]
    upper = r[(at_zero & (y_pm < 0)) | (at_c & (y_pm > 0))]
    if len(lower) and len(upper):
        return float((lower.max() + upper.min()) / 2.0)
    if len(lower):
        return float(lower.max())
    return float(upper.min())


def reference_smo(x: np.ndarray, y_pm: np.ndarray, cfg):
    """The SVM's maximal-violating-pair SMO with every step recomputed from scratch.

    Each step rebuilds the dual gradient and both index sets over all n
    rows, so it is the plain statement of the solver that the incremental
    one in ``svm._solve_binary`` must reproduce bit for bit: same
    (best_w, best_b, history).
    """
    box_eps, kkt_eps = 1e-12, 1e-9
    n, p = x.shape
    c = cfg.c
    alpha = np.zeros(n)
    w = np.zeros(p)
    f = np.zeros(n)
    self_dot = np.einsum("ij,ij->i", x, x)

    best_obj = svm_primal_objective(x, y_pm, w, 0.0, c)
    best_w, best_b = w.copy(), 0.0
    history: list[float] = []
    converged = False

    for _ in range(cfg.max_epochs):
        for _ in range(n):
            grad = y_pm * f - 1.0
            neg_yg = -y_pm * grad
            up = ((y_pm > 0) & (alpha < c - box_eps)) | ((y_pm < 0) & (alpha > box_eps))
            low = ((y_pm < 0) & (alpha < c - box_eps)) | ((y_pm > 0) & (alpha > box_eps))
            if not up.any() or not low.any():
                converged = True
                break
            i = int(np.argmax(np.where(up, neg_yg, -np.inf)))
            j = int(np.argmin(np.where(low, neg_yg, np.inf)))
            gap = neg_yg[i] - neg_yg[j]
            if gap <= kkt_eps:
                converged = True
                break

            quad = max(self_dot[i] + self_dot[j] - 2.0 * float(x[i] @ x[j]), 1e-12)
            delta = gap / quad
            delta_max_i = (c - alpha[i]) if y_pm[i] > 0 else alpha[i]
            delta_max_j = alpha[j] if y_pm[j] > 0 else (c - alpha[j])
            delta = min(delta, delta_max_i, delta_max_j)
            if delta <= 0.0:
                converged = True
                break

            alpha[i] += y_pm[i] * delta
            alpha[j] -= y_pm[j] * delta
            step = delta * (x[i] - x[j])
            w += step
            f += x @ step

        b = _reference_bias(y_pm, f, alpha, c)
        obj = svm_primal_objective(x, y_pm, w, b, c)
        if obj < best_obj:
            best_obj, best_w, best_b = obj, w.copy(), b
        improvement = history[-1] - best_obj if history else np.inf
        history.append(best_obj)
        if converged or improvement < cfg.tolerance:
            break

    return best_w, best_b, history
