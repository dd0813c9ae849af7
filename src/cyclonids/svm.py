"""Linear soft-margin SVM trained by sequential minimal optimization.

One binary problem per class (one-vs-rest); each solves

    minimize  0.5 * ||w||^2 + c * sum_i hinge(y_i, w . x_i + b)

through its dual with maximal-violating-pair updates, so the bias stays
unregularized and the solver is fully deterministic: identical inputs give
an identical model. Inputs are assumed standardized by the caller.

The working set is tracked incrementally, as in LIBSVM (Chang & Lin 2011)
and Keerthi et al. (2001): a step moves only two multipliers, so only those
two rows can enter or leave I_up and I_low, and the sets are kept between
steps instead of being rebuilt. A step then costs the gemv that updates the
cached margins plus four length-n passes (a subtraction and an
arg-reduction per set), and follows the same trajectory, bit for bit, as
rebuilding everything per step (``tests/oracles.py::reference_smo``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError

_BOX_EPS = 1e-12
_KKT_EPS = 1e-9


@dataclass(frozen=True)
class SVMConfig:
    c: float = 1.0
    max_epochs: int = 1000
    tolerance: float = 1e-6  # stop when per-epoch objective improvement drops below this
    seed: int = 0  # kept for interface symmetry; the solver itself is deterministic

    def validate(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ConfigError(f"c must be finite and > 0, got {self.c}")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ConfigError(f"tolerance must be finite and > 0, got {self.tolerance}")


@dataclass
class SVMModel:
    weights: np.ndarray  # (k, p)
    biases: np.ndarray  # (k,)
    class_names: list[str]
    objective_histories: list[list[float]]  # per class, best-so-far primal per epoch

    @property
    def p(self) -> int:
        return self.weights.shape[1]

    def to_text(self) -> str:
        lines = ["svm"]
        for name, w, b in zip(self.class_names, self.weights, self.biases):
            lines.append(f"{name} b={float(b)!r} w=" + " ".join(repr(float(v)) for v in w))
        return "\n".join(lines)


def _primal_objective(x, y_pm, w, b, c) -> float:
    margins = y_pm * (x @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    return 0.5 * float(w @ w) + c * float(hinge)


def _estimate_bias(y_pm, f, alpha, c) -> float:
    """KKT bias: mean residual over free support vectors, else bound midpoint."""
    r = y_pm - f
    free = (alpha > _BOX_EPS * c) & (alpha < c * (1.0 - _BOX_EPS))
    if free.any():
        return float(r[free].mean())
    at_zero = alpha <= _BOX_EPS * c
    at_c = ~at_zero
    lower = r[(at_zero & (y_pm > 0)) | (at_c & (y_pm < 0))]
    upper = r[(at_zero & (y_pm < 0)) | (at_c & (y_pm > 0))]
    if len(lower) and len(upper):
        return float((lower.max() + upper.min()) / 2.0)
    if len(lower):
        return float(lower.max())
    return float(upper.min())


def _solve_binary(x: np.ndarray, y_pm: np.ndarray, cfg: SVMConfig):
    """Maximal-violating-pair SMO on the dual of the hinge-loss problem.

    The pair is the argmax of ``y - f`` over I_up and its argmin over I_low:
    as y = +-1, ``y - f`` equals -y times the dual gradient up to the sign of
    a zero, which neither the arg-reductions nor the gap test can see. Rows
    outside a set hold -inf (I_up) or +inf (I_low) in place of y, so an empty
    set gives an infinite negative gap and ends the solve like a closed one.
    """
    n, p = x.shape
    c = cfg.c
    below_c = c - _BOX_EPS
    y = y_pm.tolist()
    alpha = np.zeros(n)
    w = np.zeros(p)
    f = np.zeros(n)  # cached w . x_i
    self_dot = np.einsum("ij,ij->i", x, x)
    # Every alpha starts at 0: I_up holds the positive rows and I_low the
    # negative ones (both are empty if c <= _BOX_EPS).
    y_up = np.where((y_pm > 0) & (0.0 < below_c), y_pm, -np.inf)
    y_low = np.where((y_pm < 0) & (0.0 < below_c), y_pm, np.inf)
    scores = np.empty(n)

    best_obj = _primal_objective(x, y_pm, w, 0.0, c)
    best_w, best_b = w.copy(), 0.0
    history: list[float] = []
    converged = False

    for _ in range(cfg.max_epochs):
        for _ in range(n):
            i = int(np.subtract(y_up, f, out=scores).argmax())
            top = scores[i]
            j = int(np.subtract(y_low, f, out=scores).argmin())
            gap = top - scores[j]
            if gap <= _KKT_EPS:
                converged = True
                break

            quad = max(self_dot[i] + self_dot[j] - 2.0 * float(x[i] @ x[j]), 1e-12)
            delta = gap / quad
            # Feasible step range along (nu_i += delta, nu_j -= delta).
            delta_max_i = (c - alpha[i]) if y[i] > 0 else alpha[i]
            delta_max_j = alpha[j] if y[j] > 0 else (c - alpha[j])
            delta = min(delta, delta_max_i, delta_max_j)
            if delta <= 0.0:
                converged = True
                break

            alpha[i] += y[i] * delta
            alpha[j] -= y[j] * delta
            step = delta * (x[i] - x[j])
            w += step
            f += x @ step

            # Only rows i and j moved, so only they can enter or leave a set.
            for k in (i, j):
                y_k, below, above = y[k], alpha[k] < below_c, alpha[k] > _BOX_EPS
                y_up[k] = y_k if (below if y_k > 0 else above) else -np.inf
                y_low[k] = y_k if (above if y_k > 0 else below) else np.inf

        b = _estimate_bias(y_pm, f, alpha, c)
        obj = _primal_objective(x, y_pm, w, b, c)
        if obj < best_obj:
            best_obj, best_w, best_b = obj, w.copy(), b
        improvement = history[-1] - best_obj if history else np.inf
        history.append(best_obj)
        if converged or improvement < cfg.tolerance:
            break

    return best_w, best_b, history


def train_svm(d: Dataset, cfg: SVMConfig) -> SVMModel:
    """One-vs-rest training over every schema class.

    Classes absent from the training rows get the constant separator
    (w=0, b=-1): they never win the argmax against a present class.
    """
    cfg.validate()
    x = np.asarray(d.features, dtype=np.float64)
    if not np.isfinite(x).all():
        raise DataError("feature matrix contains non-finite entries")
    present = np.unique(d.labels)
    if len(present) < 2:
        raise DataError("training data contains a single class; nothing to separate")

    k, p = len(d.class_names), d.p
    weights = np.zeros((k, p))
    biases = np.zeros(k)
    histories: list[list[float]] = []
    present_set = set(int(v) for v in present)
    for cls in range(k):
        if cls not in present_set:
            biases[cls] = -1.0
            histories.append([])
            continue
        y_pm = np.where(d.labels == cls, 1.0, -1.0)
        w, b, history = _solve_binary(x, y_pm, cfg)
        weights[cls] = w
        biases[cls] = b
        histories.append(history)
    return SVMModel(weights=weights, biases=biases, class_names=list(d.class_names),
                    objective_histories=histories)


def decision_function(model: SVMModel, row: np.ndarray) -> np.ndarray:
    """Per-class margins W_c . x + b_c for a single row."""
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1 or row.shape[0] != model.p:
        raise DataError(f"row has shape {row.shape}, model expects ({model.p},)")
    return model.weights @ row + model.biases


def margins(model: SVMModel, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != model.p:
        raise DataError(f"matrix has {m.shape[1] if m.ndim == 2 else '?'} columns, "
                        f"model expects {model.p}")
    return m @ model.weights.T + model.biases


def predict(model: SVMModel, m: np.ndarray) -> np.ndarray:
    """Argmax of per-class margins; ties resolve to the lowest class index."""
    return np.argmax(margins(model, m), axis=1)
