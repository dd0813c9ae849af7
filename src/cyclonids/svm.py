"""Linear soft-margin SVM trained by sequential minimal optimization.

One binary problem per class (one-vs-rest); each solves

    minimize  0.5 * ||w||^2 + c * sum_i hinge(y_i, w . x_i + b)

through its dual with maximal-violating-pair updates, so the bias stays
unregularized and the solver is fully deterministic: identical inputs give
an identical model. Inputs are assumed standardized by the caller.

The working set is tracked incrementally, as in LIBSVM (Chang & Lin 2011)
and Keerthi et al. (2001): a step moves only two multipliers, so only those
two rows can enter or leave I_up and I_low, and the sets are kept between
steps instead of being rebuilt.

The solver also shrinks (Joachims 1999; LIBSVM): the pair search and the
gemv that updates the cached margins f run on an active set of rows, held
as a contiguous copy of their rows of x. Every min(n, 1000) steps the set is
re-derived from every row. With m = max(y - f) over I_up and M = min(y - f)
over I_low, a row that is only in I_up with y - f < M, or only in I_low with
y - f > m, cannot be picked as things stand and is left out; every other
row, shrunk before or not, is active. The margins of shrunk rows are
rebuilt as x @ w before that check and before each epoch's bias and
objective. For a linear kernel w = sum_i alpha_i y_i x_i, so f_i = w . x_i
exactly: one gemv, where a kernel SVM must sum over every support vector.
When the active set's gap closes, every row is reactivated and the full gap
tested again, so a closed pair gap ends the solve only where the unshrunk
solver's could.

Each epoch ends with the relative duality gap (P_best - D) / P_best, with
P_best the best primal objective so far and D = sum(alpha) - 0.5 ||w||^2.
SMO keeps sum(alpha_i y_i) = 0, so D <= P* <= P_best whether or not rows
were shrunk, and a gap at most ``SVMConfig.tolerance`` ends the solve with
that certificate for the returned model (Shalev-Shwartz & Zhang 2013).

An epoch is still n steps. Active rows keep their accumulated margins, so a
solve that never shrinks a row follows rebuilding everything per step
(``tests/oracles.py::reference_smo``) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError

_BOX_EPS = 1e-12
_KKT_EPS = 1e-9
_SHRINK_EVERY = 1000  # SMO steps between active-set checks, as in LIBSVM


@dataclass(frozen=True)
class SVMConfig:
    c: float = 1.0
    max_epochs: int = 1000
    tolerance: float = 1e-2  # stop once the relative duality gap is at most this; in (0, 1)
    seed: int = 0  # kept for interface symmetry; the solver itself is deterministic

    def validate(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ConfigError(f"c must be finite and > 0, got {self.c}")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if not (math.isfinite(self.tolerance) and 0.0 < self.tolerance < 1.0):
            raise ConfigError(f"tolerance must be finite and in (0, 1), got {self.tolerance}")


@dataclass
class SVMModel:
    weights: np.ndarray  # (k, p)
    biases: np.ndarray  # (k,)
    class_names: list[str]
    objective_histories: list[list[float]]  # per class, best-so-far primal per epoch
    # per solved class: epochs, steps, min_active, stop, dual_gap; not part of to_text()
    solves: dict[str, dict] = field(default_factory=dict)

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
    """Maximal-violating-pair SMO on the dual of the hinge-loss problem, with shrinking.

    The pair is the argmax of ``y - f`` over I_up and its argmin over I_low:
    as y = +-1, ``y - f`` equals -y times the dual gradient up to the sign of
    a zero, which neither the arg-reductions nor the gap test can see. Rows
    outside a set hold -inf (I_up) or +inf (I_low) in place of y, so an empty
    set gives an infinite negative gap and ends the solve like a closed one.

    Returns (best_w, best_b, history, report); ``report`` holds the epochs,
    the SMO steps, the smallest active-set size, the stop reason and the
    last epoch's relative duality gap.
    """
    n, p = x.shape
    c = cfg.c
    below_c = c - _BOX_EPS
    y = y_pm.tolist()
    alpha = np.zeros(n)
    w = np.zeros(p)
    f = np.zeros(n)  # cached w . x_i; current for active rows, rebuilt from w for shrunk ones
    self_dot = np.einsum("ij,ij->i", x, x)
    # Every alpha starts at 0: I_up holds the positive rows and I_low the
    # negative ones (both are empty if c <= _BOX_EPS).
    y_up = np.where((y_pm > 0) & (0.0 < below_c), y_pm, -np.inf)
    y_low = np.where((y_pm < 0) & (0.0 < below_c), y_pm, np.inf)

    # The active set: ``rows`` lists its rows (None while it holds them all)
    # and xa, fa, ya_up, ya_low are contiguous copies of its rows of x, f, y_up, y_low.
    # With every row active they are the full arrays themselves.
    rows = None
    xa, fa, ya_up, ya_low = x, f, y_up, y_low
    scores = np.empty(n)
    check_every = min(n, _SHRINK_EVERY)
    until_check = check_every

    def sync():
        """Write the active slices back and rebuild the shrunk rows' margins from w."""
        if rows is not None:
            np.matmul(x, w, out=f)
            f[rows], y_up[rows], y_low[rows] = fa, ya_up, ya_low

    def activate(keep):
        nonlocal rows, xa, fa, ya_up, ya_low, scores
        if keep.all():
            rows, xa, fa, ya_up, ya_low = None, x, f, y_up, y_low
        else:
            rows = np.flatnonzero(keep)
            xa, fa, ya_up, ya_low = x[rows], f[rows], y_up[rows], y_low[rows]
        scores = np.empty(len(fa))

    best_obj = _primal_objective(x, y_pm, w, 0.0, c)
    best_w, best_b = w.copy(), 0.0
    history: list[float] = []
    steps, min_active, stop = 0, n, "epoch_budget"

    for _ in range(cfg.max_epochs):
        taken = 0
        while taken < n:
            if until_check == 0:
                # Re-derive the active set from every row: drop a row that is
                # in one set only and on the wrong side of the other set's extreme.
                # Only while the full gap is open, so the extremes' rows stay.
                until_check = check_every
                sync()
                up_score, low_score = y_up - f, y_low - f
                top, bottom = up_score.max(), low_score.min()
                drop = (((y_low == np.inf) & (up_score < bottom))
                        | ((y_up == -np.inf) & (low_score > top)))
                activate(~drop if top - bottom > _KKT_EPS else np.ones(n, dtype=bool))
                min_active = min(min_active, len(fa))

            i = int(np.subtract(ya_up, fa, out=scores).argmax())
            top = scores[i]
            j = int(np.subtract(ya_low, fa, out=scores).argmin())
            gap = top - scores[j]
            gi, gj = (i, j) if rows is None else (rows[i], rows[j])
            if gap <= _KKT_EPS:
                delta = 0.0
            else:
                quad = max(self_dot[gi] + self_dot[gj] - 2.0 * float(xa[i] @ xa[j]), 1e-12)
                delta = gap / quad
                # Feasible step range along (nu_i += delta, nu_j -= delta).
                delta_max_i = (c - alpha[gi]) if y[gi] > 0 else alpha[gi]
                delta_max_j = alpha[gj] if y[gj] > 0 else (c - alpha[gj])
                delta = min(delta, delta_max_i, delta_max_j)
            if delta <= 0.0:
                if rows is None:
                    stop = "gap" if gap <= _KKT_EPS else "no_step"
                    break
                # The active set looks solved: bring every row back and test again.
                sync()
                activate(np.ones(n, dtype=bool))
                continue

            alpha[gi] += y[gi] * delta
            alpha[gj] -= y[gj] * delta
            step = delta * (xa[i] - xa[j])
            w += step
            fa += xa @ step
            taken += 1
            until_check -= 1

            # Only rows i and j moved, so only they can enter or leave a set.
            for k, g in ((i, gi), (j, gj)):
                y_k, below, above = y[g], alpha[g] < below_c, alpha[g] > _BOX_EPS
                ya_up[k] = y_k if (below if y_k > 0 else above) else -np.inf
                ya_low[k] = y_k if (above if y_k > 0 else below) else np.inf

        steps += taken
        sync()
        b = _estimate_bias(y_pm, f, alpha, c)
        obj = _primal_objective(x, y_pm, w, b, c)
        if obj < best_obj:
            best_obj, best_w, best_b = obj, w.copy(), b
        history.append(best_obj)
        dual = float(alpha.sum()) - 0.5 * float(w @ w)
        # A closed pair gap can leave D a rounding error above P_best: report 0 then.
        dual_gap = max((best_obj - dual) / best_obj, 0.0) if best_obj else 0.0
        if taken < n:
            break
        if dual_gap <= cfg.tolerance:
            stop = "dual_gap"
            break

    report = {"epochs": len(history), "steps": steps, "min_active": min_active, "stop": stop,
              "dual_gap": dual_gap}
    return best_w, best_b, history, report


def train_svm(d: Dataset, cfg: SVMConfig) -> SVMModel:
    """One-vs-rest training over every schema class.

    Classes absent from the training rows get the constant separator
    (w=0, b=-1): they never win the argmax against a present class.
    """
    cfg.validate()
    x = np.asarray(d.features, dtype=np.float64)
    present = np.unique(d.labels)
    if len(present) < 2:
        raise DataError("training data contains a single class; nothing to separate")

    k, p = len(d.class_names), d.p
    weights = np.zeros((k, p))
    biases = np.zeros(k)
    histories: list[list[float]] = []
    solves: dict[str, dict] = {}
    present_set = set(int(v) for v in present)
    for cls in range(k):
        if cls not in present_set:
            biases[cls] = -1.0
            histories.append([])
            continue
        y_pm = np.where(d.labels == cls, 1.0, -1.0)
        w, b, history, solves[d.class_names[cls]] = _solve_binary(x, y_pm, cfg)
        weights[cls] = w
        biases[cls] = b
        histories.append(history)
    return SVMModel(weights=weights, biases=biases, class_names=list(d.class_names),
                    objective_histories=histories, solves=solves)


def margins(model: SVMModel, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != model.p:
        raise DataError(f"matrix has {m.shape[1] if m.ndim == 2 else '?'} columns, "
                        f"model expects {model.p}")
    return m @ model.weights.T + model.biases


def predict(model: SVMModel, m: np.ndarray) -> np.ndarray:
    """Argmax of per-class margins; ties resolve to the lowest class index."""
    return np.argmax(margins(model, m), axis=1)
