"""Linear soft-margin SVM trained by primal finite Newton on the squared hinge.

One binary problem per class (one-vs-rest); each solves

    minimize  0.5 * ||w||^2 + c * sum_i max(0, 1 - y_i (w . x_i + b))^2

with the bias b unregularized. The squared hinge is the loss of LIBLINEAR's
default solver (Fan et al. 2008). Inputs are assumed standardized by the
caller, and identical inputs give an identical model.

The objective is piecewise quadratic and strictly convex in w. The finite
Newton method (Keerthi & DeCoste 2005; Chapelle 2007) starts at w = 0,
b = 0. Each iteration takes the margin set, the rows with
y_i (w . x_i + b) < 1, and solves one (p+1) x (p+1) system for the minimizer
of the quadratic that holds while that set does. It then moves toward that
minimizer by an exact line search along the piecewise quadratic. Once the
margin set at the new point is the one its step used, the point is that
quadratic's minimizer and so the objective's: the solve stops there, with a
gradient that is zero up to rounding. Otherwise it stops after
``SVMConfig.max_epochs`` iterations.

The system and the line search are divided by 2c, so only the objective
grows with c. A c whose objective is not finite raises NumericError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError, NumericError


@dataclass(frozen=True)
class SVMConfig:
    c: float = 1.0
    max_epochs: int = 1000  # Newton iterations per class, at most
    seed: int = 0  # kept for interface symmetry; the solver itself is deterministic

    def validate(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ConfigError(f"c must be finite and > 0, got {self.c}")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")


@dataclass
class SVMModel:
    weights: np.ndarray  # (k, p)
    biases: np.ndarray  # (k,)
    class_names: list[str]
    objective_histories: list[list[float]]  # per class, the objective after each iteration
    # per solved class: epochs, stop, margin_rows, grad_rel; not part of to_text()
    solves: dict[str, dict] = field(default_factory=dict)

    @property
    def p(self) -> int:
        return self.weights.shape[1]

    def to_text(self) -> str:
        lines = ["svm"]
        for name, w, b in zip(self.class_names, self.weights, self.biases):
            lines.append(f"{name} b={float(b)!r} w=" + " ".join(repr(float(v)) for v in w))
        return "\n".join(lines)


def _step_length(lam: float, w, dw, slack, rate) -> float:
    """The t >= 0 that minimizes the objective along (w, b) + t (dw, db).

    Row i's slack 1 - y_i (w . x_i + b) moves as slack_i - t rate_i, so the
    derivative divided by 2c is lam (w . dw + t dw . dw) minus the sum of
    (slack_i - t rate_i) rate_i over the rows whose moving slack is positive.
    It is piecewise linear and nondecreasing in t. A row with
    slack_i rate_i > 0 crosses the margin at t = slack_i / rate_i: it leaves
    the sum if rate_i > 0 and joins it if rate_i < 0. The root lies on the
    first piece at whose end the derivative is not negative.
    """
    inside = (slack > 0) | ((slack == 0) & (rate < 0))
    crossing = slack * rate > 0
    at = slack[crossing] / rate[crossing]
    order = np.argsort(at, kind="stable")
    at, s, r = at[order], slack[crossing][order], rate[crossing][order]
    sign = np.where(r > 0, 1.0, -1.0)  # +1: the row leaves the sum
    # slope + curve * t is the derivative on piece k, from at[k-1] (or 0) to at[k]
    slope = (lam * float(w @ dw) - float(slack[inside] @ rate[inside])
             + np.concatenate(([0.0], np.cumsum(sign * s * r))))
    curve = (lam * float(dw @ dw) + float(rate[inside] @ rate[inside])
             - np.concatenate(([0.0], np.cumsum(sign * r * r))))
    ends = slope[:-1] + curve[:-1] * at >= 0.0
    k = int(np.argmax(ends)) if ends.any() else len(at)
    start = at[k - 1] if k else 0.0
    if slope[k] + curve[k] * start >= 0.0:
        return float(start)
    return float(-slope[k] / curve[k])


def _solve_binary(x: np.ndarray, y_pm: np.ndarray, cfg: SVMConfig):
    """Finite Newton on the squared-hinge objective of one binary problem.

    Returns (w, b, history, report). ``history`` holds the objective after
    each iteration. ``report`` holds the iterations (``epochs``), the stop
    reason (``margin_set`` or ``epoch_budget``), the final margin set's size
    and ``grad_rel``, the final gradient's norm relative to the gradient's
    at w = 0, b = 0.
    """
    p = x.shape[1]
    c, lam = cfg.c, 0.5 / cfg.c
    w, b = np.zeros(p), 0.0
    history: list[float] = []
    used = None  # the margin set of the last step
    while True:
        slack = 1.0 - y_pm * (x @ w + b)
        inside = slack > 0.0
        objective = 0.5 * float(w @ w) + c * float(slack[inside] @ slack[inside])
        if not math.isfinite(objective):
            raise NumericError(f"svm objective is not finite at c={c!r}; use a smaller c")
        if used is not None:
            history.append(objective)
            if np.array_equal(inside, used):
                stop = "margin_set"
                break
        if len(history) == cfg.max_epochs:
            stop = "epoch_budget"
            break
        used = inside
        xi, yi = x[inside], y_pm[inside]
        if len(yi):
            # The quadratic's minimizer: [[lam I + Xi'Xi, s], [s', m]] [w; b] = [Xi'yi; sum yi],
            # with s the column sums of Xi and m its row count.
            system = np.empty((p + 1, p + 1))
            np.matmul(xi.T, xi, out=system[:p, :p])
            system[:p, :p].flat[::p + 1] += lam
            system[:p, p] = system[p, :p] = xi.sum(axis=0)
            system[p, p] = len(yi)
            target = np.linalg.solve(system, np.append(xi.T @ yi, yi.sum()))
            dw, db = target[:p] - w, float(target[p]) - b
        else:  # no row in the margin: the quadratic is 0.5 ||w||^2, flat in b
            dw, db = -w, 0.0
        t = _step_length(lam, w, dw, slack, y_pm * (x @ dw + db))
        w, b = w + t * dw, b + t * db

    weighted = np.where(inside, slack * y_pm, 0.0)
    gradient = math.hypot(float(np.linalg.norm(lam * w - x.T @ weighted)), float(weighted.sum()))
    scale = math.hypot(float(np.linalg.norm(x.T @ y_pm)), float(y_pm.sum()))
    report = {"epochs": len(history), "stop": stop, "margin_rows": int(inside.sum()),
              "grad_rel": gradient / scale if scale else 0.0}  # scale 0: the start is optimal
    return w, b, history, report


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
