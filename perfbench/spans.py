"""Span recording around calls into the cyclonids modules, from outside the program.

Each public function is wrapped at the namespace that calls it: ``runner``
imports ``load_csv``, ``split`` and ``encode_categoricals`` by name and
reaches the other layers through module aliases (``forest_mod`` and so on),
and ``boruta`` imports ``train_forest_xy`` and calls its own
``augment_with_shadows`` by global name. Patching those names, and not the
defining modules, keeps the classifier's forest apart from Boruta's forests
and leaves every other caller untouched. The patches are undone on exit, so
an untraced run in the same process calls the program unchanged.
"""

from __future__ import annotations

import contextlib
import time
import types

from cyclonids import boruta, runner


class Tracer:
    """In-memory span log: name, start, end, parent span, run id and counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.last_args: dict[str, tuple] = {}
        self.run_id = 0
        self._stack: list[dict] = []

    def wrap(self, name: str, fn, counts=None, keep_args: bool = False):
        """``fn`` recording a span per call.

        ``counts(result, args)`` returns numbers read from the call's result,
        taken after the span ends. ``keep_args`` keeps the last call's
        arguments, so the call can be repeated outside any timed run.
        """
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1]["id"] if self._stack else None, "counts": {}}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(result, args)
            if keep_args:
                self.last_args[name] = (args, kwargs)
            return result
        return traced

    def run_spans(self, run_id: int) -> list[dict]:
        return [s for s in self.spans if s["run"] == run_id]


def _forest_counts(model, args) -> dict:
    return {"nodes": sum(t.n_nodes for t in model.trees), "cols": int(args[0].shape[1])}


def _svm_counts(model, args) -> dict:
    finished = [h for h in model.objective_histories if h]
    return {"epochs": sum(len(h) for h in model.objective_histories),
            "objective": float(sum(h[-1] for h in finished))}


def _proxy(module, tracer: Tracer, wrapped: dict) -> types.SimpleNamespace:
    """Stand-in for a module alias: every attribute of the module, some of them traced."""
    ns = types.SimpleNamespace(**vars(module))
    for attr, (name, counts, keep) in wrapped.items():
        setattr(ns, attr, tracer.wrap(name, getattr(module, attr), counts, keep))
    return ns


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the calling namespaces for the duration of the block."""
    patches = {
        (runner, "load_csv"): tracer.wrap(
            "dataset.load", runner.load_csv,
            lambda raw, a: {"rows": raw.n, "rows_rejected": len(raw.rejected_rows)}, True),
        (runner, "encode_categoricals"): tracer.wrap(
            "dataset.encode", runner.encode_categoricals, lambda d, a: {"encoded_cols": d.p}),
        (runner, "split"): tracer.wrap(
            "dataset.split", runner.split,
            lambda pair, a: {"n_train": pair.train.n, "n_test": pair.test.n}),
        (runner, "preprocess"): _proxy(runner.preprocess, tracer, {
            "fit_standardizer": ("preprocess.standardize", None, False),
            "transform": ("preprocess.standardize", None, False)}),
        (runner, "pca_mod"): _proxy(runner.pca_mod, tracer, {
            "fit_pca": ("pca.fit", None, False),
            "select_components": ("pca.select", lambda k, a: {"components": int(k)}, False),
            "transform": ("pca.transform", None, False)}),
        (runner, "boruta_mod"): _proxy(runner.boruta_mod, tracer, {
            "run_boruta": ("boruta.select",
                           lambda res, a: {"iterations": res.iterations_used}, False)}),
        (runner, "forest_mod"): _proxy(runner.forest_mod, tracer, {
            "train_forest_xy": ("forest.train", _forest_counts, True),
            "predict": ("forest.predict", None, False)}),
        (runner, "svm_mod"): _proxy(runner.svm_mod, tracer, {
            "train_svm": ("svm.train", _svm_counts, True),
            "predict": ("svm.predict", None, False)}),
        (runner, "metrics_mod"): _proxy(runner.metrics_mod, tracer, {
            "evaluate": ("metrics.evaluate", None, False)}),
        (boruta, "train_forest_xy"): tracer.wrap(
            "boruta.forest", boruta.train_forest_xy, _forest_counts),
        (boruta, "augment_with_shadows"): tracer.wrap(
            "boruta.shadow", boruta.augment_with_shadows),
    }
    saved = {key: getattr(*key) for key in patches}
    try:
        for (module, attr), value in patches.items():
            setattr(module, attr, value)
        yield tracer
    finally:
        for (module, attr), value in saved.items():
            setattr(module, attr, value)
