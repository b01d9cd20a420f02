"""Spans recorded from outside the engine, and the per-layer figures derived
from them.

The harness calls the other modules through names bound in its own module
namespace (and the sampler through its own), and reaches `DataPool` and
`Classifier` methods through their classes. Tracing replaces those names and
methods with wrappers that record a span (name, start, end, parent, count)
per call, so the program itself is unchanged. Spans stay in memory until the
run ends.

A span's layer is the module that defines the function. Its self time is
its duration minus the time its child spans cover; summed per layer over an
adaptation run, self times add up to the run's wall time. Time spent in the
benchmark's own checks is recorded as a `bench` span and left out.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import statistics
import time

ROOT = "harness.run_active_loop"
BENCH = "bench.check"
LAYERS = ("datapool", "classifier", "scoring", "gmm", "sampler", "harness")


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


class Tracer:
    """Span recorder. Spans are lists [name_id, start_ns, end_ns, parent, count]."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._paused = False
        self._restore: list[tuple[object, str, object]] = []
        self.em_capped = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> list[int]:
        span = [nid, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list[int]) -> None:
        self._stack.pop()
        span[2] = time.perf_counter_ns()

    def wrap(self, fn, name: str, count=None):
        """fn with a span around every call; count(args, kwargs, result)
        gives the span's work count."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span[4] = count(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(span)

    @contextlib.contextmanager
    def bench(self):
        """The benchmark's own work: one `bench` span, nothing inside it
        recorded."""
        span = self._open(self._name_id(BENCH))
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            self._close(span)

    # -- installing the wrappers ------------------------------------------

    def _patch(self, owner, attr: str, name: str, count=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, count))
        else:
            new = self.wrap(raw, name, count)
        setattr(owner, attr, new)

    def install(self, aa) -> None:
        """Wrap the engine's layer boundaries; aa is the activeadapt package."""
        harness, sampler, datapool = aa.harness, aa.sampler, aa.datapool
        max_iter = inspect.signature(aa.gmm.run_em).parameters["max_iter"].default

        def em_iters(args, kwargs, fit):
            if fit.n_iter >= kwargs.get("max_iter", max_iter):
                self.em_capped += 1
            return fit.n_iter

        def rows_arg1(args, kwargs, out):
            return _rows(args[1])

        def rows_arg2(args, kwargs, out):
            return _rows(args[2])

        for attr, name, count in [
            ("pretrain_source", "harness.pretrain_source", None),
            ("evaluate", "harness.evaluate", None),
            ("backward_and_step", "classifier.backward_and_step", None),
            ("combined_loss", "classifier.combined_loss", None),
            ("compute_centroids", "scoring.compute_centroids", None),
            ("info_scores_labeled", "scoring.info_scores_labeled", None),
            ("observation_labels", "scoring.observation_labels", None),
            ("info_scores_unlabeled", "scoring.info_scores_unlabeled", rows_arg2),
            ("run_em", "gmm.run_em", em_iters),
            ("component_posteriors", "gmm.component_posteriors", None),
            ("select_active_batch", "sampler.select_active_batch", None),
            ("partition_unlabeled", "sampler.partition_unlabeled", None),
            ("sfda_bootstrap", "sampler.sfda_bootstrap", None),
        ]:
            self._patch(harness, attr, name, count)
        for attr, name, count in [
            ("component_posteriors", "gmm.component_posteriors", None),
            ("info_scores_unlabeled", "scoring.info_scores_unlabeled", rows_arg2),
            ("similarity_labels", "scoring.similarity_labels", None),
            ("centroids_from_features", "scoring.centroids_from_features", None),
        ]:
            self._patch(sampler, attr, name, count)
        for attr in ("generate_shifted_dataset", "load_pool"):
            self._patch(datapool, attr, f"datapool.{attr}")
        for attr in ("initialize", "features", "logits", "log_proba", "predict_proba", "predict"):
            count = rows_arg1 if attr == "features" else None
            self._patch(aa.Classifier, attr, f"classifier.Classifier.{attr}", count)
        for attr in (
            "labeled_arrays",
            "unlabeled_arrays",
            "target_arrays",
            "annotate_batch",
            "check_invariants",
            "evaluation_labels",
            "oracle_label",
        ):
            self._patch(aa.DataPool, attr, f"datapool.DataPool.{attr}")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


# -- per-layer figures ---------------------------------------------------------

VIEWS = {"datapool.DataPool.labeled_arrays", "datapool.DataPool.unlabeled_arrays",
         "datapool.DataPool.target_arrays"}
BOOKKEEPING = {"datapool.DataPool.check_invariants", "datapool.DataPool.evaluation_labels"}
LABELED_SCORING = {"scoring.compute_centroids", "scoring.info_scores_labeled",
                   "scoring.observation_labels"}
BUILDS = {"datapool.generate_shifted_dataset", "datapool.load_pool"}


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Per-pass figures from the spans of every adaptation run.

    `*_s` figures named after calls are inclusive times; `<layer>.self_s`
    are self times and add up to `trace.run_s`.
    """
    names = [tracer.names[s[0]] for s in tracer.spans]
    n = len(names)
    dur = [s[2] - s[1] for s in tracer.spans]
    covered = [0] * n
    top = list(range(n))
    in_sgd = [False] * n
    for i, s in enumerate(tracer.spans):
        p = s[3]
        if p >= 0:
            covered[p] += dur[i]
            top[i] = top[p]
            in_sgd[i] = in_sgd[p]
        if names[i] == "classifier.backward_and_step":
            in_sgd[i] = True

    total: dict[str, int] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    self_ns = dict.fromkeys(LAYERS + ("bench",), 0)
    forward_rows = 0
    run_ns = 0
    builds = []
    for i, name in enumerate(names):
        if name in BUILDS and top[i] == i:
            builds.append(dur[i])
        if names[top[i]] != ROOT:
            continue
        total[name] = total.get(name, 0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + tracer.spans[i][4]
        self_ns[name.split(".")[0]] += dur[i] - covered[i]
        if name == ROOT:
            run_ns += dur[i]
        elif name == BENCH:
            run_ns -= dur[i]
        elif name == "classifier.Classifier.features" and not in_sgd[i]:
            forward_rows += tracer.spans[i][4]
    if sum(self_ns[layer] for layer in LAYERS) != run_ns:
        raise RuntimeError("layer self times do not add up to the traced run time")

    ns = 1e-9 / n_passes

    def sec(*keys):
        return sum(total.get(k, 0) for k in keys) * ns

    def num(table, *keys):
        return sum(table.get(k, 0) for k in keys) / n_passes

    sgd_steps = num(calls, "classifier.backward_and_step")
    unl_rows = num(counts, "scoring.info_scores_unlabeled")
    em_iters = num(counts, "gmm.run_em")
    out = {
        "trace.run_s": run_ns * ns,
        "datapool.build_s": statistics.median(builds) / 1e9 if builds else 0.0,
        "datapool.view_s": sec(*VIEWS),
        "datapool.view_calls": num(calls, *VIEWS),
        "datapool.annotate_s": sec("datapool.DataPool.annotate_batch"),
        "datapool.bookkeeping_s": sec(*BOOKKEEPING),
        "classifier.pretrain_s": sec("harness.pretrain_source"),
        "classifier.sgd_s": sec("classifier.backward_and_step"),
        "classifier.sgd_steps": sgd_steps,
        "classifier.step_us": sec("classifier.backward_and_step") / sgd_steps * 1e6
        if sgd_steps else 0.0,
        "classifier.forward_rows": forward_rows / n_passes,
        "scoring.unlabeled_s": sec("scoring.info_scores_unlabeled"),
        "scoring.unlabeled_rows": unl_rows,
        "scoring.row_us": sec("scoring.info_scores_unlabeled") / unl_rows * 1e6
        if unl_rows else 0.0,
        "scoring.labeled_s": sec(*LABELED_SCORING),
        "gmm.em_s": sec("gmm.run_em"),
        "gmm.em_iters": em_iters,
        "gmm.iter_ms": sec("gmm.run_em") / em_iters * 1e3 if em_iters else 0.0,
        "gmm.em_capped": tracer.em_capped / n_passes,
        "gmm.posterior_s": sec("gmm.component_posteriors"),
        "sampler.select_s": sec("sampler.select_active_batch"),
        "sampler.partition_s": sec("sampler.partition_unlabeled"),
        "harness.evaluate_s": sec("harness.evaluate"),
        "harness.loss_report_s": sec("classifier.combined_loss"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_ns[layer] * ns
    return out
