"""In-memory span tracing of the missctr layers, installed from outside.

The tracer replaces the public functions of each library module with
thin wrappers that open and close a span, and restores the originals
when it is removed.  A function that other modules imported by name
(``from .embeddings import zero_pad_rows``) is replaced in those
modules too, because callers resolve such names at call time.  Every
autodiff op is wrapped so that the node it tapes gets a timed backward
closure named ``autodiff.bwd.<op>``; ``Graph.backward`` gets a span of
its own.  Op forwards are not spans: their time stays with the caller.

A span is (name, start, end, parent, step): parent is the index of the
enclosing span or -1, step is the index of the enclosing
``trainer.train_step`` call or -1.  Spans stay in memory and are
written out once, by ``write``.  The wrappers only observe: they call
the original with the same arguments and return its result, so a
traced run computes bit for bit what an untraced one does.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from missctr import (
    autodiff,
    base_model,
    data,
    embeddings,
    interests,
    metrics,
    serialize,
    trainer,
)

# the library modules that count as layers; harness, cli and gradcheck
# only compose these and errors does no work
LAYERS = {
    "data": data,
    "embeddings": embeddings,
    "base_model": base_model,
    "interests": interests,
    "autodiff": autodiff,
    "trainer": trainer,
    "metrics": metrics,
    "serialize": serialize,
}

# autodiff functions that tape no node and are not worth a span
_AUTODIFF_PLAIN = {"no_grad", "active_graph"}

_NAME, _START, _END, _PARENT, _STEP = range(5)


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Span recorder plus the patches that feed it.  Use as a context
    manager; the patches are removed on exit even if the run fails."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.n_steps = 0
        self._stack: list[int] = []
        self._step = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._step])
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.spans[i][_END] = perf_counter()
        self._stack.pop()

    def _count(self, key: str, value: float) -> None:
        if self._step >= 0:
            self.counters[key] += value

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(self, out, args)
            return out

        return wrapper

    def _step_wrapper(self, fn):
        @functools.wraps(fn)
        def train_step(*args, **kwargs):
            self._step = self.n_steps
            self.n_steps += 1
            i = self._open("trainer.train_step")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
                self._step = -1

        return train_step

    def _op_wrapper(self, op: str, fn):
        span_name = f"autodiff.bwd.{op}"
        is_gather = op == "gather_rows"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            backward = getattr(out, "_backward", None)
            if backward is not None:
                dense = args[0].data.nbytes if is_gather else 0

                def timed(g):
                    i = self._open(span_name)
                    try:
                        backward(g)
                    finally:
                        self._close(i)
                    if dense:
                        self._count("gather_dense_bytes", dense)

                out._backward = timed
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        replace: dict[int, object] = {}
        for layer, module in LAYERS.items():
            for name, fn in _public_functions(module):
                if module is autodiff:
                    if name in _AUTODIFF_PLAIN:
                        continue
                    if name in ("zero_grads", "fresh_graph"):
                        wrapped = self._span_wrapper(f"autodiff.{name}", fn)
                    else:
                        wrapped = self._op_wrapper(name, fn)
                elif module is trainer and name == "train_step":
                    wrapped = self._step_wrapper(fn)
                else:
                    wrapped = self._span_wrapper(f"{layer}.{name}", fn)
                replace[id(fn)] = wrapped
        # rebind every module-level name that refers to a wrapped function,
        # including names imported into other modules
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "missctr" or mod_name.startswith("missctr.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replace.get(id(value))
                if wrapped is not None:
                    self._set(module, attr, wrapped)
        self._set(
            autodiff.Graph, "backward", self._span_wrapper("autodiff.backward", autodiff.Graph.backward)
        )
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reports -----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the time its child spans cover."""
        dur = np.array([s[_END] - s[_START] for s in self.spans])
        child = np.zeros_like(dur)
        for s, d in zip(self.spans, dur):
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += d
        return dur - child

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the traced pass (see README.md)."""
        steps = max(self.n_steps, 1)
        incl_step: dict[str, float] = defaultdict(float)
        calls_step: dict[str, int] = defaultdict(int)
        incl_all: dict[str, float] = defaultdict(float)
        calls_all: dict[str, int] = defaultdict(int)
        for s in self.spans:
            d = s[_END] - s[_START]
            incl_all[s[_NAME]] += d
            calls_all[s[_NAME]] += 1
            if s[_STEP] >= 0:
                incl_step[s[_NAME]] += d
                calls_step[s[_NAME]] += 1
        layer_self: dict[str, float] = defaultdict(float)
        for s, st in zip(self.spans, self.self_times()):
            layer_self[s[_NAME].split(".", 1)[0]] += st

        def per_step_ms(*names: str) -> float:
            return 1e3 * sum(incl_step[n] for n in names) / steps

        out: dict[str, float] = {}
        for fn in ("channel_stack", "mie_forward", "mimfe_forward", "encode", "infonce"):
            out[f"interests.{fn}_ms"] = per_step_ms(f"interests.{fn}")
        out["interests.sample_plans_ms"] = per_step_ms(
            "interests.sample_interest_plan", "interests.sample_feature_plan"
        )
        out["interests.gather_views_ms"] = per_step_ms(
            "interests.gather_interest_views", "interests.gather_feature_views"
        )
        plan_rows = self.counters["plan_rows"]
        out["interests.feasible_frac"] = self.counters["feasible_rows"] / plan_rows if plan_rows else 0.0

        out["autodiff.backward_ms"] = per_step_ms("autodiff.backward")
        for op in BACKWARD_OPS:
            out[f"autodiff.bwd.{op}_ms"] = per_step_ms(f"autodiff.bwd.{op}")
        nodes = self.counters["tape_nodes"]
        fired = sum(n for name, n in calls_step.items() if name.startswith("autodiff.bwd."))
        out["autodiff.tape_nodes_per_step"] = nodes / steps
        out["autodiff.fired_frac"] = fired / nodes if nodes else 0.0
        out["autodiff.gather_dense_mb_per_step"] = self.counters["gather_dense_bytes"] / 1e6 / steps

        out["trainer.train_step_ms"] = per_step_ms("trainer.train_step")
        out["trainer.adam_step_ms"] = per_step_ms("trainer.adam_step")
        out["trainer.adam_mb_per_step"] = self.counters["adam_bytes"] / 1e6 / steps
        out["trainer.zero_pad_rows_ms"] = per_step_ms("embeddings.zero_pad_rows")
        out["trainer.predict_scores_s"] = incl_all["trainer.predict_scores"]

        out["embeddings.embed_calls_per_step"] = calls_step["embeddings.embed"] / steps
        out["embeddings.embed_ms"] = per_step_ms("embeddings.embed")

        out["base_model.predict_batch_ms"] = per_step_ms("base_model.predict_batch")
        out["base_model.logloss_ms"] = per_step_ms("base_model.logloss")
        n_nograd = calls_all["base_model.predict_batch"] - calls_step["base_model.predict_batch"]
        t_nograd = incl_all["base_model.predict_batch"] - incl_step["base_model.predict_batch"]
        out["base_model.predict_batch_nograd_ms"] = 1e3 * t_nograd / n_nograd if n_nograd else 0.0

        for fn in ("ingest_log", "build_splits", "save_splits", "load_splits"):
            out[f"data.{fn}_s"] = incl_all[f"data.{fn}"]
        out["data.snapshot_mb"] = self.counters["snapshot_bytes"] / 1e6
        out["serialize.load_arrays_s"] = incl_all["serialize.load_arrays"]
        out["metrics.auc_ms"] = 1e3 * incl_all["metrics.auc"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def write(self, path: str, header: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("index\tname\tstart\tend\tparent\tstep\n")
            t0 = self.spans[0][_START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i}\t{s[_NAME]}\t{s[_START] - t0:.9f}\t{s[_END] - t0:.9f}"
                    f"\t{s[_PARENT]}\t{s[_STEP]}\n"
                )


def _after_plan(tracer: Tracer, plan, args) -> None:
    tracer._count("feasible_rows", plan.rows.size)
    tracer._count("plan_rows", plan.rows.size + plan.n_infeasible)


def _after_save_splits(tracer: Tracer, out, args) -> None:
    tracer.counters["snapshot_bytes"] += os.path.getsize(args[1])


def _after_adam(tracer: Tracer, out, args) -> None:
    params = args[0]
    tracer._count("adam_bytes", sum(p.data.nbytes for p in params.values() if p.grad is not None))


def _after_backward(tracer: Tracer, out, args) -> None:
    tracer._count("tape_nodes", len(args[0].nodes))


# post-call hooks that record deterministic counts
_AFTER = {
    "interests.sample_interest_plan": _after_plan,
    "interests.sample_feature_plan": _after_plan,
    "data.save_splits": _after_save_splits,
    "trainer.adam_step": _after_adam,
    "autodiff.backward": _after_backward,
}

# ops whose backward closures the per-layer report names
BACKWARD_OPS = (
    "gather_rows", "slice_window", "mul", "add", "sub", "scale", "matmul",
    "concat", "reshape", "transpose", "relu", "sigmoid", "texp", "tlog",
    "clip", "tsum", "tmean", "normalize_rows",
)
