"""In-memory spans around the calls into each layer of rarepath.

A span is ``[name, start, end, parent, leaves]``: ``parent`` is the index
of the enclosing span (None at the top) and ``leaves`` maps a leaf name to
``[calls, seconds]``.  Leaf calls are the high-frequency ones (model
methods, ``Sampler.sample``, Gauss-Seidel sweeps): a DDS oracle makes close
to a million model calls, so they are aggregated into the span that was
open when they ran instead of becoming spans of their own.

The instrumentation patches module and class attributes of rarepath only
inside ``instrumented()`` and restores them on exit, so untraced studies
in the same process run the library unchanged.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

from rarepath import exact, preproc, sampling

MODEL_METHODS = ("successors", "is_goal", "is_taboo")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def leaf(self, key: str, seconds: float, calls: int = 1) -> None:
        leaves = self.spans[self._stack[-1]][4]
        entry = leaves.get(key)
        if entry is None:
            leaves[key] = [calls, seconds]
        else:
            entry[0] += calls
            entry[1] += seconds

    def model(self, model):
        """Wrap one model instance's contract methods as leaf calls."""
        for name in MODEL_METHODS:
            setattr(model, name, _timed_leaf(self, f"model.{name}", getattr(model, name)))
        return model

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "leaves")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, rec)) for rec in self.spans], fh)


class NullTracer:
    """Stands in for a Tracer in untraced studies."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def model(self, model):
        return model


def _timed_leaf(tracer: Tracer, key: str, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(key, time.perf_counter() - t0)

    return wrapper


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Spans around the preprocessing phases; leaves for paths and sweeps."""
    sample = sampling.Sampler.sample

    def traced_sample(self, rng, *args, **kwargs):
        t0 = time.perf_counter()
        path = sample(self, rng, *args, **kwargs)
        tracer.leaf("sampler.sample", time.perf_counter() - t0)
        tracer.leaf("sampler.steps", 0.0, path.steps)
        tracer.leaf("sampler.left_lambda", 0.0, int(path.left_lambda))
        return path

    patches = [
        (preproc, "forward_phase", _spanned(tracer, "preproc.forward_phase", preproc.forward_phase)),
        (preproc, "backward_phase", _spanned(tracer, "preproc.backward_phase", preproc.backward_phase)),
        (preproc, "loop_detect", _spanned(tracer, "preproc.loop_detect", preproc.loop_detect)),
        (exact, "spsolve_triangular", _timed_leaf(tracer, "exact.sweep", exact.spsolve_triangular)),
        (sampling.Sampler, "sample", traced_sample),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        yield tracer
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def counts(tracer: Tracer) -> dict[str, int]:
    """Every call count of a trace, keyed by span or leaf name."""
    out: dict[str, int] = {}
    for name, _t0, _t1, _parent, leaves in tracer.spans:
        out[name] = out.get(name, 0) + 1
        for key, (calls, _s) in leaves.items():
            out[key] = out.get(key, 0) + calls
    return out


def _under(tracer: Tracer, name: str) -> list[list]:
    """Spans named ``name`` and every span nested inside one."""
    inside: list[bool] = []
    for rec in tracer.spans:
        parent = rec[3]
        inside.append(rec[0] == name or (parent is not None and inside[parent]))
    return [rec for rec, flag in zip(tracer.spans, inside) if flag]


def _leaf_total(spans: list[list], *keys: str) -> tuple[int, float]:
    calls, secs = 0, 0.0
    for rec in spans:
        for key in keys:
            entry = rec[4].get(key)
            if entry is not None:
                calls += entry[0]
                secs += entry[1]
    return calls, secs


def _span_seconds(tracer: Tracer, name: str) -> tuple[int, float]:
    recs = [rec for rec in tracer.spans if rec[0] == name]
    return len(recs), sum(rec[2] - rec[1] for rec in recs)


def layer_metrics(tracer: Tracer, facts: dict[str, float]) -> dict[str, float]:
    """Per-layer figures of one traced study.

    ``facts`` carries what the study read off the library's results:
    preprocessing sizes, the relative variance and the oracle's state count.
    """
    every = tracer.spans
    zva = _under(tracer, "estimate.zva-delta")
    bfb = _under(tracer, "estimate.bfb")
    succ_calls, succ_s = _leaf_total(every, "model.successors")
    pred_calls, pred_s = _leaf_total(every, "model.is_goal", "model.is_taboo")
    paths, sample_s = _leaf_total(zva, "sampler.sample")
    steps, _ = _leaf_total(zva, "sampler.steps")
    left, _ = _leaf_total(zva, "sampler.left_lambda")
    bfb_paths, bfb_s = _leaf_total(bfb, "sampler.sample")
    sweeps, solve_s = _leaf_total(every, "exact.sweep")
    ld_calls, ld_s = _span_seconds(tracer, "preproc.loop_detect")
    return {
        "model.successors_calls": succ_calls,
        "model.successors_s": succ_s,
        "model.predicate_calls": pred_calls,
        "model.predicate_s": pred_s,
        "preproc.forward_s": _span_seconds(tracer, "preproc.forward_phase")[1],
        "preproc.backward_s": _span_seconds(tracer, "preproc.backward_phase")[1],
        "preproc.loop_detect_calls": ld_calls,
        "preproc.loop_detect_s": ld_s,
        "preproc.states_discovered": facts["states_discovered"],
        "preproc.lambda_size": facts["lambda_size"],
        "preproc.gamma_size": facts["gamma_size"],
        "sampling.paths": paths,
        "sampling.steps": steps,
        "sampling.sample_s": sample_s,
        "sampling.steps_per_s": steps / sample_s,
        "sampling.paths_per_s": paths / sample_s,
        "sampling.left_lambda_paths": left,
        "sampling.rows_expanded": _leaf_total(zva, "model.successors")[0],
        "sampling.rel_var": facts["rel_var"],
        "sampling.bfb_paths_per_s": bfb_paths / bfb_s if bfb_paths else 0.0,
        "exact.s": _span_seconds(tracer, "exact")[1],
        "exact.states": facts.get("exact_states", 0),
        "exact.sweeps": sweeps,
        "exact.solve_s": solve_s,
    }
