"""Spans around cgrader's public functions, recorded from the benchmark's side.

`instrument(tracer)` replaces each function in TARGETS, wherever a cgrader
module holds a reference to it, with a wrapper that records one span per
call: name, start, end, the enclosing span, and the current request and
phase. Nothing under src/ changes; `restore()` puts the originals back.

A span's self time is its duration minus the durations of the spans it
directly encloses.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top level
    request: int | None
    phase: str | None
    size: float = 0.0  # work counted at this boundary (tokens, rows, bytes)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span tree; one per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request: int | None = None
        self.phase: str | None = None

    def call(self, name, fn, args, kwargs, size=None):
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            name = RENAMES.get((name, self.spans[parent].name), name)
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, parent, self.request, self.phase)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if size is not None:
            span.size = size(result, args, kwargs)
        return result

    def self_times(self) -> list[float]:
        out = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                out[span.parent] -= span.duration
        return out

    def to_records(self) -> list[list]:
        return [
            [s.name, round(s.start, 7), round(s.end, 7), s.parent, s.request,
             s.phase, s.size]
            for s in self.spans
        ]


def _tokens(result, args, kwargs):
    return len(result.tokens)


def _sequence_bytes(result, args, kwargs):
    return 0 if result.sequence is None else result.sequence.nbytes


def _dataset_sequence_bytes(result, args, kwargs):
    pooled, sequences = result
    return 0 if sequences is None else sequences.nbytes


def _cv_fits(result, args, kwargs):
    return sum(len(fold_rmses) for _, fold_rmses, _ in result.table)


def _path_bytes(result, args, kwargs):
    return os.path.getsize(args[0])


def _training_rows(result, args, kwargs):
    return args[1].shape[0] if kwargs.get("training") else 0


def _epochs(result, args, kwargs):
    return len(result.train_loss)


# (module, attribute path, span name, size function)
TARGETS = [
    ("cgrader.synth", "synthesize_with_plans", "synth", None),
    ("cgrader.corpus", "load_dataset", "corpus.load", None),
    ("cgrader.clex", "tokenize", "clex.tokenize", _tokens),
    ("cgrader.embed", "TfIdfProvider.fit", "embed.fit", None),
    ("cgrader.embed", "TfIdfProvider.embed_code", "embed.code", _sequence_bytes),
    ("cgrader.pipeline", "embed_dataset", "embed.rows", _dataset_sequence_bytes),
    ("cgrader.tabular", "grid_search_cv", "tabular.cv", _cv_fits),
    ("cgrader.tabular", "tree_fit", "tabular.tree_fit", None),
    ("cgrader.tabular", "tree_predict", "tabular.tree_predict", None),
    ("cgrader.tabular", "rf_fit", "tabular.rf_fit", None),
    ("cgrader.tabular", "rf_predict", "tabular.rf_predict", None),
    ("cgrader.tabular", "gbt_fit", "tabular.gbt_fit", None),
    ("cgrader.tabular", "gbt_predict", "tabular.gbt_predict", None),
    ("cgrader.tabular", "ridge_fit", "tabular.ridge_fit", None),
    ("cgrader.tabular", "ridge_predict", "tabular.ridge_predict", None),
    ("cgrader.tabular", "knn_fit", "tabular.knn_fit", None),
    ("cgrader.tabular", "knn_predict", "tabular.knn_predict", None),
    ("cgrader.neural", "train", "neural.train", _epochs),
    ("cgrader.neural", "CnnRegressor.forward", "neural.cnn.forward", _training_rows),
    ("cgrader.neural", "CnnRegressor.backward", "neural.cnn.backward", None),
    ("cgrader.neural", "LstmRegressor.forward", "neural.lstm.forward", _training_rows),
    ("cgrader.neural", "LstmRegressor.backward", "neural.lstm.backward", None),
    ("cgrader.neural", "Adam.step", "neural.adam", None),
    ("cgrader.hybrid", "hybrid_fit", "hybrid.fit", None),
    ("cgrader.hybrid", "hybrid_predict", "hybrid.predict", None),
    ("cgrader.persist", "save_model", "persist.save", _path_bytes),
    ("cgrader.persist", "load_model", "persist.load", _path_bytes),
]

# (span name, enclosing span name) -> name used instead.
# A row embedded inside a batch is "embed.row"; "embed.code" is a lone file.
RENAMES = {
    ("tabular.rf_fit", "hybrid.fit"): "hybrid.head_fit",
    ("embed.code", "embed.rows"): "embed.row",
}


def _wrap(tracer, fn, name, size):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, size)

    return wrapper


def instrument(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    import cgrader.cli  # noqa: F401  (loads every module that holds references)

    undo = []
    replaced = {}
    for module_name, path, name, size in TARGETS:
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, raw.__func__, name, size))
        else:
            wrapped = _wrap(tracer, raw, name, size)
            replaced[id(raw)] = (raw, wrapped)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, raw))
    # Functions imported by name (`from .tabular import rf_fit`) live on in
    # other modules' globals; point those at the wrappers too.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("cgrader"):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))

    def restore():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops: int, ops_wall_s: float,
                  grade_phase: str) -> dict[str, float]:
    """Per-layer metrics per operation of the "main" phase.

    `.s` values are self times. The `grade.{load,embed,predict}.ms_p50`
    values are medians over the grade requests of `grade_phase`, each the
    summed top-level spans of that part of one request.
    """
    calls, own, total, size = {}, {}, {}, {}
    top = 0.0
    requests: dict[int, list[float]] = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        if span.phase == "main":
            calls[span.name] = calls.get(span.name, 0) + 1
            own[span.name] = own.get(span.name, 0.0) + self_s
            total[span.name] = total.get(span.name, 0.0) + span.duration
            size[span.name] = size.get(span.name, 0.0) + span.size
            if span.parent < 0:
                top += span.duration
        if (span.phase == grade_phase and span.request is not None
                and span.parent < 0):
            parts = requests.setdefault(span.request, [0.0, 0.0, 0.0])
            if span.name == "persist.load":
                parts[0] += span.duration
            elif span.name.startswith(("embed.", "clex.")):
                parts[1] += span.duration
            else:
                parts[2] += span.duration

    def per_op(table, *names):
        return sum(table.get(name, 0) for name in names) / ops

    train_s = total.get("neural.train", 0.0)
    trained_rows = size.get("neural.cnn.forward", 0) + size.get("neural.lstm.forward", 0)
    metrics = {
        "clex.tokenize.calls": per_op(calls, "clex.tokenize"),
        "clex.tokenize.s": per_op(own, "clex.tokenize"),
        "clex.tokens": per_op(size, "clex.tokenize"),
        "embed.fit.s": per_op(own, "embed.fit"),
        "embed.rows": per_op(calls, "embed.code", "embed.row"),
        "embed.rows.s": per_op(own, "embed.rows", "embed.row", "embed.code"),
        "embed.seq_tensor_mb": per_op(size, "embed.rows", "embed.code") / 1e6,
        "tabular.cv.s": per_op(own, "tabular.cv"),
        "tabular.cv.total_s": per_op(total, "tabular.cv"),
        "tabular.cv.fits": per_op(size, "tabular.cv"),
        "tabular.tree_fit.calls": per_op(calls, "tabular.tree_fit"),
        "tabular.tree_fit.s": per_op(own, "tabular.tree_fit"),
        "tabular.tree_predict.calls": per_op(calls, "tabular.tree_predict"),
        "tabular.tree_predict.s": per_op(own, "tabular.tree_predict"),
        "tabular.rf_fit.s": per_op(own, "tabular.rf_fit"),
        "tabular.gbt_fit.s": per_op(own, "tabular.gbt_fit"),
        "tabular.ridge_fit.s": per_op(own, "tabular.ridge_fit"),
        "tabular.knn_predict.s": per_op(own, "tabular.knn_predict"),
        "neural.train.total_s": per_op(total, "neural.train"),
        "neural.cnn.forward.s": per_op(own, "neural.cnn.forward"),
        "neural.cnn.backward.s": per_op(own, "neural.cnn.backward"),
        "neural.lstm.forward.s": per_op(own, "neural.lstm.forward"),
        "neural.lstm.backward.s": per_op(own, "neural.lstm.backward"),
        "neural.adam.s": per_op(own, "neural.adam"),
        "neural.epochs": per_op(size, "neural.train"),
        "neural.steps": per_op(calls, "neural.adam"),
        "neural.samples_per_s": trained_rows / train_s if train_s else 0.0,
        "hybrid.fit.s": per_op(own, "hybrid.fit"),
        "hybrid.fit.total_s": per_op(total, "hybrid.fit"),
        "hybrid.head_fit.s": per_op(own, "hybrid.head_fit"),
        "hybrid.predict.s": per_op(own, "hybrid.predict"),
        "persist.save.s": per_op(own, "persist.save"),
        "persist.save.bytes": per_op(size, "persist.save"),
        "persist.load.s": per_op(own, "persist.load"),
        "persist.load.bytes": per_op(size, "persist.load"),
        "trace.coverage": top / ops_wall_s,
    }
    for i, part in enumerate(("load", "embed", "predict")):
        metrics[f"grade.{part}.ms_p50"] = _median(
            [parts[i] * 1e3 for parts in requests.values()])
    return metrics


def setup_metrics(tracer: Tracer, setups: int) -> dict[str, float]:
    """synth.s and corpus.load.s: median over set-up repetitions."""
    per_setup = [[0.0, 0.0] for _ in range(setups)]
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        index = int(span.phase.removeprefix("setup"))
        if span.name == "synth":
            per_setup[index][0] += self_s
        elif span.name == "corpus.load":
            per_setup[index][1] += self_s
    return {
        "synth.s": _median([s[0] for s in per_setup]),
        "corpus.load.s": _median([s[1] for s in per_setup]),
    }
