"""Outside-in tracer: spans and counts recorded around calls into noisemix.

Nothing inside the package is edited. :func:`install` replaces public
functions and methods with timing wrappers, in every ``noisemix`` module
namespace that holds them, so calls between modules are caught too. Spans
(name, start, end, parent) stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name); functions are replaced wherever imported.
FUNCTIONS = (
    ("datastream", "load_embedding_stream", "datastream.load"),
    ("datastream", "make_synthetic_stream", "datastream.load"),
    ("model", "forward_pass", "model.forward_pass"),
    ("pinoise", "run_layer", "pinoise.run_layer"),
    ("trainer", "backward", "trainer.backward"),
    ("trainer", "residual_loss_grads", "trainer.loss"),
    ("trainer", "direct_ce_grads", "trainer.loss"),
    ("trainer", "clip_gradients", "trainer.step"),
    ("trainer", "sgd_step", "trainer.step"),
    ("trainer", "run_session", "trainer.run_session"),
    ("report", "evaluate", "report.evaluate"),
    ("report", "emit", "report.emit"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
)
# (module, class, method, span name); a None span name only counts calls.
METHODS = (
    ("datastream", "TaskDataset", "train_arrays", "datastream.arrays"),
    ("datastream", "TaskDataset", "test_arrays", "datastream.arrays"),
    ("datastream", "TaskStream", "content_hash", "datastream.hash"),
    ("numeric", "SeededRng", "permutation", "numeric.permutation"),
    ("numeric", "SeededRng", "standard_normal", "numeric.normal_draws"),
    ("model", "ContinualModel", "features", "model.features"),
    ("pinoise", "NoiseGenerator", "mean_of", None),
    ("pinoise", "NoiseGenerator", "scale_of", None),
    ("classifier", "RidgeClassifier", "update", "classifier.update"),
    ("classifier", "RidgeClassifier", "clone", "classifier.clone"),
    ("classifier", "RidgeClassifier", "predict", "classifier.predict"),
)

MIB = float(1 << 20)


def update_flops(n: int, d: int, c: int) -> float:
    """Nominal flops of one ``RidgeClassifier.update`` on n rows, width d, c classes.

    Sample side (n <= d): Z R, P Z', Cholesky and solve of the n x n
    correction, P' X, then the weight refresh. Feature side (n > d): Z'Z,
    R G, an LU solve with d right-hand sides, then the weight refresh.
    """
    refresh = 4.0 * d * d * c + 6.0 * n * d * c
    if n <= d:
        return 4.0 * n * d * d + 4.0 * n * n * d + n**3 / 3.0 + refresh
    return 2.0 * n * d * d + 14.0 * d**3 / 3.0 + refresh


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1], plus the task index on sessions
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.paused = False
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        """Time ``fn`` as a span; ``note(args, kwargs, result, span)`` adds counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if note is not None:
                note(args, kwargs, result, spans[index])
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.paused:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[0]] += span[2] - span[1]
        return out

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus what their children cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        total = 0.0
        for i, span in enumerate(self.spans):
            if span[0] == name:
                total += (span[2] - span[1]) - _covered(children[i])
        return total


def _covered(intervals) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def _replace_everywhere(original, replacement) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "noisemix" or mod_name.startswith("noisemix."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of the imported noisemix modules."""
    counts = tracer.counts
    mod = lambda name: importlib.import_module(f"noisemix.{name}")

    def features_note(args, kwargs, result, span):
        counts["model.features_rows"] += len(args[1])

    def forward_name(args, kwargs):
        return "model.forward_train" if kwargs.get("collect") else "model.forward_pass"

    def forward_note(args, kwargs, result, span):
        if kwargs.get("collect"):
            counts["model.forward_train_rows"] += len(args[1])

    def update_note(args, kwargs, result, span):
        clf, feats = args[0], args[1]
        n, d = feats.shape
        counts["classifier.update_rows"] += n
        counts["classifier.update_flops"] += update_flops(n, d, clf.num_classes)

    def load_note(args, kwargs, result, span):
        counts["datastream.rows"] += sum(len(t.train) + len(t.test) for t in result.tasks)

    def save_note(args, kwargs, result, span):
        counts["checkpoint.bytes"] += os.path.getsize(args[0])

    def session_note(args, kwargs, result, span):
        span.append(result.task_index)

    def evaluate_note(args, kwargs, result, span):
        counts["report.evaluate_rows"] += result.n_test

    notes = {
        "datastream.load": load_note,
        "model.forward_pass": forward_note,
        "model.features": features_note,
        "classifier.update": update_note,
        "checkpoint.save": save_note,
        "trainer.run_session": session_note,
        "report.evaluate": evaluate_note,
    }
    for module, attr, name in FUNCTIONS:
        original = getattr(mod(module), attr)
        label = forward_name if name == "model.forward_pass" else name
        _replace_everywhere(original, tracer.wrap(label, original, notes.get(name)))
    for module, cls_name, attr, name in METHODS:
        cls = getattr(mod(module), cls_name)
        original = getattr(cls, attr)
        if name is None:
            setattr(cls, attr, tracer.counter("pinoise.generator_evals", original))
        else:
            setattr(cls, attr, tracer.wrap(name, original, notes.get(name)))


def layer_metrics(tracer: Tracer, state_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced run, keyed by the names in BENCHMARK.json."""
    t, c = tracer.totals(), tracer.counts
    sessions = [s for s in tracer.spans if s[0] == "trainer.run_session"]
    first = [s[2] - s[1] for s in sessions if s[4] == 1]
    last_index = max((s[4] for s in sessions), default=0)
    last = [s[2] - s[1] for s in sessions if s[4] == last_index]
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    ratio = lambda a, b: a / b if b else 0.0
    return {
        "datastream.load_s": t["datastream.load"],
        "datastream.rows_per_s": ratio(c["datastream.rows"], t["datastream.load"]),
        "datastream.arrays_s": t["datastream.arrays"],
        "datastream.hash_s": t["datastream.hash"],
        "numeric.permutation_s": t["numeric.permutation"],
        "numeric.normal_draws_s": t["numeric.normal_draws"],
        "model.forward_train_s": t["model.forward_train"],
        "model.forward_train_rows": c["model.forward_train_rows"],
        "model.features_s": t["model.features"],
        "model.features_rows": c["model.features_rows"],
        "pinoise.run_layer_s": t["pinoise.run_layer"],
        "pinoise.run_layer_calls": sum(1 for s in tracer.spans if s[0] == "pinoise.run_layer"),
        "pinoise.generator_evals": c["pinoise.generator_evals"],
        "trainer.backward_s": t["trainer.backward"],
        "trainer.loss_s": t["trainer.loss"],
        "trainer.step_s": t["trainer.step"],
        "trainer.session_self_s": tracer.self_time("trainer.run_session"),
        "trainer.first_session_s": mean(first),
        "trainer.last_session_s": mean(last),
        "classifier.update_s": t["classifier.update"],
        "classifier.update_calls": sum(1 for s in tracer.spans if s[0] == "classifier.update"),
        "classifier.update_rows": c["classifier.update_rows"],
        "classifier.update_gflops": ratio(c["classifier.update_flops"], t["classifier.update"]) / 1e9,
        "classifier.clone_s": t["classifier.clone"],
        "classifier.state_mb": state_bytes / MIB,
        "classifier.predict_s": t["classifier.predict"],
        "report.evaluate_s": t["report.evaluate"],
        "report.evaluate_rows": c["report.evaluate_rows"],
        "report.emit_s": t["report.emit"],
        "checkpoint.save_s": t["checkpoint.save"],
        "checkpoint.mb": c["checkpoint.bytes"] / MIB,
    }
