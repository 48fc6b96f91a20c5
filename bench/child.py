"""One run of one workload, in a fresh process started by ``run.py``.

Imports noisemix from the checkout's ``src``, optionally installs the
tracer, runs the workload's entry point, checks its outputs against
computations made apart from the program, and writes one JSON result file.
Check work is paused out of the tracer and subtracted from ``run_s``.

    python3 bench/child.py --workload desk --seed 1 --out DIR --result FILE [--trace | --setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ARTIFACTS = {"ablation-overlap": ("ablation.csv",)}
TRAINING_ARTIFACTS = ("accuracy.csv", "summary.json")
ABLATION_SEEDS = 3
EVAL_BATCH = 512  # noisemix.report evaluates test rows in batches of this size
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def class_seeds(seed: int, count: int = 1) -> list[int]:
    """Class-order seeds for a benchmark seed, clear of the 1993-2002 acceptance set."""
    return [100_000 + 16 * seed + j for j in range(count)]


def overrides(workload: str, seed: int, csv: str | None) -> list[str]:
    common = [f"data.class_seed={class_seeds(seed)[0]}"]
    return common + {
        "desk": [],
        "wide-buffer": ["backbone.buffer_size=8192", "pinoise.latent_dim=192", "train.epochs=1"],
        "ablation-overlap": [
            "data.overlap_classes=8", "data.samples_per_class=30", "backbone.buffer_size=512",
        ],
        "embedding-20task": [
            "data.source=embedding", f"data.embedding_path={csv}", "data.tasks=20",
            "backbone.buffer_size=512",
            "train.epochs=3",  # a run near 13 s, so that three fit in one invocation
        ],
    }[workload]


class SetupDone(Exception):
    """Raised at the first session of a run that measures set-up only."""


class Probe:
    """Wraps ``run_session`` to mark the set-up/run boundary and gather check data.

    After each session it re-extracts that task's training features; after a
    model's last session it runs the ridge, accuracy and frozen-parameter
    checks. Its own time is kept in ``check_s`` and the tracer is paused
    meanwhile.
    """

    def __init__(self, checks, tracer, setup_only: bool):
        from noisemix.numeric import SeededRng, derive_seed

        self.checks, self.tracer, self.setup_only = checks, tracer, setup_only
        self.SeededRng, self.derive_seed = SeededRng, derive_seed
        self.first_start: float | None = None
        self.check_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.models: dict[int, dict] = {}
        self.finished: dict[tuple[int, str], tuple] = {}  # (stream seed, variant) -> outcome
        self.stream = None  # the first stream seen
        self.state_bytes = 0
        self.ridge_error = 0.0

    def wrap(self, run_session):
        def probed(model, stream, cfg, rng):
            start = time.perf_counter()
            if self.first_start is None:
                self.first_start = start
            if self.setup_only:
                raise SetupDone
            self.attempted += 1
            with self._checking():
                state = self.models.get(id(model))
                if state is None:
                    state = self.models[id(model)] = {
                        "model": model,  # held so that id(model) stays unique while tracked
                        "frozen": model.frozen_param_hash(),
                        "ridge": self.checks.RidgeReference(model.classifier.regularization),
                        "reports": [],
                    }
                    if self.stream is None:
                        self.stream = stream
            report = run_session(model, stream, cfg, rng)
            with self._checking():
                self._after_session(model, stream, report, rng, state)
            return report

        return probed

    @contextlib.contextmanager
    def _checking(self):
        start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
            self.check_s += time.perf_counter() - start

    def _after_session(self, model, stream, report, session_rng, state) -> None:
        task = stream.tasks[report.task_index - 1]
        x, y = task.train_arrays()
        # the random-task mean path picks a generator from the rng the session's
        # classifier update used, so the re-extraction takes that same rng
        feats = model.features(x, rng=session_rng.split("clf-final"), eval_mode=True)
        state["ridge"].add(feats, y, task.class_set)
        state["reports"].append(report)
        if report.task_index == stream.num_tasks:
            del self.models[id(model)]
            try:
                self._finish(model, stream, state)
            except self.checks.CheckFailed as exc:
                self.failures.append(f"stream {stream.seed}, {_variant(model)}: {exc}")

    def _finish(self, model, stream, state) -> None:
        clf = model.classifier
        self.state_bytes = max(self.state_bytes, clf.gram_inv.nbytes + clf.weights.nbytes)
        ref, rel = self.checks.check_ridge(clf.weights, clf.classes_seen, state["ridge"])
        self.ridge_error = max(self.ridge_error, rel)
        last = state["reports"][-1]

        def test_batches():  # with the evaluation's own batches and draws, as for the ridge check
            eval_rng = self.SeededRng(self.derive_seed(model.eval_seed, "session", last.task_index))
            for i, task in enumerate(stream.tasks[: last.task_index]):
                x, y = task.test_arrays()
                for start in range(0, len(y), EVAL_BATCH):
                    xb, yb = x[start : start + EVAL_BATCH], y[start : start + EVAL_BATCH]
                    yield model.features(xb, rng=eval_rng.split("batch", i, start), eval_mode=True), yb

        self.checks.check_accuracy(last.accuracy_seen, last.n_test, test_batches(), ref, clf.classes_seen)
        if model.frozen_param_hash() != state["frozen"]:
            raise self.checks.CheckFailed("frozen parameters changed during the run")
        accuracies = tuple(r.accuracy_seen for r in state["reports"])
        self.finished[(stream.seed, _variant(model))] = (clf.weights.tobytes(), accuracies)


def _variant(model) -> str:
    return "baseline" if model.layers is None else model.strategy.value


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        deps = config.get("Build Dependencies", {})
        return {k: {f: deps[k].get(f) for f in ("name", "version")} for k in ("blas", "lapack") if k in deps}

    with open("/proc/self/maps", encoding="utf-8") as fh:  # the libraries actually mapped
        paths = {line.split()[-1] for line in fh if "/" in line}
    loaded = sorted(p for p in paths if any(t in Path(p).name for t in ("openblas", "mkl", "blis", "gfortran")))
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_libraries_loaded": loaded,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "address_space_limit": None if limit == resource.RLIM_INFINITY else limit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--csv")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import noisemix
    from noisemix import experiment
    from noisemix.config import RunConfig, apply_overrides

    if not Path(noisemix.__file__).resolve().is_relative_to(SRC):
        print(f"noisemix imported from {noisemix.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    import checks

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    probe = Probe(checks, tracer, args.setup_only)
    experiment.run_session = probe.wrap(experiment.run_session)

    cfg = apply_overrides(RunConfig(), overrides(args.workload, args.seed, args.csv))
    try:
        if args.workload == "ablation-overlap":
            rows = experiment.run_ablation(
                cfg, class_seeds=class_seeds(args.seed, ABLATION_SEEDS), out_dir=args.out
            )
            full = next(r for r in rows if r["variant"] == "full")
            mean_pct, final_pct = full["avg_pct_mean"], full["last_pct_mean"]
        else:
            summary = experiment.run_training(cfg, out_dir=args.out)
            mean_pct, final_pct = 100.0 * summary.average_accuracy, 100.0 * summary.last_accuracy
    except SetupDone:
        Path(args.result).write_text(json.dumps({"setup_s": probe.first_start - t_import}), encoding="utf-8")
        return 0
    t_end = time.perf_counter()

    failures = list(probe.failures)
    if probe.models:
        failures.append(f"{len(probe.models)} model(s) did not finish their stream")
    for seed in {s for s, _ in probe.finished}:
        baseline, sigma = probe.finished.get((seed, "baseline")), probe.finished.get((seed, "sigma-only"))
        if baseline is not None and sigma is not None and baseline != sigma:
            failures.append(f"stream {seed}: sigma-only differs from baseline")
    expected = len(experiment.ABLATION_VARIANTS) * ABLATION_SEEDS
    if args.workload == "ablation-overlap" and len(probe.finished) != expected:
        failures.append(f"{len(probe.finished)} ablation models checked, expected {expected}")
    if args.workload == "embedding-20task":
        import gen_embedding

        labels, values = gen_embedding.generate(args.seed)
        n_tests = [a.get("n_test") for a in json.loads(Path(args.out, "summary.json").read_text())["reports"]]
        try:
            checks.check_coverage(probe.stream.tasks, labels, values, n_tests)
        except checks.CheckFailed as exc:
            failures.append(f"coverage: {exc}")

    names = ARTIFACTS.get(args.workload, TRAINING_ARTIFACTS)
    result = {
        "setup_s": probe.first_start - t_import,
        "run_s": t_end - probe.first_start - probe.check_s,
        "check_s": probe.check_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_accuracy_pct": mean_pct,
        "final_accuracy_pct": final_pct,
        "attempted": probe.attempted,
        "failures": failures,
        "ridge_rel_error": probe.ridge_error,
        "artifacts": {n: hashlib.sha256(Path(args.out, n).read_bytes()).hexdigest() for n in names},
        "environment": environment(),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, probe.state_bytes)
        tracer.write(Path(args.out).with_suffix(".spans.json"))
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
