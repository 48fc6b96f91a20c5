"""The names the benchmark hooks into must keep resolving.

``bench/tracer.py`` wraps noisemix functions and methods by name, and
``bench/child.py`` replaces ``experiment.run_session``; a rename or a loop
that bypasses the module global would silently drop those probes, and so
would a call path rerouted around a wrapped function. The overrides
``bench/child.py`` sets for each workload in ``BENCHMARK.json`` must keep
giving a valid config, so a renamed or tightened key fails here first.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noisemix import experiment
from noisemix.config import RunConfig, apply_overrides
from noisemix.model import build_model

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
TRACER_PATH = BENCH_DIR / "tracer.py"
WORKLOADS = [w["name"] for w in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["workloads"]]


def load_bench(stem):
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", BENCH_DIR / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracer = load_bench("tracer")
    for module, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"noisemix.{module}"), attr, None)), (module, attr)


def test_traced_methods_resolve():
    tracer = load_bench("tracer")
    for module, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"noisemix.{module}"), cls_name, None)
        assert cls is not None, (module, cls_name)
        assert callable(getattr(cls, attr, None)), (module, cls_name, attr)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_configs_validate(workload, tmp_path, monkeypatch):
    # child.py imports its sibling as ``tracer``; that name is given the loaded file for this test only
    monkeypatch.setitem(sys.modules, "tracer", load_bench("tracer"))
    child = load_bench("child")
    cfg = apply_overrides(RunConfig(), child.overrides(workload, 1, str(tmp_path / "embedding.csv")))
    cfg.validate()
    if workload in ("desk", "wide-buffer"):
        stream = experiment.build_stream(cfg)
        model = build_model(cfg, stream.feature_dim)
        assert model.classifier.feature_dim == cfg.backbone.buffer_size


def test_benchmark_negative_controls_hold(tmp_path, monkeypatch):
    # selftest.py imports its siblings by bare name and puts src/ on sys.path; both are undone after
    monkeypatch.setattr(sys, "path", list(sys.path))
    for stem in ("checks", "gen_embedding"):
        monkeypatch.setitem(sys.modules, stem, load_bench(stem))
    selftest = load_bench("selftest")
    assert selftest.ridge_controls(16, 5) + selftest.ridge_controls(4, 7) + selftest.coverage_controls(tmp_path) == []


def tiny_cfg():
    cfg = RunConfig()
    cfg.data.num_classes = 4
    cfg.data.tasks = 2
    cfg.data.samples_per_class = 10
    cfg.data.dim = 8
    cfg.backbone.feature_dim = 8
    cfg.backbone.depth = 2
    cfg.backbone.buffer_size = 16
    cfg.pinoise.latent_dim = 4
    cfg.train.epochs = 1
    cfg.validate()
    return cfg


@pytest.mark.parametrize("entry", ["ablation", "grid"])
def test_session_loops_call_the_module_global(entry, tmp_path, monkeypatch):
    calls = []
    original = experiment.run_session

    def probe(model, stream, cfg, rng):
        calls.append(model.sessions_completed + 1)
        return original(model, stream, cfg, rng)

    monkeypatch.setattr(experiment, "run_session", probe)
    if entry == "ablation":
        experiment.run_ablation(tiny_cfg(), ["baseline", "full"], out_dir=tmp_path)
    else:
        experiment.run_grid(tiny_cfg(), [("pinoise.tau", ["1.0", "2.0"])], [1993], tmp_path)
    assert calls == [1, 2, 1, 2]


def test_ablation_rows_carry_the_keys_the_benchmark_child_reads(tmp_path):
    rows = experiment.run_ablation(tiny_cfg(), ["baseline", "full"], out_dir=tmp_path)
    assert [r["variant"] for r in rows] == ["baseline", "full"]
    assert all(isinstance(r["avg_pct_mean"], float) and isinstance(r["last_pct_mean"], float) for r in rows)


# Runs in a fresh interpreter: installing the tracer rebinds names in every
# imported noisemix module, which must not leak into the rest of the suite.
TRACED_RUN = """
import json, sys, importlib.util
import noisemix.cli, noisemix.experiment
from noisemix.config import RunConfig, apply_overrides

spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer_module.install(tracer)
cfg = apply_overrides(RunConfig(), [
    "data.num_classes=4", "data.samples_per_class=10", "data.dim=8", "data.tasks=2",
    "backbone.feature_dim=8", "backbone.depth=2", "backbone.buffer_size=16",
    "pinoise.latent_dim=4", "train.epochs=1",
])
noisemix.experiment.run_training(cfg, out_dir=sys.argv[2])
print(json.dumps(tracer_module.layer_metrics(tracer, 0)))
"""


def test_a_traced_training_run_reaches_every_training_probe(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACER_PATH), str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])
    probes = [
        "model.features_rows", "classifier.update_calls", "trainer.backward_s", "trainer.loss_s",
        "trainer.step_s",
    ]
    assert {name: metrics[name] for name in probes if not metrics[name] > 0} == {}
    # two sessions, each one commit over its 16 training rows (8 per class)
    assert metrics["classifier.update_calls"] == 2 and metrics["classifier.update_rows"] == 32


def test_the_benchmark_child_runs_the_desk_workload(tmp_path):
    # the package details the child relies on (features' eval_mode, layers None as the
    # baseline marker, the classifier's gram_inv, run_session looked up at call time)
    result = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), "--workload", "desk", "--seed", "1",
         "--out", str(tmp_path / "run"), "--result", str(result)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    outcome = json.loads(result.read_text())
    assert outcome["failures"] == [] and outcome["attempted"] == 5
    assert outcome["ridge_rel_error"] < 1e-8
