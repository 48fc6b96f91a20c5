"""The names the benchmark hooks into must keep resolving.

``bench/tracer.py`` wraps noisemix functions and methods by name, and
``bench/child.py`` replaces ``experiment.run_session``; a rename or a loop
that bypasses the module global would silently drop those probes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from noisemix import experiment
from noisemix.config import RunConfig

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracer = load_tracer()
    for module, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"noisemix.{module}"), attr, None)), (module, attr)


def test_traced_methods_resolve():
    tracer = load_tracer()
    for module, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"noisemix.{module}"), cls_name, None)
        assert cls is not None, (module, cls_name)
        assert callable(getattr(cls, attr, None)), (module, cls_name, attr)


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


@pytest.mark.parametrize("entry", ["ablation", "sweep"])
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
        experiment.run_sweep(tiny_cfg(), "tau", [1.0, 2.0], out_dir=tmp_path)
    assert calls == [1, 2, 1, 2]
