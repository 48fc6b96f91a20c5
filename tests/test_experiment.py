"""``ablate`` and ``sweep`` build each stream once and run every variant or value on it."""

import pytest

from noisemix import experiment
from noisemix.config import RunConfig


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


@pytest.fixture
def spies(monkeypatch):
    """Every stream built, and the stream and class seed of every session run."""
    built, sessions = [], []
    build_stream, run_session = experiment.build_stream, experiment.run_session

    def spy_build(cfg):
        built.append(build_stream(cfg))
        return built[-1]

    def spy_session(model, stream, cfg, rng):
        sessions.append((stream, cfg.data.class_seed))
        return run_session(model, stream, cfg, rng)

    monkeypatch.setattr(experiment, "build_stream", spy_build)
    monkeypatch.setattr(experiment, "run_session", spy_session)
    return built, sessions


def test_ablation_builds_one_stream_per_class_seed(tmp_path, spies):
    built, sessions = spies
    experiment.run_ablation(tiny_cfg(), ["baseline", "last-task", "full"], class_seeds=[5, 6], out_dir=tmp_path)
    assert [s.seed for s in built] == [5, 6]
    # seed-major: three variants of two sessions on the first stream, then on the second
    assert [(id(stream), seed) for stream, seed in sessions] == [(id(built[0]), 5)] * 6 + [(id(built[1]), 6)] * 6


def test_sweep_builds_one_stream(tmp_path, spies):
    built, sessions = spies
    experiment.run_sweep(tiny_cfg(), "tau", [1.0, 2.0, 4.0], out_dir=tmp_path)
    assert len(built) == 1
    assert len(sessions) == 6 and all(stream is built[0] for stream, _ in sessions)


def test_no_sweep_parameter_changes_the_stream():
    assert not any(key.startswith("data.") for key in experiment.SWEEP_PARAMETERS.values())

