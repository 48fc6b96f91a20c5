"""Grids and ablations run through one planner, which builds each stream
once, runs every cell on it and holds one model at a time."""

import gc
import weakref

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


def test_sigma_only_ablation_row_equals_baseline(tmp_path):
    # sigma-only moves no mean, and evaluation and the commit follow the mean
    # path, so its row is the baseline's to the last bit; average, trained on
    # the same loss, shows the noise is live at this size
    cfg = tiny_cfg()
    cfg.data.overlap_classes, cfg.data.samples_per_class, cfg.backbone.buffer_size = 4, 20, 32
    cfg.train.epochs, cfg.train.batch_size = 3, 8
    rows = experiment.run_ablation(cfg, ["baseline", "sigma-only", "average"], class_seeds=[5, 6], out_dir=tmp_path)
    baseline, sigma_only, average = ({k: v for k, v in row.items() if k != "variant"} for row in rows)
    assert sigma_only == baseline and average != baseline
    lines = (tmp_path / "ablation.csv").read_text().splitlines()
    assert lines[1].split(",")[1:] == lines[2].split(",")[1:]


def test_grid_over_a_key_builds_one_stream(tmp_path, spies):
    built, sessions = spies
    experiment.run_grid(tiny_cfg(), [("pinoise.tau", ["1.0", "2.0", "4.0"])], [5], tmp_path)
    assert len(built) == 1
    assert len(sessions) == 6 and all(stream is built[0] for stream, _ in sessions)


# data.tasks is given last and still runs outermost, so its two values make two streams per seed
GRID_AXES = [("variant", ["baseline", "full"]), ("data.tasks", ["2", "4"])]


def test_grid_builds_one_stream_per_data_section_per_seed(tmp_path, spies):
    built, sessions = spies
    experiment.run_grid(tiny_cfg(), GRID_AXES, [5, 6], tmp_path)
    assert [(s.seed, s.num_tasks) for s in built] == [(5, 2), (5, 4), (6, 2), (6, 4)]
    # per seed: baseline then full on the 2-task stream, then both on the 4-task stream
    expected = [(id(stream), stream.seed) for stream in built for _ in range(2 * stream.num_tasks)]
    assert [(id(stream), seed) for stream, seed in sessions] == expected


def test_grid_csv_headers_name_the_axes_verbatim(tmp_path):
    rows = experiment.run_grid(tiny_cfg(), GRID_AXES, [5, 6], tmp_path)
    assert [(r["data.tasks"], r["variant"], r["seeds"]) for r in rows] == [
        ("2", "baseline", 2), ("2", "full", 2), ("4", "baseline", 2), ("4", "full", 2)
    ]
    grid = (tmp_path / "grid.csv").read_text().splitlines()
    assert grid[0] == "data.tasks,variant,seeds,avg_pct_mean,avg_pct_std,last_pct_mean,last_pct_std"
    assert grid[1].startswith("2,baseline,2,")
    runs = (tmp_path / "runs.csv").read_text().splitlines()
    assert runs[0] == "data.tasks,variant,class_seed,avg_pct,last_pct" and len(runs) == 1 + 8
    assert runs[1].startswith("2,baseline,5,") and runs[-1].startswith("4,full,6,")


def test_grid_applies_the_variant_before_the_keys(tmp_path, monkeypatch):
    # a key axis over the strategy overrides the strategy the variant sets
    ran, run_session = [], experiment.run_session

    def spy_session(model, stream, cfg, rng):
        ran.append((cfg.pinoise.enabled, cfg.pinoise.strategy))
        return run_session(model, stream, cfg, rng)

    monkeypatch.setattr(experiment, "run_session", spy_session)
    experiment.run_grid(tiny_cfg(), [("variant", ["full"]), ("pinoise.strategy", ["average"])], [5], tmp_path)
    assert ran == [(True, "average")] * 2


@pytest.mark.parametrize("preset", ["ablate", "grid"])
def test_planner_holds_one_model_at_a_time(preset, tmp_path, monkeypatch):
    built = []
    build_model = experiment.build_model

    def spy_build(cfg, input_dim):
        gc.collect()
        assert [ref() for ref in built if ref() is not None] == [], "an earlier model is still alive"
        model = build_model(cfg, input_dim)
        built.append(weakref.ref(model))
        return model

    monkeypatch.setattr(experiment, "build_model", spy_build)
    if preset == "ablate":
        experiment.run_ablation(tiny_cfg(), ["baseline", "full"], class_seeds=[5, 6], out_dir=tmp_path)
    else:
        experiment.run_grid(tiny_cfg(), GRID_AXES, [5, 6], tmp_path)
    assert len(built) == (4 if preset == "ablate" else 8)


def test_planner_builds_one_stream_per_seed_and_data_section(monkeypatch):
    # cells a and b share data.tasks = 2 and so one stream; c has 4 tasks and its own
    built = []
    build_stream, run_session = experiment.build_stream, experiment.run_session

    def spy_build(cfg):
        gc.collect()
        assert [ref() for ref in built if ref() is not None] == [], "an earlier stream is still alive"
        stream = build_stream(cfg)
        built.append(weakref.ref(stream))
        return stream

    def spy_session(model, stream, cfg, rng):
        assert stream is built[-1]()
        assert (stream.seed, stream.num_tasks) == (cfg.data.class_seed, cfg.data.tasks)
        return run_session(model, stream, cfg, rng)

    monkeypatch.setattr(experiment, "build_stream", spy_build)
    monkeypatch.setattr(experiment, "run_session", spy_session)
    a, b, c = tiny_cfg(), tiny_cfg(), tiny_cfg()
    b.pinoise.tau = 1.0
    c.data.tasks = 4
    runs = experiment._plan(
        [("a", a), ("b", b), ("c", c)],
        [5, 6],
        lambda label, cfg, stream, model, reports: (label, cfg.data.class_seed, len(reports)),
    )
    assert runs == [("a", 5, 2), ("b", 5, 2), ("c", 5, 4), ("a", 6, 2), ("b", 6, 2), ("c", 6, 4)]
    assert len(built) == 4
