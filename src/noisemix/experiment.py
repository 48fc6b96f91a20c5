"""Experiment orchestration: full runs, and grids of runs over config keys,
mixing variants and class-order seeds, all through one run planner."""

from __future__ import annotations

import copy
import itertools
import json
import os
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .config import ConfigError, RunConfig, apply_preset, config_hash, resolved_text, set_key
from .datastream import TaskStream, load_embedding_stream, make_synthetic_stream
from .model import ContinualModel, build_model
from .numeric import SeededRng, derive_seed
from .pinoise import MixtureStrategy
from .report import RunSummary, SessionReport, emit, summarize, write_csv
from .trainer import cosine_lr, run_session

# a grid's variants as key presets: no noise, each fixed mixing strategy, then
# the learned mixture of the full model
VARIANTS = {
    "baseline": {"pinoise.enabled": "false"},
    **{
        s.value: {"pinoise.enabled": "true", "pinoise.strategy": s.value}
        for s in MixtureStrategy
        if s is not MixtureStrategy.LEARNED_OMEGA
    },
    "full": {"pinoise.enabled": "true", "pinoise.strategy": MixtureStrategy.LEARNED_OMEGA.value},
}
ABLATION_VARIANTS = tuple(VARIANTS)

# a cell's seed count, then the mean and sample standard deviation of both accuracies
STAT_COLUMNS = {
    "seeds": "", "avg_pct_mean": ".2f", "avg_pct_std": ".2f", "last_pct_mean": ".2f", "last_pct_std": ".2f"
}


def build_stream(cfg: RunConfig) -> TaskStream:
    d = cfg.data
    if d.source == "embedding":
        return load_embedding_stream(d.embedding_path, d.tasks, d.class_seed)
    return make_synthetic_stream(d)


def run_training(
    cfg: RunConfig,
    out_dir: str | Path,
    resume_path: str | Path | None = None,
    stop_after: int | None = None,
) -> RunSummary:
    """Run all sessions of the configured stream, emitting artifacts.

    With ``resume_path`` the model state and the earlier sessions' reports are
    restored from a checkpoint (:func:`checkpoint.restore`, which refuses one
    written under another configuration) and training continues at the next
    session; ``stop_after`` halts early (the checkpoint still gets written,
    so a later resume completes the run).
    """
    cfg.validate()
    stream = build_stream(cfg)
    model = build_model(cfg, stream.feature_dim)
    earlier = [] if resume_path is None else ckpt.restore(model, resume_path, config_hash(cfg), stream)
    start_task = model.sessions_completed + 1

    last_task = stream.num_tasks if stop_after is None else min(stop_after, stream.num_tasks)
    if stop_after is not None and last_task < start_task:
        raise ConfigError(f"--stop-after {stop_after} leaves no session to run: the next one is {start_task}")
    reports = earlier + _run_sessions(model, stream, cfg, start_task, last_task)
    return _write_run(out_dir, cfg, stream, model, reports)


def _write_run(
    out_dir: str | Path, cfg: RunConfig, stream: TaskStream, model: ContinualModel, reports: list[SessionReport]
) -> RunSummary:
    """Write every artifact of one run into ``out_dir``, whole, and return its summary.

    ``train_log.csv`` holds every session's losses, a resumed run's earlier
    ones from the checkpoint history, so a resumed run writes the
    uninterrupted run's files in any directory.
    """
    hash_ = config_hash(cfg)
    summary = summarize(reports, hash_)
    out = Path(out_dir)
    emit(summary, out)
    t = cfg.train
    log = [
        {"session": r.task_index, "epoch": e, "lr": cosine_lr(e, t.epochs, t.lr_init), "mean_loss": loss}
        for r in reports
        for e, loss in enumerate(r.epoch_losses)
    ]
    write_csv(out / "train_log.csv", {"session": "", "epoch": "", "lr": ".8f", "mean_loss": ".8f"}, log)
    ckpt.save_checkpoint(
        out / "checkpoint.nmcp", model, hash_, cfg.train.seed, stream.num_tasks, history=reports
    )
    manifest = {"config_hash": hash_, "stream_hash": stream.content_hash(), "sessions": model.sessions_completed}
    (out / "run.json").write_text(json.dumps(manifest) + "\n", encoding="utf-8")
    (out / "config.resolved").write_text(resolved_text(cfg), encoding="utf-8")
    return summary


def _run_sessions(
    model: ContinualModel, stream: TaskStream, cfg: RunConfig, first: int, last: int
) -> list[SessionReport]:
    """Sessions first..last of the stream, in order, on ``model``."""
    reports = []
    for t in range(first, last + 1):
        session_rng = SeededRng(derive_seed(cfg.train.seed, "session", t))
        # looked up in this module at call time, so a replaced run_session is used
        reports.append(run_session(model, stream, cfg, session_rng))
    return reports


def _plan(
    cells: list[tuple[object, RunConfig]], class_seeds: list[int]
) -> list[tuple[object, int, RunSummary]]:
    """Run every ``(label, config)`` cell once per class-order seed and return
    ``(label, class seed, summary)`` of each run, in run order.

    Every run's config is made and validated before the first run starts.
    Runs go seed-major, the cells in their order within a seed, each a fresh
    model of its config over every task of its stream. Consecutive runs with
    equal ``data`` sections share one stream. One stream and one model are
    held at a time: a run's model is dropped once it is summarized.
    """
    if not class_seeds:
        raise ValueError("need at least one class seed")
    _require_distinct("class seeds", class_seeds)
    runs = []
    for seed in class_seeds:
        for label, cfg in cells:
            run_cfg = copy.deepcopy(cfg)
            run_cfg.data.class_seed = seed
            runs.append((label, run_cfg.validate()))
    # build_stream and build_model are looked up in this module at call time,
    # so replaced ones are used
    results, stream = [], None
    for label, cfg in runs:
        if stream is None or cfg.data != stream_data:
            stream = None  # the previous stream is freed before the next is built
            stream, stream_data = build_stream(cfg), cfg.data
        model = build_model(cfg, stream.feature_dim)
        reports = _run_sessions(model, stream, cfg, 1, stream.num_tasks)
        results.append((label, cfg.data.class_seed, summarize(reports)))
        del model  # and the run's model before the next run builds its own
    return results


def _require_distinct(what: str, values) -> None:
    if len(set(values)) != len(values):
        raise ConfigError(f"duplicate {what}: {list(values)}")


def _pct_stats(summaries: list[RunSummary]) -> dict:
    """Mean and sample standard deviation of both accuracies in percent, 0 deviation for one run."""
    stats = {}
    for name, attr in (("avg", "average_accuracy"), ("last", "last_accuracy")):
        fractions = [getattr(s, attr) for s in summaries]
        stats[f"{name}_pct_mean"] = 100.0 * float(np.mean(fractions))
        stats[f"{name}_pct_std"] = 100.0 * float(np.std(fractions, ddof=1)) if len(fractions) > 1 else 0.0
    return stats


def run_grid(
    cfg: RunConfig, axes: list[tuple[str, list[str]]], class_seeds: list[int], out_dir: str | Path
) -> list[dict]:
    """Run every cell of the axes' product once per class-order seed and emit two CSVs.

    Each axis is ``(key, values)``: a dotted config key, whose values go
    through :func:`set_key`, or ``variant``, a preset of :data:`VARIANTS`.
    The ``data.*`` axes go outermost, so the runs of one data section are
    consecutive and share a stream; in a cell the variant is applied before
    the keys. Every cell's config is made and validated before the first run.
    ``grid.csv`` has a row per cell: its axis values and :data:`STAT_COLUMNS`.
    ``runs.csv`` has a row per run: its axis values, ``class_seed``,
    ``avg_pct`` and ``last_pct``. Returns the rows of ``grid.csv``.
    """
    _require_distinct("axis keys", [key for key, _ in axes])
    for key, values in axes:
        if key == "data.class_seed":
            raise ConfigError("data.class_seed cannot be an axis: the class seeds are the grid's seeds")
        _require_distinct(f"values of {key}", values)
    axes = sorted(axes, key=lambda axis: not axis[0].startswith("data."))
    keys = [key for key, _ in axes]
    points = [dict(zip(keys, point)) for point in itertools.product(*(values for _, values in axes))]
    cells = []
    for i, point in enumerate(points):
        ccfg = copy.deepcopy(cfg)
        if "variant" in point:
            apply_preset(ccfg, VARIANTS, point["variant"], "variant")
        for key, value in point.items():
            if key != "variant":
                set_key(ccfg, key, value)
        cells.append((i, ccfg))
    runs = _plan(cells, class_seeds)
    rows = [
        {**point, "seeds": len(class_seeds), **_pct_stats([s for j, _, s in runs if j == i])}
        for i, point in enumerate(points)
    ]
    per_run = [
        {**points[i], "class_seed": seed, "avg_pct": 100.0 * s.average_accuracy, "last_pct": 100.0 * s.last_accuracy}
        for i, seed, s in runs
    ]
    out = Path(out_dir)
    axis_columns = dict.fromkeys(keys, "")
    write_csv(out / "grid.csv", {**axis_columns, **STAT_COLUMNS}, rows)
    write_csv(out / "runs.csv", {**axis_columns, "class_seed": "", "avg_pct": ".2f", "last_pct": ".2f"}, per_run)
    return rows


def run_ablation(
    cfg: RunConfig,
    variants: list[str] | None = None,
    class_seeds: list[int] | None = None,
    *,
    out_dir: str | Path,
) -> list[dict]:
    """The grid over ``variant`` alone (every variant by default, on the
    configured class seed by default), its table written as ``ablation.csv``."""
    axes = [("variant", list(variants or ABLATION_VARIANTS))]
    rows = run_grid(cfg, axes, class_seeds or [cfg.data.class_seed], out_dir)
    os.replace(Path(out_dir) / "grid.csv", Path(out_dir) / "ablation.csv")
    return rows
