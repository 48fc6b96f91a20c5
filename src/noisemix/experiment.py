"""Experiment orchestration: full runs, and ablations, sweeps and multi-seed
batches as presets of one run planner."""

from __future__ import annotations

import copy
import string
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .config import ConfigError, RunConfig, config_hash, resolved_text, set_key
from .datastream import TaskStream, load_embedding_stream, make_synthetic_stream
from .model import ContinualModel, build_model
from .numeric import SeededRng, derive_seed
from .pinoise import MixtureStrategy
from .report import RunSummary, SessionReport, emit, render_line_chart, summarize
from .trainer import cosine_lr, run_session

# no noise, each fixed mixing strategy, then the learned mixture of the full model
ABLATION_VARIANTS = (
    "baseline",
    *(s.value for s in MixtureStrategy if s is not MixtureStrategy.LEARNED_OMEGA),
    "full",
)

SWEEP_PARAMETERS = {
    "lambda": "classifier.regularization",
    "buffer_size": "backbone.buffer_size",
    "d2": "pinoise.latent_dim",
    "tau": "pinoise.tau",
}


def build_stream(cfg: RunConfig) -> TaskStream:
    d = cfg.data
    if d.source == "embedding":
        return load_embedding_stream(d.embedding_path, d.tasks, d.class_seed)
    return make_synthetic_stream(
        num_classes=d.num_classes,
        samples_per_class=d.samples_per_class,
        dim=d.dim,
        separation=d.separation,
        overlap_classes=d.overlap_classes,
        num_tasks=d.tasks,
        seed=d.class_seed,
    )


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
    _write_csv(out / "train_log.csv", "{session},{epoch},{lr:.8f},{mean_loss:.8f}", log)
    ckpt.save_checkpoint(
        out / "checkpoint.nmcp", model, hash_, cfg.train.seed, stream.num_tasks, history=reports
    )
    manifest = out / "run.json"
    manifest.write_text(
        '{"config_hash": "%s", "stream_hash": "%s", "sessions": %d}\n'
        % (hash_, stream.content_hash(), model.sessions_completed),
        encoding="utf-8",
    )
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


def _plan(cells: list[tuple[object, RunConfig]], class_seeds: list[int], finish) -> list:
    """Run every ``(label, config)`` cell once per class-order seed and return
    ``finish(label, cfg, stream, model, reports)`` of each run, in run order.

    Every run's config is made and validated before the first run starts.
    Runs go seed-major, the cells in their order within a seed, each a fresh
    model of its config over every task of its stream. Consecutive runs with
    equal ``data`` sections share one stream. One stream and one model are
    held at a time: a run's model is dropped once ``finish`` returns, so
    ``finish`` must not keep it.
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
        results.append(finish(label, cfg, stream, model, reports))
        del model  # and the run's model before the next run builds its own
    return results


def _require_distinct(what: str, values) -> None:
    if len(set(values)) != len(values):
        raise ConfigError(f"duplicate {what}: {list(values)}")


def _write_csv(path: Path, line: str, rows: list[dict]) -> None:
    """A header of the fields the format string ``line`` names, then ``line`` filled from each row."""
    header = ",".join(name for _, name, _, _ in string.Formatter().parse(line) if name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([header, *(line.format(**r) for r in rows)]) + "\n", encoding="utf-8")


def _variant_config(cfg: RunConfig, variant: str) -> RunConfig:
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r} (valid: {ABLATION_VARIANTS})")
    v = copy.deepcopy(cfg)
    v.pinoise.enabled = variant != "baseline"
    if v.pinoise.enabled:
        v.pinoise.strategy = MixtureStrategy.LEARNED_OMEGA.value if variant == "full" else variant
    return v


def _pct_stats(summaries: list[RunSummary]) -> dict:
    """Mean and sample standard deviation of both accuracies in percent, 0 deviation for one run."""
    stats = {}
    for name, attr in (("avg", "average_accuracy"), ("last", "last_accuracy")):
        fractions = [getattr(s, attr) for s in summaries]
        stats[f"{name}_pct_mean"] = 100.0 * float(np.mean(fractions))
        stats[f"{name}_pct_std"] = 100.0 * float(np.std(fractions, ddof=1)) if len(fractions) > 1 else 0.0
    return stats


def run_ablation(
    cfg: RunConfig,
    variants: list[str] | None = None,
    class_seeds: list[int] | None = None,
    *,
    out_dir: str | Path,
) -> list[dict]:
    """Run every variant on one stream per class-order seed and emit a comparative CSV.

    With several class-order seeds each variant is run once per seed and the
    table reports mean and sample standard deviation of both metrics. Every
    variant name is checked before the first run starts.
    """
    variants = list(variants) if variants else list(ABLATION_VARIANTS)
    if len(variants) < 2:
        raise ValueError("ablation needs at least 2 variants")
    _require_distinct("variants", variants)
    seeds = class_seeds or [cfg.data.class_seed]
    cells = [(variant, _variant_config(cfg, variant)) for variant in variants]

    def summary(variant, vcfg, stream, model, reports):
        return variant, summarize(reports, config_hash(vcfg))

    summaries = {variant: [] for variant in variants}
    for variant, run in _plan(cells, seeds, summary):
        summaries[variant].append(run)
    rows = [{"variant": variant, "seeds": len(seeds), **_pct_stats(runs)} for variant, runs in summaries.items()]

    _write_csv(
        Path(out_dir) / "ablation.csv",
        "{variant},{seeds},{avg_pct_mean:.2f},{avg_pct_std:.2f},{last_pct_mean:.2f},{last_pct_std:.2f}",
        rows,
    )
    return rows


def trainable_param_count(cfg: RunConfig, stream: TaskStream, task_index: int = 1) -> int:
    """Parameters trained in session ``task_index`` of ``stream``.

    The newest generator of every layer and the auxiliary classifier over
    the classes seen so far; under learned-omega also the mix weights (the
    groups of :func:`trainer.collect_trainable`).
    """
    p = cfg.pinoise
    if not p.enabled:
        return 0
    depth = cfg.backbone.depth
    classes = sum(len(task.class_set) for task in stream.tasks[:task_index])
    count = depth * 2 * p.latent_dim * (p.latent_dim + 1) + cfg.backbone.buffer_size * classes
    if MixtureStrategy(p.strategy) is MixtureStrategy.LEARNED_OMEGA:
        count += task_index * depth
    return count


def run_sweep(
    cfg: RunConfig,
    parameter: str,
    values: list[float],
    out_dir: str | Path,
) -> list[dict]:
    """One full run per value of a single hyperparameter, all on one stream.

    Every value's config is validated before the first run starts.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r} (valid: {sorted(SWEEP_PARAMETERS)})")
    if not values:
        raise ValueError("sweep needs at least one value")
    integral = parameter in ("buffer_size", "d2")
    if integral and not all(float(v).is_integer() for v in values):
        raise ConfigError(f"sweep values of {parameter} must be integers, got {list(values)}")
    _require_distinct(f"sweep values of {parameter}", values)
    cells = []
    for value in values:
        vcfg = copy.deepcopy(cfg)
        set_key(vcfg, SWEEP_PARAMETERS[parameter], str(int(value)) if integral else str(value))
        cells.append((value, vcfg))

    def row(value, vcfg, stream, model, reports):
        summary = summarize(reports, config_hash(vcfg))
        return {
            "parameter": parameter,
            "value": value,
            "avg_pct": 100.0 * summary.average_accuracy,
            "last_pct": 100.0 * summary.last_accuracy,
            "trainable_params": trainable_param_count(vcfg, stream),
        }

    rows = _plan(cells, [cfg.data.class_seed], row)  # no sweep parameter is a data.* key
    out = Path(out_dir)
    _write_csv(out / f"sweep_{parameter}.csv", "{parameter},{value},{avg_pct:.2f},{last_pct:.2f},{trainable_params}", rows)
    points = [(float(r["value"]), r["avg_pct"]) for r in rows]
    svg = render_line_chart(
        parameter,
        points,
        x_label=parameter,
        y_label="average accuracy (%)",
        annotation=f"sweep {parameter}",
    )
    (out / f"sweep_{parameter}.svg").write_text(svg, encoding="utf-8")
    return rows


def run_multi_seed(cfg: RunConfig, class_seeds: list[int], out_dir: str | Path) -> dict:
    """Independent full runs over class-order seeds, each writing a single
    run's artifacts into ``seed_<seed>/`` as it ends, aggregated mean and std."""
    out = Path(out_dir)

    def write(_, scfg, stream, model, reports):
        return _write_run(out / f"seed_{scfg.data.class_seed}", scfg, stream, model, reports)

    summaries = _plan([("", cfg)], class_seeds, write)
    agg = {"seeds": class_seeds, **_pct_stats(summaries)}
    rows = [
        {"seed": seed, "avg_pct": 100.0 * s.average_accuracy, "last_pct": 100.0 * s.last_accuracy}
        for seed, s in zip(class_seeds, summaries)
    ]
    _write_csv(out / "seeds.csv", "{seed},{avg_pct:.2f},{last_pct:.2f}", rows)
    return agg
