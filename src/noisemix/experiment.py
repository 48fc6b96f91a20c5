"""Experiment orchestration: full runs, ablations, sweeps, multi-seed batches."""

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


def build_run_model(cfg: RunConfig, input_dim: int) -> ContinualModel:
    p, b = cfg.pinoise, cfg.backbone
    return build_model(
        input_dim=input_dim,
        feature_dim=b.feature_dim,
        depth=b.depth,
        gain=b.gain,
        buffer_size=b.buffer_size,
        latent_dim=p.latent_dim,
        regularization=cfg.classifier.regularization,
        seed=b.seed,
        with_noise=p.enabled,
        strategy=MixtureStrategy.from_string(p.strategy),
        shared_mix_weights=p.shared_omega,
        stochastic_eval=p.stochastic_eval,
    )


def run_training(
    cfg: RunConfig,
    out_dir: str | Path | None = None,
    resume_path: str | Path | None = None,
    stop_after: int | None = None,
) -> RunSummary:
    """Run all sessions of the configured stream, emitting artifacts.

    With ``resume_path`` the model state is restored from a checkpoint and
    training continues at the next session; ``stop_after`` halts early (the
    checkpoint still gets written, so a later resume completes the run). A
    ``stop_after`` that leaves no session to run is refused before the
    output directory is made.
    """
    cfg.validate()
    stream = build_stream(cfg)
    model = build_run_model(cfg, stream.feature_dim)
    hash_ = config_hash(cfg)

    start_task = 1
    earlier_reports = []
    if resume_path is not None:
        meta = ckpt.load_into(model, resume_path)
        if meta["config_hash"] != hash_:
            raise ckpt.CheckpointError("checkpoint was written by a different configuration")
        earlier_reports = ckpt.load_history(resume_path)
        start_task = model.sessions_completed + 1
        if len(earlier_reports) != model.sessions_completed:
            raise ckpt.CheckpointError("checkpoint history does not match completed sessions")

    last_task = stream.num_tasks if stop_after is None else min(stop_after, stream.num_tasks)
    if stop_after is not None and last_task < start_task:
        raise ConfigError(f"--stop-after {stop_after} leaves no session to run: the next one is {start_task}")
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "train_log.csv"
    if start_task == 1 or not log_path.exists():
        log_path.write_text("session,epoch,lr,mean_loss\n", encoding="utf-8")

    reports = _run_sessions(model, stream, cfg, start_task, last_task)
    with open(log_path, "a", encoding="utf-8") as fh:
        for report in reports:
            for epoch, loss in enumerate(report.epoch_losses):
                lr = cosine_lr(epoch, cfg.train.epochs, cfg.train.lr_init)
                fh.write(f"{report.task_index},{epoch},{lr:.8f},{loss:.8f}\n")

    reports = earlier_reports + reports
    summary = summarize(reports, hash_)
    emit(summary, out)
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


def _run_stream(cfg: RunConfig, stream: TaskStream) -> RunSummary:
    """Every session of ``stream`` on a fresh model of ``cfg``, no artifacts."""
    model = build_run_model(cfg, stream.feature_dim)
    return summarize(_run_sessions(model, stream, cfg, 1, stream.num_tasks), config_hash(cfg))


def _with_class_seed(cfg: RunConfig, seed: int) -> RunConfig:
    v = copy.deepcopy(cfg)
    v.data.class_seed = seed
    return v


def _require_distinct(what: str, values) -> None:
    if len(set(values)) != len(values):
        raise ConfigError(f"duplicate {what}: {list(values)}")


def _write_csv(path: Path, line: str, rows: list[dict]) -> None:
    """A header of the fields the format string ``line`` names, then ``line`` filled from each row."""
    header = ",".join(name for _, name, _, _ in string.Formatter().parse(line) if name)
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
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Run every variant on one stream per class-order seed and emit a comparative CSV.

    With several class-order seeds each variant is run once per seed and the
    table reports mean and sample standard deviation of both metrics. Every
    variant name is checked before the first run starts.
    """
    cfg.validate()
    variants = list(variants) if variants else list(ABLATION_VARIANTS)
    if len(variants) < 2:
        raise ValueError("ablation needs at least 2 variants")
    seeds = class_seeds or [cfg.data.class_seed]
    _require_distinct("variants", variants)
    _require_distinct("class seeds", seeds)
    plan = [_variant_config(cfg, variant) for variant in variants]
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    summaries = {variant: [] for variant in variants}
    for seed in seeds:
        seeded = [_with_class_seed(vcfg, seed) for vcfg in plan]
        stream = build_stream(seeded[0])  # variants differ in pinoise.* only
        for variant, vcfg in zip(variants, seeded):
            summaries[variant].append(_run_stream(vcfg, stream))
    rows = [{"variant": variant, "seeds": len(seeds), **_pct_stats(runs)} for variant, runs in summaries.items()]

    _write_csv(
        out / "ablation.csv",
        "{variant},{seeds},{avg_pct_mean:.2f},{avg_pct_std:.2f},{last_pct_mean:.2f},{last_pct_std:.2f}",
        rows,
    )
    return rows


def trainable_param_count(cfg: RunConfig, stream: TaskStream, task_index: int = 1) -> int:
    """Parameters trained in session ``task_index`` of ``stream``.

    The newest generator of every layer; under learned-omega also the mix
    weights and the auxiliary classifier over the classes seen so far (the
    groups of :func:`trainer.collect_trainable`).
    """
    p = cfg.pinoise
    if not p.enabled:
        return 0
    depth = cfg.backbone.depth
    count = depth * 2 * p.latent_dim * (p.latent_dim + 1)
    if MixtureStrategy.from_string(p.strategy) is MixtureStrategy.LEARNED_OMEGA:
        classes = sum(len(task.class_set) for task in stream.tasks[:task_index])
        count += task_index * (1 if p.shared_omega else depth) + cfg.backbone.buffer_size * classes
    return count


def run_sweep(
    cfg: RunConfig,
    parameter: str,
    values: list[float],
    out_dir: str | Path | None = None,
) -> list[dict]:
    """One full run per value of a single hyperparameter, all on one stream.

    Every value's config is validated and the stream is built before the
    output directory is made.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {parameter!r} (valid: {sorted(SWEEP_PARAMETERS)})")
    if not values:
        raise ValueError("sweep needs at least one value")
    integral = parameter in ("buffer_size", "d2")
    if integral and not all(float(v).is_integer() for v in values):
        raise ConfigError(f"sweep values of {parameter} must be integers, got {list(values)}")
    _require_distinct(f"sweep values of {parameter}", values)
    cfg.validate()
    configs = []
    for value in values:
        vcfg = copy.deepcopy(cfg)
        set_key(vcfg, SWEEP_PARAMETERS[parameter], str(int(value)) if integral else str(value))
        vcfg.validate()
        configs.append((value, vcfg))
    stream = build_stream(cfg)  # no sweep parameter is a data.* key
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for value, vcfg in configs:
        summary = _run_stream(vcfg, stream)
        rows.append(
            {
                "parameter": parameter,
                "value": value,
                "avg_pct": 100.0 * summary.average_accuracy,
                "last_pct": 100.0 * summary.last_accuracy,
                "trainable_params": trainable_param_count(vcfg, stream),
            }
        )

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


def run_multi_seed(
    cfg: RunConfig, class_seeds: list[int], out_dir: str | Path | None = None
) -> dict:
    """Independent full runs over class-order seeds, aggregated mean and std."""
    cfg.validate()
    if not class_seeds:
        raise ValueError("need at least one seed")
    _require_distinct("class seeds", class_seeds)
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries = [run_training(_with_class_seed(cfg, seed), out_dir=out / f"seed_{seed}") for seed in class_seeds]
    agg = {"seeds": class_seeds, **_pct_stats(summaries)}
    rows = [
        {"seed": seed, "avg_pct": 100.0 * s.average_accuracy, "last_pct": 100.0 * s.last_accuracy}
        for seed, s in zip(class_seeds, summaries)
    ]
    _write_csv(out / "seeds.csv", "{seed},{avg_pct:.2f},{last_pct:.2f}", rows)
    return agg
