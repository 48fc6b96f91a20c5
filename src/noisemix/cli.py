"""Command-line interface.

Run as ``noisemix`` or ``python -m noisemix``. Subcommands: train, eval,
ablate, sweep, gradcheck, snapshot. Exit code 0 on success, 1 on validation
errors, 2 on numerical breakdown, 3 when memory runs out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import checkpoint as ckpt
from .config import (
    PROFILES,
    ConfigError,
    RunConfig,
    apply_overrides,
    apply_profile,
    config_hash,
    load_config_file,
    resolved_text,
)
from .experiment import (
    ABLATION_VARIANTS,
    SWEEP_PARAMETERS,
    build_stream,
    run_ablation,
    run_multi_seed,
    run_sweep,
    run_training,
)
from .model import build_model
from .numeric import NumericalError
from .report import evaluate
from .trainer import gradient_check, make_gradcheck_instance


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); remap to ConfigError
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noisemix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--profile", choices=list(PROFILES), default="desk")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--out", help="output directory (default: the output_dir key)")
        p.add_argument("--print-config", action="store_true", help="dump the resolved config and exit")

    p_train = sub.add_parser("train", help="run all incremental sessions")
    common(p_train)
    p_train.add_argument("--resume", help="checkpoint file to continue from")
    p_train.add_argument("--stop-after", type=int, help="halt after this session (checkpoint persists)")
    p_train.add_argument("--class-seeds", type=int, nargs="+", help="run once per class-order seed")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a finished run directory")
    p_eval.add_argument("--run", required=True, help="run directory with checkpoint + resolved config")
    p_eval.set_defaults(func=cmd_eval)

    p_abl = sub.add_parser("ablate", help="compare mixture variants on identical streams")
    common(p_abl)
    p_abl.add_argument("--variants", nargs="+", default=list(ABLATION_VARIANTS))
    p_abl.add_argument("--class-seeds", type=int, nargs="+")
    p_abl.set_defaults(func=cmd_ablate)

    p_sweep = sub.add_parser("sweep", help="run once per value of one hyperparameter")
    common(p_sweep)
    p_sweep.add_argument("--parameter", required=True, choices=sorted(SWEEP_PARAMETERS))
    p_sweep.add_argument("--values", type=float, nargs="+", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_grad = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    common(p_grad)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_snap = sub.add_parser("snapshot", help="content hash of all frozen parameters")
    common(p_snap)
    p_snap.set_defaults(func=cmd_snapshot)

    return parser


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    apply_profile(cfg, args.profile)
    if args.config:
        load_config_file(args.config, cfg)
    apply_overrides(cfg, args.set)
    cfg.validate()
    return cfg


def _out_dir(args, cfg: RunConfig) -> Path:
    return Path(args.out or cfg.output_dir)


def cmd_train(args) -> int:
    if args.class_seeds and (args.resume is not None or args.stop_after is not None):
        raise ConfigError("--class-seeds runs every seed in full; it takes neither --resume nor --stop-after")
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    if args.class_seeds:
        agg = run_multi_seed(cfg, args.class_seeds, out_dir=out)
        print(
            f"seeds={len(args.class_seeds)} avg={agg['avg_pct_mean']:.2f}±{agg['avg_pct_std']:.2f}% "
            f"last={agg['last_pct_mean']:.2f}±{agg['last_pct_std']:.2f}%"
        )
        return 0
    summary = run_training(cfg, out_dir=out, resume_path=args.resume, stop_after=args.stop_after)
    for rep in summary.reports:
        print(f"session {rep.task_index}: accuracy {100.0 * rep.accuracy_seen:.2f}%")
    print(f"average {100.0 * summary.average_accuracy:.2f}%  last {100.0 * summary.last_accuracy:.2f}%")
    return 0


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    cfg = load_config_file(run_dir / "config.resolved")
    cfg.validate()
    stream = build_stream(cfg)
    model = build_model(cfg, stream.feature_dim)
    ckpt.restore(model, run_dir / "checkpoint.nmcp", config_hash(cfg), stream)
    report = evaluate(model, stream, model.sessions_completed)
    print(
        f"sessions={model.sessions_completed} accuracy={100.0 * report.accuracy_seen:.2f}% "
        f"n_test={report.n_test}"
    )
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    rows = run_ablation(cfg, args.variants, args.class_seeds, out_dir=_out_dir(args, cfg))
    for r in rows:
        print(
            f"{r['variant']:12s} avg={r['avg_pct_mean']:.2f}±{r['avg_pct_std']:.2f}% "
            f"last={r['last_pct_mean']:.2f}±{r['last_pct_std']:.2f}%"
        )
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = run_sweep(cfg, args.parameter, args.values, out_dir=_out_dir(args, cfg))
    for r in rows:
        print(
            f"{r['parameter']}={r['value']} avg={r['avg_pct']:.2f}% last={r['last_pct']:.2f}% "
            f"trainable={r['trainable_params']}"
        )
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args)
    # small dimensions keep the finite-difference sweep fast and well-conditioned
    dims = {
        "feature_dim": min(cfg.backbone.feature_dim, 16),
        "latent_dim": min(cfg.pinoise.latent_dim, 8),
        "depth": min(cfg.backbone.depth, 2),
        "buffer_size": min(cfg.backbone.buffer_size, 32),
    }
    instance = make_gradcheck_instance(**dims, strategy=cfg.pinoise.strategy, seed=cfg.train.seed)
    report = gradient_check(*instance)
    print(f"instance: {dims}")
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_snapshot(args) -> int:
    cfg = _load_config(args)
    stream = build_stream(cfg)
    model = build_model(cfg, stream.feature_dim)
    digest = model.frozen_param_hash()
    print(f"config {config_hash(cfg)}")
    print(f"frozen {digest}")
    out = _out_dir(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "snapshot.txt").write_text(f"config {config_hash(cfg)}\nfrozen {digest}\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "print_config", False):
            print(resolved_text(_load_config(args)), end="")
            return 0
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a bare MemoryError carries no message; then say what failed
        reason = str(exc) or "an allocation failed (MemoryError with no message)"
        print(f"out of memory: {reason}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError, ckpt.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
