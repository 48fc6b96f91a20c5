"""Session evaluation, aggregate metrics, and artifact emission (CSV/JSON/SVG)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numeric import SeededRng, derive_seed

EVAL_BATCH = 512


@dataclass(frozen=True)
class SessionReport:
    """Accuracy over all classes seen after one session."""

    task_index: int
    accuracy_seen: float
    per_class_accuracy: dict[int, float]
    epoch_losses: tuple[float, ...] = ()
    n_test: int = 0


@dataclass(frozen=True)
class RunSummary:
    reports: tuple[SessionReport, ...]
    average_accuracy: float
    last_accuracy: float
    config_hash: str = ""


def evaluate(model, stream, upto_task: int) -> SessionReport:
    """Accuracy on the union of test sets of tasks 1..upto_task.

    Deterministic: the features follow the mean noise path, and random-task
    picks come from a seed derived from the model's evaluation seed and the
    session index. Never mutates the model.
    """
    if upto_task < 1 or upto_task > model.sessions_completed:
        raise ValueError(
            f"cannot evaluate at task {upto_task}; model has completed {model.sessions_completed}"
        )
    labels, hits = [], []
    rng = SeededRng(derive_seed(model.eval_seed, "session", upto_task))
    for i in range(upto_task):
        x, y = stream.tasks[i].test_arrays()
        for start in range(0, len(y), EVAL_BATCH):
            xb = x[start : start + EVAL_BATCH]
            yb = y[start : start + EVAL_BATCH]
            feats = model.features(xb, rng=rng.split("batch", i, start), eval_mode=True)
            labels.append(yb)
            hits.append(model.classifier.predict_labels(feats) == yb)
    labels, hits = np.concatenate(labels), np.concatenate(hits)
    n_seen = len(labels)
    classes, inverse = np.unique(labels, return_inverse=True)
    correct = np.bincount(inverse[hits], minlength=len(classes))
    total = np.bincount(inverse)
    per_class = {int(c): int(k) / int(n) for c, k, n in zip(classes, correct, total)}
    return SessionReport(
        task_index=upto_task,
        accuracy_seen=int(np.count_nonzero(hits)) / n_seen,
        per_class_accuracy=per_class,
        n_test=n_seen,
    )


def report_to_dict(rep: SessionReport) -> dict:
    return {
        "task_index": rep.task_index,
        "accuracy_seen": rep.accuracy_seen,
        "n_test": rep.n_test,
        "per_class_accuracy": {str(c): rep.per_class_accuracy[c] for c in sorted(rep.per_class_accuracy)},
        "epoch_losses": list(rep.epoch_losses),
    }


def report_from_dict(d: dict) -> SessionReport:
    """The report :func:`report_to_dict` made ``d`` from; a ValueError naming
    the session refuses values no evaluation makes: an accuracy that is not
    in [0, 1], an ``n_test`` below 1, a non-finite epoch loss or a per-class
    key that is not an integer."""
    t = d["task_index"]
    try:
        per_class = {int(c): float(v) for c, v in d["per_class_accuracy"].items()}
    except ValueError:
        raise ValueError(f"session {t}: a per-class key is not an integer") from None
    rep = SessionReport(
        task_index=int(t),
        accuracy_seen=float(d["accuracy_seen"]),
        per_class_accuracy=per_class,
        epoch_losses=tuple(float(v) for v in d["epoch_losses"]),
        n_test=int(d["n_test"]),
    )
    # written so that a NaN fails
    bad = [a for a in (rep.accuracy_seen, *rep.per_class_accuracy.values()) if not 0.0 <= a <= 1.0]
    if bad:
        raise ValueError(f"session {t}: accuracy {bad[0]} is not in [0, 1]")
    if rep.n_test < 1:
        raise ValueError(f"session {t}: n_test {rep.n_test} is below 1")
    if not all(math.isfinite(v) for v in rep.epoch_losses):
        raise ValueError(f"session {t}: an epoch loss is not finite")
    return rep


def summarize(reports, config_hash: str = "") -> RunSummary:
    """Mean accuracy across sessions plus the final-session accuracy.

    ``reports`` are sessions 1..k in order, k >= 1: a run makes them so, and
    :func:`noisemix.checkpoint.restore` refuses a history that is not.
    """
    reports = tuple(reports)
    accs = [r.accuracy_seen for r in reports]
    return RunSummary(
        reports=reports,
        average_accuracy=float(np.mean(accs)),
        last_accuracy=accs[-1],
        config_hash=config_hash,
    )


def write_csv(path: Path, columns: dict[str, str], rows: list[dict]) -> None:
    """A header of the ``columns``' names, then a line per row of its values, each
    formatted by its column's format spec."""
    lines = [",".join(columns), *(",".join(format(r[name], spec) for name, spec in columns.items()) for r in rows)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def summary_json_text(summary: RunSummary) -> str:
    payload = {
        "config_hash": summary.config_hash,
        "average_accuracy": summary.average_accuracy,
        "last_accuracy": summary.last_accuracy,
        "reports": [report_to_dict(rep) for rep in summary.reports],
    }
    return json.dumps(payload, indent=2) + "\n"


def accuracy_svg_text(summary: RunSummary) -> str:
    """Static 800x500 SVG line chart of the accuracy after each session, on a
    0-100% axis, byte-stable for identical summaries."""
    width, height, margin = 800, 500, 60
    xs = [float(r.task_index) for r in summary.reports]
    x_lo, x_span = min(xs), (max(xs) - min(xs)) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - y / 100.0 * (height - 2 * margin)

    color = "#1f77b4"
    coords = " ".join(f"{sx(x):.2f},{sy(r.accuracy_seen * 100.0):.2f}" for x, r in zip(xs, summary.reports))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f"<desc>config {summary.config_hash}</desc>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" font-size="16">session</text>',
        f'<text x="18" y="{height // 2}" text-anchor="middle" font-size="16" '
        f'transform="rotate(-90 18 {height // 2})">accuracy (%)</text>',
        f'<text x="{margin - 8}" y="{height - margin + 5}" text-anchor="end" font-size="12">0.00</text>',
        f'<text x="{margin - 8}" y="{margin + 5}" text-anchor="end" font-size="12">100.00</text>',
        f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>',
        f'<text x="{width - margin + 5}" y="{margin + 12}" font-size="12" fill="{color}">accuracy</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def emit(summary: RunSummary, out_dir: str | Path) -> None:
    """Write ``accuracy.csv``, ``summary.json`` and ``accuracy.svg`` for one run."""
    out = Path(out_dir)
    rows = [{"task": r.task_index, "accuracy_pct": 100.0 * r.accuracy_seen} for r in summary.reports]
    write_csv(out / "accuracy.csv", {"task": "", "accuracy_pct": ".2f"}, rows)
    (out / "summary.json").write_text(summary_json_text(summary), encoding="utf-8")
    (out / "accuracy.svg").write_text(accuracy_svg_text(summary), encoding="utf-8")
