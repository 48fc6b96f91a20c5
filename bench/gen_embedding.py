#!/usr/bin/env python3
"""Seeded embedding CSV for the ``embedding-20task`` workload.

Writes ``label,f0,...,f63`` rows for 100 Gaussian classes of 450-550 rows
each (about 50k rows), shuffled, with no ``.split`` file beside it. Every
value is a multiple of 1/64 printed with six decimals, so the text holds it
exactly and the benchmark can match the program's parsed rows against the
arrays returned here bit for bit.

    python3 bench/gen_embedding.py --seed 1 --out data.csv
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

NUM_CLASSES = 100
DIM = 64
ROWS_PER_CLASS = (450, 551)  # half-open range; uneven classes exercise the 80/20 split rounding
MEAN_RADIUS = 4.4  # class means lie on this sphere; rows scatter around them with unit variance
QUANTUM = 64


def generate(seed: int, num_classes: int = NUM_CLASSES, dim: int = DIM,
             rows_per_class: tuple[int, int] = ROWS_PER_CLASS) -> tuple[np.ndarray, np.ndarray]:
    """Labels and values of the rows, in file order; same seed, same arrays."""
    rng = np.random.default_rng([seed, 0x5EED])
    counts = rng.integers(*rows_per_class, size=num_classes)
    directions = rng.standard_normal((num_classes, dim))
    means = MEAN_RADIUS * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    labels = np.repeat(np.arange(num_classes), counts)
    values = means[labels] + rng.standard_normal((labels.size, dim))
    order = rng.permutation(labels.size)
    labels, values = labels[order], np.round(values[order] * QUANTUM) / QUANTUM
    if len({row.tobytes() for row in values}) != len(values):
        raise ValueError(f"seed {seed} produced duplicate rows; rows must be unique to be traced")
    return labels, values


def csv_text(labels: np.ndarray, values: np.ndarray) -> str:
    header = "label," + ",".join(f"f{i}" for i in range(values.shape[1]))
    body = [f"{lab}," + ",".join(f"{v:.6f}" for v in row) for lab, row in zip(labels.tolist(), values.tolist())]
    return header + "\n" + "\n".join(body) + "\n"


def write(path: str | Path, labels: np.ndarray, values: np.ndarray) -> None:
    Path(path).write_text(csv_text(labels, values), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write(args.out, *generate(args.seed))


if __name__ == "__main__":
    main()
