"""Incremental task streams: synthetic cluster data and embedding-file ingestion.

A stream is a fixed sequence of tasks with pairwise disjoint class sets. Each
split of a task is one read-only record array of ``record_dtype(d)`` rows, an
int64 label followed by d float64 features, packed. Streams are immutable
after construction and fully determined by their seed.

Both sources make one record array of labelled rows and a rule that splits a
class's rows into train and test; one assembly turns them into a stream. It
shuffles the classes by the seed (``data.class_seed``), cuts the order into
contiguous groups with the extra classes first, and splits each class.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numeric import SeededRng, derive_seed

TRAIN_FRACTION = 0.8
# Paired "confusable" class means sit this fraction of the sphere radius apart,
# so they coincide when separation is zero and overlap heavily otherwise.
OVERLAP_OFFSET_FRACTION = 0.15


def record_dtype(dim: int) -> np.dtype:
    """One row of a split: its label, then its ``dim`` features, packed."""
    return np.dtype([("label", "<i8"), ("features", "<f8", (dim,))])


def _frozen(rows: np.ndarray) -> np.recarray:
    split = rows.view(np.recarray)
    split.flags.writeable = False
    return split


@dataclass(frozen=True, eq=False)
class TaskDataset:
    """One session's data: disjoint-class train and test splits."""

    task_index: int  # 1-based
    train: np.recarray
    test: np.recarray
    class_set: tuple[int, ...]

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.train.features.copy(), self.train.label.copy()

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.test.features.copy(), self.test.label.copy()


@dataclass(frozen=True)
class TaskStream:
    tasks: tuple[TaskDataset, ...]
    class_order: tuple[int, ...]
    seed: int

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def num_classes(self) -> int:
        return len(self.class_order)

    @property
    def feature_dim(self) -> int:
        return self.tasks[0].train.features.shape[1]

    def content_hash(self) -> str:
        """SHA-256 over the class order, then each split's packed rows; identifies the stream."""
        h = hashlib.sha256()
        h.update(np.asarray(self.class_order, dtype=np.int64).tobytes())
        for task in self.tasks:
            h.update(task.train.tobytes())
            h.update(task.test.tobytes())
        return h.hexdigest()


def shuffle_class_order(num_classes: int, seed: int) -> tuple[int, ...]:
    """Deterministic Fisher-Yates permutation of the class identifiers."""
    return tuple(int(c) for c in SeededRng(seed).permutation(num_classes))


def partition_classes(order: tuple[int, ...], num_tasks: int) -> list[tuple[int, ...]]:
    """Split a class order into num_tasks contiguous chunks.

    When the count does not divide evenly the earlier tasks take one extra
    class each.
    """
    return [tuple(int(c) for c in chunk) for chunk in np.array_split(order, num_tasks)]


def _assemble(records: np.ndarray, task_classes: list[tuple[int, ...]], seed: int, split) -> TaskStream:
    """The stream of labelled ``records`` whose task ``t`` holds the classes
    ``task_classes[t - 1]``, the class order shuffled by ``seed`` and partitioned.

    ``split(c, rows) -> (train_rows, test_rows)`` divides the row indices of
    class ``c``, and each task's splits concatenate its classes' rows.
    """
    labels = records["label"]
    tasks = []
    for t, classes in enumerate(task_classes, start=1):
        train_rows, test_rows = zip(*(split(c, np.flatnonzero(labels == c)) for c in classes))
        test = records[np.concatenate(test_rows)]
        if not len(test):
            raise ValueError(f"task {t} ended up with an empty test split")
        missing = [c for c, rows in zip(classes, train_rows) if not len(rows)]
        if missing:
            raise ValueError(f"classes {missing} have no training samples")
        train = records[np.concatenate(train_rows)]
        tasks.append(TaskDataset(task_index=t, train=_frozen(train), test=_frozen(test), class_set=classes))
    order = tuple(c for classes in task_classes for c in classes)
    return TaskStream(tasks=tuple(tasks), class_order=order, seed=seed)


def make_synthetic_stream(
    num_classes: int,
    samples_per_class: int,
    dim: int,
    separation: float,
    overlap_classes: int = 0,
    num_tasks: int = 1,
    seed: int = 1993,
) -> TaskStream:
    """Gaussian cluster stream with optional cross-task confusable class pairs.

    Each class is an isotropic unit-variance Gaussian whose mean lies on a
    sphere of radius ``separation``. ``overlap_classes`` classes are arranged
    into pairs assigned to different tasks whose means sit close together
    (see OVERLAP_OFFSET_FRACTION), creating features that confuse a linear
    classifier across task boundaries. Per class the first 80% of draws are
    the train split, the rest the test split. Fully determined by ``seed``.

    The arguments come from a validated ``DataConfig`` (see
    ``RunConfig.validate``), so they are not checked again here.
    """
    master = SeededRng(seed)
    task_classes = partition_classes(shuffle_class_order(num_classes, seed), num_tasks)
    means = synthetic_class_means(num_classes, dim, separation, overlap_classes, task_classes, seed)
    records = np.empty(num_classes * samples_per_class, dtype=record_dtype(dim))
    records["label"] = np.repeat(np.arange(num_classes), samples_per_class)
    records["features"] = np.concatenate(
        [means[c] + master.split("samples", c).standard_normal(samples_per_class, dim) for c in range(num_classes)]
    )
    n_train = int(TRAIN_FRACTION * samples_per_class)
    return _assemble(records, task_classes, seed, lambda c, rows: (rows[:n_train], rows[n_train:]))


def synthetic_class_means(
    num_classes: int,
    dim: int,
    separation: float,
    overlap_classes: int,
    task_classes: list[tuple[int, ...]],
    seed: int,
) -> np.ndarray:
    """The planted cluster means of the synthetic stream (num_classes x dim),
    its overlap pairs placed by the stream's ``task_classes``."""
    master = SeededRng(seed)
    mean_rng = master.split("means")
    means = np.zeros((num_classes, dim))
    for c in range(num_classes):
        v = mean_rng.standard_normal(dim)
        norm = float(np.linalg.norm(v))
        if separation > 0 and norm > 0:
            means[c] = v * (separation / norm)
    _plant_overlap_pairs(means, task_classes, overlap_classes, separation, master.split("overlap"))
    return means


def _plant_overlap_pairs(means, task_classes, overlap_classes, separation, rng):
    pairs = overlap_classes // 2
    if pairs == 0:
        return
    num_tasks = len(task_classes)
    cursors = [0] * num_tasks
    for j in range(pairs):
        ta = j % num_tasks
        tb = (j + 1) % num_tasks
        if cursors[ta] >= len(task_classes[ta]) or cursors[tb] >= len(task_classes[tb]):
            raise ValueError("overlap_classes too large for the task layout")
        a = task_classes[ta][cursors[ta]]
        cursors[ta] += 1
        b = task_classes[tb][cursors[tb]]
        cursors[tb] += 1
        direction = rng.standard_normal(means.shape[1])
        norm = float(np.linalg.norm(direction))
        offset = direction * (OVERLAP_OFFSET_FRACTION * separation / norm) if norm > 0 else 0.0
        means[b] = means[a] + offset


def load_embedding_stream(path: str | Path, num_tasks: int, seed: int) -> TaskStream:
    """Build a stream from a CSV of precomputed feature embeddings.

    Expected format: header ``label,f0,f1,...,f{d-1}``, then one row per
    sample with an int64 label followed by d finite decimal reals, parsed by
    numpy.
    Blank lines are skipped; there are no comment lines. Labels must be the
    contiguous range 0..C-1. Classes are shuffled with ``seed`` and
    partitioned into ``num_tasks`` tasks. A sibling file with the ``.split``
    extension may list test-set sample indices (0-based row order, one per
    line); when absent each class gets a seeded 80/20 split.
    """
    path = Path(path)
    records = _parse_embedding_csv(path)
    labels = records["label"]
    num_classes = len(np.unique(labels))
    if labels.max() != num_classes - 1:  # C distinct labels >= 0 are 0..C-1 iff the largest is C-1
        raise ValueError("labels must form the contiguous range 0..C-1")
    if num_classes < num_tasks:
        raise ValueError(f"file has {num_classes} classes, fewer than {num_tasks} tasks")

    is_test = _read_split_file(path.with_suffix(".split"), len(records))

    def split(c, rows):
        if is_test is not None:
            return rows[~is_test[rows]], rows[is_test[rows]]
        rows = rows[SeededRng(derive_seed(seed, "split", c)).permutation(len(rows))]
        n_train = max(1, int(TRAIN_FRACTION * len(rows)))
        return rows[:n_train], rows[n_train:]

    task_classes = partition_classes(shuffle_class_order(num_classes, seed), num_tasks)
    return _assemble(records, task_classes, seed, split)


def _parse_embedding_csv(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise ValueError(f"{path}: header must be 'label,f0,...', got {lines[0]!r}")
    dim = len(header) - 1
    expected = ["label"] + [f"f{i}" for i in range(dim)]
    if header != expected:
        raise ValueError(f"{path}: malformed header columns")
    if not any(lines[1:]):
        raise ValueError(f"{path}: no data rows")
    dtype = record_dtype(dim)
    try:
        records = np.loadtxt(lines[1:], delimiter=",", dtype=dtype, comments=None, ndmin=1)
        if not np.any(records["label"] < 0) and np.isfinite(records["features"]).all():
            return records
    except ValueError:
        pass
    _raise_at_first_bad_line(path, lines, dtype)


def _raise_at_first_bad_line(path: Path, lines: list[str], dtype: np.dtype) -> None:
    """Re-parse the data rows one at a time to report the file line at fault."""
    fields = 1 + dtype["features"].shape[0]
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != fields:
            raise ValueError(f"{path}:{lineno}: expected {fields} fields, got {len(parts)}")
        try:
            row = np.loadtxt([line], delimiter=",", dtype=dtype, comments=None, ndmin=1)
        except ValueError as exc:
            # numpy counts rows of the one-line input; the file line is already named
            raise ValueError(f"{path}:{lineno}: malformed value ({str(exc).replace('row 0, ', '')})") from None
        if row["label"][0] < 0:
            raise ValueError(f"{path}:{lineno}: labels must be non-negative")
        if not np.isfinite(row["features"]).all():
            raise ValueError(f"{path}:{lineno}: non-finite feature value")
    raise ValueError(f"{path}: malformed data rows")


def _read_split_file(path: Path, n_samples: int) -> np.ndarray | None:
    """Boolean test-row mask from a ``.split`` file, or None when there is none."""
    if not path.exists():
        return None
    is_test = np.zeros(n_samples, dtype=bool)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                idx = int(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected an integer index") from None
            if not 0 <= idx < n_samples:
                raise ValueError(f"{path}:{lineno}: index {idx} out of range")
            is_test[idx] = True
    return is_test
