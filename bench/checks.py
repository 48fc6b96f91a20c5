"""Output checks computed apart from the program: numpy only, no noisemix code.

Each check raises :class:`CheckFailed` with a one-line reason. The negative
controls in ``selftest.py`` show that each of them can fail.
"""

from __future__ import annotations

import numpy as np

RIDGE_TOLERANCE = 1e-8


class CheckFailed(AssertionError):
    pass


class RidgeReference:
    """Batch ridge over every session's features, solved from scratch.

    Blocks are kept while the row count is at most the width, and solved in
    the dual form ``Z' (Z Z' + lam I)^-1 Y``. Past that point they are folded
    into the d x d Gram matrix and solved in the primal form
    ``(Z'Z + lam I)^-1 Z'Y``, so the reference never holds more than
    min(rows, width) x width floats.
    """

    def __init__(self, regularization: float):
        self.lam = float(regularization)
        self.classes: list[int] = []
        self.blocks: list[tuple[np.ndarray, np.ndarray]] = []  # (features, labels)
        self.gram: np.ndarray | None = None
        self.cross: np.ndarray | None = None  # Z'Y, one column per class
        self.rows = 0

    def add(self, feats: np.ndarray, labels: np.ndarray, new_classes) -> None:
        self.classes.extend(int(c) for c in new_classes)
        self.rows += len(labels)
        d = feats.shape[1]
        if self.gram is None and self.rows <= d:
            self.blocks.append((np.array(feats), np.array(labels)))
            return
        if self.gram is None:
            self.gram, self.cross = np.zeros((d, d)), np.zeros((d, 0))
            old, self.blocks = self.blocks, []
            for z, y in old:
                self._fold(z, y)
        self._fold(feats, labels)

    def _fold(self, z: np.ndarray, y: np.ndarray) -> None:
        self.gram += z.T @ z
        pad = len(self.classes) - self.cross.shape[1]
        self.cross = np.hstack([self.cross, np.zeros((z.shape[1], pad))])
        self.cross += z.T @ self._one_hot(y)

    def _one_hot(self, labels: np.ndarray) -> np.ndarray:
        column = {c: j for j, c in enumerate(self.classes)}
        y = np.zeros((len(labels), len(self.classes)))
        y[np.arange(len(labels)), [column[int(c)] for c in labels]] = 1.0
        return y

    def weights(self) -> np.ndarray:
        if self.gram is not None:
            return np.linalg.solve(self.gram + self.lam * np.eye(len(self.gram)), self.cross)
        z = np.vstack([b[0] for b in self.blocks])
        y = self._one_hot(np.concatenate([b[1] for b in self.blocks]))
        return z.T @ np.linalg.solve(z @ z.T + self.lam * np.eye(len(z)), y)


def check_ridge(weights: np.ndarray, classes_seen, reference: RidgeReference) -> tuple[np.ndarray, float]:
    """The program's weights equal the batch ridge solution.

    Returns the reference weights and their relative distance to the program's.
    """
    if [int(c) for c in classes_seen] != reference.classes:
        raise CheckFailed("classifier class order differs from the task order")
    ref = reference.weights()
    if weights.shape != ref.shape:
        raise CheckFailed(f"weights shape {weights.shape} != reference {ref.shape}")
    rel = float(np.linalg.norm(weights - ref) / np.linalg.norm(ref))
    if not rel <= RIDGE_TOLERANCE:
        raise CheckFailed(f"classifier weights differ from batch ridge by {rel:.3e} relative")
    return ref, rel


def check_accuracy(reported: float, n_reported: int, feature_batches, ref_weights, classes) -> None:
    """The reported accuracy is the argmax of features x reference weights."""
    lookup = np.asarray(classes, dtype=np.int64)
    hits = seen = 0
    for feats, labels in feature_batches:
        hits += int(np.sum(lookup[np.argmax(feats @ ref_weights, axis=1)] == labels))
        seen += len(labels)
    if seen != n_reported:
        raise CheckFailed(f"{seen} test rows seen, the program reported {n_reported}")
    if hits / seen != reported:
        raise CheckFailed(f"reference accuracy {hits}/{seen} != reported {reported!r}")


def split_test_count(rows_in_class: int) -> int:
    """Test rows of one class under the documented seeded 80/20 split."""
    return rows_in_class - max(1, int(0.8 * rows_in_class))


def check_coverage(tasks, labels: np.ndarray, values: np.ndarray, n_tests) -> None:
    """Every generated row sits in exactly one split of one task.

    ``tasks`` are the program's task datasets, ``labels``/``values`` the
    generated file's rows, ``n_tests`` the per-session test counts reported.
    """
    index = {row.tobytes(): i for i, row in enumerate(values)}
    if len(index) != len(values):
        raise CheckFailed("generated rows are not unique")
    placed = np.zeros(len(values), dtype=np.int64)
    seen_classes: set[int] = set()
    for task in tasks:
        if seen_classes & set(task.class_set):
            raise CheckFailed(f"task {task.task_index} repeats a class of an earlier task")
        seen_classes |= set(task.class_set)
        for split in (task.train, task.test):
            for sample in split:
                i = index.get(np.ascontiguousarray(sample.features, dtype=np.float64).tobytes())
                if i is None:
                    raise CheckFailed(f"task {task.task_index} holds a row not in the file")
                if labels[i] != sample.label or sample.label not in task.class_set:
                    raise CheckFailed(f"row {i} carries the wrong label or task")
                placed[i] += 1
    if seen_classes != set(int(c) for c in labels):
        raise CheckFailed("task class sets do not cover the file's labels")
    if np.any(placed != 1):
        bad = int(np.flatnonzero(placed != 1)[0])
        raise CheckFailed(f"row {bad} placed {int(placed[bad])} times")
    per_class = np.bincount(labels)
    expected, total = [], 0
    for task in tasks:
        total += sum(split_test_count(int(per_class[c])) for c in task.class_set)
        expected.append(total)
    if list(n_tests) != expected:
        raise CheckFailed(f"session test counts {list(n_tests)} != {expected} derived from the file")
