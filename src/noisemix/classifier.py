"""Incrementally updatable ridge classifier.

The classifier keeps the inverse of the regularized feature Gram matrix, so
each new batch of (features, one-hot targets) updates the exact batch ridge
solution without ever revisiting old data. New classes append zero columns
to the weight matrix before the update that introduces them.
"""

from __future__ import annotations

import copy

import numpy as np

from .numeric import NumericalError, as_matrix, require_finite, solve_spd


class RidgeClassifier:
    """Linear classifier with exact recursive least-squares updates."""

    def __init__(self, feature_dim: int, regularization: float):
        if feature_dim < 1:
            raise ValueError("feature_dim must be positive")
        if not regularization > 0:
            raise ValueError(f"regularization must be positive, got {regularization}")
        self.feature_dim = int(feature_dim)
        self.regularization = float(regularization)
        self.gram_inv = np.eye(feature_dim) / regularization
        self.weights = np.zeros((feature_dim, 0))
        self.classes_seen: list[int] = []

    @property
    def num_classes(self) -> int:
        return len(self.classes_seen)

    def clone(self) -> "RidgeClassifier":
        return copy.deepcopy(self)

    def expand_classes(self, new_classes) -> None:
        """Append zero-initialized weight columns for not-yet-seen classes."""
        fresh = [int(c) for c in new_classes]
        overlap = set(fresh) & set(self.classes_seen)
        if overlap:
            raise ValueError(f"classes already registered: {sorted(overlap)}")
        if len(set(fresh)) != len(fresh):
            raise ValueError("duplicate classes in expansion")
        self.classes_seen.extend(fresh)
        pad = np.zeros((self.feature_dim, len(fresh)))
        self.weights = np.hstack([self.weights, pad])

    def one_hot(self, labels) -> np.ndarray:
        """Targets over all classes seen so far, one row per label."""
        labels = np.asarray(labels).reshape(-1)
        hits = labels[:, None] == np.asarray(self.classes_seen, dtype=np.int64)
        unknown = ~hits.any(axis=1)
        if unknown.any():
            raise ValueError(f"label {labels[unknown][0]} not among registered classes")
        return hits.astype(np.float64)

    def update(self, feats: np.ndarray, targets: np.ndarray) -> None:
        """Fold one batch into the running ridge solution.

        ``targets`` must already span every registered class (call
        :meth:`expand_classes` first when the batch introduces new ones).
        The Gram inverse is refreshed through a rank-n correction solved on
        whichever side (sample count or feature width) is smaller, then
        symmetrized to keep drift out of long runs.
        """
        z = as_matrix(feats, "features")
        y = as_matrix(targets, "targets")
        if z.shape[0] != y.shape[0]:
            raise ValueError(f"row mismatch: features {z.shape[0]} vs targets {y.shape[0]}")
        if z.shape[1] != self.feature_dim:
            raise ValueError(f"feature width {z.shape[1]} != classifier width {self.feature_dim}")
        if y.shape[1] != self.num_classes:
            raise ValueError(f"target width {y.shape[1]} != classes seen {self.num_classes}")
        n = z.shape[0]
        r = self.gram_inv
        if n <= self.feature_dim:
            p = z @ r
            correction = np.eye(n) + p @ z.T
            r_new = r - p.T @ solve_spd(correction, p, on_fail="raise")
        else:
            # Woodbury identity on the feature side: (R^-1 + Z'Z)^-1 = (I + R Z'Z)^-1 R
            gram = z.T @ z
            try:
                r_new = np.linalg.solve(np.eye(self.feature_dim) + r @ gram, r)
            except np.linalg.LinAlgError as exc:
                raise NumericalError("gram update lost invertibility") from exc
        r_new = (r_new + r_new.T) / 2.0
        require_finite(r_new, "gram inverse")
        if np.any(np.diag(r_new) <= 0):
            raise NumericalError("gram inverse lost positive definiteness")
        w = self.weights
        w_new = w - r_new @ (z.T @ (z @ w)) + r_new @ (z.T @ y)
        require_finite(w_new, "classifier weights")
        self.gram_inv = r_new
        self.weights = w_new

    def predict(self, feats: np.ndarray) -> np.ndarray:
        """Class scores, one column per class in registration order."""
        if self.num_classes < 1:
            raise ValueError("classifier has no classes yet")
        z = as_matrix(feats, "features")
        if z.shape[1] != self.feature_dim:
            raise ValueError(f"feature width {z.shape[1]} != classifier width {self.feature_dim}")
        return z @ self.weights

    def predict_labels(self, feats: np.ndarray) -> np.ndarray:
        """Most likely class per row; ties break toward the earliest class."""
        scores = self.predict(feats)
        picks = np.argmax(scores, axis=1)  # argmax keeps the first index on ties
        lookup = np.array(self.classes_seen, dtype=np.int64)
        return lookup[picks]

    def state_bytes(self) -> bytes:
        head = np.array([self.feature_dim, self.num_classes], dtype=np.int64).tobytes()
        classes = np.array(self.classes_seen, dtype=np.int64).tobytes()
        return head + classes + self.weights.tobytes() + self.gram_inv.tobytes()
