"""Incrementally updatable ridge classifier.

The classifier keeps the inverse R of the regularized feature Gram matrix,
so each new batch of (features Z, one-hot targets Y) updates the exact batch
ridge solution without ever revisiting old data. New classes append zero
columns to the weight matrix before the update that introduces them.

A batch of at most d rows (d the feature width) is folded in on the sample
side. With ``P = Z R``, ``L L' = I + P Z'`` (Cholesky), ``K = L^-1 P`` and
``E = L^-1 (Y - Z W)``, the new solution is ``W + K' E`` and the new inverse
is ``R - K' K``. K and E are products with the n x n inverse of L, made
once, so both triangular solves run as matrix products.
:meth:`RidgeClassifier.trial_weights` returns the first without writing
anything; :meth:`RidgeClassifier.update` commits both, the inverse
downdated in place: its lower triangle one panel of rows at a time, its
upper triangle copied from the lower tile by tile, so no d x d temporary is
made and R stays exactly symmetric; each panel is checked for non-finite
entries where it is written. A batch of more rows takes the feature-side
Woodbury form: the trial solves ``(I + R Z'Z) X = R Z'(Y - Z W)`` and returns
``W + X``; the commit makes the same solve against ``[R | R Z'(Y - Z W)]``,
takes ``W + X`` from its last c columns and the new inverse, checked and
symmetrized, from its first d.
"""

from __future__ import annotations

import copy

import numpy as np

from .numeric import NumericalError, as_matrix, require_finite

PANEL_ROWS = 256  # rows of R per downdate product, and the side of a mirrored tile


class RidgeClassifier:
    """Linear classifier with exact recursive least-squares updates."""

    def __init__(self, feature_dim: int, regularization: float):
        if feature_dim < 1:
            raise ValueError("feature_dim must be positive")
        if not regularization > 0:
            raise ValueError(f"regularization must be positive, got {regularization}")
        self.feature_dim = int(feature_dim)
        self.regularization = float(regularization)
        # only the diagonal is written here; the other pages of np.zeros stay untouched until used
        self.gram_inv = np.zeros((feature_dim, feature_dim))
        np.fill_diagonal(self.gram_inv, 1.0 / regularization)
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

    def trial_weights(self, feats: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """The weights :meth:`update` would commit for this batch; nothing is written."""
        z, y = self._checked(feats, targets)
        if z.shape[0] <= self.feature_dim:
            k, e = self._sample_side(z, y)
            return self.weights + k.T @ e
        return self.weights + self._feature_solve(z, self._residual_rhs(z, y))

    def update(self, feats: np.ndarray, targets: np.ndarray) -> None:
        """Fold one batch into the running ridge solution.

        ``targets`` must already span every registered class (call
        :meth:`expand_classes` first when the batch introduces new ones).
        On the sample side the inverse is downdated in place, ``R -= K' K``,
        one panel of rows at a time; on the feature side it is replaced.
        Either way the weights committed are exactly :meth:`trial_weights`'s,
        and the new inverse is checked for non-finite entries where it is written.
        """
        z, y = self._checked(feats, targets)
        d = self.feature_dim
        if z.shape[0] <= d:
            k, e = self._sample_side(z, y)
            self._downdate(k)
            step = k.T @ e
        else:
            solved = self._feature_solve(z, np.hstack([self.gram_inv, self._residual_rhs(z, y)]))
            r_new = require_finite(solved[:, :d], "gram inverse")
            self.gram_inv = (r_new + r_new.T) / 2.0
            step = solved[:, d:]
        self.weights = self.weights + step
        if np.any(np.diag(self.gram_inv) <= 0):
            raise NumericalError("gram inverse lost positive definiteness")
        require_finite(self.weights, "classifier weights")

    def _downdate(self, k: np.ndarray) -> None:
        """``R -= K' K`` in place: the lower triangle by row panels, then the upper copied from it.

        Panel products of different heights do not always give entries (i, j)
        and (j, i) bit for bit alike, so the upper triangle is not computed
        but copied, and R stays exactly symmetric. Each lower panel is checked
        for non-finite entries once written, which covers the copies too.
        Every panel product goes to one reused buffer; the copy runs in square
        tiles staged through one contiguous tile buffer.
        """
        r, d = self.gram_inv, self.feature_dim
        panel = np.empty((PANEL_ROWS, d))
        for i in range(0, d, PANEL_ROWS):
            j = min(i + PANEL_ROWS, d)
            r[i:j, :j] -= np.matmul(k[:, i:j].T, k[:, :j], out=panel[: j - i, :j])
            require_finite(r[i:j, :j], "gram inverse")
        del panel
        tile = np.empty((PANEL_ROWS, PANEL_ROWS))
        strict_upper = np.triu(np.ones((PANEL_ROWS, PANEL_ROWS), dtype=bool), 1)
        for i in range(0, d, PANEL_ROWS):
            j = min(i + PANEL_ROWS, d)
            for a in range(j, d, PANEL_ROWS):
                b = min(a + PANEL_ROWS, d)
                lower = tile[: b - a, : j - i]
                np.copyto(lower, r[a:b, i:j])
                np.copyto(r[i:j, a:b], lower.T)
            block, staged = r[i:j, i:j], tile[: j - i, : j - i]
            np.copyto(staged, block.T)
            np.copyto(block, staged, where=strict_upper[: j - i, : j - i])

    def _checked(self, feats, targets) -> tuple[np.ndarray, np.ndarray]:
        z = as_matrix(feats, "features")
        y = as_matrix(targets, "targets")
        if z.shape[0] != y.shape[0]:
            raise ValueError(f"row mismatch: features {z.shape[0]} vs targets {y.shape[0]}")
        if z.shape[1] != self.feature_dim:
            raise ValueError(f"feature width {z.shape[1]} != classifier width {self.feature_dim}")
        if y.shape[1] != self.num_classes:
            raise ValueError(f"target width {y.shape[1]} != classes seen {self.num_classes}")
        return z, y

    def _sample_side(self, z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``K = L^-1 Z R`` and ``E = L^-1 (Y - Z W)`` with ``L L' = I + Z R Z'``."""
        p = z @ self.gram_inv
        correction = p @ z.T
        correction[np.diag_indices_from(correction)] += 1.0
        try:
            factor = np.linalg.cholesky(correction)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("rank-n correction is not positive definite") from exc
        # L is n x n with a diagonal of at least 1 (I + Z R Z' >= I), so its
        # inverse is accurate, and both triangular solves become products
        factor_inv = np.linalg.inv(factor)
        return factor_inv @ p, factor_inv @ (y - z @ self.weights)

    def _residual_rhs(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``R Z'(Y - Z W)``, whose feature-side solve is the weight step."""
        return self.gram_inv @ (z.T @ (y - z @ self.weights))

    def _feature_solve(self, z: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``(I + R Z'Z)^-1 rhs``, the Woodbury step ``(R^-1 + Z'Z)^-1 R^-1 rhs``."""
        system = self.gram_inv @ (z.T @ z)
        system[np.diag_indices_from(system)] += 1.0
        try:
            return np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("gram update lost invertibility") from exc

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

    def state_buffers(self) -> tuple[np.ndarray, ...]:
        """Width, class count, classes, weights and inverse as contiguous buffers, in hash order."""
        head = np.array([self.feature_dim, self.num_classes], dtype=np.int64)
        classes = np.array(self.classes_seen, dtype=np.int64)
        return head, classes, np.ascontiguousarray(self.weights), np.ascontiguousarray(self.gram_inv)
