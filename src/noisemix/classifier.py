"""Incrementally updatable ridge classifier.

The classifier keeps the inverse R of the regularized feature Gram matrix,
so each new batch of (features Z, one-hot targets Y) updates the exact batch
ridge solution without ever revisiting old data. New classes append zero
columns to the weight matrix before the update that introduces them.

R is held as ``R = B - K'K``: a base B and the stacked sample-side factors K
(m x d, d the feature width) in a row store. In the row form, used while at
most d/2 rows have been folded in, B is I/lambda and no d x d array is
kept: ``Z R`` is ``Z/lambda - (Z K') K``, at 4nmd flops instead of 2nd^2. In
the dense form B is R itself and the row store is empty. The first commit
that would take the rows past d/2, or the first batch of more than d rows,
folds them once: a fresh 1/lambda diagonal is downdated by all of them.
Reading :attr:`RidgeClassifier.gram_inv` in the row form returns such a
fold, a fresh dense copy, and leaves the form as it is; assigning it
switches to the dense form.

A batch of at most d rows is folded in on the sample side, by one step for
both forms. With ``P = Z R``, ``L L' = I + P Z'`` (Cholesky) and
``V = L^-T L^-1 (Y - Z W)``, the new solution is ``W + P'V`` and the new
inverse is ``R - K'K`` with ``K = L^-1 P``. The n x n inverse of L is made
once, so both triangular solves run as matrix products. With ``P0 = Z B``
and ``Q = Z K_s'`` over the stored rows K_s, ``P Z' = P0 Z' - Q Q'`` and
``P'V = P0'V - K_s'(Q'V)``, so the weight step needs neither P nor K:
:meth:`RidgeClassifier.trial_weights` stops there and writes nothing, and
:meth:`RidgeClassifier.update` makes the same step, then forms P and K. In
the dense form Q is n x 0 and its products are exact zeros, and with no rows
the row form equals the dense form at ``R = I/lambda`` bit for bit. Every
product that reads a transposed view is written in the orientation OpenBLAS
was measured to run faster, ``(V' P)'`` for ``P'V``; the transpose holds the
same values. In the row form the commit writes K straight into the spare
capacity of the row store, which is regrown to twice the rows it must hold,
at most d/2, only when full. Every commit checks the diagonal
``diag(B) - sum K^2``: it must be finite, which also holds K finite, and
positive, which bounds every entry of R by 1/lambda in the row form. A dense
R is downdated in place: its lower triangle one panel of rows at a time,
its upper triangle copied from the lower tile by tile, so no d x d temporary
is made and R stays exactly symmetric; each panel is checked for non-finite
entries where it is written. A batch of more rows takes the feature-side
Woodbury form on the dense inverse: the trial solves
``(I + R Z'Z) X = R Z'(Y - Z W)`` and returns ``W + X``; the commit makes the
same solve against ``[R | R Z'(Y - Z W)]``, takes ``W + X`` from its last c
columns and the new inverse, checked and symmetrized, from its first d.
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
        self.rows = np.zeros((0, self.feature_dim))
        self.weights = np.zeros((feature_dim, 0))
        self.classes_seen: list[int] = []

    @property
    def num_classes(self) -> int:
        return len(self.classes_seen)

    @property
    def rows(self) -> np.ndarray | None:
        """The stacked factors K of the row form, ``R = I/lambda - K'K``; None in the dense form."""
        return self._rows if self._inverse is None else None

    @rows.setter
    def rows(self, value: np.ndarray) -> None:
        # the given array is the whole store: rows appended later go to a new one
        self._rows, self._store, self._inverse = value, value, None

    @property
    def gram_inv(self) -> np.ndarray:
        """R as a dense array; in the row form a fresh fold of the rows, and the form stays."""
        return self._dense()

    @gram_inv.setter
    def gram_inv(self, value: np.ndarray | None) -> None:
        # None drops the state: the row form with no rows
        self.rows = np.zeros((0, self.feature_dim))
        self._inverse = value

    def diagonal(self) -> np.ndarray:
        """The diagonal of R, in either form; no d x d array is made."""
        base = 1.0 / self.regularization if self._inverse is None else np.diag(self._inverse)
        return base - np.einsum("ij,ij->j", self._rows, self._rows)

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
            return self.weights + self._weight_step(z, y)[0]
        r = self.gram_inv
        return self.weights + self._feature_solve(z, self._residual_rhs(z, y, r), r)

    def update(self, feats: np.ndarray, targets: np.ndarray) -> None:
        """Fold one batch into the running ridge solution.

        ``targets`` must already span every registered class (call
        :meth:`expand_classes` first when the batch introduces new ones).
        On the sample side the row form appends K while the rows stay within
        d/2 (K is written straight into the row store, which is regrown only
        when full); otherwise R is made or kept dense and downdated,
        ``R -= K' K``, in place one panel of rows at a time. On the feature
        side R is made dense first, and the inverse is replaced. Either way
        the weights committed are exactly :meth:`trial_weights`'s, and the
        diagonal of the new inverse is checked to be finite and positive.
        """
        z, y = self._checked(feats, targets)
        d = self.feature_dim
        if z.shape[0] <= d:
            k, step = self._sample_side(z, y)
            if self._spare(len(k)) is None:
                self.gram_inv = self._dense(k)
            else:  # K is already in the store's spare rows
                self._rows = self._store[: len(self._rows) + len(k)]
        else:
            self.gram_inv = r = self._dense()
            solved = self._feature_solve(z, np.hstack([r, self._residual_rhs(z, y, r)]))
            r_new = require_finite(solved[:, :d], "gram inverse")
            self.gram_inv = (r_new + r_new.T) / 2.0
            step = solved[:, d:]
        self.weights = self.weights + step
        diag = require_finite(self.diagonal(), "gram inverse")
        if np.any(diag <= 0):
            raise NumericalError("gram inverse lost positive definiteness")
        require_finite(self.weights, "classifier weights")

    def _dense(self, *blocks: np.ndarray) -> np.ndarray:
        """``R - sum K'K`` over the blocks as a dense array, the only place one is
        made or downdated: the dense form's inverse is downdated in place, the
        row form's rows and blocks are folded into a fresh 1/lambda diagonal."""
        r = self._inverse
        if r is None:
            # only the diagonal is written here; the other pages of np.zeros stay untouched until used
            r = np.zeros((self.feature_dim, self.feature_dim))
            np.fill_diagonal(r, 1.0 / self.regularization)
        blocks = [k for k in (self._rows, *blocks) if len(k)]
        if blocks:
            _downdate(r, *blocks)
        return r

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

    def _weight_step(self, z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """The sample-side weight step ``P'V``, ``V = L^-T L^-1 (Y - Z W)`` with
        ``L L' = I + Z R Z'``, and what the commit forms K from: returns
        ``(step, L^-1, P0, Q)`` with ``P = P0 - Q K_s``.

        ``P0`` is Z times the dense inverse, or ``Z/lambda`` in the row form;
        ``Q = Z K_s'`` over the stored rows, n x 0 in the dense form, where
        its zero products are subtracted exactly.
        """
        # with no rows yet Z/lambda is z @ (I/lambda) bit for bit
        p = z * (1.0 / self.regularization) if self._inverse is None else z @ self._inverse
        q = z @ self._rows.T
        # (Z P')' for P Z' and (V'P)' for P'V: the orientations OpenBLAS runs faster
        correction = (z @ p.T).T - q @ q.T
        correction[np.diag_indices_from(correction)] += 1.0
        try:
            factor = np.linalg.cholesky(correction)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("rank-n correction is not positive definite") from exc
        # L is n x n with a diagonal of at least 1 (I + Z R Z' >= I), so its
        # inverse is accurate, and both triangular solves become products
        factor_inv = np.linalg.inv(factor)
        v_t = (factor_inv @ (y - z @ self.weights)).T @ factor_inv
        step_t = v_t @ p - (v_t @ q) @ self._rows
        return step_t.T, factor_inv, p, q

    def _sample_side(self, z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The commit's ``K = L^-1 P`` and weight step (:meth:`_weight_step`).

        In the row form K is written into the row store's spare capacity when
        the rows it joins stay within d/2.
        """
        step, factor_inv, p, q = self._weight_step(z, y)
        p -= q @ self._rows
        return np.matmul(factor_inv, p, out=self._spare(len(z))), step

    def _spare(self, n: int) -> np.ndarray | None:
        """The row store's next n rows; if they do not fit, the store is first
        regrown to twice the rows it must hold, at most d/2. None in the dense
        form or past d/2 rows."""
        m = len(self._rows)
        if self._inverse is not None or 2 * (m + n) > self.feature_dim:
            return None
        if m + n > len(self._store):
            capacity = min(2 * (m + n), self.feature_dim // 2)
            store = np.empty((capacity, self.feature_dim))
            store[:m] = self._rows
            self._store, self._rows = store, store[:m]
        return self._store[m : m + n]

    def _residual_rhs(self, z: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
        """``R Z'(Y - Z W)``, whose feature-side solve is the weight step."""
        return r @ ((y - z @ self.weights).T @ z).T

    def _feature_solve(self, z: np.ndarray, rhs: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
        """``(I + R Z'Z)^-1 rhs``, the Woodbury step ``(R^-1 + Z'Z)^-1 R^-1 rhs``; R is
        the dense inverse given, or else the classifier's own."""
        system = (self._inverse if r is None else r) @ (z.T @ z)
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
        """Width, class count, classes, weights, the dense inverse if there is one
        and the rows, as contiguous buffers, in hash order."""
        head = np.array([self.feature_dim, self.num_classes], dtype=np.int64)
        classes = np.array(self.classes_seen, dtype=np.int64)
        state = [s for s in (self.weights, self._inverse, self._rows) if s is not None]
        return head, classes, *map(np.ascontiguousarray, state)


def _downdate(r: np.ndarray, *blocks: np.ndarray) -> None:
    """``R -= sum K' K`` over the blocks of rows, in place: the lower triangle by
    row panels, then the upper copied from it.

    Panel products of different heights do not always give entries (i, j)
    and (j, i) bit for bit alike, so the upper triangle is not computed
    but copied, and R stays exactly symmetric. Each lower panel is checked
    for non-finite entries once written, which covers the copies too.
    Every panel product goes to one reused buffer; the copy runs in square
    tiles staged through one contiguous tile buffer.
    """
    d = r.shape[0]
    panel = np.empty((PANEL_ROWS, d))
    for i in range(0, d, PANEL_ROWS):
        j = min(i + PANEL_ROWS, d)
        for k in blocks:
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
