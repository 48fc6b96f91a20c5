import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisemix.classifier import RidgeClassifier
from noisemix.numeric import NumericalError, SeededRng, ridge_solve


def one_hot(labels, classes):
    index = {c: j for j, c in enumerate(classes)}
    y = np.zeros((len(labels), len(classes)))
    for i, lab in enumerate(labels):
        y[i, index[lab]] = 1.0
    return y


class TestInit:
    def test_scalar_inverse(self):
        clf = RidgeClassifier(1, 2.0)
        assert clf.gram_inv[0, 0] == pytest.approx(0.5)

    def test_identity_at_unit_regularization(self):
        clf = RidgeClassifier(3, 1.0)
        assert np.array_equal(clf.gram_inv, np.eye(3))

    @pytest.mark.parametrize("lam", [100.0, 0.3])
    def test_inverse_is_the_scaled_identity_bit_for_bit(self, lam):
        assert np.array_equal(RidgeClassifier(257, lam).gram_inv, np.eye(257) / lam)

    def test_inverse_is_the_only_square_array_made(self, traced_peak):
        clf = RidgeClassifier(1024, 100.0)
        assert traced_peak(lambda: RidgeClassifier(1024, 100.0)) < 1.1 * clf.gram_inv.nbytes

    def test_starts_with_no_classes(self):
        clf = RidgeClassifier(4, 1.0)
        assert clf.weights.shape == (4, 0)
        with pytest.raises(ValueError):
            clf.predict(np.zeros((1, 4)))

    def test_rejects_bad_regularization(self):
        with pytest.raises(ValueError):
            RidgeClassifier(4, 0.0)
        with pytest.raises(ValueError):
            RidgeClassifier(4, -3.0)


class TestOneHot:
    def test_unknown_label_raises(self):
        clf = RidgeClassifier(2, 1.0)
        clf.expand_classes([3, 5])
        with pytest.raises(ValueError, match="label 4 not among registered classes"):
            clf.one_hot(np.array([3, 4, 5]))

    def test_columns_follow_registration_order(self):
        clf = RidgeClassifier(2, 1.0)
        clf.expand_classes([7, 2])
        clf.expand_classes([5])
        labels = [2, 5, 7, 2]
        y = clf.one_hot(np.array(labels))
        assert y.dtype == np.float64
        assert np.array_equal(y, one_hot(labels, [7, 2, 5]))


class TestUpdate:
    def test_scalar_first_update(self):
        clf = RidgeClassifier(1, 1.0)
        clf.expand_classes([0])
        clf.update(np.array([[1.0]]), np.array([[1.0]]))
        assert clf.gram_inv[0, 0] == pytest.approx(0.5)
        assert clf.weights[0, 0] == pytest.approx(0.5)

    def test_two_chunks_equal_one_batch(self):
        rng = SeededRng(11)
        z = rng.standard_normal(40, 8)
        y = one_hot([i % 3 for i in range(40)], [0, 1, 2])
        whole = RidgeClassifier(8, 0.7)
        whole.expand_classes([0, 1, 2])
        whole.update(z, y)
        split = RidgeClassifier(8, 0.7)
        split.expand_classes([0, 1, 2])
        split.update(z[:25], y[:25])
        split.update(z[25:], y[25:])
        assert np.linalg.norm(split.weights - whole.weights) / np.linalg.norm(whole.weights) < 1e-8
        assert np.linalg.norm(split.gram_inv - whole.gram_inv) / np.linalg.norm(whole.gram_inv) < 1e-8

    def test_matches_batch_ridge_with_class_growth(self):
        rng = SeededRng(5)
        lam = 2.0
        clf = RidgeClassifier(6, lam)
        chunks = []
        classes_so_far: list[int] = []
        for t, new_classes in enumerate([[0, 1], [2], [3, 4]]):
            clf.expand_classes(new_classes)
            classes_so_far.extend(new_classes)
            z = rng.standard_normal(30, 6)
            labels = [new_classes[i % len(new_classes)] for i in range(30)]
            chunks.append((z, labels))
            clf.update(z, one_hot(labels, classes_so_far))
        all_z = np.vstack([z for z, _ in chunks])
        all_labels = [lab for _, labs in chunks for lab in labs]
        oracle = ridge_solve(all_z, one_hot(all_labels, classes_so_far), lam)
        assert np.linalg.norm(clf.weights - oracle) / np.linalg.norm(oracle) < 1e-8
        gram_oracle = np.linalg.inv(all_z.T @ all_z + lam * np.eye(6))
        assert np.linalg.norm(clf.gram_inv - gram_oracle) / np.linalg.norm(gram_oracle) < 1e-8

    def test_wide_and_tall_batches_agree(self):
        # n <= features uses the sample-side solve, n > features the
        # feature-side Woodbury form; both must produce the same state
        rng = SeededRng(3)
        z = rng.standard_normal(20, 5)
        y = one_hot([i % 2 for i in range(20)], [0, 1])
        tall = RidgeClassifier(5, 1.0)
        tall.expand_classes([0, 1])
        tall.update(z, y)  # n=20 > 5
        narrow = RidgeClassifier(5, 1.0)
        narrow.expand_classes([0, 1])
        for i in range(0, 20, 4):  # n=4 <= 5
            narrow.update(z[i : i + 4], y[i : i + 4])
        assert np.linalg.norm(tall.gram_inv - narrow.gram_inv) < 1e-10
        assert np.linalg.norm(tall.weights - narrow.weights) < 1e-10

    def test_symmetry_maintained(self):
        rng = SeededRng(8)
        clf = RidgeClassifier(10, 0.3)
        clf.expand_classes([0])
        for _ in range(20):
            z = rng.standard_normal(7, 10)
            y = np.ones((7, 1))
            clf.update(z, y)
            assert np.max(np.abs(clf.gram_inv - clf.gram_inv.T)) < 1e-9

    def test_row_mismatch_rejected(self):
        clf = RidgeClassifier(4, 1.0)
        clf.expand_classes([0])
        with pytest.raises(ValueError, match="row mismatch"):
            clf.update(np.zeros((3, 4)), np.zeros((2, 1)))

    def test_target_width_must_cover_registered_classes(self):
        clf = RidgeClassifier(4, 1.0)
        clf.expand_classes([0, 1])
        with pytest.raises(ValueError, match="target width"):
            clf.update(np.zeros((3, 4)), np.zeros((3, 1)))

    def test_duplicate_class_registration_rejected(self):
        clf = RidgeClassifier(4, 1.0)
        clf.expand_classes([0, 1])
        with pytest.raises(ValueError):
            clf.expand_classes([1])

    @given(
        st.lists(st.integers(min_value=1, max_value=59), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_order_preserving_split_matches_batch(self, cuts, seed):
        # any way of cutting one dataset into sequential chunks must land on
        # the same state as a single batch update
        rng = SeededRng(seed)
        n, d, lam = 60, 7, 1.5
        z = rng.standard_normal(n, d)
        labels = [rng.integer(3) for _ in range(n)]
        y = one_hot(labels, [0, 1, 2])
        bounds = sorted({0, n, *[c % n for c in cuts]})
        whole = RidgeClassifier(d, lam)
        whole.expand_classes([0, 1, 2])
        whole.update(z, y)
        split = RidgeClassifier(d, lam)
        split.expand_classes([0, 1, 2])
        for lo, hi in zip(bounds, bounds[1:]):
            split.update(z[lo:hi], y[lo:hi])
        assert np.linalg.norm(split.weights - whole.weights) / np.linalg.norm(whole.weights) < 1e-8
        assert (
            np.linalg.norm(split.gram_inv - whole.gram_inv) / np.linalg.norm(whole.gram_inv) < 1e-8
        )


def state_digest(clf):
    h = hashlib.sha256()
    h.update(clf.weights)
    h.update(clf.gram_inv)
    return h.hexdigest()


def fitted(d, lam, rows, seed):
    """A classifier over three classes after one sample-side update, plus a fresh batch."""
    rng = SeededRng(seed)
    clf = RidgeClassifier(d, lam)
    clf.expand_classes([0, 1, 2])
    clf.update(rng.standard_normal(rows, d), one_hot([i % 3 for i in range(rows)], [0, 1, 2]))
    z = rng.standard_normal(rows, d)
    return clf, z, one_hot([(i + 1) % 3 for i in range(rows)], [0, 1, 2])


class TestTrial:
    @pytest.mark.parametrize("rows", [6, 40])  # sample side, feature side
    def test_trial_writes_nothing(self, rows):
        clf, z, y = fitted(12, 0.5, rows, seed=4)
        before = state_digest(clf)
        clf.trial_weights(z, y)
        assert state_digest(clf) == before

    @pytest.mark.parametrize("rows", [6, 40])
    def test_trial_equals_committed_weights(self, rows):
        clf, z, y = fitted(12, 0.5, rows, seed=9)
        trial = clf.trial_weights(z, y)
        clf.update(z, y)
        assert np.array_equal(trial, clf.weights)

    def test_commit_downdates_the_inverse_in_place(self):
        # 40 rows at d = 64 are past d/2, so the first update folds into the dense form
        clf, z, y = fitted(64, 1.0, 40, seed=2)
        inverse = clf.gram_inv
        clf.update(z, y)
        assert np.shares_memory(clf.gram_inv, inverse)
        assert clf.gram_inv.flags.c_contiguous

    def test_committed_inverse_stays_symmetric(self):
        rng = SeededRng(13)
        clf = RidgeClassifier(300, 0.3)
        clf.expand_classes([0, 1])
        for _ in range(20):
            z = rng.standard_normal(37, 300)
            clf.update(z, one_hot([i % 2 for i in range(37)], [0, 1]))
            assert np.max(np.abs(clf.gram_inv - clf.gram_inv.T)) < 1e-12

    def test_correction_not_positive_definite_raises(self):
        # I + Z R Z' is positive definite for any positive definite R, so
        # the correction fails only once R has lost definiteness
        clf = RidgeClassifier(2, 1.0)
        clf.expand_classes([0])
        clf.gram_inv = np.diag([1.0, -3.0])
        z, y = np.array([[0.0, 1.0]]), np.ones((1, 1))
        before = state_digest(clf)
        with pytest.raises(NumericalError, match="not positive definite"):
            clf.trial_weights(z, y)
        with pytest.raises(NumericalError, match="not positive definite"):
            clf.update(z, y)
        assert state_digest(clf) == before

    def test_overflow_in_the_last_partial_panel_raises(self):
        # d = 300 leaves a last panel of 44 rows; one huge entry in K's last
        # column overflows only R[299, 299] in the downdate
        clf, z, y = fitted(300, 0.5, 16, seed=5)
        sample_side = clf._sample_side

        def blown(z, y):
            k, e = sample_side(z, y)
            k[0, -1] = 1e200
            return k, e

        clf._sample_side = blown
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="non-finite values in gram inverse"):
                clf.update(z, y)

    def test_overflow_in_the_last_partial_panel_of_the_dense_form_raises(self):
        # 160 rows at d = 300 are past d/2, so the second commit downdates R by panels
        clf, z, y = fitted(300, 0.5, 160, seed=5)
        assert clf.rows is None
        sample_side = clf._sample_side

        def blown(z, y):
            k, e = sample_side(z, y)
            k[0, -1] = 1e200
            return k, e

        clf._sample_side = blown
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="non-finite values in gram inverse"):
                clf.update(z, y)

    def test_non_finite_feature_side_inverse_raises(self):
        clf, z, y = fitted(12, 0.5, 40, seed=5)
        feature_solve = clf._feature_solve

        def blown(z, rhs):
            out = feature_solve(z, rhs)
            out[0, 0] = np.inf
            return out

        clf._feature_solve = blown
        with pytest.raises(NumericalError, match="non-finite values in gram inverse"):
            clf.update(z, y)


class TestRowForm:
    @staticmethod
    def oracle(chunks, classes, lam):
        z = np.vstack([c for c, _ in chunks])
        y = one_hot([lab for _, labs in chunks for lab in labs], classes)
        return ridge_solve(z, y, lam), np.linalg.inv(z.T @ z + lam * np.eye(z.shape[1]))

    # batches whose stacked rows reach d/2 (150, and 256 of 256.5), then cross it
    @pytest.mark.parametrize("d, sizes", [(300, [100, 50, 30, 20]), (513, [200, 56, 1, 40])])
    def test_matches_batch_ridge_across_the_fold(self, d, sizes):
        rng = SeededRng(d)
        lam = 0.5
        clf = RidgeClassifier(d, lam)
        clf.expand_classes([0, 1, 2])
        chunks, forms = [], []
        for n in sizes:
            z = rng.standard_normal(n, d)
            labels = [rng.integer(3) for _ in range(n)]
            chunks.append((z, labels))
            clf.update(z, one_hot(labels, [0, 1, 2]))
            forms.append(None if clf.rows is None else clf.rows.shape)
            w_oracle, r_oracle = self.oracle(chunks, [0, 1, 2], lam)
            assert np.linalg.norm(clf.weights - w_oracle) / np.linalg.norm(w_oracle) < 1e-10
            assert np.linalg.norm(clf.gram_inv - r_oracle) / np.linalg.norm(r_oracle) < 1e-10
        m = np.cumsum(sizes)
        assert forms == [(m[0], d), (m[1], d), None, None]

    def test_first_feature_side_batch_folds(self):
        rng = SeededRng(21)
        clf = RidgeClassifier(40, 0.5)
        clf.expand_classes([0, 1])
        chunks = [(rng.standard_normal(10, 40), [i % 2 for i in range(10)])]
        chunks.append((rng.standard_normal(60, 40), [i % 2 for i in range(60)]))
        clf.update(chunks[0][0], one_hot(chunks[0][1], [0, 1]))
        assert clf.rows.shape == (10, 40)
        clf.update(chunks[1][0], one_hot(chunks[1][1], [0, 1]))
        assert clf.rows is None
        w_oracle, r_oracle = self.oracle(chunks, [0, 1], 0.5)
        assert np.linalg.norm(clf.weights - w_oracle) / np.linalg.norm(w_oracle) < 1e-10
        assert np.linalg.norm(clf.gram_inv - r_oracle) / np.linalg.norm(r_oracle) < 1e-10

    @pytest.mark.parametrize("rows", [37, 300])  # sample side, feature side
    def test_first_update_equals_the_dense_form_bit_for_bit(self, rows):
        rng = SeededRng(17)
        d, lam = 256, 0.3
        z = rng.standard_normal(rows, d)
        y = one_hot([i % 3 for i in range(rows)], [0, 1, 2])
        row_form, dense = RidgeClassifier(d, lam), RidgeClassifier(d, lam)
        dense.gram_inv = np.eye(d) / lam
        for clf in (row_form, dense):
            clf.expand_classes([0, 1, 2])
        assert np.array_equal(row_form.trial_weights(z, y), dense.trial_weights(z, y))
        row_form.update(z, y)
        dense.update(z, y)
        assert (row_form.rows is None) == (rows > d) and dense.rows is None
        assert np.array_equal(row_form.weights, dense.weights)
        assert np.array_equal(row_form.gram_inv, dense.gram_inv)

    def test_reading_the_inverse_leaves_the_row_form(self):
        clf, _, _ = fitted(64, 1.0, 16, seed=3)
        rows = clf.rows
        before = state_digest(clf)
        first, second = clf.gram_inv, clf.gram_inv
        assert clf.rows is rows and state_digest(clf) == before
        assert np.array_equal(first, second) and not np.shares_memory(first, second)
        assert np.array_equal(first, first.T)

    def test_assigning_the_inverse_switches_to_the_dense_form(self):
        clf, _, _ = fitted(64, 1.0, 16, seed=3)
        inverse = clf.gram_inv
        clf.gram_inv = inverse
        assert clf.rows is None and clf.gram_inv is inverse

    def test_diagonal_matches_the_inverse_in_either_form(self):
        clf, _, _ = fitted(64, 1.0, 16, seed=3)
        assert np.max(np.abs(clf.diagonal() - np.diag(clf.gram_inv))) < 1e-15
        clf.gram_inv = clf.gram_inv
        assert np.array_equal(clf.diagonal(), np.diag(clf.gram_inv))

    def test_lost_definiteness_raises(self):
        # a finite K entry whose square exceeds 1/lambda makes the implied diagonal negative
        clf, z, y = fitted(300, 0.5, 16, seed=5)
        sample_side = clf._sample_side

        def blown(z, y):
            k, e = sample_side(z, y)
            k[0, 7] = 10.0
            return k, e

        clf._sample_side = blown
        with pytest.raises(NumericalError, match="lost positive definiteness"):
            clf.update(z, y)

    def test_non_finite_rows_raise(self):
        clf, z, y = fitted(300, 0.5, 16, seed=5)
        sample_side = clf._sample_side

        def blown(z, y):
            k, e = sample_side(z, y)
            k[3, 0] = np.nan
            return k, e

        clf._sample_side = blown
        with pytest.raises(NumericalError, match="non-finite values in gram inverse"):
            clf.update(z, y)

    def test_commit_and_trial_make_no_square_array(self, traced_peak):
        clf, z, y = fitted(4096, 1.0, 64, seed=6)
        assert clf.rows.shape == (64, 4096)
        square = 4096 * 4096 * 8
        assert traced_peak(lambda: clf.trial_weights(z, y)) < square // 16
        assert traced_peak(lambda: clf.update(z, y)) < square // 16
        assert clf.rows.shape == (128, 4096)

    def test_a_commit_that_fits_the_store_appends_in_place(self):
        # a store that is too small is regrown to twice the rows it must hold,
        # at most d/2: to 8, 24 and 32 rows at d = 64, so the other commits fit
        rng = SeededRng(23)
        clf = RidgeClassifier(64, 0.5)
        clf.expand_classes([0, 1])
        chunks, in_place = [], []
        for _ in range(8):
            old, z = clf.rows, rng.standard_normal(4, 64)
            before = old.tobytes()
            chunks.append((z, [rng.integer(2) for _ in range(4)]))
            clf.update(z, one_hot(chunks[-1][1], [0, 1]))
            assert clf.rows.shape == (len(old) + 4, 64) and clf.rows.flags.c_contiguous
            assert old.tobytes() == before and np.array_equal(clf.rows[: len(old)], old)
            in_place.append(np.shares_memory(old, clf.rows))
        assert in_place == [False, True, False, True, True, True, False, True]
        w_oracle, r_oracle = self.oracle(chunks, [0, 1], 0.5)
        assert np.linalg.norm(clf.weights - w_oracle) / np.linalg.norm(w_oracle) < 1e-10
        assert np.linalg.norm(clf.gram_inv - r_oracle) / np.linalg.norm(r_oracle) < 1e-10

    @pytest.mark.parametrize("n", [8, 12])  # the 16-row store has room; it is regrown
    def test_the_factor_is_made_in_the_rows_it_joins(self, n):
        clf, _, _ = fitted(64, 1.0, 8, seed=7)
        sample_side, made = clf._sample_side, []

        def recorded(z, y):
            made.append(sample_side(z, y))
            return made[-1]

        clf._sample_side = recorded
        clf.update(SeededRng(8).standard_normal(n, 64), one_hot([i % 3 for i in range(n)], [0, 1, 2]))
        [(k, _)] = made
        assert clf.rows.shape == (8 + n, 64) and np.shares_memory(k, clf.rows[8:])

    def test_a_clone_appends_like_its_original(self):
        clf, z, y = fitted(64, 1.0, 4, seed=8)
        clf.update(z, y)
        clf.update(z[:2], y[:2])  # 10 rows in a store of 20
        twin = clf.clone()
        for c in (clf, twin):
            c.update(z, y)
        assert np.array_equal(twin.rows, clf.rows) and np.array_equal(twin.weights, clf.weights)


class TestDowndate:
    # widths that are not a multiple of the panel height, and n = d, the
    # widest batch still folded in on the sample side
    @pytest.mark.parametrize("d, rows", [(300, 37), (1000, 64), (300, 300), (1000, 1000)])
    def test_panels_match_the_dense_downdate_and_stay_symmetric(self, d, rows):
        clf, z, y = fitted(d, 0.5, rows, seed=d + rows)
        before = clf.gram_inv.copy()
        p = z @ before
        dense = before - p.T @ np.linalg.solve(np.eye(rows) + p @ z.T, p)
        clf.update(z, y)
        assert np.array_equal(clf.gram_inv, clf.gram_inv.T)
        assert np.max(np.abs(clf.gram_inv - dense)) < 1e-12

    # one short of, at, and one past a panel and mirror tile; two tiles and one row
    @pytest.mark.parametrize("d", [255, 256, 257, 513])
    def test_widths_at_tile_and_panel_edges(self, d):
        clf, z, y = fitted(d, 0.5, 37, seed=d)
        before = clf.gram_inv.copy()
        p = z @ before
        dense = before - p.T @ np.linalg.solve(np.eye(37) + p @ z.T, p)
        clf.update(z, y)
        assert np.array_equal(clf.gram_inv, clf.gram_inv.T)
        assert np.max(np.abs(clf.gram_inv - dense)) < 1e-12


class TestSampleSide:
    @pytest.mark.parametrize("d, rows", [(300, 37), (1000, 37), (300, 300), (1000, 1000)])
    def test_products_with_the_inverted_factor_match_triangular_solves(self, d, rows):
        clf, z, y = fitted(d, 0.5, rows, seed=d + rows)
        p = z @ clf.gram_inv
        factor = np.linalg.cholesky(np.eye(rows) + p @ z.T)
        k, step = clf._sample_side(z, y)
        want = np.linalg.solve(factor, p)
        assert np.max(np.abs(k - want)) < 1e-12 * np.max(np.abs(want))
        # the step P'V is K'E with E = L^-1 (Y - Z W)
        want = want.T @ np.linalg.solve(factor, y - z @ clf.weights)
        assert np.max(np.abs(step - want)) < 1e-12 * np.max(np.abs(want))


class TestMemory:
    def test_trial_and_commit_make_no_square_temporary(self, traced_peak):
        clf, z, y = fitted(1024, 1.0, 64, seed=6)
        limit = clf.gram_inv.nbytes // 2
        assert traced_peak(lambda: clf.trial_weights(z, y)) < limit
        assert traced_peak(lambda: clf.update(z, y)) < limit

    def test_row_form_trial_holds_about_one_batch(self, traced_peak):
        # the trial stops at the weight step: it makes Z/lambda, but neither P nor K
        clf, z, y = fitted(4096, 1.0, 64, seed=6)
        assert clf.rows.shape == (64, 4096)
        peak = traced_peak(lambda: clf.trial_weights(z, y))
        assert peak < 1.5 * z.nbytes, peak / z.nbytes

    def test_wide_commit_holds_under_an_eighth_of_the_inverse(self, traced_peak):
        # at d = 4096 a d x d boolean temporary alone is an eighth of R
        clf, z, y = fitted(4096, 1.0, 64, seed=6)
        assert traced_peak(lambda: clf.update(z, y)) < clf.gram_inv.nbytes // 8

    def test_dense_commit_holds_under_an_eighth_of_the_inverse(self, traced_peak):
        clf, z, y = fitted(4096, 1.0, 64, seed=6)
        clf.gram_inv = clf.gram_inv  # assigning the inverse switches to the dense form
        assert traced_peak(lambda: clf.update(z, y)) < clf.gram_inv.nbytes // 8

    def test_feature_side_solve_adds_no_identity_temporary(self, traced_peak):
        # the system I + R Z'Z is built in place: the trial holds Z'Z and the
        # system, the commit also the stacked right-hand side [R | R Z'(Y - Z W)]
        clf, z, y = fitted(256, 1.0, 300, seed=6)
        assert traced_peak(lambda: clf.trial_weights(z, y)) < 2.5 * clf.gram_inv.nbytes
        assert traced_peak(lambda: clf.update(z, y)) < 3.5 * clf.gram_inv.nbytes


class TestPredict:
    def test_zero_features_tie_break_to_first_class(self):
        clf = RidgeClassifier(3, 1.0)
        clf.expand_classes([7, 2, 5])
        clf.weights = np.zeros((3, 3))
        labels = clf.predict_labels(np.zeros((4, 3)))
        assert np.all(labels == 7)

    def test_single_class_always_predicted(self):
        rng = SeededRng(2)
        clf = RidgeClassifier(3, 1.0)
        clf.expand_classes([9])
        clf.update(rng.standard_normal(10, 3), np.ones((10, 1)))
        assert np.all(clf.predict_labels(rng.standard_normal(5, 3)) == 9)

    def test_separable_scalar_data_fully_learned(self):
        z = np.array([[v] for v in (-3.0, -2.5, -2.0, 2.0, 2.5, 3.0)])
        labels = [0, 0, 0, 1, 1, 1]
        clf = RidgeClassifier(1, 0.01)
        clf.expand_classes([0, 1])
        clf.update(z, one_hot(labels, [0, 1]))
        assert np.array_equal(clf.predict_labels(z), np.array(labels))

    def test_width_checked(self):
        clf = RidgeClassifier(3, 1.0)
        clf.expand_classes([0])
        with pytest.raises(ValueError):
            clf.predict(np.zeros((1, 4)))
