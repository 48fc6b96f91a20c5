import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import next_word
from noisemix.numeric import (
    NumericalError,
    SeededRng,
    derive_seed,
    finite_difference_gradient,
    softmax,
)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax([1.0, 1.0, 1.0], 2.0)
        assert np.allclose(out, 1.0 / 3.0)

    def test_singleton(self):
        assert softmax([3.7], 0.5)[0] == pytest.approx(1.0)

    def test_two_point_value(self):
        out = softmax([1.0, 0.0], 2.0)
        assert out[0] == pytest.approx(0.6225, abs=1e-4)
        assert out[1] == pytest.approx(0.3775, abs=1e-4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            softmax([], 1.0)
        with pytest.raises(ValueError):
            softmax([1.0], 0.0)

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=-30, max_value=30),
    )
    def test_sums_to_one_and_shift_invariant(self, values, tau, shift):
        out = softmax(values, tau)
        assert abs(out.sum() - 1.0) <= 1e-12
        shifted = softmax(np.asarray(values) + shift, tau)
        assert np.max(np.abs(out - shifted)) <= 1e-12


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(1993).standard_normal(2, 2)
        b = SeededRng(1993).standard_normal(2, 2)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeededRng(1).standard_normal(2, 2)
        b = SeededRng(2).standard_normal(2, 2)
        assert not np.array_equal(a, b)

    def test_moments(self):
        draws = SeededRng(2718).standard_normal(10000)
        assert abs(float(draws.mean())) < 0.05
        assert abs(float(draws.var()) - 1.0) < 0.05

    def test_uniform_in_half_open_unit(self):
        u = SeededRng(5).uniform(10000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            SeededRng(1).standard_normal(0, 3)

    @pytest.mark.parametrize("rows, cols, blocks", [(128, 8, 15), (3, 3, 4), (1, 1, 5), (5, None, 3), (7, 5, 1)])
    def test_blocks_equal_separate_calls(self, rows, cols, blocks):
        # odd sizes waste one word per block, as a separate call does
        one, many = SeededRng(9), SeededRng(9)
        drawn = one.standard_normal(rows, cols, blocks=blocks)
        separate = np.stack([many.standard_normal(rows, cols) for _ in range(blocks)])
        assert drawn.shape == separate.shape
        assert np.array_equal(drawn, separate)
        assert next_word(one) == next_word(many)

    def test_blocks_must_be_positive(self):
        with pytest.raises(ValueError, match="blocks"):
            SeededRng(1).standard_normal(2, 3, blocks=0)

    def test_call_sequence_matters_but_is_reproducible(self):
        r1 = SeededRng(9)
        r1.uniform(3)
        after = r1.standard_normal(2, 2)
        r2 = SeededRng(9)
        r2.uniform(3)
        assert np.array_equal(after, r2.standard_normal(2, 2))

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50)
    def test_permutation_is_bijection(self, n, seed):
        perm = SeededRng(seed).permutation(n)
        assert sorted(perm.tolist()) == list(range(n))

    @pytest.mark.parametrize("seed", [0, 1993, 2**63 + 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 1000, 40000])
    def test_permutation_matches_fisher_yates_loop(self, n, seed):
        # reference: one integer() draw per swap, i from n-1 down to 1
        reference = SeededRng(seed)
        expected = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = reference.integer(i + 1)
            expected[i], expected[j] = expected[j], expected[i]
        rng = SeededRng(seed)
        perm = rng.permutation(n)
        assert perm.dtype == expected.dtype
        assert np.array_equal(perm, expected)
        assert next_word(rng) == next_word(reference)

    def test_split_streams_are_independent_of_consumption(self):
        r = SeededRng(77)
        child_before = r.split("x").standard_normal(3)
        r.uniform(100)
        child_after = r.split("x").standard_normal(3)
        assert np.array_equal(child_before, child_after)

    def test_derive_seed_distinguishes_keys(self):
        seeds = {
            derive_seed(1, "a"),
            derive_seed(1, "b"),
            derive_seed(1, 0),
            derive_seed(1, 1),
            derive_seed(2, "a"),
        }
        assert len(seeds) == 5


class TestFiniteDifference:
    def test_quadratic(self):
        grad = finite_difference_gradient(lambda t: t[0] ** 2, [3.0], 1e-5)
        assert grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        grad = finite_difference_gradient(lambda t: 4.2, [1.0, -2.0, 0.5], 1e-5)
        assert np.max(np.abs(grad)) < 1e-9

    def test_bilinear(self):
        grad = finite_difference_gradient(lambda t: t[0] * t[1], [2.0, 5.0], 1e-5)
        assert grad[0] == pytest.approx(5.0, abs=1e-6)
        assert grad[1] == pytest.approx(2.0, abs=1e-6)

    def test_non_finite_objective_rejected(self):
        with pytest.raises(NumericalError):
            finite_difference_gradient(lambda t: float("nan"), [1.0], 1e-5)
