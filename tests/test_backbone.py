import numpy as np
import pytest

from conftest import model_config
from noisemix.classifier import RidgeClassifier
from noisemix.config import set_key
from noisemix.model import ContinualModel, block0_output, build_model, draw_noise, forward_pass
from noisemix.numeric import NumericalError, SeededRng
from noisemix.pinoise import MixtureStrategy, init_mix_weights, new_generator


def small_model(with_noise=True, seed=3):
    return build_model(model_config(24, 3, 48, 6, 10.0, seed, enabled=with_noise), 12)


class TestConstruction:
    def test_shapes(self):
        model = build_model(model_config(16, 3, 48, 6, 10.0, 1), 10)
        assert model.adapter.shape == (10, 16)
        assert len(model.blocks) == 3
        assert all(weight.shape == (16, 16) for weight in model.blocks)
        assert model.projection.shape == (16, 48)

    def test_buffer_must_be_at_least_feature_width(self):
        with pytest.raises(ValueError, match="buffer size"):
            build_model(model_config(16, 3, 8, 6, 10.0, 1), 10)

    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            build_model(model_config(16, 3, 48, 6, 10.0, 1), 0)

    def test_stream_split_by_component(self):
        a = build_model(model_config(16, 2, 48, 6, 10.0, 1), 10)
        b = build_model(model_config(16, 2, 48, 6, 10.0, 1), 10)
        assert np.array_equal(a.adapter, b.adapter)
        assert not np.array_equal(a.blocks[0], a.blocks[1])


def frozen_arrays(model):
    """Every frozen array of ``model`` by name; the gain is a float and is not here."""
    arrays = {"adapter": model.adapter, "projection": model.projection}
    arrays.update((f"block{l}", weight) for l, weight in enumerate(model.blocks))
    for l, layer in enumerate(model.layers or ()):
        arrays.update({f"down_proj{l}": layer.down_proj, f"up_proj{l}": layer.up_proj})
    return arrays


FROZEN = [
    (name, noise)
    for noise in (False, True)
    for name in ["gain", *frozen_arrays(small_model(with_noise=noise))]
]


@pytest.mark.parametrize("name, noise", FROZEN, ids=[f"{n}-{'noise' if x else 'plain'}" for n, x in FROZEN])
def test_frozen_hash_covers_every_frozen_parameter(name, noise):
    model = small_model(with_noise=noise)
    before = model.frozen_param_hash()
    if name == "gain":
        model.gain += 0.25
    else:
        frozen_arrays(model)[name][-1, -1] += 1.0
    assert model.frozen_param_hash() != before


# each model-level key with a value apart from model_config's, and what the
# value must do to the built model; None: it changes the frozen parameters
MODEL_KEYS = [
    ("backbone.depth", "2", None),
    ("backbone.feature_dim", "16", None),
    ("backbone.gain", "0.25", None),
    ("backbone.buffer_size", "64", None),
    ("backbone.seed", "8", None),
    ("pinoise.enabled", "false", lambda m: m.layers is None),
    ("pinoise.latent_dim", "5", lambda m: [layer.latent_dim for layer in m.layers] == [5, 5, 5]),
    ("classifier.regularization", "2.5", lambda m: m.classifier.regularization == 2.5),
    ("pinoise.strategy", "average", lambda m: m.strategy is MixtureStrategy.AVERAGE),
]


@pytest.mark.parametrize("key, value, holds", MODEL_KEYS, ids=[key for key, _, _ in MODEL_KEYS])
def test_build_model_honours_every_model_level_key(key, value, holds):
    cfg = model_config(24, 3, 48, 6, 10.0, 3)
    before = build_model(cfg, 12)
    set_key(cfg, key, value)
    model = build_model(cfg, 12)
    if holds is None:
        assert model.frozen_param_hash() != before.frozen_param_hash()
    else:
        assert holds(model) and not holds(before)


class TestForward:
    def test_zero_noise_layers_match_plain_backbone_bitwise(self):
        plain = small_model(with_noise=False)
        noisy = small_model(with_noise=True)
        for layer in noisy.layers:
            layer.bank = new_generator(6, SeededRng(1), init_scale=0.0)[None, :]
            layer.prototypes = np.ones((1, 6))
            layer.mix_weights = init_mix_weights(layer.prototypes, 2.0)
        x = SeededRng(99).standard_normal(8, 12)
        z_plain, _, _ = forward_pass(plain, block0_output(plain, x))
        z_noisy, _, _ = forward_pass(noisy, block0_output(noisy, x))
        assert np.array_equal(z_plain, z_noisy)

    def test_row_independence(self):
        model = small_model()
        x = SeededRng(99).standard_normal(8, 12)
        z8, _, _ = forward_pass(model, block0_output(model, x))
        for i in range(8):
            z1, _, _ = forward_pass(model, block0_output(model, x[i : i + 1]))
            np.testing.assert_allclose(z1[0], z8[i], rtol=1e-12, atol=1e-12)

    def test_golden_snapshot(self):
        # values generated once from this implementation and pinned; the rng
        # is version-independent so these must never drift
        model = build_model(model_config(64, 4, 128, 16, 100.0, 7, enabled=False), 32)
        x = SeededRng(123).standard_normal(4, 32)
        r = block0_output(model, x)
        z, pre, _ = forward_pass(model, r)
        assert pre[0] is r
        assert float(z.mean()) == pytest.approx(3.6249102681634393, abs=1e-9)
        assert float(z[3, 127]) == pytest.approx(6.267848750488579, abs=1e-9)
        assert float(z[0, 0]) == 0.0
        assert float(pre[-1].mean()) == pytest.approx(-0.04391429178216594, abs=1e-9)

    @pytest.mark.parametrize(
        "batch, error, message",
        [
            (np.ones(12), ValueError, r"^input batch must be 2-dimensional, got shape \(12,\)$"),
            (np.ones((2, 5)), ValueError, r"^input width 5 != backbone input 12$"),
            (np.full((2, 12), np.inf), NumericalError, r"^non-finite values in input batch$"),
        ],
        ids=["not-a-matrix", "width", "non-finite"],
    )
    def test_raw_inputs_checked_where_they_enter(self, batch, error, message):
        model = small_model()
        with pytest.raises(error, match=message):
            block0_output(model, batch)
        with pytest.raises(error, match=message):
            model.features(batch)

    def test_non_finite_block0_output_detected(self):
        model = small_model()
        model.gain = np.inf
        with pytest.raises(NumericalError, match=r"^non-finite values in block 0 output$"):
            block0_output(model, np.ones((2, 12)))

    def test_forward_leaves_parameters_untouched(self):
        model = small_model()
        before = model.frozen_param_hash()
        forward_pass(model, block0_output(model, SeededRng(1).standard_normal(16, 12)))
        assert model.frozen_param_hash() == before


class TestFeatureNoisePaths:
    def noisy_model(self):
        model = small_model()
        for layer in model.layers:
            layer.bank = new_generator(6, SeededRng(2), init_scale=0.5)[None, :]
            layer.prototypes = np.ones((1, 6))
            layer.mix_weights = init_mix_weights(layer.prototypes, 2.0)
        return model

    def test_mean_path_ignores_rng(self):
        model = self.noisy_model()
        x = SeededRng(5).standard_normal(4, 12)
        a = model.features(x, rng=SeededRng(1))
        b = model.features(x, rng=SeededRng(2))
        assert np.array_equal(a, b)

    def test_sampling_path_draws_from_rng(self):
        model = self.noisy_model()
        x = SeededRng(5).standard_normal(4, 12)
        a = model.features(x, rng=SeededRng(1), eval_mode=False)
        b = model.features(x, rng=SeededRng(2), eval_mode=False)
        c = model.features(x, rng=SeededRng(1), eval_mode=False)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)
        with pytest.raises(ValueError, match="rng"):
            model.features(x, eval_mode=False)


class TestDrawNoise:
    """Every draw of a forward pass comes from :func:`draw_noise`, in one order."""

    def random_task_model(self, counts):
        model = small_model()
        model.strategy = MixtureStrategy.RANDOM_TASK
        for layer, k in zip(model.layers, counts):
            vectors = [new_generator(6, SeededRng(10 + t), init_scale=0.5) for t in range(k)]
            layer.bank = np.vstack([layer.bank, *vectors])
        return model

    def test_every_draw_then_every_pick_layer_by_layer(self):
        # the middle layer has an empty bank, so it draws nothing
        model = self.random_task_model([3, 0, 2])
        rng, twin = SeededRng(7), SeededRng(7)
        [(eps, picks)] = draw_noise(model, [5], rng, rng)
        assert eps[1] is None and picks[1] is None
        for l in (0, 2):
            assert np.array_equal(eps[l], twin.standard_normal(5, 6))
        assert picks[0] == twin.integer(3) and picks[2] == twin.integer(2)
        assert rng.state == twin.state

    @pytest.mark.parametrize("counts", [[3, 3, 3], [2, 0, 1]])
    @pytest.mark.parametrize("sizes", [[5, 5, 5, 3], [4, 4], [7], [1, 2, 2, 1]])
    def test_epoch_draw_equals_per_batch_draws(self, counts, sizes):
        model = self.random_task_model(counts)
        eps_rng, pick_rng = SeededRng(1), SeededRng(2)
        eps_twin, pick_twin = SeededRng(1), SeededRng(2)
        batches = draw_noise(model, sizes, eps_rng, pick_rng)
        assert len(batches) == len(sizes)
        for size, (eps, picks) in zip(sizes, batches):
            [(want_eps, want_picks)] = draw_noise(model, [size], eps_twin, pick_twin)
            assert picks == want_picks
            assert [e is None for e in eps] == [e is None for e in want_eps]
            assert all(e is None or np.array_equal(e, w) for e, w in zip(eps, want_eps))
        assert (eps_rng.state, pick_rng.state) == (eps_twin.state, pick_twin.state)

    def test_separate_rngs_and_mean_path(self):
        model = self.random_task_model([3, 3, 3])
        eps_rng, pick_rng, twin = SeededRng(1), SeededRng(2), SeededRng(2)
        [(eps, picks)] = draw_noise(model, [4], None, pick_rng)
        assert eps == [None, None, None]
        assert picks == [twin.integer(3) for _ in range(3)]
        model.strategy = MixtureStrategy.AVERAGE
        [(eps, picks)] = draw_noise(model, [4], eps_rng, pick_rng)
        assert picks == [None, None, None] and pick_rng.state == twin.state
        assert all(e.shape == (4, 6) for e in eps)

    def test_models_without_generators_draw_nothing(self):
        rng, twin = SeededRng(1), SeededRng(1)
        for model in (self.random_task_model([0, 0, 0]), small_model(with_noise=False)):
            batches = draw_noise(model, [3, 3, 2], rng, rng)
            assert len(batches) == 3
            assert all(eps is None or eps == [None] * 3 for eps, _ in batches)
            assert all(picks is None or picks == [None] * 3 for _, picks in batches)
        assert rng.state == twin.state

    @pytest.mark.parametrize("sample", [False, True])
    def test_features_run_on_the_drawn_noise(self, sample):
        model = self.random_task_model([3, 3, 3])
        x = SeededRng(5).standard_normal(4, 12)
        twin = SeededRng(9)
        [(eps, picks)] = draw_noise(model, [4], twin if sample else None, twin)
        z, _, _ = forward_pass(model, block0_output(model, x), eps_per_layer=eps, picks_per_layer=picks)
        assert np.array_equal(model.features(x, rng=SeededRng(9), eval_mode=not sample), z)

    def test_random_task_without_a_pick_raises(self):
        model = self.random_task_model([3, 3, 3])
        with pytest.raises(ValueError, match="pick"):
            forward_pass(model, block0_output(model, np.zeros((2, 12))))


class TestExpand:
    """The rectified buffer expansion at the end of the forward pass."""

    def passthrough_model(self, projection):
        # identity adapter and a gain-0 block: the backbone output is the input
        width = projection.shape[0]
        return ContinualModel(
            adapter=np.eye(width),
            blocks=(np.zeros((width, width)),),
            gain=0.0,
            projection=projection,
            layers=None,
            classifier=RidgeClassifier(projection.shape[1], 1.0),
        )

    def test_zero_input_zero_output(self):
        model = small_model()
        z, _, _ = forward_pass(model, block0_output(model, np.zeros((3, 12))))
        assert np.array_equal(z, np.zeros((3, 48)))

    def test_identity_padded_passthrough(self):
        model = self.passthrough_model(np.hstack([np.eye(3), np.zeros((3, 5))]))
        feats = np.abs(SeededRng(4).standard_normal(6, 3))
        out = model.features(feats)
        assert np.array_equal(out[:, :3], feats)
        assert np.array_equal(out[:, 3:], np.zeros((6, 5)))

    def test_rectifier_zeroes_about_half(self):
        model = self.passthrough_model(build_model(model_config(16, 1, 256, 4, 1.0, 9), 16).projection)
        feats = SeededRng(10).standard_normal(64, 16)
        out = model.features(feats)
        frac_zero = float(np.mean(out == 0.0))
        assert 0.4 < frac_zero < 0.6

    def test_width_mismatch(self):
        model = small_model()
        with pytest.raises(ValueError, match="width"):
            model.features(np.zeros((3, 5)))
