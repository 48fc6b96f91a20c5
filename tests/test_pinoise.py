import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import model_config, placeholder_history
from noisemix.datastream import make_synthetic_stream
from noisemix.model import build_model, forward_pass
from noisemix.numeric import SeededRng
from noisemix.pinoise import (
    MixtureStrategy,
    NoiseGenerator,
    PiNoiseLayer,
    build_layer,
    compute_prototype,
    init_mix_weights,
    mixture_coefficients,
    new_generator,
    prototype_similarities,
    run_layer,
)
from noisemix.trainer import collect_trainable

STRATEGIES = list(MixtureStrategy)


def make_vector(d2, seed=1, scale=1.0):
    """A generator vector whose four maps are drawn in params() order."""
    rng = SeededRng(seed)
    maps = [rng.standard_normal(*shape) for shape in ((d2, d2), (d2,), (d2, d2), (d2,))]
    return np.concatenate([a.ravel() * scale for a in maps])


def make_layer(d1=6, d2=3, gens=0, seed=5, scale=1.0):
    layer = build_layer(d1, d2, SeededRng(seed))
    if gens:
        layer.bank = np.stack([make_vector(d2, seed=10 + t, scale=scale) for t in range(gens)])
        layer.prototypes = np.stack([SeededRng(20 + t).standard_normal(d2) for t in range(gens)])
        layer.mix_weights = init_mix_weights(layer.prototypes, 2.0)
    return layer


def layer_of(vectors, weights=None, d2=3, d1=6, seed=5):
    """A layer whose bank rows are ``vectors``; uniform mix weights unless given."""
    layer = build_layer(d1, d2, SeededRng(seed))
    layer.bank = np.stack(vectors)
    k = len(vectors)
    layer.mix_weights = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=float)
    return layer


def stream_seen_by(model, sessions, num_tasks):
    """A stream of ``num_tasks`` one-class tasks, the first ``sessions`` of
    whose classes ``model``'s classifier is given, as a checkpoint of that
    many sessions must hold."""
    stream = make_synthetic_stream(num_tasks, 5, 6, 4.0, num_tasks=num_tasks, seed=1)
    for task in stream.tasks[:sessions]:
        model.classifier.expand_classes(task.class_set)
    return stream


def single_generator_path(layer, vector, feats, eps):
    """One generator's noise ``eps * scale(h) + mean(h)`` added to the features."""
    gen = NoiseGenerator(vector, layer.latent_dim)
    h = feats @ layer.down_proj
    noise = h @ gen.mean_weight + gen.mean_bias
    if eps is not None:
        noise = eps * (h @ gen.scale_weight + gen.scale_bias) + noise
    return feats + noise @ layer.up_proj


def per_task_reference(layer, feats, strategy, eps, pick):
    """Every task's noise generated on its own, then mixed by the strategy."""
    h = feats @ layer.down_proj
    noises = []
    for row in layer.bank:
        gen = NoiseGenerator(row, layer.latent_dim)
        mu = h @ gen.mean_weight + gen.mean_bias
        sig = h @ gen.scale_weight + gen.scale_bias
        if strategy is MixtureStrategy.MU_ONLY:
            noises.append(mu)
        elif strategy is MixtureStrategy.SIGMA_ONLY:
            noises.append(eps * sig if eps is not None else np.zeros_like(mu))
        else:
            noises.append(eps * sig + mu if eps is not None else mu)
    if strategy is MixtureStrategy.LEARNED_OMEGA:
        mixed = sum(w * n for w, n in zip(layer.mix_weights, noises))
    elif strategy is MixtureStrategy.LAST_TASK:
        mixed = noises[-1]
    elif strategy is MixtureStrategy.RANDOM_TASK:
        mixed = noises[pick]
    else:
        mixed = sum(noises) / len(noises)
    return feats + mixed @ layer.up_proj


class TestGenerateNoise:
    def test_zero_generator_silent_for_any_draw(self):
        layer = make_layer(gens=1, scale=0.0)
        feats = SeededRng(2).standard_normal(5, 6)
        eps = SeededRng(3).standard_normal(5, 3)
        for strategy in STRATEGIES:
            out, _ = run_layer(layer, feats, strategy, eps, pick=0)
            assert np.array_equal(out, feats), strategy

    def test_zero_draw_returns_mean_path(self):
        layer = make_layer(gens=2)
        feats = SeededRng(2).standard_normal(5, 6)
        for strategy in STRATEGIES:
            drawn, _ = run_layer(layer, feats, strategy, np.zeros((5, 3)), pick=1)
            mean_path, _ = run_layer(layer, feats, strategy, None, pick=1)
            assert np.array_equal(drawn, mean_path), strategy

    def test_scalar_case(self):
        # d2 = 1: mean weight 0, mean bias 1, scale weight 0, scale bias 2
        layer = PiNoiseLayer(
            down_proj=np.ones((1, 1)),
            up_proj=np.ones((1, 1)),
            bank=np.array([[0.0, 1.0, 0.0, 2.0]]),
            prototypes=np.ones((1, 1)),
            mix_weights=np.array([1.0]),
        )
        out, _ = run_layer(layer, np.zeros((1, 1)), MixtureStrategy.LEARNED_OMEGA, np.array([[0.5]]))
        assert out[0, 0] == pytest.approx(2.0)

    def test_width_mismatch(self):
        layer = make_layer(gens=1)
        with pytest.raises(ValueError):
            run_layer(layer, np.zeros((2, 5)), MixtureStrategy.LEARNED_OMEGA, None)
        with pytest.raises(ValueError):
            run_layer(layer, np.zeros((2, 6)), MixtureStrategy.LEARNED_OMEGA, np.zeros((2, 2)))


class TestMix:
    def test_single_noise_unit_weight(self):
        vector = make_vector(3)
        layer = layer_of([vector], weights=[1.0])
        feats = SeededRng(1).standard_normal(4, 6)
        eps = SeededRng(2).standard_normal(4, 3)
        out, _ = run_layer(layer, feats, MixtureStrategy.LEARNED_OMEGA, eps)
        assert np.array_equal(out, single_generator_path(layer, vector, feats, eps))

    def test_identical_noises_affine_combination(self):
        vector = make_vector(3)
        layer = layer_of([vector, vector.copy()], weights=[0.3, 0.7])
        feats = SeededRng(1).standard_normal(4, 6)
        eps = SeededRng(2).standard_normal(4, 3)
        out, _ = run_layer(layer, feats, MixtureStrategy.LEARNED_OMEGA, eps)
        np.testing.assert_allclose(out, single_generator_path(layer, vector, feats, eps), rtol=1e-14)

    def test_average_cancellation(self):
        vector = make_vector(3)
        layer = layer_of([vector, -vector])
        feats = SeededRng(1).standard_normal(4, 6)
        eps = SeededRng(2).standard_normal(4, 3)
        out, _ = run_layer(layer, feats, MixtureStrategy.AVERAGE, eps)
        assert np.array_equal(out, feats)

    def test_last_and_random(self):
        layer = make_layer(gens=3)
        feats = SeededRng(1).standard_normal(4, 6)
        eps = SeededRng(2).standard_normal(4, 3)
        singles = [single_generator_path(layer, row, feats, eps) for row in layer.bank]
        last, _ = run_layer(layer, feats, MixtureStrategy.LAST_TASK, eps)
        assert np.array_equal(last, singles[-1])
        for pick in range(3):
            picked, _ = run_layer(layer, feats, MixtureStrategy.RANDOM_TASK, eps, pick=pick)
            assert np.array_equal(picked, singles[pick])

    def test_errors(self):
        with pytest.raises(ValueError):
            mixture_coefficients(MixtureStrategy.AVERAGE, 0)
        layer = make_layer(gens=2)
        layer.mix_weights = np.array([1.0])
        with pytest.raises(ValueError):
            run_layer(layer, np.zeros((2, 6)), MixtureStrategy.LEARNED_OMEGA, None)
        with pytest.raises(ValueError, match="pick"):
            run_layer(layer, np.zeros((2, 6)), MixtureStrategy.RANDOM_TASK, None)

    @given(st.floats(min_value=-5, max_value=5))
    @settings(max_examples=25)
    def test_learned_mix_is_linear(self, a):
        layer = make_layer(gens=2)
        layer.mix_weights = np.array([0.4, 0.6])
        scaled = layer_of([a * row for row in layer.bank], weights=layer.mix_weights)
        feats = SeededRng(1).standard_normal(3, 6)
        eps = SeededRng(2).standard_normal(3, 3)
        base, _ = run_layer(layer, feats, MixtureStrategy.LEARNED_OMEGA, eps)
        out, _ = run_layer(scaled, feats, MixtureStrategy.LEARNED_OMEGA, eps)
        np.testing.assert_allclose(out - feats, a * (base - feats), rtol=1e-12, atol=1e-12)


class TestApplyLayer:
    def test_no_generators_is_identity(self):
        def model(with_noise):
            return build_model(model_config(24, 3, 48, 6, 10.0, seed=3, enabled=with_noise), 12)

        x = SeededRng(1).standard_normal(4, 12)
        z_noise, pre_noise, tape = forward_pass(model(True), x, collect=True)
        z_plain, pre_plain, _ = forward_pass(model(False), x)
        assert np.array_equal(z_noise, z_plain)
        assert all(np.array_equal(a, b) for a, b in zip(pre_noise, pre_plain))
        assert tape.layer_caches == [None, None, None]

    def test_zero_generators_are_identity(self):
        layer = make_layer(gens=2, scale=0.0)
        feats = SeededRng(1).standard_normal(4, 6)
        eps = SeededRng(2).standard_normal(4, 3)
        for strategy in STRATEGIES:
            for draw in (None, eps):
                out, _ = run_layer(layer, feats, strategy, draw, pick=0)
                assert np.array_equal(out, feats), strategy

    def test_eval_mode_is_deterministic(self):
        layer = make_layer(gens=2)
        feats = SeededRng(1).standard_normal(4, 6)
        a, _ = run_layer(layer, feats, MixtureStrategy.LEARNED_OMEGA, None)
        b, _ = run_layer(layer, feats, MixtureStrategy.LEARNED_OMEGA, None)
        assert np.array_equal(a, b)

    def test_single_task_learned_equals_single_generator_path(self):
        layer = make_layer(gens=1)
        layer.mix_weights = np.array([1.0])
        feats = SeededRng(1).standard_normal(4, 6)
        eps = SeededRng(2).standard_normal(4, 3)
        out, _ = run_layer(layer, feats, MixtureStrategy.LEARNED_OMEGA, eps)
        assert np.array_equal(out, single_generator_path(layer, layer.bank[0], feats, eps))

    def test_sampling_needs_rng(self):
        model = build_model(model_config(24, 3, 48, 6, 10.0, seed=3), 12)
        for layer in model.layers:
            layer.bank = make_vector(6)[None, :]
            layer.mix_weights = np.array([1.0])
        with pytest.raises(ValueError, match="rng"):
            model.features(np.zeros((2, 12)), eval_mode=False)


class TestMixtureCoefficients:
    OMEGA = np.array([0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize(
        "strategy, c_mean, c_scale",
        [
            (MixtureStrategy.LEARNED_OMEGA, OMEGA, OMEGA),
            (MixtureStrategy.AVERAGE, [0.25] * 4, [0.25] * 4),
            (MixtureStrategy.MU_ONLY, [0.25] * 4, [0.0] * 4),
            (MixtureStrategy.SIGMA_ONLY, [0.0] * 4, [0.25] * 4),
            (MixtureStrategy.LAST_TASK, [0, 0, 0, 1.0], [0, 0, 0, 1.0]),
            (MixtureStrategy.RANDOM_TASK, [0, 1.0, 0, 0], [0, 1.0, 0, 0]),
        ],
    )
    def test_each_strategy_is_a_coefficient_pair(self, strategy, c_mean, c_scale):
        got_mean, got_scale = mixture_coefficients(strategy, 4, self.OMEGA, pick=1)
        assert np.array_equal(got_mean, c_mean)
        assert np.array_equal(got_scale, c_scale)

    def test_learned_weights_are_copied(self):
        omega = self.OMEGA.copy()
        c_mean, _ = mixture_coefficients(MixtureStrategy.LEARNED_OMEGA, 4, omega)
        omega[0] = 9.0
        assert c_mean[0] == 0.1


class TestRunLayerStrategies:
    @pytest.mark.parametrize("with_draw", [True, False])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_per_task_reference(self, strategy, with_draw):
        layer = make_layer(gens=4)
        feats = SeededRng(1).standard_normal(7, 6)
        eps = SeededRng(2).standard_normal(7, 3) if with_draw else None
        out, cache = run_layer(layer, feats, strategy, eps, pick=2, collect=True)
        expected = per_task_reference(layer, feats, strategy, eps, pick=2)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
        c_mean, c_scale = mixture_coefficients(strategy, 4, layer.mix_weights, pick=2)
        assert np.array_equal(cache.c_mean, c_mean) and np.array_equal(cache.c_scale, c_scale)

    def test_sigma_only_mean_path_is_identity(self):
        layer = make_layer(gens=3)
        feats = SeededRng(1).standard_normal(4, 6)
        out, _ = run_layer(layer, feats, MixtureStrategy.SIGMA_ONLY, None)
        assert np.array_equal(out, feats)


class TestPrototypes:
    def test_single_sample_prototype(self):
        layer = build_layer(4, 2, SeededRng(1))
        feats = SeededRng(2).standard_normal(1, 4)
        proto = compute_prototype(layer, feats)
        np.testing.assert_allclose(proto, (feats @ layer.down_proj)[0], rtol=1e-15)

    def test_prototype_is_the_mean_projected_row(self):
        layer = build_layer(4, 2, SeededRng(1))
        feats = SeededRng(2).standard_normal(5, 4)
        proto = compute_prototype(layer, feats)
        np.testing.assert_allclose(proto, (feats @ layer.down_proj).mean(axis=0), rtol=1e-12)

    def test_empty_stream_rejected(self):
        layer = build_layer(4, 2, SeededRng(1))
        with pytest.raises(ValueError):
            compute_prototype(layer, [])

    def test_orthogonal_prototypes_have_zero_similarity(self):
        protos = [np.array([0.0, 2.0]), np.array([3.0, 0.0])]
        sims = prototype_similarities(protos)
        assert sims[0] == pytest.approx(0.0, abs=1e-15)
        assert sims[1] == 1.0


class TestInitMixWeights:
    def test_singleton(self):
        w = init_mix_weights([np.array([1.0, 0.0])], 2.0)
        assert np.array_equal(w, np.array([1.0]))

    def test_identical_prototypes_uniform(self):
        p = np.array([0.3, -0.7])
        w = init_mix_weights([p.copy() for _ in range(4)], 2.0)
        np.testing.assert_allclose(w, 0.25, rtol=1e-12)

    def test_orthogonal_two_point_value(self):
        # orthogonal old prototype: similarities [0, 1] with the newest
        # pinned to 1, so the weights are the tau=2 softmax of {1, 0}
        protos = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        w = init_mix_weights(protos, 2.0)
        assert w[1] == pytest.approx(0.6225, abs=1e-4)
        assert w[0] == pytest.approx(0.3775, abs=1e-4)

    def test_zero_norm_prototype_rejected(self):
        with pytest.raises(ValueError):
            init_mix_weights([np.zeros(3), np.ones(3)], 2.0)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40)
    def test_simplex_point(self, t, seed):
        rng = SeededRng(seed)
        protos = [rng.standard_normal(4) for _ in range(t)]
        w = init_mix_weights(protos, 2.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w > 0)

    @given(st.floats(min_value=0.01, max_value=100.0), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40)
    def test_positive_rescaling_invariance(self, factor, seed):
        rng = SeededRng(seed)
        protos = [rng.standard_normal(4) for _ in range(3)]
        base = init_mix_weights(protos, 2.0)
        scaled = [p.copy() for p in protos]
        scaled[1] = scaled[1] * factor
        np.testing.assert_allclose(init_mix_weights(scaled, 2.0), base, rtol=1e-9, atol=1e-12)


class TestFreezeSemantics:
    def test_new_generator_starts_trainable_with_zero_bias(self):
        gen = NoiseGenerator(new_generator(4, SeededRng(1), init_scale=0.001), 4)
        assert np.array_equal(gen.mean_bias, np.zeros(4))
        assert float(np.abs(gen.mean_weight).max()) < 0.01

    def test_only_the_generator_past_the_session_count_trains(self):
        model = build_model(model_config(24, 2, 48, 4, 10.0, seed=3, strategy=MixtureStrategy.AVERAGE.value), 12)
        for layer in model.layers:
            layer.bank = np.stack([new_generator(4, SeededRng(t), init_scale=0.001) for t in range(2)])
        aux = np.zeros((48, 2))
        model.sessions_completed = 1
        params = collect_trainable(model, aux)
        maps = ("mean_b", "mean_w", "scale_b", "scale_w")
        assert sorted(params) == ["aux"] + [f"gen{l}.{m}" for l in range(2) for m in maps]
        assert params["aux"] is aux
        for l, layer in enumerate(model.layers):
            for m in maps:
                assert np.shares_memory(params[f"gen{l}.{m}"], layer.bank[1])
                assert not np.shares_memory(params[f"gen{l}.{m}"], layer.bank[0])
            assert np.array_equal(params[f"gen{l}.mean_w"], layer.bank[1][:16].reshape(4, 4))
        model.sessions_completed = 2
        assert list(collect_trainable(model, aux)) == ["aux"]


class TestGeneratorVector:
    """A generator's four maps are views of its one vector, in params() order."""

    @staticmethod
    def assert_views(gen):
        d2 = gen.mean_bias.shape[0]
        joined = b"".join(np.ascontiguousarray(a).tobytes() for a in gen.params())
        assert joined == gen.vector.tobytes()
        assert gen.vector.shape == (2 * d2 * (d2 + 1),) and gen.vector.flags.c_contiguous
        assert [a.shape for a in gen.params()] == [(d2, d2), (d2,), (d2, d2), (d2,)]
        for a in gen.params():
            assert np.shares_memory(a, gen.vector)
        gen.scale_weight[-1, 0] += 1.0  # in place, through a map
        assert gen.vector[-d2 - d2] == gen.scale_weight[-1, 0]
        gen.vector[d2 * d2] -= 2.0  # in place, through the vector
        assert gen.mean_bias[0] == gen.vector[d2 * d2]
        assert gen.vector.tobytes() == b"".join(a.tobytes() for a in gen.params())
        for name in ("mean_weight", "mean_bias", "scale_weight", "scale_bias"):
            with pytest.raises(AttributeError):
                setattr(gen, name, np.zeros_like(getattr(gen, name)))

    def test_built_directly(self):
        self.assert_views(NoiseGenerator(make_vector(3), 3))

    def test_new_generator(self):
        self.assert_views(NoiseGenerator(new_generator(5, SeededRng(4), init_scale=1.0), 5))

    def test_loaded_from_checkpoint(self, tmp_path):
        from noisemix.checkpoint import restore, save_checkpoint

        def model():
            return build_model(model_config(8, 2, 16, 4, 1.0, seed=3), 6)

        saved = model()
        for l, layer in enumerate(saved.layers):
            layer.bank = new_generator(4, SeededRng(l), init_scale=1.0)[None, :]
            layer.prototypes = np.ones((1, 4))
            layer.mix_weights = np.ones(1)
        saved.sessions_completed = 1
        stream = stream_seen_by(saved, 1, 2)
        save_checkpoint(tmp_path / "g.nmcp", saved, "h", 1, 2, history=placeholder_history(1))
        loaded = model()
        restore(loaded, tmp_path / "g.nmcp", "h", stream)
        for before, layer in zip(saved.layers, loaded.layers):
            assert layer.bank[0].tobytes() == before.bank[0].tobytes()
            self.assert_views(NoiseGenerator(layer.bank[0], 4))

    def test_vector_of_another_width_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            NoiseGenerator(np.zeros(2 * 3 * 4 + 1), 3)
        with pytest.raises(ValueError, match="shape"):
            NoiseGenerator(np.zeros((1, 2 * 3 * 4)), 3)

    def test_mixture_of_one_generator_is_that_generator(self):
        vector = make_vector(4)
        layer = layer_of([vector], weights=[1.0], d2=4)
        _, cache = run_layer(layer, np.ones((2, 6)), MixtureStrategy.LEARNED_OMEGA, None, collect=True)
        assert np.array_equal(cache.bank, vector[None, :])
        assert cache.generator.vector.tobytes() == vector.tobytes()


class TestGeneratorBank:
    """A layer's generators are the rows of one bank that grows once per session."""

    def test_mixture_reads_the_bank_itself(self):
        layer = make_layer(gens=3)
        feats = SeededRng(1).standard_normal(4, 6)
        _, cache = run_layer(layer, feats, MixtureStrategy.LEARNED_OMEGA, None, collect=True)
        assert cache.bank is layer.bank

    def test_in_place_sgd_writes_the_bank(self):
        model = build_model(model_config(24, 2, 48, 4, 10.0, seed=3), 12)
        for layer in model.layers:
            layer.bank = np.stack([new_generator(4, SeededRng(t), init_scale=0.5) for t in range(2)])
            layer.prototypes = np.stack([SeededRng(20 + t).standard_normal(4) for t in range(2)])
            layer.mix_weights = init_mix_weights(layer.prototypes, 2.0)
        model.sessions_completed = 1
        params = collect_trainable(model, np.zeros((48, 2)))
        frozen = [layer.bank[0].copy() for layer in model.layers]
        for key, p in params.items():
            p -= 0.25 * (1.0 + np.arange(p.size).reshape(p.shape))
        maps = ("mean_w", "mean_b", "scale_w", "scale_b")
        for l, layer in enumerate(model.layers):
            newest = layer.bank[-1]
            assert np.array_equal(newest, np.concatenate([params[f"gen{l}.{m}"].ravel() for m in maps]))
            assert np.array_equal(layer.bank[0], frozen[l])
            feats = np.zeros((1, 24))
            _, cache = run_layer(layer, feats, MixtureStrategy.AVERAGE, None, collect=True)
            assert cache.bank is layer.bank
            np.testing.assert_allclose(cache.generator.vector, (frozen[l] + newest) / 2.0, rtol=1e-15, atol=1e-18)

    def test_checkpoint_round_trip_rebuilds_the_bank(self, tmp_path):
        from noisemix.checkpoint import restore, save_checkpoint

        def model():
            return build_model(model_config(8, 2, 16, 4, 1.0, seed=3), 6)

        saved = model()
        for l, layer in enumerate(saved.layers):
            layer.bank = np.stack([new_generator(4, SeededRng(10 * l + t), init_scale=1.0) for t in range(3)])
            layer.prototypes = np.stack([np.ones(4) + t for t in range(3)])
            layer.mix_weights = np.full(3, 1.0 / 3.0)
        saved.sessions_completed = 3
        stream = stream_seen_by(saved, 3, 3)
        save_checkpoint(tmp_path / "b.nmcp", saved, "h", 1, 3, history=placeholder_history(3))
        loaded = model()
        restore(loaded, tmp_path / "b.nmcp", "h", stream)
        for before, layer in zip(saved.layers, loaded.layers):
            assert layer.bank.shape == (3, 40) and layer.bank.flags.c_contiguous
            assert layer.bank.tobytes() == before.bank.tobytes()
            assert layer.prototypes.tobytes() == before.prototypes.tobytes()
        assert loaded.state_hash() == saved.state_hash()
