import math

import numpy as np
import pytest

import noisemix.model as model_mod
from conftest import ridge_solve
import noisemix.trainer as trainer_mod
from noisemix.classifier import RidgeClassifier
from noisemix.config import RunConfig
from noisemix.experiment import build_stream
from noisemix.model import block0_output, build_model, forward_pass
from noisemix.numeric import SeededRng, derive_seed
from noisemix.pinoise import MixtureStrategy, NoiseGenerator
from noisemix.report import SessionReport
from noisemix.trainer import (
    backward,
    gradient_step,
    clip_gradients,
    collect_trainable,
    cosine_lr,
    direct_ce_grads,
    gradient_check,
    make_gradcheck_instance,
    residual_loss_grads,
    run_session,
    sgd_step,
)


def small_cfg(**data_overrides):
    cfg = RunConfig()
    cfg.data.samples_per_class = 20
    cfg.data.dim = 16
    cfg.backbone.buffer_size = 256
    cfg.backbone.feature_dim = 32
    for key, value in data_overrides.items():
        setattr(cfg.data, key, value)
    cfg.validate()
    return cfg


def run_all_sessions(cfg):
    stream = build_stream(cfg)
    model = build_model(cfg, stream.feature_dim)
    reports = []
    for t in range(1, stream.num_tasks + 1):
        rng = SeededRng(derive_seed(cfg.train.seed, "session", t))
        reports.append(run_session(model, stream, cfg, rng))
    return stream, model, reports


class TestCosineLr:
    def test_start_is_initial_rate(self):
        assert cosine_lr(0, 10, 0.001) == pytest.approx(0.001)

    def test_end_is_zero(self):
        assert cosine_lr(10, 10, 0.001) == pytest.approx(0.0, abs=1e-18)

    def test_midpoint_is_half(self):
        assert cosine_lr(5, 10, 0.001) == pytest.approx(0.0005)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            cosine_lr(-1, 10, 0.001)
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 0.001)


class TestSgd:
    def test_zero_momentum_is_plain_descent(self):
        p = {"w": np.array([1.0, 2.0])}
        v = {"w": np.zeros(2)}
        sgd_step(p, {"w": np.array([0.5, -0.5])}, v, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(p["w"], [0.95, 2.05])

    def test_velocity_decays_geometrically(self):
        p = {"w": np.array([0.0])}
        v = {"w": np.array([1.0])}
        for _ in range(50):
            sgd_step(p, {"w": np.zeros(1)}, v, lr=0.1, momentum=0.5)
        assert abs(v["w"][0]) < 1e-14
        # position converges to the geometric series limit
        assert p["w"][0] == pytest.approx(-0.1 * 1.0, abs=1e-12)

    def test_quadratic_bowl_convergence(self):
        p = {"w": np.array([3.0, -2.0, 1.0])}
        v = {"w": np.zeros(3)}
        for _ in range(200):
            sgd_step(p, {"w": 2.0 * p["w"]}, v, lr=0.1, momentum=0.9)
        assert np.linalg.norm(p["w"]) < 1e-4

    def test_clip_rescales_to_max_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(5.0)
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total == pytest.approx(1.0)

    def test_clip_disabled_at_zero(self):
        grads = {"a": np.array([30.0])}
        clip_gradients(grads, 0.0)
        assert grads["a"][0] == 30.0


class TestResidualLoss:
    def test_uniform_logits_give_log_c(self):
        z = SeededRng(1).standard_normal(6, 5)
        aux = np.zeros((5, 4))
        y = np.eye(4)[[0, 1, 2, 3, 0, 1]]
        loss = residual_loss_grads(z, aux, y, np.zeros((6, 4)))[0]
        assert loss == pytest.approx(math.log(4), rel=1e-12)

    def test_one_gradient_step_decreases_ce(self):
        rng = SeededRng(3)
        z = rng.standard_normal(32, 10)
        y = np.eye(4)[[i % 4 for i in range(32)]].astype(float)
        offset = rng.standard_normal(32, 4) * 0.1
        aux = np.zeros((10, 4))
        loss0, d_aux, _ = residual_loss_grads(z, aux, y, offset)
        aux2 = aux - 0.01 * d_aux
        loss1 = residual_loss_grads(z, aux2, y, offset)[0]
        assert loss1 < loss0


class TestBackward:
    def test_matches_finite_differences(self):
        inst = make_gradcheck_instance()
        report = gradient_check(*inst)
        assert report.passed, "\n".join(report.lines())
        assert all(g.max_rel_error < 1e-4 for g in report.groups)
        # the relative error is measured, not zeroed where the absolute one is small
        assert any(g.max_rel_error > 0 for g in report.groups)

    @pytest.mark.parametrize(
        "strategy", ["average", "mu-only", "sigma-only", "last-task", "random-task", "learned-omega"]
    )
    def test_variant_strategies_match_finite_differences(self, strategy):
        # every strategy trains the auxiliary classifier; only learned-omega trains omega
        inst = make_gradcheck_instance(strategy=strategy)
        report = gradient_check(*inst)
        assert report.passed, "\n".join(report.lines())
        names = [g.name for g in report.groups]
        assert "aux" in names
        omega = [name for name in names if name.startswith("omega")]
        assert omega == (["omega0", "omega1"] if strategy == "learned-omega" else [])

    def test_single_task_omega_gradient_matches_fd(self):
        inst = make_gradcheck_instance(num_tasks=1)
        report = gradient_check(*inst)
        assert report.passed, "\n".join(report.lines())
        omega_groups = [g for g in report.groups if g.name.startswith("omega")]
        assert len(omega_groups) == 2 and all(g.size == 1 for g in omega_groups)

    def test_corrupted_gradient_fails(self, monkeypatch):
        # perturb one analytic group; the finite differences never call gradient_step
        def corrupted(*args, **kwargs):
            loss, grads, z = gradient_step(*args, **kwargs)
            grads["gen0"] = grads["gen0"] * 1.5
            grads["gen0"][0] += 1e-3
            return loss, grads, z

        monkeypatch.setattr(trainer_mod, "gradient_step", corrupted)
        inst = make_gradcheck_instance()
        report = gradient_check(*inst)
        assert not report.passed
        failing = [g.name for g in report.groups if not g.passed]
        assert failing == ["gen0"]

    def test_report_lists_every_group(self):
        # each generator is one group, its whole bank row
        inst = make_gradcheck_instance()
        report = gradient_check(*inst)
        sizes = {g.name: g.size for g in report.groups}
        assert sizes == {"aux": 16 * 4, "gen0": 2 * 4 * 5, "gen1": 2 * 4 * 5, "omega0": 2, "omega1": 2}

    def test_frozen_generators_receive_no_gradient(self):
        model, aux, x, targets, frozen_w, eps, picks = make_gradcheck_instance()
        params = collect_trainable(model, aux)
        z, _, tape = forward_pass(model, block0_output(model, x), eps_per_layer=eps, collect=True)
        _, d_aux, d_z = residual_loss_grads(z, aux, targets, z @ frozen_w)
        frozen_before = [layer.bank[0].tobytes() for layer in model.layers]
        grads = backward(model, tape, d_z, params)
        grads["aux"] = d_aux
        velocity = {k: np.zeros_like(v) for k, v in params.items()}
        sgd_step(params, grads, velocity, lr=0.5, momentum=0.0)
        for l, (layer, before) in enumerate(zip(model.layers, frozen_before)):
            assert layer.bank[0].tobytes() == before
            assert grads[f"gen{l}"].shape == layer.bank[-1].shape
            assert np.shares_memory(params[f"gen{l}"], layer.bank[-1])
            assert not np.shares_memory(params[f"gen{l}"], layer.bank[0])
        assert [k for k in grads if k.startswith("gen")] == ["gen0", "gen1"]

    @pytest.mark.parametrize("k", [1, 5])
    def test_omega_gradient_equals_per_generator_inner_products(self, k):
        # the reference is the per-generator sum the bank product replaced:
        # omega_i gets sum over the four maps of <generator i's map, d_gen map>,
        # where d_gen is the effective generator's gradient; under learned-omega
        # the newest generator's gradient is omega[-1] * d_gen, both halves
        model, aux, x, targets, frozen_w, eps, _ = make_gradcheck_instance(num_tasks=k)
        params = collect_trainable(model, aux)
        z, _, tape = forward_pass(model, block0_output(model, x), eps_per_layer=eps, collect=True)
        _, _, d_z = residual_loss_grads(z, aux, targets, z @ frozen_w)
        grads = backward(model, tape, d_z, params)
        for l, layer in enumerate(model.layers):
            d_gen = NoiseGenerator(grads[f"gen{l}"] / layer.mix_weights[-1], layer.latent_dim).params()
            generators = [NoiseGenerator(row, layer.latent_dim) for row in layer.bank]
            reference = np.array(
                [sum(float(np.vdot(p, d)) for p, d in zip(g.params(), d_gen)) for g in generators]
            )
            assert grads[f"omega{l}"].shape == (k,)
            scale = max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(grads[f"omega{l}"] - reference)) <= 1e-12 * scale

    def test_block0_output_of_rows_equals_slice_of_wider_output(self):
        # training steps slice the block-0 output the session computed over
        # all its rows, so a batch's slice must be that of its own rows
        model, _, x, *_ = make_gradcheck_instance(batch=6)
        wider = np.vstack([x, SeededRng(5).standard_normal(4, x.shape[1])])
        rows = np.arange(6)[::-1]
        np.testing.assert_allclose(block0_output(model, wider)[rows], block0_output(model, x[rows]), rtol=1e-12)

    def test_backward_consumes_feature_gradient_in_place(self):
        model, aux, x, targets, frozen_w, eps, _ = make_gradcheck_instance()
        params = collect_trainable(model, aux)
        z, _, tape = forward_pass(model, block0_output(model, x), eps_per_layer=eps, collect=True)
        d_z = SeededRng(3).standard_normal(*z.shape)
        masked = d_z * tape.relu_mask
        grads = backward(model, tape, d_z, params)
        assert np.array_equal(d_z, masked)
        assert list(grads) == [key for key in params if key != "aux"]

    def test_gradient_step_allocation_stays_bounded(self, traced_peak):
        # one training step at batch 128 and buffer width 2048 holds the
        # features, their gradient and the ReLU mask, and not the four
        # batch x width temporaries it once made (a 3.53x peak here)
        batch, width = 128, 2048
        model, aux, x, targets, frozen_w, eps, picks = make_gradcheck_instance(
            input_dim=32, feature_dim=64, latent_dim=16, depth=4, buffer_size=width,
            batch=batch, num_classes=4, num_tasks=1,
        )
        params = collect_trainable(model, aux)
        r = block0_output(model, x)
        peak = traced_peak(lambda: gradient_step(model, params, r, targets, frozen_w, eps, picks))
        assert peak < 3.0 * batch * width * 8, peak / (batch * width * 8)

    def test_classifier_weights_never_trainable(self):
        model, aux, *_ = make_gradcheck_instance()
        params = collect_trainable(model, aux)
        assert list(params) == ["gen0", "gen1", "omega0", "omega1", "aux"]


class TestSession:
    def test_first_task_reaches_train_accuracy(self):
        cfg = small_cfg()
        stream = build_stream(cfg)
        model = build_model(cfg, stream.feature_dim)
        rng = SeededRng(derive_seed(cfg.train.seed, "session", 1))
        run_session(model, stream, cfg, rng)
        x, y = stream.tasks[0].train_arrays()
        feats = model.features(x, rng=SeededRng(0))
        acc = float(np.mean(model.classifier.predict_labels(feats) == y))
        assert acc >= 0.99

    def test_epoch_losses_decrease(self):
        cfg = small_cfg()
        _, _, reports = run_all_sessions(cfg)
        for rep in reports:
            assert rep.epoch_losses[-1] <= rep.epoch_losses[0]

    @pytest.mark.parametrize("strategy", ["learned-omega", "random-task"])
    def test_committed_features_equal_model_features(self, monkeypatch, strategy):
        # the session commits features of its once-computed block-0 output;
        # they must be the model's features of the raw rows, bit for bit
        committed = []
        update = RidgeClassifier.update

        def spy(self, feats, targets):
            committed.append(feats.copy())
            return update(self, feats, targets)

        monkeypatch.setattr(RidgeClassifier, "update", spy)
        cfg = small_cfg()
        cfg.pinoise.strategy = strategy
        stream = build_stream(cfg)
        model = build_model(cfg, stream.feature_dim)
        for t in (1, 2, 3):
            session_rng = SeededRng(derive_seed(cfg.train.seed, "session", t))
            run_session(model, stream, cfg, session_rng)
            x, _ = stream.tasks[t - 1].train_arrays()
            assert np.array_equal(committed[-1], model.features(x, rng=session_rng.split("clf-final"))), t
        assert len(committed) == 3

    @pytest.mark.parametrize("enabled", [False, True])
    def test_block0_output_computed_once_per_session(self, monkeypatch, enabled):
        # evaluation enters through block0_output for the test rows, so it is
        # stubbed; the session itself must enter once, with its training rows
        calls = []
        real = block0_output

        def spy(model, x):
            calls.append(np.array(x, copy=True))
            return real(model, x)

        monkeypatch.setattr(trainer_mod, "block0_output", spy)
        monkeypatch.setattr(model_mod, "block0_output", spy)
        monkeypatch.setattr(trainer_mod, "evaluate", lambda model, stream, t: SessionReport(t, 0.0, {}))
        cfg = small_cfg()
        cfg.pinoise.enabled = enabled
        stream = build_stream(cfg)
        model = build_model(cfg, stream.feature_dim)
        run_session(model, stream, cfg, SeededRng(derive_seed(cfg.train.seed, "session", 1)))
        x, _ = stream.tasks[0].train_arrays()
        assert len(calls) == 1 and np.array_equal(calls[0], x)

    def test_session_order_enforced(self):
        cfg = small_cfg()
        stream = build_stream(cfg)
        model = build_model(cfg, stream.feature_dim)
        model.sessions_completed = 99
        with pytest.raises(ValueError):
            run_session(model, stream, cfg, SeededRng(1))

    def test_zero_noise_zero_epochs_reduces_to_baseline(self):
        cfg = small_cfg()
        cfg.train.epochs = 0
        cfg.pinoise.init_scale = 0.0
        base_cfg = small_cfg()
        base_cfg.pinoise.enabled = False
        stream, full_model, full_reports = run_all_sessions(cfg)
        _, base_model, base_reports = run_all_sessions(base_cfg)
        for fr, br in zip(full_reports, base_reports):
            assert fr.accuracy_seen == br.accuracy_seen
        assert np.array_equal(full_model.classifier.weights, base_model.classifier.weights)
        assert np.array_equal(full_model.classifier.gram_inv, base_model.classifier.gram_inv)

    def test_refresh_with_untrained_generators_reproduces_first_update(self):
        # with exactly-zero generators and no training, the final classifier
        # state equals what the initial update produced
        cfg = small_cfg()
        cfg.train.epochs = 0
        cfg.pinoise.init_scale = 0.0
        stream = build_stream(cfg)
        model = build_model(cfg, stream.feature_dim)

        probe = build_model(cfg, stream.feature_dim)
        x, y = stream.tasks[0].train_arrays()
        feats = probe.features(x, rng=SeededRng(0), eval_mode=True)
        probe.classifier.expand_classes(stream.tasks[0].class_set)
        probe.classifier.update(feats, probe.classifier.one_hot(y))

        run_session(model, stream, cfg, SeededRng(derive_seed(cfg.train.seed, "session", 1)))
        assert np.array_equal(model.classifier.weights, probe.classifier.weights)
        assert np.array_equal(model.classifier.gram_inv, probe.classifier.gram_inv)

    def test_frozen_state_bit_identical_across_later_sessions(self):
        cfg = small_cfg()
        stream = build_stream(cfg)
        model = build_model(cfg, stream.feature_dim)
        frozen_snapshots = {}
        backbone_hash = model.frozen_param_hash()
        for t in range(1, stream.num_tasks + 1):
            rng = SeededRng(derive_seed(cfg.train.seed, "session", t))
            run_session(model, stream, cfg, rng)
            frozen_snapshots[t] = [layer.bank[-1].tobytes() for layer in model.layers]
            for past in range(1, t + 1):
                current = [layer.bank[past - 1].tobytes() for layer in model.layers]
                assert current == frozen_snapshots[past]
        assert model.frozen_param_hash() == backbone_hash

    def test_deterministic_replay(self):
        cfg = small_cfg()
        _, _, first = run_all_sessions(cfg)
        _, _, second = run_all_sessions(cfg)
        for a, b in zip(first, second):
            assert a == b

    def test_mix_weights_grow_one_entry_per_session(self):
        cfg = small_cfg()
        _, model, _ = run_all_sessions(cfg)
        for layer in model.layers:
            assert len(layer.bank) == 5
            assert len(layer.prototypes) == 5
            assert len(layer.mix_weights) == 5
        aux = np.zeros((model.projection.shape[1], model.classifier.num_classes))
        assert not any(key.startswith("gen") for key in collect_trainable(model, aux))

    def test_random_task_classifier_equals_batch_ridge(self):
        # the classifier must be the batch ridge solution on the features each
        # session's update saw, re-extracted from the same rng
        cfg = small_cfg()
        cfg.pinoise.strategy = "random-task"
        stream = build_stream(cfg)
        model = build_model(cfg, stream.feature_dim)
        feats, labels = [], []
        for t in (1, 2):
            session_rng = SeededRng(derive_seed(cfg.train.seed, "session", t))
            run_session(model, stream, cfg, session_rng)
            x, y = stream.tasks[t - 1].train_arrays()
            feats.append(model.features(x, rng=session_rng.split("clf-final"), eval_mode=True))
            labels.append(y)
            oracle = ridge_solve(
                np.vstack(feats), model.classifier.one_hot(np.concatenate(labels)), cfg.classifier.regularization
            )
            error = np.linalg.norm(model.classifier.weights - oracle) / np.linalg.norm(oracle)
            assert error < 1e-8, (t, error)

    @pytest.mark.parametrize("strategy", ["learned-omega", "random-task"])
    @pytest.mark.parametrize("enabled", [False, True])
    def test_each_session_commits_once(self, monkeypatch, enabled, strategy):
        # the noise model takes its frozen weights from one trial; both models commit once
        calls = []
        for name in ("trial_weights", "update"):
            original = getattr(RidgeClassifier, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(RidgeClassifier, name, spy)
        cfg = small_cfg()
        cfg.pinoise.enabled = enabled
        cfg.pinoise.strategy = strategy
        cfg.train.epochs = 1
        stream = build_stream(cfg)
        model = build_model(cfg, stream.feature_dim)
        for t in range(1, stream.num_tasks + 1):
            calls.clear()
            run_session(model, stream, cfg, SeededRng(derive_seed(cfg.train.seed, "session", t)))
            assert calls == (["trial_weights", "update"] if enabled else ["update"]), t


class TestVariantTraining:
    def test_every_step_takes_the_residual_loss(self, monkeypatch):
        # a fixed strategy trains on the residual loss of the auxiliary
        # classifier, as learned-omega does, and never through the frozen one
        steps, losses = [], []
        step, loss = trainer_mod.gradient_step, trainer_mod.residual_loss_grads
        monkeypatch.setattr(trainer_mod, "gradient_step", lambda *a, **k: steps.append(1) or step(*a, **k))
        monkeypatch.setattr(trainer_mod, "residual_loss_grads", lambda *a: losses.append(1) or loss(*a))
        monkeypatch.setattr(trainer_mod, "direct_ce_grads", None)
        cfg = small_cfg()
        cfg.pinoise.strategy = "average"
        cfg.train.epochs, cfg.train.batch_size = 2, 16
        stream = build_stream(cfg)
        model = build_model(cfg, stream.feature_dim)
        run_session(model, stream, cfg, SeededRng(derive_seed(cfg.train.seed, "session", 1)))
        x, _ = stream.tasks[0].train_arrays()
        assert len(steps) == len(losses) == cfg.train.epochs * math.ceil(len(x) / cfg.train.batch_size)

    def test_direct_ce_gradient_descends(self):
        rng = SeededRng(4)
        z = rng.standard_normal(16, 8)
        w = rng.standard_normal(8, 3) * 0.1
        y = np.eye(3)[[i % 3 for i in range(16)]].astype(float)
        loss0, d_z = direct_ce_grads(z, w, y)
        loss1, _ = direct_ce_grads(z - 0.01 * d_z, w, y)
        assert loss1 < loss0

    @pytest.mark.parametrize("strategy", ["average", "last-task"])
    def test_variant_sessions_complete(self, strategy):
        cfg = small_cfg()
        cfg.pinoise.strategy = strategy
        cfg.train.epochs = 2
        _, model, reports = run_all_sessions(cfg)
        assert len(reports) == 5
        assert model.strategy is MixtureStrategy(strategy)


class TestCollectTrainable:
    @pytest.mark.parametrize("strategy", [s.value for s in MixtureStrategy])
    @pytest.mark.parametrize("tasks", [5, 3])  # 20 classes: 4 per task, or 7, 7 and 6
    def test_a_session_trains_its_generators_and_the_seen_classes(self, monkeypatch, strategy, tasks):
        # each session trains the newest generator of every layer as one bank
        # row (mean and scale maps, latent x latent weights plus a bias each), the auxiliary
        # classifier over every class seen so far and, under learned-omega
        # only, one mix weight per layer per generator
        cfg = small_cfg(tasks=tasks)
        cfg.pinoise.strategy = strategy
        cfg.train.epochs = 0
        stream = build_stream(cfg)
        model = build_model(cfg, stream.feature_dim)
        seen = []

        def recorded(model, aux):
            params = collect_trainable(model, aux)
            seen.append({name: p.size for name, p in params.items()})
            return params

        monkeypatch.setattr(trainer_mod, "collect_trainable", recorded)
        for t in (1, 2):
            run_session(model, stream, cfg, SeededRng(derive_seed(cfg.train.seed, "session", t)))
        depth, latent = cfg.backbone.depth, cfg.pinoise.latent_dim
        learned = MixtureStrategy(strategy) is MixtureStrategy.LEARNED_OMEGA
        for t, sizes in zip((1, 2), seen, strict=True):
            classes = sum(len(task.class_set) for task in stream.tasks[:t])
            expected = {"aux": cfg.backbone.buffer_size * classes}
            for l in range(depth):
                expected[f"gen{l}"] = 2 * (latent * latent + latent)
                if learned:
                    expected[f"omega{l}"] = t
            assert sizes == expected, t
            assert list(sizes)[-1] == "aux"
