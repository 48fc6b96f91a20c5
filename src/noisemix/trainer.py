"""Per-session training: classifier updates, noise-generator optimization.

A session (:func:`run_session`) runs its phases in order. With noise layers
it first takes the frozen classifier weights from a trial update under the
noise state carried over from previous sessions
(``RidgeClassifier.trial_weights``), grows every layer's bank and
prototypes by one row and initializes its mix weights from prototype
similarity (:func:`_grow_layers`), trains the new generators and an
auxiliary classifier (plus, under learned-omega, the mix weights) by
gradient descent on one residual loss for every strategy
(:func:`_train_epochs`), and recomputes the features under the trained
noise. Then, for the baseline model too, the task is committed to the
classifier once (``RidgeClassifier.update``) and the model is evaluated on
every class seen so far. The auxiliary classifier lives only inside
``_train_epochs``; the new generators are frozen from then on, since only a
bank row past the model's session count trains.

A training step does only per-step work. Every pass of the pipeline
starts from block 0's output (:func:`noisemix.model.block0_output`), and
nothing before noise layer 0 trains, so the session computes it once for
its rows; the passes for the trial update, every training step and the
commit all start from it. Each epoch's noise is drawn
in one go (:func:`noisemix.model.draw_noise`). A generator trains as its
bank row: a layer's one generator parameter is a view of its bank's newest
row, so SGD on it writes the bank the next step mixes from. The backward
pass writes each gradient once and reuses the feature gradient in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .model import ContinualModel, ForwardTape, block0_output, build_model, draw_noise, forward_pass
from .numeric import NumericalError, SeededRng, derive_seed, finite_difference_gradient
from .pinoise import MixtureStrategy, compute_prototype, init_mix_weights, new_generator
from .report import SessionReport, evaluate


def cosine_lr(epoch: int, total_epochs: int, lr_init: float) -> float:
    """Cosine schedule from lr_init at epoch 0 down to 0 at total_epochs."""
    if total_epochs < 1:
        raise ValueError("total_epochs must be positive")
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    return lr_init * (1.0 + math.cos(math.pi * epoch / total_epochs)) / 2.0


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    momentum: float,
) -> None:
    """Momentum SGD, applied in place to every parameter array."""
    for key, p in params.items():
        v = velocity[key]
        v *= momentum
        v += grads[key]
        p -= lr * v


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint norm is at most max_norm (0 = off)."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over rows and its gradient with respect to logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    norm = exp.sum(axis=1, keepdims=True)
    log_norm = np.log(norm[:, 0])
    n = logits.shape[0]
    loss = float(np.mean(log_norm - (shifted * targets).sum(axis=1)))
    d_logits = (exp / norm - targets) / n
    return loss, d_logits


def residual_loss_grads(
    features: np.ndarray,
    aux_weights: np.ndarray,
    targets: np.ndarray,
    logit_offset: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy of the auxiliary logits on top of ``logit_offset``, plus
    gradients for the auxiliary weights and the features.

    The offset term contributes no gradient (it is a captured constant), so
    the feature gradient flows only through the auxiliary product.
    """
    n = features.shape[0]
    if targets.shape[0] != n or logit_offset.shape[0] != n:
        raise ValueError("row mismatch in loss inputs")
    logits = features @ aux_weights + logit_offset
    if not np.all(np.isfinite(logits)):
        raise NumericalError("non-finite logits in loss")
    loss, d_logits = softmax_cross_entropy(logits, targets)
    return loss, features.T @ d_logits, d_logits @ aux_weights.T


def direct_ce_grads(
    features: np.ndarray, class_weights: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Cross-entropy straight through the frozen classifier, and its feature
    gradient.

    No package code calls it: every strategy trains on
    :func:`residual_loss_grads`. It stays only because ``bench/tracer.py``
    names it among the functions it times.
    """
    logits = features @ class_weights
    loss, d_logits = softmax_cross_entropy(logits, targets)
    return loss, d_logits @ class_weights.T


def collect_trainable(model: ContinualModel, aux_weights: np.ndarray) -> dict[str, np.ndarray]:
    """Name -> array view of everything the current session may update.

    A generator trains as its bank row: ``gen<l>`` is a view of layer l's
    newest bank row, and trains while the bank holds more rows than the
    model has completed sessions. ``omega<l>``, the mix weights, train only
    under learned-omega; the auxiliary classifier trains under every
    strategy and comes last.
    """
    if model.layers is None:
        raise ValueError("baseline model has nothing to train")
    params: dict[str, np.ndarray] = {}
    for l, layer in enumerate(model.layers):
        if len(layer.bank) > model.sessions_completed:
            params[f"gen{l}"] = layer.bank[-1]
    if model.strategy is MixtureStrategy.LEARNED_OMEGA:
        for l, layer in enumerate(model.layers):
            params[f"omega{l}"] = layer.mix_weights
    params["aux"] = aux_weights
    return params


def gradient_step(model, params, r, targets, frozen_weights, eps_per_layer, picks_per_layer):
    """Forward pass, loss and backward pass of one batch.

    ``r`` is block 0's output for the batch's rows
    (:func:`noisemix.model.block0_output`). Returns the loss, the gradient of
    every array in ``params`` and the features the loss was taken on. The
    loss is the residual loss of the auxiliary classifier on top of the
    frozen logits ``z @ frozen_weights``.
    """
    z, _, tape = forward_pass(model, r, eps_per_layer=eps_per_layer, picks_per_layer=picks_per_layer, collect=True)
    loss, d_aux, d_z = residual_loss_grads(z, params["aux"], targets, z @ frozen_weights)
    grads = backward(model, tape, d_z, params)
    grads["aux"] = d_aux  # last in params, so grads keep params order
    return loss, grads, z


def backward(
    model: ContinualModel,
    tape: ForwardTape,
    d_features: np.ndarray,
    params: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of the loss through the recorded forward pass.

    Gradients flow through every frozen map (buffer projection, blocks,
    up/down projections, old generators) but are kept only for the arrays
    named in ``params``: the newest generator per layer, which trains as its
    bank row, and the mix weights. Per layer the effective generator's
    gradient is built once, as one vector in the bank-row layout: the newest
    row's gradient is that vector with its mean half times ``c_mean[-1]``
    and its scale half times ``c_scale[-1]``, and ω's is the bank times it.
    The auxiliary classifier's gradient comes from the loss, not from here.
    Nothing below the lowest noise layer trains, so the pass stops once that
    layer's generator and mix-weight gradients are taken.

    ``d_features`` is consumed: it is multiplied by the ReLU mask in place.
    Each gradient is written once, and the result lists the gradients the
    pass computes in ``params`` order (the order :func:`clip_gradients` sums
    in); an array it does not reach, such as ``aux``, gets no entry.
    """
    grads: dict[str, np.ndarray] = {}
    depth = len(model.blocks)
    lowest = next((l for l, cache in enumerate(tape.layer_caches) if cache is not None), depth)
    d_features *= tape.relu_mask
    d_cur = d_features @ model.projection.T
    for l in reversed(range(lowest, depth)):
        cache = tape.layer_caches[l]
        d_r = d_cur
        if cache is not None:
            layer = model.layers[l]
            d_mean = d_cur @ layer.up_proj.T
            d_scale = d_mean * cache.epsilon if cache.epsilon is not None else np.zeros_like(d_mean)
            w_mean, _, w_scale, _ = cache.generator.params()
            d_h = d_mean @ w_mean.T + d_scale @ w_scale.T
            # the effective generator's gradient in the bank-row layout; task
            # i's row receives its mean half times c_mean[i], its scale half
            # times c_scale[i]
            d_gen = np.concatenate(
                [(cache.h.T @ d_mean).ravel(), d_mean.sum(axis=0), (cache.h.T @ d_scale).ravel(), d_scale.sum(axis=0)]
            )
            if f"gen{l}" in params:
                grads[f"gen{l}"] = d_gen * np.repeat([cache.c_mean[-1], cache.c_scale[-1]], d_gen.size // 2)
            # omega is trainable only under learned-omega, where it is both c_mean and c_scale
            if f"omega{l}" in params:
                grads[f"omega{l}"] = layer.bank @ d_gen
            if l == lowest:
                break
            d_r = d_r + d_h @ layer.down_proj.T
        u = tape.block_tanh[l]
        d_cur = d_r + model.gain * ((d_r * (1.0 - u * u)) @ model.blocks[l].T)
    return {key: grads[key] for key in params if key in grads}


def run_session(
    model: ContinualModel,
    stream,
    cfg: RunConfig,
    session_rng: SeededRng,
) -> SessionReport:
    """Execute one incremental session and evaluate on all seen classes.

    Of the run configuration ``cfg`` the session reads ``cfg.train`` and
    ``cfg.pinoise.tau`` and ``init_scale``.
    """
    t = model.sessions_completed + 1
    if t > stream.num_tasks:
        raise ValueError(f"stream has only {stream.num_tasks} tasks")
    task = stream.tasks[t - 1]
    if task.task_index != t:
        raise ValueError(f"session order violation: expected task {t}, got {task.task_index}")
    x_train, y_train = task.train_arrays()
    block0_out = block0_output(model, x_train)

    def mean_path(key):  # the model's features on the mean noise path, picks from ``key``
        [(eps, picks)] = draw_noise(model, [len(block0_out)], None, session_rng.split(key))
        return forward_pass(model, block0_out, eps_per_layer=eps, picks_per_layer=picks)

    feats, pre_noise, _ = mean_path("clf-initial")
    model.classifier.expand_classes(task.class_set)
    targets = model.classifier.one_hot(y_train)
    epoch_losses: list[float] = []
    if model.has_noise:
        # the frozen logits come from a trial update on the initial features;
        # the task's data enters the running solution once, with its final features
        frozen_weights = model.classifier.trial_weights(feats, targets)
        _grow_layers(model, pre_noise, cfg.pinoise, session_rng)
        epoch_losses = _train_epochs(model, block0_out, targets, frozen_weights, cfg.train, session_rng)
        feats, _, _ = mean_path("clf-final")
    model.classifier.update(feats, targets)
    model.sessions_completed = t
    report = evaluate(model, stream, t)
    return replace(report, epoch_losses=tuple(epoch_losses))


def _grow_layers(model, pre_noise, pinoise, session_rng):
    """Grow every layer's bank by the session's generator and its prototypes
    by the session's prototype, then set its mix weights: the softmax of its
    prototype similarities."""
    for l, (layer, block_feats) in enumerate(zip(model.layers, pre_noise)):
        vector = new_generator(layer.latent_dim, session_rng.split("generator", l), pinoise.init_scale)
        layer.bank = np.vstack([layer.bank, vector])
        layer.prototypes = np.vstack([layer.prototypes, compute_prototype(layer, block_feats)])
        layer.mix_weights = init_mix_weights(layer.prototypes, pinoise.tau)


def _train_epochs(model, block0_out, targets, frozen_weights, train, session_rng):
    """SGD epochs over the session's rows, each step starting from block 0's
    output for its rows (``block0_out``, computed once per session). The
    auxiliary classifier starts at zero and is dropped afterwards."""
    aux = np.zeros((model.projection.shape[1], model.classifier.num_classes))
    params = collect_trainable(model, aux)
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    n = block0_out.shape[0]
    losses = []
    for epoch in range(train.epochs):
        lr = cosine_lr(epoch, train.epochs, train.lr_init)
        order = session_rng.split("order", epoch).permutation(n)
        batches = [order[start : start + train.batch_size] for start in range(0, n, train.batch_size)]
        noise = draw_noise(
            model, [len(rows) for rows in batches], session_rng.split("eps", epoch), session_rng.split("pick", epoch)
        )
        batch_losses = []
        for rows, (eps, picks) in zip(batches, noise):
            loss, grads, _ = gradient_step(model, params, block0_out[rows], targets[rows], frozen_weights, eps, picks)
            clip_gradients(grads, train.grad_clip)
            sgd_step(params, grads, velocity, lr, train.momentum)
            batch_losses.append(loss)
        losses.append(float(np.mean(batch_losses)))
    return losses


@dataclass
class GradcheckGroup:
    name: str
    size: int
    max_rel_error: float
    max_abs_error: float
    passed: bool


@dataclass
class GradcheckReport:
    groups: list[GradcheckGroup] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)

    def lines(self) -> list[str]:
        out = []
        for g in self.groups:
            status = "ok" if g.passed else "FAIL"
            out.append(
                f"{g.name:12s} n={g.size:5d} max_rel={g.max_rel_error:.3e} "
                f"max_abs={g.max_abs_error:.3e} {status}"
            )
        out.append(f"gradcheck: {'PASS' if self.passed else 'FAIL'}")
        return out


def make_gradcheck_instance(
    input_dim: int = 6,
    feature_dim: int = 8,
    latent_dim: int = 4,
    depth: int = 2,
    buffer_size: int = 16,
    batch: int = 3,
    num_classes: int = 4,
    num_tasks: int = 2,
    seed: int = 11,
    strategy: str = MixtureStrategy.LEARNED_OMEGA.value,
):
    """Small multi-task state with full-scale random parameters on every path.

    Returns the positional arguments of :func:`gradient_check`: frozen
    generators for every task but the last (the model has completed those
    sessions, so gradients must flow through frozen maps without
    accumulating into them), one trainable generator per layer, random mix
    weights, a nonzero auxiliary classifier, and fixed noise draws.
    """
    cfg = RunConfig()
    b = cfg.backbone
    b.feature_dim, b.depth, b.gain, b.seed = feature_dim, depth, 0.5, seed
    b.buffer_size = max(buffer_size, feature_dim)
    cfg.pinoise.latent_dim, cfg.pinoise.strategy = latent_dim, strategy
    cfg.classifier.regularization = 10.0
    model = build_model(cfg, input_dim)
    rng = SeededRng(derive_seed(seed, "gradcheck"))
    scale = 1.0 / np.sqrt(latent_dim)
    for layer in model.layers:
        rows, prototypes = [], []
        for _ in range(num_tasks):
            maps = (
                rng.standard_normal(latent_dim, latent_dim) * scale,
                rng.standard_normal(latent_dim) * 0.1,
                rng.standard_normal(latent_dim, latent_dim) * scale,
                rng.standard_normal(latent_dim) * 0.1,
            )
            rows.append(np.concatenate([a.ravel() for a in maps]))
            prototypes.append(rng.standard_normal(latent_dim))
        layer.bank, layer.prototypes = np.stack(rows), np.stack(prototypes)
        layer.mix_weights = init_mix_weights(layer.prototypes, 2.0)
    model.sessions_completed = num_tasks - 1
    x = rng.standard_normal(batch, input_dim)
    targets = np.zeros((batch, num_classes))
    for i in range(batch):
        targets[i, rng.integer(num_classes)] = 1.0
    frozen_weights = rng.standard_normal(model.projection.shape[1], num_classes) * 0.05
    aux = rng.standard_normal(model.projection.shape[1], num_classes) * 0.05
    eps = [rng.standard_normal(batch, latent_dim) for _ in model.layers]
    picks = None
    if model.strategy is MixtureStrategy.RANDOM_TASK:
        picks = [rng.integer(num_tasks) for _ in model.layers]
    return model, aux, x, targets, frozen_weights, eps, picks


def gradient_check(
    model: ContinualModel,
    aux_weights: np.ndarray,
    x: np.ndarray,
    targets: np.ndarray,
    frozen_weights: np.ndarray,
    eps_per_layer,
    picks_per_layer=None,
    fd_epsilon: float = 1e-5,
    tolerance: float = 1e-4,
    floor: float = 1e-7,
) -> GradcheckReport:
    """Compare analytic gradients against central finite differences.

    The loss is evaluated with the frozen-classifier offset captured at the
    unperturbed parameters, matching its constant treatment in the analytic
    backward pass. An entry passes when its absolute error is at most
    ``floor`` or at most ``tolerance`` times the larger gradient magnitude.
    Its relative error is measured over that magnitude taken as at least
    ``floor / tolerance``, so it is within ``tolerance`` exactly when the
    entry passes (for ``tolerance`` <= 1). Each group reports its largest
    absolute and relative errors, and passes when that relative error is
    within ``tolerance``.
    """
    params = collect_trainable(model, aux_weights)
    r = block0_output(model, x)
    _, analytic, z0 = gradient_step(model, params, r, targets, frozen_weights, eps_per_layer, picks_per_layer)
    offset0 = z0 @ frozen_weights

    def loss_at(key: str, flat: np.ndarray) -> float:
        saved = params[key].copy()
        params[key][...] = flat.reshape(params[key].shape)
        try:
            z, _, _ = forward_pass(model, r, eps_per_layer=eps_per_layer, picks_per_layer=picks_per_layer)
            return residual_loss_grads(z, params["aux"], targets, offset0)[0]
        finally:
            params[key][...] = saved

    report = GradcheckReport()
    for key in sorted(params):
        fd = finite_difference_gradient(
            lambda flat, key=key: loss_at(key, flat), params[key].ravel(), fd_epsilon
        )
        a = analytic[key].ravel()
        abs_err = np.abs(a - fd)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(fd)), floor / tolerance)
        max_rel = float((abs_err / scale).max()) if a.size else 0.0
        report.groups.append(
            GradcheckGroup(
                name=key,
                size=a.size,
                max_rel_error=max_rel,
                max_abs_error=float(abs_err.max()) if a.size else 0.0,
                passed=max_rel <= tolerance,
            )
        )
    return report
