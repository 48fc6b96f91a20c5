"""The assembled incremental model: backbone, noise layers, buffer, classifier."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .backbone import Backbone, BufferExpansion, build_backbone, build_buffer
from .classifier import RidgeClassifier
from .numeric import SeededRng, as_matrix, derive_seed, require_finite
from .pinoise import LayerCache, MixtureStrategy, PiNoiseLayer, build_layer, run_layer


@dataclass
class ForwardTape:
    """What the backward pass reads of one forward pass: each block's tanh
    output, each noise layer's cache, and the ReLU mask of the expansion."""

    block_tanh: list[np.ndarray]
    layer_caches: list[LayerCache | None]
    relu_mask: np.ndarray


@dataclass
class ContinualModel:
    backbone: Backbone
    buffer: BufferExpansion
    layers: list[PiNoiseLayer] | None  # None: plain analytic baseline
    classifier: RidgeClassifier
    strategy: MixtureStrategy = MixtureStrategy.LEARNED_OMEGA
    shared_mix_weights: bool = False
    stochastic_eval: bool = False
    sessions_completed: int = 0
    eval_seed: int = 0

    @property
    def has_noise(self) -> bool:
        return self.layers is not None

    def features(
        self,
        x: np.ndarray,
        rng: SeededRng | None = None,
        eval_mode: bool = True,
        collect_blocks: bool = False,
    ):
        """Expanded features for the classifier.

        ``eval_mode`` follows the mean noise path unless stochastic
        evaluation was requested; the sampling path needs an rng. Returns
        the feature matrix, plus the per-block pre-noise outputs when
        ``collect_blocks`` is set.
        """
        sample = (self.stochastic_eval if eval_mode else True)
        if sample and rng is None:
            raise ValueError("sampling path needs an rng")
        z, pre_noise, _ = forward_pass(self, x, rng=rng, sample_noise=sample)
        if collect_blocks:
            return z, pre_noise
        return z

    def frozen_param_hash(self) -> str:
        """Content hash of every parameter that must never change."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.backbone.adapter).tobytes())
        for block in self.backbone.blocks:
            h.update(np.ascontiguousarray(block.weight).tobytes())
            h.update(np.float64(block.gain).tobytes())
        h.update(np.ascontiguousarray(self.buffer.projection).tobytes())
        if self.layers is not None:
            for layer in self.layers:
                h.update(layer.frozen_bytes())
        return h.hexdigest()

    def state_hash(self) -> str:
        """Hash of all mutable state; used to prove evaluation is read-only."""
        h = hashlib.sha256()
        for buf in self.classifier.state_buffers():
            h.update(buf)
        h.update(np.int64(self.sessions_completed).tobytes())
        if self.layers is not None:
            for layer in self.layers:
                for gen in layer.generators:
                    h.update(gen.param_bytes())
                    h.update(np.int64(gen.frozen).tobytes())
                for proto in layer.prototypes:
                    h.update(np.ascontiguousarray(proto).tobytes())
                if layer.mix_weights is not None:
                    h.update(np.ascontiguousarray(layer.mix_weights).tobytes())
        return h.hexdigest()


def build_model(
    input_dim: int,
    feature_dim: int,
    depth: int,
    gain: float,
    buffer_size: int,
    latent_dim: int,
    regularization: float,
    seed: int,
    with_noise: bool = True,
    strategy: MixtureStrategy = MixtureStrategy.LEARNED_OMEGA,
    shared_mix_weights: bool = False,
    stochastic_eval: bool = False,
) -> ContinualModel:
    backbone = build_backbone(input_dim, feature_dim, depth, gain, seed)
    buffer = build_buffer(feature_dim, buffer_size, seed)
    layers = None
    if with_noise:
        layers = [
            build_layer(feature_dim, latent_dim, l, SeededRng(derive_seed(seed, "pinoise", l)))
            for l in range(depth)
        ]
    classifier = RidgeClassifier(buffer_size, regularization)
    return ContinualModel(
        backbone=backbone,
        buffer=buffer,
        layers=layers,
        classifier=classifier,
        strategy=strategy,
        shared_mix_weights=shared_mix_weights,
        stochastic_eval=stochastic_eval,
        eval_seed=derive_seed(seed, "eval"),
    )


def forward_pass(
    model: ContinualModel,
    x: np.ndarray,
    rng: SeededRng | None = None,
    sample_noise: bool = False,
    eps_per_layer: list[np.ndarray | None] | None = None,
    picks_per_layer: list[int | None] | None = None,
    collect: bool = False,
) -> tuple[np.ndarray, list[np.ndarray], ForwardTape | None]:
    """Run the full feature pipeline.

    Noise draws come from ``eps_per_layer`` when given (gradient checks and
    training reuse), otherwise from ``rng`` when ``sample_noise`` is set,
    otherwise the mean path (draw treated as zero). Returns the expanded
    features, the per-block pre-noise outputs, and optionally the tape.
    """
    x = as_matrix(x, "input batch")
    if x.shape[1] != model.backbone.input_dim:
        raise ValueError(f"input width {x.shape[1]} != backbone input {model.backbone.input_dim}")
    require_finite(x, "input batch")
    cur = x @ model.backbone.adapter
    block_tanh: list[np.ndarray] = []
    layer_caches: list[LayerCache | None] = []
    pre_noise: list[np.ndarray] = []
    for l, block in enumerate(model.backbone.blocks):
        u = np.tanh(cur @ block.weight)
        r = cur + block.gain * u
        require_finite(r, f"block {l} output")
        if collect:
            block_tanh.append(u)
        pre_noise.append(r)
        nxt = r
        cache = None
        if model.layers is not None and model.layers[l].generators:
            layer = model.layers[l]
            if eps_per_layer is not None:
                eps = eps_per_layer[l]
            elif sample_noise:
                eps = rng.standard_normal(r.shape[0], layer.latent_dim)
            else:
                eps = None
            pick = picks_per_layer[l] if picks_per_layer is not None else None
            nxt, cache = run_layer(layer, r, model.strategy, eps, pick=pick, rng=rng, collect=collect)
            require_finite(nxt, f"noise layer {l} output")
        layer_caches.append(cache)
        cur = nxt
    expanded = cur @ model.buffer.projection
    require_finite(expanded, "buffer expansion")
    z = np.maximum(expanded, 0.0)
    tape = None
    if collect:
        tape = ForwardTape(block_tanh=block_tanh, layer_caches=layer_caches, relu_mask=expanded > 0)
    return z, pre_noise, tape
