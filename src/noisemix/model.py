"""The assembled incremental model: frozen backbone, noise layers, buffer, classifier."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .classifier import RidgeClassifier
from .config import RunConfig
from .numeric import SeededRng, as_matrix, derive_seed, require_finite
from .pinoise import LayerCache, MixtureStrategy, PiNoiseLayer, build_layer, run_layer


@dataclass
class ForwardTape:
    """What the backward pass reads of one forward pass: each block's tanh
    output (None for block 0, whose output the pass starts from and whose
    tanh the backward pass never reads), each noise layer's cache, and the
    ReLU mask of the expansion."""

    block_tanh: list[np.ndarray | None]
    layer_caches: list[LayerCache | None]
    relu_mask: np.ndarray


@dataclass
class ContinualModel:
    """The frozen backbone, the noise layers and the analytic classifier.

    The backbone stands in for a pretrained feature extractor and is never
    trained: an input ``adapter`` (input x d1), residual tanh ``blocks`` of
    d1 x d1 weights sharing one ``gain`` (block l maps r to
    ``r + gain * tanh(r @ blocks[l])``), and the buffer ``projection``
    (d1 x buffer width), whose rectified output feeds the classifier.
    """

    adapter: np.ndarray
    blocks: tuple[np.ndarray, ...]
    gain: float
    projection: np.ndarray
    layers: list[PiNoiseLayer] | None  # None: plain analytic baseline
    classifier: RidgeClassifier
    strategy: MixtureStrategy = MixtureStrategy.LEARNED_OMEGA
    sessions_completed: int = 0
    eval_seed: int = 0

    @property
    def has_noise(self) -> bool:
        return self.layers is not None

    def features(self, x: np.ndarray, rng: SeededRng | None = None, eval_mode: bool = True) -> np.ndarray:
        """Expanded features of the raw inputs ``x`` for the classifier.

        ``eval_mode`` follows the mean noise path; otherwise the Gaussian
        draws are sampled from ``rng``. Random-task picks draw from ``rng``
        on both paths, in :func:`draw_noise`'s order.
        """
        if not eval_mode and rng is None:
            raise ValueError("sampling path needs an rng")
        r = block0_output(self, x)
        [(eps, picks)] = draw_noise(self, [len(r)], None if eval_mode else rng, rng)
        return forward_pass(self, r, eps_per_layer=eps, picks_per_layer=picks)[0]

    def frozen_param_hash(self) -> str:
        """Content hash of every parameter that must never change.

        In order: the adapter, each block weight followed by the gain as a
        float64, the projection, then each noise layer's ``down_proj`` and
        ``up_proj``. Every array is hashed from its own buffer, not copied,
        so the check a restore makes first holds no copy of the projection.
        """
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.adapter))
        for weight in self.blocks:
            h.update(np.ascontiguousarray(weight))
            h.update(np.float64(self.gain).tobytes())
        h.update(np.ascontiguousarray(self.projection))
        for layer in self.layers or ():
            h.update(np.ascontiguousarray(layer.down_proj))
            h.update(np.ascontiguousarray(layer.up_proj))
        return h.hexdigest()


def build_model(cfg: RunConfig, input_dim: int) -> ContinualModel:
    """A fresh model of the ``backbone``, ``pinoise`` and ``classifier`` sections of ``cfg``."""
    b, p = cfg.backbone, cfg.pinoise
    d1 = b.feature_dim
    if input_dim < 1 or d1 < 1 or b.depth < 1:
        raise ValueError("backbone dimensions must be positive")
    if b.buffer_size < d1:
        raise ValueError(f"buffer size {b.buffer_size} must be at least the feature width {d1}")

    def normal(rows: int, cols: int, *key) -> np.ndarray:
        return SeededRng(derive_seed(b.seed, *key)).standard_normal(rows, cols)

    layers = None
    if p.enabled:
        layers = [
            build_layer(d1, p.latent_dim, SeededRng(derive_seed(b.seed, "pinoise", l)))
            for l in range(b.depth)
        ]
    # 1/sqrt(fan-in) keeps the adapted features and each block's tanh input near unit scale
    return ContinualModel(
        adapter=normal(input_dim, d1, "adapter") / np.sqrt(input_dim),
        blocks=tuple(normal(d1, d1, "block", l) / np.sqrt(d1) for l in range(b.depth)),
        gain=b.gain,
        projection=normal(d1, b.buffer_size, "buffer"),
        layers=layers,
        classifier=RidgeClassifier(b.buffer_size, cfg.classifier.regularization),
        strategy=MixtureStrategy(p.strategy),
        eval_seed=derive_seed(b.seed, "eval"),
    )


def draw_noise(
    model: ContinualModel, sizes: list[int], eps_rng: SeededRng | None, pick_rng: SeededRng | None
) -> list[tuple[list[np.ndarray | None] | None, list[int | None] | None]]:
    """The noise draws of consecutive forward passes over batches of ``sizes`` rows.

    Only layers that hold a generator draw. For each run of equal batch sizes,
    first the Gaussian draws of its batches from ``eps_rng``, in one
    :meth:`SeededRng.standard_normal` call with one ``size x d2`` block per
    batch and layer (none, the mean path, when ``eps_rng`` is None); then,
    under random-task, batch by batch and layer by layer, the picked task
    from ``pick_rng``. The layers share one latent width, as
    :func:`build_model` makes them. Returns one ``(eps_per_layer,
    picks_per_layer)`` per batch, for :func:`forward_pass`.
    """
    if model.layers is None:
        return [(None, None)] * len(sizes)
    active = [l for l, layer in enumerate(model.layers) if len(layer.bank)]
    random_task = model.strategy is MixtureStrategy.RANDOM_TASK and pick_rng is not None
    batches = []
    for size, run in itertools.groupby(sizes):
        count = len(list(run))
        draws = [[None] * len(active)] * count  # the mean path
        if eps_rng is not None and active:
            d2 = model.layers[active[0]].latent_dim
            draws = eps_rng.standard_normal(size, d2, blocks=count * len(active))
            draws = draws.reshape(count, len(active), size, d2)
        for batch in draws:
            eps, picks = [None] * len(model.layers), [None] * len(model.layers)
            for l, eps_l in zip(active, batch):
                eps[l] = eps_l
                if random_task:
                    picks[l] = pick_rng.integer(len(model.layers[l].bank))
            batches.append((eps, picks))
    return batches


def block0_output(model: ContinualModel, x: np.ndarray) -> np.ndarray:
    """Block 0's output for the raw inputs ``x``, where every pass of the
    pipeline starts (:func:`forward_pass`).

    Raw inputs enter here and nowhere else, so this is where they are
    checked. Nothing before noise layer 0 has a trainable parameter, so a
    session computes this once for its rows.
    """
    x = as_matrix(x, "input batch")
    if x.shape[1] != model.adapter.shape[0]:
        raise ValueError(f"input width {x.shape[1]} != backbone input {model.adapter.shape[0]}")
    require_finite(x, "input batch")
    cur = x @ model.adapter
    r = cur + model.gain * np.tanh(cur @ model.blocks[0])
    return require_finite(r, "block 0 output")


def forward_pass(
    model: ContinualModel,
    r: np.ndarray,
    eps_per_layer: list[np.ndarray | None] | None = None,
    picks_per_layer: list[int | None] | None = None,
    collect: bool = False,
) -> tuple[np.ndarray, list[np.ndarray], ForwardTape | None]:
    """Run the feature pipeline from block 0's output ``r`` (:func:`block0_output`)
    on the given draws (:func:`draw_noise`).

    A layer without a draw follows the mean path (draw treated as zero).
    Returns the expanded features, the per-block pre-noise outputs (``r``
    first), and optionally the tape.
    """
    block_tanh, layer_caches, pre_noise = [None], [], []
    for l in range(len(model.blocks)):
        if l:
            u = np.tanh(cur @ model.blocks[l])
            r = cur + model.gain * u
            require_finite(r, f"block {l} output")
            if collect:
                block_tanh.append(u)
        pre_noise.append(r)
        cur, cache = r, None
        if model.layers is not None and len(model.layers[l].bank):
            eps = eps_per_layer[l] if eps_per_layer is not None else None
            pick = picks_per_layer[l] if picks_per_layer is not None else None
            cur, cache = run_layer(model.layers[l], r, model.strategy, eps, pick=pick, collect=collect)
            require_finite(cur, f"noise layer {l} output")
        layer_caches.append(cache)
    expanded = cur @ model.projection
    require_finite(expanded, "buffer expansion")
    tape = ForwardTape(block_tanh, layer_caches, relu_mask=expanded > 0) if collect else None
    z = np.maximum(expanded, 0.0, out=expanded)  # the mask is taken, so rectify in place
    return z, pre_noise, tape
