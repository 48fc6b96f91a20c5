"""Per-task noise generators, the layer that injects them, and mixing rules.

Each task owns one generator per layer: two affine maps in a narrow latent
space that produce the mean and scale of a reparameterized Gaussian
perturbation. A generator is only its parameters: one vector of width
n = 2 d2(d2+1), mean map first, scale map second (:class:`NoiseGenerator`
reads the four maps from it). A layer's task state is three arrays that grow
by one row per session: the k x n bank B, whose row i is task i's generator,
the k x d2 prototypes and the k mix weights. Which generators are frozen
follows from the model's session count: a task's generator trains in its
own session and never again.

A mixing strategy is a pair of per-task coefficient vectors ``(c_mean,
c_scale)`` (:func:`mixture_coefficients`). All tasks at a layer share one
draw and every map is affine, so the mixture is itself one affine generator
whose parameters are the coefficient-weighted sums of the tasks'
parameters: ``c_mean @ B[:, :n/2]`` joined to ``c_scale @ B[:, n/2:]``
(:func:`run_layer`). The gradient of the mixing weights is ``B @ g`` for the
effective generator's gradient g, and the trainable generator is a view of
B's newest row, so training it in place writes B. Per input row, the
forward and backward pass of a layer cost the same for any number of tasks,
and the per-step work on the k generators is one product each way, on B as
it stands.

A layer's forward pass (:func:`run_layer`) is a function of its parameters
and the draws it is given, the Gaussian draw and the random-task pick; it
draws nothing itself (:func:`noisemix.model.draw_noise` does).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .numeric import SeededRng, as_matrix, softmax


class MixtureStrategy(enum.Enum):
    """How the per-task noises at a layer are combined."""

    LEARNED_OMEGA = "learned-omega"
    AVERAGE = "average"
    MU_ONLY = "mu-only"
    SIGMA_ONLY = "sigma-only"
    LAST_TASK = "last-task"
    RANDOM_TASK = "random-task"


class NoiseGenerator:
    """Affine mean/scale maps in the latent space: a view of one generator
    vector, which is not copied.

    The vector of width 2 d2(d2+1) holds the four maps in :meth:`params`
    order: mean weight (d2 x d2), mean bias (d2), scale weight (d2 x d2) and
    scale bias (d2). The first half is the mean map, the second the scale
    map. The four attributes are read-only views of the vector, so in-place
    updates of them write the vector and nothing can rebind them.
    """

    def __init__(self, vector: np.ndarray, latent_dim: int):
        d2 = latent_dim
        if vector.shape != (2 * d2 * (d2 + 1),):
            raise ValueError(f"generator vector for d2={d2} has shape {vector.shape}")
        self.vector = vector
        w, half = d2 * d2, d2 * (d2 + 1)
        self._maps = (
            vector[:w].reshape(d2, d2),
            vector[w:half],
            vector[half : half + w].reshape(d2, d2),
            vector[half + w :],
        )

    mean_weight = property(lambda self: self._maps[0])
    mean_bias = property(lambda self: self._maps[1])
    scale_weight = property(lambda self: self._maps[2])
    scale_bias = property(lambda self: self._maps[3])

    def mean_of(self, h: np.ndarray) -> np.ndarray:
        return h @ self.mean_weight + self.mean_bias

    def scale_of(self, h: np.ndarray) -> np.ndarray:
        return h @ self.scale_weight + self.scale_bias

    def params(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self._maps


def new_generator(latent_dim: int, rng: SeededRng, init_scale: float) -> np.ndarray:
    """Fresh generator vector with near-zero output at initialization.

    Weights are N(0, 1/latent_dim) scaled by ``init_scale`` so a new task's
    noise starts as a tiny perturbation; biases start at zero. init_scale=0
    gives an exactly-zero generator.
    """
    scale = init_scale / np.sqrt(latent_dim)
    mean_weight = rng.standard_normal(latent_dim, latent_dim) * scale
    scale_weight = rng.standard_normal(latent_dim, latent_dim) * scale
    bias = np.zeros(latent_dim)
    return np.concatenate([mean_weight.ravel(), bias, scale_weight.ravel(), bias])


@dataclass
class PiNoiseLayer:
    """Noise injection point after one backbone block.

    The down/up projections are frozen random maps shared by every task.
    The task state is three arrays that grow by one row per session: row i
    of ``bank`` is task i's generator vector (see :class:`NoiseGenerator`),
    row i of ``prototypes`` its prototype, and entry i of ``mix_weights``
    its mix weight.
    """

    down_proj: np.ndarray  # d1 x d2, frozen N(0,1)
    up_proj: np.ndarray  # d2 x d1, frozen N(0,1)
    bank: np.ndarray  # k x 2 d2(d2+1)
    prototypes: np.ndarray  # k x d2
    mix_weights: np.ndarray  # k

    @property
    def latent_dim(self) -> int:
        return self.down_proj.shape[1]


def build_layer(feature_dim: int, latent_dim: int, rng: SeededRng) -> PiNoiseLayer:
    """A layer with fresh projections and no task yet."""
    down = rng.standard_normal(feature_dim, latent_dim)
    up = rng.standard_normal(latent_dim, feature_dim)
    width = 2 * latent_dim * (latent_dim + 1)
    return PiNoiseLayer(down, up, np.empty((0, width)), np.empty((0, latent_dim)), np.empty(0))


def mixture_coefficients(
    strategy: MixtureStrategy,
    k: int,
    mix_weights: np.ndarray | None = None,
    pick: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-task weights ``(c_mean, c_scale)`` of a layer's ``k`` generators.

    learned-omega uses the mix weights for both maps, average 1/k for both,
    mu-only 1/k for the mean and 0 for the scale, sigma-only the reverse;
    last-task and random-task use one one-hot vector for both (random-task
    takes ``pick``).
    """
    if k < 1:
        raise ValueError("a mixture needs at least one generator")
    if strategy is MixtureStrategy.LEARNED_OMEGA:
        if mix_weights is None or len(mix_weights) != k:
            raise ValueError("learned-omega needs one weight per generator")
        omega = np.array(mix_weights, dtype=np.float64)
        return omega, omega
    uniform, off = np.full(k, 1.0 / k), np.zeros(k)
    if strategy is MixtureStrategy.AVERAGE:
        return uniform, uniform
    if strategy is MixtureStrategy.MU_ONLY:
        return uniform, off
    if strategy is MixtureStrategy.SIGMA_ONLY:
        return off, uniform
    if strategy is MixtureStrategy.LAST_TASK:
        pick = k - 1
    elif strategy is not MixtureStrategy.RANDOM_TASK:
        raise ValueError(f"unhandled strategy {strategy}")
    elif pick is None:
        raise ValueError("random-task needs a pick index")
    one_hot = np.zeros(k)
    one_hot[pick] = 1.0
    return one_hot, one_hot


@dataclass
class LayerCache:
    """Intermediates from one layer forward, kept for backpropagation."""

    h: np.ndarray
    epsilon: np.ndarray | None
    generator: NoiseGenerator  # the effective (mixed) generator
    c_mean: np.ndarray
    c_scale: np.ndarray


def run_layer(
    layer: PiNoiseLayer,
    feats: np.ndarray,
    strategy: MixtureStrategy,
    epsilon: np.ndarray | None,
    pick: int | None = None,
    collect: bool = False,
) -> tuple[np.ndarray, LayerCache | None]:
    """Apply the layer's mixed noise to a block output.

    ``epsilon=None`` is the mean path (as if the draw were zero), used for
    evaluation and classifier updates; ``pick`` is the task random-task uses.
    The mixed generator is one product over the bank's mean halves and one
    over its scale halves, on the bank as it stands.
    """
    h = feats @ layer.down_proj
    bank = layer.bank
    c_mean, c_scale = mixture_coefficients(strategy, len(bank), layer.mix_weights, pick)
    half = bank.shape[1] // 2
    vector = np.concatenate([c_mean @ bank[:, :half], c_scale @ bank[:, half:]])
    gen = NoiseGenerator(vector, layer.latent_dim)
    noise = gen.mean_of(h)
    if epsilon is not None:
        noise = epsilon * gen.scale_of(h) + noise
    out = feats + noise @ layer.up_proj
    cache = LayerCache(h, epsilon, gen, c_mean, c_scale) if collect else None
    return out, cache


def compute_prototype(layer: PiNoiseLayer, feats: np.ndarray) -> np.ndarray:
    """Mean down-projected feature over a task's training samples, the rows of ``feats``."""
    b = as_matrix(feats, "features")
    if b.shape[0] == 0:
        raise ValueError("prototype needs at least one training sample")
    return (b @ layer.down_proj).sum(axis=0) / b.shape[0]


def prototype_similarities(prototypes: np.ndarray) -> np.ndarray:
    """Cosine similarity of the newest prototype, the last row, against every row.

    The self-similarity entry is pinned to exactly 1.
    """
    if len(prototypes) == 0:
        raise ValueError("need at least one prototype")
    norms = [float(np.linalg.norm(p)) for p in prototypes]
    if any(n == 0 for n in norms):
        raise ValueError("zero-norm prototype")
    current = prototypes[-1]
    sims = np.array(
        [float(np.dot(current, p)) / (norms[-1] * n) for p, n in zip(prototypes, norms)]
    )
    sims[-1] = 1.0
    return sims


def init_mix_weights(prototypes: np.ndarray, tau: float) -> np.ndarray:
    """Initial mix weights: temperature softmax over prototype similarities.

    The result starts on the probability simplex; training afterwards leaves
    the weights unconstrained.
    """
    return softmax(prototype_similarities(prototypes), tau)
