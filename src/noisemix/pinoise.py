"""Per-task noise generators, the layer that injects them, and mixing rules.

Each task owns one generator per layer: two affine maps in a narrow latent
space that produce the mean and scale of a reparameterized Gaussian
perturbation. A generator is only its parameters: four arrays in one
contiguous vector, mean map first, scale map second. Which generators are
frozen follows from the model's session count: a task's generator trains in
its own session and never again.

A mixing strategy is a pair of per-task coefficient vectors ``(c_mean,
c_scale)`` (:func:`mixture_coefficients`). All tasks at a layer share one
draw and every map is affine, so the mixture is itself one affine generator
whose parameters are the coefficient-weighted sums of the tasks' parameters
(:func:`mixed_generator`). A layer holds its k vectors as the rows of one
k x 2m bank B (:class:`GeneratorBank`), and each generator is a view of its
row, so training a generator in place writes B. The mixture is then
``c_mean @ B[:, :m]`` joined to ``c_scale @ B[:, m:]``, and the gradient of
the mixing weights is ``B @ g`` for the effective generator's gradient g.
Per input row, the forward and backward pass of a layer cost the same for
any number of tasks, and the per-step work on the k generators is one
product each way, on B as it stands.

A layer's forward pass (:func:`run_layer`) is a function of its parameters
and the draws it is given, the Gaussian draw and the random-task pick; it
draws nothing itself (:func:`noisemix.model.draw_noise` does).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

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

    @classmethod
    def from_string(cls, name: str) -> "MixtureStrategy":
        for member in cls:
            if member.value == name:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown mixture strategy {name!r} (valid: {valid})")


class NoiseGenerator:
    """Affine mean/scale maps in the latent space.

    The four maps live in one contiguous float64 ``vector``, in :meth:`params`
    order: mean weight (d2 x d2), mean bias (d2), scale weight (d2 x d2) and
    scale bias (d2). The first half is the mean map, the second the scale
    map. The four attributes are read-only views of the vector, so in-place
    updates of them write the vector and nothing can rebind them.
    """

    def __init__(self, mean_weight, mean_bias, scale_weight, scale_bias):
        maps = [np.asarray(a, dtype=np.float64) for a in (mean_weight, mean_bias, scale_weight, scale_bias)]
        d2 = maps[1].size
        shapes = [a.shape for a in maps]
        if shapes != [(d2, d2), (d2,), (d2, d2), (d2,)]:
            raise ValueError(f"generator maps need shapes d2 x d2, d2, d2 x d2, d2; got {shapes}")
        self._bind(np.concatenate([a.ravel() for a in maps]), d2)

    @classmethod
    def from_vector(cls, vector: np.ndarray, latent_dim: int) -> "NoiseGenerator":
        """A generator whose maps are views of ``vector`` itself (not copied)."""
        gen = cls.__new__(cls)
        if vector.shape != (2 * latent_dim * (latent_dim + 1),):
            raise ValueError(f"generator vector for d2={latent_dim} has shape {vector.shape}")
        gen._bind(vector, latent_dim)
        return gen

    def _bind(self, vector: np.ndarray, d2: int) -> None:
        self.vector = vector
        w, half = d2 * d2, d2 * (d2 + 1)
        self._maps = (
            vector[:w].reshape(d2, d2),
            vector[w:half],
            vector[half : half + w].reshape(d2, d2),
            vector[half + w :],
        )

    @property
    def latent_dim(self) -> int:
        return self._maps[1].shape[0]

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

    def param_bytes(self) -> bytes:
        return self.vector.tobytes()


class GeneratorBank(Sequence):
    """A layer's generators as the rows of one k x 2m array, ``matrix``.

    Each generator is a view of its row. :meth:`append` grows the array by
    one row, once per session, and rebinds every generator, the appended one
    included, to its row of the new array. Array views taken from a
    generator before an append no longer reach the bank, so parameter views
    (:func:`noisemix.trainer.collect_trainable`) are taken after it.
    """

    def __init__(self, generators=()):
        generators = list(generators)
        self._generators: list[NoiseGenerator] = []
        self.matrix = np.empty((0, 0))
        if generators:  # np.stack rejects generators of different widths
            self._bind_rows(generators, np.stack([g.vector for g in generators]))

    def __len__(self) -> int:
        return len(self._generators)

    def __getitem__(self, index):
        return self._generators[index]

    def append(self, gen: NoiseGenerator) -> None:
        k = len(self._generators)
        if k and gen.vector.shape != self.matrix.shape[1:]:
            raise ValueError(
                f"generator of latent width {gen.latent_dim} does not fit a bank of latent width "
                f"{self._generators[0].latent_dim}"
            )
        matrix = np.empty((k + 1, gen.vector.size))
        if k:
            matrix[:k] = self.matrix
        matrix[k] = gen.vector
        self._bind_rows(self._generators + [gen], matrix)

    def _bind_rows(self, generators: list[NoiseGenerator], matrix: np.ndarray) -> None:
        for gen, row in zip(generators, matrix):
            gen._bind(row, gen.latent_dim)
        self._generators, self.matrix = generators, matrix


def new_generator(latent_dim: int, rng: SeededRng, init_scale: float = 0.0001) -> NoiseGenerator:
    """Fresh generator with near-zero output at initialization.

    Weights are N(0, 1/latent_dim) scaled by ``init_scale`` so a new task's
    noise starts as a tiny perturbation; biases start at zero. init_scale=0
    gives an exactly-zero generator.
    """
    scale = init_scale / np.sqrt(latent_dim)
    return NoiseGenerator(
        mean_weight=rng.standard_normal(latent_dim, latent_dim) * scale,
        mean_bias=np.zeros(latent_dim),
        scale_weight=rng.standard_normal(latent_dim, latent_dim) * scale,
        scale_bias=np.zeros(latent_dim),
    )


@dataclass
class PiNoiseLayer:
    """Noise injection point after one backbone block.

    The down/up projections are frozen random maps shared by every task;
    generators (one bank row each), prototypes and mix weights grow by one
    entry per session.
    """

    down_proj: np.ndarray  # d1 x d2, frozen N(0,1)
    up_proj: np.ndarray  # d2 x d1, frozen N(0,1)
    layer_index: int
    generators: GeneratorBank = field(default_factory=GeneratorBank)
    prototypes: list[np.ndarray] = field(default_factory=list)
    mix_weights: np.ndarray | None = None

    @property
    def latent_dim(self) -> int:
        return self.down_proj.shape[1]

    def frozen_bytes(self) -> bytes:
        return (
            np.ascontiguousarray(self.down_proj, dtype=np.float64).tobytes()
            + np.ascontiguousarray(self.up_proj, dtype=np.float64).tobytes()
        )


def build_layer(feature_dim: int, latent_dim: int, layer_index: int, rng: SeededRng) -> PiNoiseLayer:
    down = rng.standard_normal(feature_dim, latent_dim)
    up = rng.standard_normal(latent_dim, feature_dim)
    return PiNoiseLayer(down_proj=down, up_proj=up, layer_index=layer_index)


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


def mixed_generator(
    generators: GeneratorBank, c_mean: np.ndarray, c_scale: np.ndarray
) -> tuple[NoiseGenerator, np.ndarray]:
    """The single affine generator equal to the coefficient-weighted mixture.

    Every task at a layer shares one draw, so ``sum_i c_i (eps * scale_i(h)
    + mean_i(h))`` is ``eps * scale(h) + mean(h)`` of the weighted sums. The
    layer's k vectors are the rows of its k x 2m bank, read as it stands, and
    the sums are one product over its mean halves and one over its scale
    halves. Returns the generator and the bank.
    """
    bank = generators.matrix
    half = bank.shape[1] // 2
    vector = np.concatenate([c_mean @ bank[:, :half], c_scale @ bank[:, half:]])
    return NoiseGenerator.from_vector(vector, generators[0].latent_dim), bank


@dataclass
class LayerCache:
    """Intermediates from one layer forward, kept for backpropagation."""

    h: np.ndarray
    epsilon: np.ndarray | None
    generator: NoiseGenerator  # the effective (mixed) generator
    c_mean: np.ndarray
    c_scale: np.ndarray
    bank: np.ndarray  # the layer's k x 2m bank itself, not a copy


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
    """
    h = feats @ layer.down_proj
    c_mean, c_scale = mixture_coefficients(strategy, len(layer.generators), layer.mix_weights, pick)
    gen, bank = mixed_generator(layer.generators, c_mean, c_scale)
    noise = gen.mean_of(h)
    if epsilon is not None:
        noise = epsilon * gen.scale_of(h) + noise
    out = feats + noise @ layer.up_proj
    cache = LayerCache(h, epsilon, gen, c_mean, c_scale, bank) if collect else None
    return out, cache


def compute_prototype(layer: PiNoiseLayer, feats: np.ndarray) -> np.ndarray:
    """Mean down-projected feature over a task's training samples, the rows of ``feats``."""
    b = as_matrix(feats, "features")
    if b.shape[0] == 0:
        raise ValueError("prototype needs at least one training sample")
    return (b @ layer.down_proj).sum(axis=0) / b.shape[0]


def prototype_similarities(prototypes: list[np.ndarray]) -> np.ndarray:
    """Cosine similarity of the newest prototype against every stored one.

    The self-similarity entry is pinned to exactly 1.
    """
    if not prototypes:
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


def init_mix_weights(prototypes: list[np.ndarray], tau: float) -> np.ndarray:
    """Initial mix weights: temperature softmax over prototype similarities.

    The result starts on the probability simplex; training afterwards leaves
    the weights unconstrained.
    """
    return softmax(prototype_similarities(prototypes), tau)
