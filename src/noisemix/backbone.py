"""Frozen random feature extractor and the rectified buffer expansion.

The backbone is a stack of residual tanh blocks with fixed random weights,
standing in for a pretrained feature extractor. Nothing here is ever
trained; construction is fully determined by a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import SeededRng, derive_seed


@dataclass(frozen=True)
class FrozenBlock:
    """Residual block r -> r + gain * tanh(r @ weight), weights fixed."""

    weight: np.ndarray
    gain: float


@dataclass(frozen=True)
class Backbone:
    adapter: np.ndarray  # raw input dim x d1, fixed random
    blocks: tuple[FrozenBlock, ...]

    @property
    def input_dim(self) -> int:
        return self.adapter.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.adapter.shape[1]

    @property
    def depth(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class BufferExpansion:
    """Frozen random projection followed by a rectifier.

    Widens the final backbone feature before the analytic classifier; the
    projection width is the "buffer size" hyperparameter.
    """

    projection: np.ndarray  # d1 x buffer_size, fixed N(0,1)

    @property
    def width(self) -> int:
        return self.projection.shape[1]


def build_backbone(input_dim: int, feature_dim: int, depth: int, gain: float, seed: int) -> Backbone:
    if input_dim < 1 or feature_dim < 1 or depth < 1:
        raise ValueError("backbone dimensions must be positive")
    adapter_rng = SeededRng(derive_seed(seed, "adapter"))
    # 1/sqrt(input_dim) keeps adapted features near unit scale for any input width.
    adapter = adapter_rng.standard_normal(input_dim, feature_dim) / np.sqrt(input_dim)
    blocks = []
    for layer in range(depth):
        rng = SeededRng(derive_seed(seed, "block", layer))
        weight = rng.standard_normal(feature_dim, feature_dim) / np.sqrt(feature_dim)
        blocks.append(FrozenBlock(weight=weight, gain=gain))
    return Backbone(adapter=adapter, blocks=tuple(blocks))


def build_buffer(feature_dim: int, buffer_size: int, seed: int) -> BufferExpansion:
    if buffer_size < feature_dim:
        raise ValueError(f"buffer size {buffer_size} must be at least the feature width {feature_dim}")
    rng = SeededRng(derive_seed(seed, "buffer"))
    return BufferExpansion(projection=rng.standard_normal(feature_dim, buffer_size))

