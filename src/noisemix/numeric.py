"""Array checks, seeded randomness and the gradient oracle shared by every module.

:func:`as_matrix` and :func:`require_finite` check arrays where they enter
and leave a computation (:class:`NumericalError` for non-finite values);
:func:`softmax` is the temperature softmax of the mix-weight init;
:func:`derive_seed` and :class:`SeededRng` are the only source of
randomness; :func:`finite_difference_gradient` is the oracle of the
gradient checks. The ridge solution lives in :mod:`noisemix.classifier`,
which updates it batch by batch.

All randomness flows through :class:`SeededRng` instances that are passed
explicitly; nothing in this package reads global RNG state. Matrices are
plain two-dimensional float64 numpy arrays (row-major).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class NumericalError(RuntimeError):
    """A computation produced non-finite values or lost positive definiteness."""


def as_matrix(a, what: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{what} must be 2-dimensional, got shape {m.shape}")
    return m


def require_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericalError(f"non-finite values in {what}")
    return a


def softmax(values, tau: float = 1.0) -> np.ndarray:
    """Temperature softmax of a 1-d sequence, computed with max subtraction."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("softmax expects a non-empty 1-d sequence")
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    z = v / float(tau)
    e = np.exp(z - z.max())
    return e / e.sum()


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed 64-bit bijective scramble."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(seed: int, *keys) -> int:
    """Derive a child seed from a parent seed and a sequence of keys.

    Pure function of its arguments; independent of any stream consumption.
    Keys may be ints or strings. Used to split one experiment seed into
    independent per-component streams.
    """
    s = _mix64((int(seed) & _MASK64) ^ 0xD1B54A32D192ED03)
    for k in keys:
        if isinstance(k, str):
            data = k.encode("utf-8")
            s = _mix64(s ^ (len(data) & _MASK64) ^ _GOLDEN)
            for i in range(0, len(data), 8):
                chunk = int.from_bytes(data[i : i + 8], "little")
                s = _mix64(s ^ chunk)
        elif isinstance(k, (int, np.integer)):
            s = _mix64((s + _GOLDEN) ^ (int(k) & _MASK64))
        else:
            raise TypeError(f"seed keys must be int or str, got {type(k).__name__}")
    return s


class SeededRng:
    """Deterministic random stream: SplitMix64 integers, Box-Muller normals.

    The output stream depends only on (seed, call sequence). The integer
    words are fixed-width integer arithmetic, the same everywhere. The
    normals also pass through numpy's float64 ``log``, whose code numpy
    picks by the CPU's SIMD features, so they are reproducible for the same
    numpy build at the same SIMD level, not across platforms: disabling
    AVX-512 through ``NPY_DISABLE_CPU_FEATURES`` changes them. Every draw
    takes the next words of one SplitMix64 sequence, so two instances of
    one seed that have taken the same number of words give the same draws
    from then on. Instances are single-owner: share seeds via
    :meth:`split`, never the object.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._state = self.seed

    def split(self, *keys) -> "SeededRng":
        """Independent child stream keyed off this rng's original seed."""
        return SeededRng(derive_seed(self.seed, *keys))

    def next_uint64(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be non-negative")
        idx = np.arange(1, count + 1, dtype=np.uint64)
        seq = np.uint64(self._state) + idx * np.uint64(_GOLDEN)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        z = seq
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def uniform(self, count: int) -> np.ndarray:
        """Uniform draws in (0, 1]; never zero, so log() is always safe."""
        return (self.next_uint64(count).astype(np.float64) + 1.0) * 2.0**-64

    def standard_normal(self, rows: int, cols: int | None = None, blocks: int | None = None) -> np.ndarray:
        """I.i.d. N(0,1) draws via the Box-Muller transform.

        Returns a vector of length ``rows`` or a ``rows x cols`` matrix. A
        call takes ceil(size / 2) words for the radii, then as many for the
        angles, so an odd size wastes one word. With ``blocks`` it returns
        that many such arrays stacked on a new first axis, each made from its
        own radius and angle words in turn: the values and the words taken
        equal ``blocks`` separate calls, so the draws after it do too.
        """
        shape = (rows,) if cols is None else (rows, cols)
        count = int(np.prod(shape))
        if count < 1:
            raise ValueError(f"normal draw needs a positive size, got shape {shape}")
        if blocks is not None and blocks < 1:
            raise ValueError(f"blocks must be positive, got {blocks}")
        k = 1 if blocks is None else blocks
        pairs = (count + 1) // 2
        u1, u2 = self.uniform(2 * pairs * k).reshape(k, 2, pairs).transpose(1, 0, 2)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        draws = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=1)[:, :count]
        return draws.reshape(shape if blocks is None else (blocks, *shape))

    def integer(self, upper: int) -> int:
        """One draw uniform on [0, upper). Modulo bias is below 2**-50 for desk sizes."""
        if upper < 1:
            raise ValueError("upper must be >= 1")
        return int(self.next_uint64(1)[0] % np.uint64(upper))

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n).

        Swap i (from n-1 down to 1) takes one :meth:`integer` draw on
        [0, i]; all n-1 words are drawn at once, in that order.
        """
        picks = self.next_uint64(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int_)


def finite_difference_gradient(
    f: Callable[[np.ndarray], float],
    theta: Sequence[float] | np.ndarray,
    epsilon: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of a scalar function at ``theta``.

    Independent of any analytic derivative code; used as the oracle for
    gradient checks. Raises :class:`NumericalError` if ``f`` returns a
    non-finite value at any probe point.
    """
    th = np.array(theta, dtype=np.float64).ravel()
    grad = np.zeros_like(th)
    for i in range(th.size):
        orig = th[i]
        th[i] = orig + epsilon
        hi = float(f(th))
        th[i] = orig - epsilon
        lo = float(f(th))
        th[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericalError(f"non-finite objective at coordinate {i}")
        grad[i] = (hi - lo) / (2.0 * epsilon)
    return grad
