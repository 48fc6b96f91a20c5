import os
import sys
import tracemalloc
from pathlib import Path

import pytest

# one BLAS thread: on a 2-core machine the suite runs in about half the time.
# The setting only takes effect if numpy is not yet loaded.
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402  (after the BLAS thread settings)

from noisemix.config import RunConfig  # noqa: E402  (needs SRC on the path)
from noisemix.report import SessionReport  # noqa: E402


def placeholder_history(sessions: int) -> list[SessionReport]:
    """One made-up report per session, the history a checkpoint of ``sessions`` sessions must hold."""
    return [SessionReport(t, 1.0, {}) for t in range(1, sessions + 1)]


# one entry of each kind of array section a 3-task checkpoint saved after session 2
# holds, and the non-finite value it is set to
NON_FINITE_ENTRIES = [
    ("clf.weights", np.nan),
    ("L00.omega", np.nan),
    ("L00.proto", np.inf),
    ("L00.G00.mb", np.nan),
    ("L01.G01.sw", np.nan),
]


def set_last_entry(sections, name, value) -> None:
    """Set the last data entry of array section ``name`` in place. An array
    payload is 8-byte words (u64 ndim, the u64 sizes, the float64 data), so
    its last word is its last entry."""
    np.frombuffer(sections[name], "<f8")[-1] = value


def model_config(feature_dim, depth, buffer_size, latent_dim, regularization, seed, **pinoise) -> RunConfig:
    """A default config with these model-level keys; ``pinoise`` sets ``pinoise.*`` keys by name."""
    cfg = RunConfig()
    b = cfg.backbone
    b.feature_dim, b.depth, b.buffer_size, b.seed = feature_dim, depth, buffer_size, seed
    cfg.pinoise.latent_dim = latent_dim
    cfg.classifier.regularization = regularization
    for key, value in pinoise.items():
        setattr(cfg.pinoise, key, value)
    return cfg


@pytest.fixture
def traced_peak():
    """Peak bytes a call holds above what was traced before it ran.

    numpy reports its buffers to tracemalloc, so a d x d temporary shows here.
    """

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return peak
