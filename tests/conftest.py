import importlib.util
import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest

# one BLAS thread: on a 2-core machine the suite runs in about half the time.
# The setting only takes effect if numpy is not yet loaded.
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH_DIR = SRC.parent / "bench"
# the benchmark's workloads, as BENCHMARK.json names them
WORKLOADS = [w["name"] for w in json.loads((SRC.parent / "BENCHMARK.json").read_text())["workloads"]]
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402  (after the BLAS thread settings)

from noisemix.checkpoint import save_checkpoint  # noqa: E402  (needs SRC on the path)
from noisemix.config import RunConfig  # noqa: E402
from noisemix.numeric import SeededRng, as_matrix, require_finite  # noqa: E402
from noisemix.report import SessionReport  # noqa: E402


def ridge_solve(features, targets, lam: float) -> np.ndarray:
    """The tests' reference ridge: the weights W minimizing
    ``||targets - features @ W||^2 + lam * ||W||^2``, of shape
    ``(features.shape[1], targets.shape[1])``.

    The regularized normal equations ``(F'F + lam I) W = F'Y`` are solved
    directly by ``np.linalg.solve``, never through an explicit inverse.
    """
    f = as_matrix(features, "features")
    y = as_matrix(targets, "targets")
    if f.shape[0] != y.shape[0]:
        raise ValueError(f"row mismatch: features {f.shape[0]} vs targets {y.shape[0]}")
    if f.shape[0] < 1:
        raise ValueError("need at least one sample")
    if not lam > 0:
        raise ValueError(f"regularization must be positive, got {lam}")
    gram = f.T @ f + lam * np.eye(f.shape[1])
    w = np.linalg.solve(gram, f.T @ y)
    return require_finite(np.atleast_2d(w), "ridge solution")


def load_bench(stem):
    """The module ``bench/<stem>.py``, loaded from its file as ``bench_<stem>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", BENCH_DIR / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkpoint_bytes(model) -> bytes:
    """The bytes of ``model``'s checkpoint, written with fixed arguments and no
    history: every array and counter of the model's state, and the meta, all
    of which a restore must reproduce."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.nmcp"
        save_checkpoint(path, model, "state", 0, 0)
        return path.read_bytes()


def next_word(rng: SeededRng) -> int:
    """The next word of ``rng``'s stream. SplitMix64's output is a bijection of
    its cursor, so two rngs of one seed give the same word exactly when they
    have taken the same number of words."""
    return int(rng.next_uint64(1)[0])


def placeholder_history(stream, sessions: int) -> list[SessionReport]:
    """One made-up report per session, the history a checkpoint of ``sessions``
    sessions of ``stream`` must hold: session t's per-class keys and ``n_test``
    are the classes and the row count of the stream's first t test sets."""
    history = []
    for t in range(1, sessions + 1):
        labels = np.concatenate([task.test.label for task in stream.tasks[:t]])
        history.append(SessionReport(t, 1.0, dict.fromkeys(np.unique(labels).tolist(), 1.0), n_test=len(labels)))
    return history


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
