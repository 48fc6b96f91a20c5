"""Class-incremental learning with mixed per-task noise and an analytic classifier."""

from .classifier import RidgeClassifier
from .config import RunConfig
from .datastream import TaskStream, load_embedding_stream, make_synthetic_stream
from .model import ContinualModel, build_model
from .numeric import SeededRng, NumericalError, ridge_solve, softmax
from .pinoise import MixtureStrategy, PiNoiseLayer
from .report import RunSummary, SessionReport, evaluate, summarize
from .trainer import run_session

__version__ = "0.1.0"

__all__ = [
    "ContinualModel",
    "MixtureStrategy",
    "NumericalError",
    "PiNoiseLayer",
    "RidgeClassifier",
    "RunConfig",
    "RunSummary",
    "SeededRng",
    "SessionReport",
    "TaskStream",
    "build_model",
    "evaluate",
    "load_embedding_stream",
    "make_synthetic_stream",
    "ridge_solve",
    "run_session",
    "softmax",
    "summarize",
]
