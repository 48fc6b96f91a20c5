"""Class-incremental learning with mixed per-task noise and an analytic classifier."""

__version__ = "0.1.0"
