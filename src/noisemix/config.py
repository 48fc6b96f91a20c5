"""Run configuration: dataclasses, flat key-value config files, presets, hashing.

The dataclasses are the one description of the configuration: :func:`_keys`
derives the table of settable keys from them, a dotted ``section.field`` per
section field and then ``output_dir``, and setting, validating and rendering
a configuration all walk that table. A key's type is its field's default's.

Config files are flat ``key = value`` text (``#`` comments allowed), e.g.
``train.epochs = 10``. Unknown keys are rejected, and so is a string value
holding ``#`` or a line break, which a config file could not hold.
Command-line ``--set key=value`` overrides file values. A preset is a named
table of such values (:data:`PROFILES`, and the grid's variants), applied by
:func:`apply_preset`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from .pinoise import MixtureStrategy


class ConfigError(ValueError):
    """Invalid configuration value or unknown key."""


@dataclass(slots=True)
class DataConfig:
    source: str = "synthetic"  # synthetic | embedding
    embedding_path: str = ""
    num_classes: int = 20
    samples_per_class: int = 50
    dim: int = 32
    separation: float = 8.0
    overlap_classes: int = 0
    tasks: int = 5
    class_seed: int = 1993


@dataclass(slots=True)
class BackboneConfig:
    depth: int = 4
    feature_dim: int = 64
    gain: float = 0.5
    buffer_size: int = 2048
    seed: int = 7


@dataclass(slots=True)
class PiNoiseConfig:
    enabled: bool = True
    latent_dim: int = 16
    tau: float = 2.0
    strategy: str = "learned-omega"
    init_scale: float = 0.0001


@dataclass(slots=True)
class ClassifierConfig:
    regularization: float = 100.0


@dataclass(slots=True)
class TrainSection:
    epochs: int = 10
    batch_size: int = 128
    lr_init: float = 0.001
    momentum: float = 0.9
    grad_clip: float = 10.0
    seed: int = 2024


@dataclass(slots=True)
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    pinoise: PiNoiseConfig = field(default_factory=PiNoiseConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    train: TrainSection = field(default_factory=TrainSection)
    output_dir: str = "runs"

    def validate(self) -> "RunConfig":
        for key, owner, f in _keys(self):
            value = getattr(owner, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            # a config file ends a value at '#' or a line break, so it could not read it back
            if isinstance(value, str) and ("#" in value or "".join(value.splitlines()) != value):
                raise ConfigError(f"{key} must not hold '#' or a line break, got {value!r}")
        d, b, p, c, t = self.data, self.backbone, self.pinoise, self.classifier, self.train
        strategies = [s.value for s in MixtureStrategy]
        checks = [
            (d.source in ("synthetic", "embedding"), "data.source must be synthetic or embedding"),
            (d.source != "embedding" or bool(d.embedding_path), "data.embedding_path required"),
            (d.num_classes >= 1, "data.num_classes must be positive"),
            (d.samples_per_class >= 5, "data.samples_per_class must be at least 5"),
            (d.dim >= 2, "data.dim must be at least 2"),
            (d.separation >= 0, "data.separation must be non-negative"),
            (0 <= d.overlap_classes <= d.num_classes, "data.overlap_classes out of range"),
            (d.tasks >= 1, "data.tasks must be positive"),
            # an embedding file's class count is checked against data.tasks when it is read
            (d.source != "synthetic" or d.tasks <= d.num_classes, "data.tasks must be in [1, num_classes]"),
            (b.depth >= 1, "backbone.depth must be positive"),
            (b.feature_dim >= 1, "backbone.feature_dim must be positive"),
            (b.buffer_size >= b.feature_dim, "backbone.buffer_size must be >= feature_dim"),
            (p.latent_dim >= 1, "pinoise.latent_dim must be positive"),
            (p.tau > 0, "pinoise.tau must be positive"),
            (p.init_scale >= 0, "pinoise.init_scale must be non-negative"),
            (c.regularization > 0, "classifier.regularization must be positive"),
            (t.epochs >= 0, "train.epochs must be non-negative"),
            (t.batch_size >= 1, "train.batch_size must be positive"),
            (t.lr_init > 0, "train.lr_init must be positive"),
            (0 <= t.momentum < 1, "train.momentum must be in [0, 1)"),
            (t.grad_clip >= 0, "train.grad_clip must be non-negative"),
            (p.strategy in strategies, f"unknown mixture strategy {p.strategy!r} (valid: {', '.join(strategies)})"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self


PROFILES = {
    "desk": {},
    "paper-dims": {"pinoise.latent_dim": "192", "backbone.buffer_size": "16384"},
}


def _coerce(key: str, raw: str, target_type: type):
    """``raw`` as ``target_type``; refused, naming ``key``, if it is not one."""
    if target_type is bool:
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return target_type(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {target_type.__name__}, got {raw!r}") from None


def _keys(cfg: RunConfig):
    """``(dotted key, owner, field)`` of every settable key of ``cfg``: each
    section's fields as ``section.field``, sections and fields in name order,
    then the fields of ``cfg`` itself (``output_dir``)."""
    by_name = lambda obj: sorted(dataclasses.fields(obj), key=lambda f: f.name)
    sections = [f.name for f in by_name(cfg) if dataclasses.is_dataclass(getattr(cfg, f.name))]
    for name in sections:
        yield from ((f"{name}.{f.name}", getattr(cfg, name), f) for f in by_name(getattr(cfg, name)))
    yield from ((f.name, cfg, f) for f in by_name(cfg) if f.name not in sections)


def set_key(cfg: RunConfig, key: str, raw_value: str) -> None:
    for name, owner, f in _keys(cfg):
        if name == key:
            # every field has a default, of the type the field holds
            setattr(owner, f.name, _coerce(key, raw_value, type(f.default)))
            return
    raise ConfigError(f"unknown config key {key!r}")


def load_config_file(path: str | Path, cfg: RunConfig | None = None) -> RunConfig:
    cfg = cfg or RunConfig()
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        try:
            set_key(cfg, key.strip(), value.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        set_key(cfg, key.strip(), value.strip())
    return cfg


def apply_preset(cfg: RunConfig, presets: dict[str, dict[str, str]], name: str, what: str) -> RunConfig:
    """Set every key of the preset ``presets[name]``; an unknown ``name`` is
    refused as an unknown ``what``."""
    if name not in presets:
        raise ConfigError(f"unknown {what} {name!r} (valid: {', '.join(presets)})")
    for key, value in presets[name].items():
        set_key(cfg, key, value)
    return cfg


def resolved_text(cfg: RunConfig) -> str:
    """Canonical flat rendering of the configuration, parseable by
    :func:`load_config_file` and stable for hashing."""
    return "".join(f"{key} = {getattr(owner, f.name)}\n" for key, owner, f in _keys(cfg))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(resolved_text(cfg).encode("utf-8")).hexdigest()[:16]
