import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from noisemix.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    apply_profile,
    config_hash,
    load_config_file,
    resolved_text,
    set_key,
)


class TestValidation:
    def test_defaults_valid(self):
        RunConfig().validate()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("data.tasks", "0"),
            ("data.tasks", "25"),
            ("data.samples_per_class", "2"),
            ("data.num_classes", "0"),
            ("data.dim", "1"),
            ("data.separation", "-1"),
            ("data.overlap_classes", "21"),
            ("pinoise.tau", "-1"),
            ("pinoise.strategy", "bogus"),
            ("classifier.regularization", "0"),
            ("train.momentum", "1.5"),
            ("backbone.buffer_size", "8"),
            ("data.source", "images"),
            ("train.epochs", "-1"),
            ("train.batch_size", "0"),
            ("train.lr_init", "0"),
            ("train.momentum", "1.0"),
            ("pinoise.tau", "0"),
            ("train.grad_clip", "-1"),
            ("pinoise.init_scale", "-1"),
            # each passes its range check, so only the finiteness check refuses it
            ("pinoise.tau", "inf"),
            ("classifier.regularization", "inf"),
            ("train.lr_init", "inf"),
            ("pinoise.init_scale", "inf"),
            ("data.separation", "inf"),
        ],
    )
    def test_out_of_range_rejected(self, key, value):
        cfg = RunConfig()
        set_key(cfg, key, value)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("data.embedding_path", "/tmp/d#1/e.csv"),
            ("data.embedding_path", "/tmp/d\n1/e.csv"),
            ("data.embedding_path", "/tmp/d\r1/e.csv"),
            ("output_dir", "runs#2"),
        ],
        ids=["hash", "newline", "carriage-return", "output-dir"],
    )
    def test_value_a_config_file_cannot_hold_rejected(self, key, value):
        # load_config_file would end the value at the '#' or the line break
        cfg = RunConfig()
        set_key(cfg, key, value)
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must not hold"):
            cfg.validate()

    @pytest.mark.parametrize("section", [None, "data", "backbone", "pinoise", "classifier", "train"])
    def test_misspelt_attribute_raises(self, section):
        cfg = RunConfig()
        target = cfg if section is None else getattr(cfg, section)
        with pytest.raises(AttributeError):
            target.epoch = 3

    def test_synthetic_stream_needs_a_class_per_task(self):
        cfg = RunConfig()
        cfg.data.tasks = cfg.data.num_classes + 1
        with pytest.raises(ConfigError, match="num_classes"):
            cfg.validate()

    def test_embedding_tasks_are_bounded_by_the_file_not_num_classes(self, tmp_path):
        # data.num_classes (default 20) describes synthetic streams only; the
        # 30 classes of the file are what 25 tasks must not exceed
        from noisemix.experiment import run_training

        rng = np.random.default_rng(4)
        lines = ["label,f0,f1,f2,f3"]
        for c in range(30):
            for _ in range(6):
                lines.append(f"{c}," + ",".join(f"{v:.3f}" for v in rng.standard_normal(4) + c % 5))
        csv = tmp_path / "thirty.csv"
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = apply_overrides(RunConfig(), [
            "data.source=embedding", f"data.embedding_path={csv}", "data.tasks=25",
            "backbone.depth=2", "backbone.feature_dim=8", "backbone.buffer_size=32",
            "pinoise.latent_dim=4", "train.epochs=1",
        ])
        assert cfg.data.tasks > cfg.data.num_classes
        cfg.validate()
        summary = run_training(cfg, out_dir=tmp_path / "run")
        assert len(summary.reports) == 25
        cfg.data.tasks = 31
        with pytest.raises(ValueError, match="fewer than 31 tasks"):
            run_training(cfg, out_dir=tmp_path / "too-many")

    def test_unknown_keys_rejected(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError, match="unknown"):
            set_key(cfg, "data.nope", "1")
        with pytest.raises(ConfigError, match="unknown"):
            set_key(cfg, "nosection.x", "1")
        with pytest.raises(ConfigError, match="unknown"):
            set_key(cfg, "bare", "1")

    def test_type_coercion(self):
        cfg = RunConfig()
        set_key(cfg, "train.epochs", "3")
        set_key(cfg, "pinoise.enabled", "false")
        set_key(cfg, "data.separation", "2.5")
        assert cfg.train.epochs == 3
        assert cfg.pinoise.enabled is False
        assert cfg.data.separation == 2.5
        with pytest.raises(ConfigError):
            set_key(cfg, "train.epochs", "three")
        with pytest.raises(ConfigError):
            set_key(cfg, "pinoise.enabled", "maybe")


class TestFileAndOverrides:
    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            """
# comment line
data.num_classes = 10   # trailing comment
train.epochs = 2
output_dir = out/here
""",
            encoding="utf-8",
        )
        cfg = load_config_file(path)
        assert cfg.data.num_classes == 10
        assert cfg.train.epochs == 2
        assert cfg.output_dir == "out/here"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("data.num_classes 10\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key = value"):
            load_config_file(path)

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.epochs = 2\n", encoding="utf-8")
        cfg = load_config_file(path)
        apply_overrides(cfg, ["train.epochs=7"])
        assert cfg.train.epochs == 7
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["no-equals-sign"])

    def test_resolved_text_round_trips(self, tmp_path):
        cfg = RunConfig()
        set_key(cfg, "pinoise.latent_dim", "24")
        set_key(cfg, "train.lr_init", "0.0005")
        path = tmp_path / "resolved.cfg"
        path.write_text(resolved_text(cfg), encoding="utf-8")
        again = load_config_file(path)
        assert resolved_text(again) == resolved_text(cfg)
        assert config_hash(again) == config_hash(cfg)

    def test_hash_changes_with_values(self):
        a = RunConfig()
        b = RunConfig()
        set_key(b, "train.epochs", "11")
        assert config_hash(a) != config_hash(b)

    def test_profiles(self):
        cfg = RunConfig()
        apply_profile(cfg, "paper-dims")
        assert cfg.pinoise.latent_dim == 192
        assert cfg.backbone.buffer_size == 16384
        with pytest.raises(ConfigError):
            apply_profile(cfg, "huge")


def test_readme_table_lists_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = readme.split("\n## Configuration\n", 1)[1].splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[lines.index("| key | meaning |") + 2 :])
    documented = [re.match(r"\| `([^`]+)` \|", row).group(1) for row in rows]
    rendered = [line.partition(" = ")[0] for line in resolved_text(RunConfig()).splitlines()]
    assert sorted(documented) == sorted(rendered)
