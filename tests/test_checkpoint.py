import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisemix.checkpoint import (
    CheckpointError,
    load_history,
    load_into,
    read_container,
    save_checkpoint,
    write_container,
)
from noisemix.config import RunConfig
from noisemix.experiment import build_run_model, build_stream, train_config
from noisemix.numeric import SeededRng, derive_seed
from noisemix.trainer import run_session


def small_cfg():
    cfg = RunConfig()
    cfg.data.samples_per_class = 20
    cfg.data.dim = 16
    cfg.data.tasks = 3
    cfg.data.num_classes = 6
    cfg.backbone.buffer_size = 128
    cfg.backbone.feature_dim = 32
    cfg.train.epochs = 2
    cfg.validate()
    return cfg


def trained_model(cfg):
    stream = build_stream(cfg)
    model = build_run_model(cfg, stream.feature_dim)
    tcfg = train_config(cfg)
    reports = []
    for t in range(1, 3):
        reports.append(
            run_session(model, stream, tcfg, SeededRng(derive_seed(cfg.train.seed, "session", t)))
        )
    return stream, model, reports


class TestContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.nmcp"
        sections = {"meta": b'{"a": 1}', "blob": bytes(range(256))}
        write_container(path, sections)
        assert read_container(path) == sections

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.nmcp"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(CheckpointError, match="magic"):
            read_container(path)

    def test_checksum_detected(self, tmp_path):
        path = tmp_path / "x.nmcp"
        write_container(path, {"blob": b"hello world"})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            read_container(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "x.nmcp"
        write_container(path, {"blob": b"hello world"})
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CheckpointError, match="truncated"):
            read_container(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "x.nmcp"
        path.write_bytes(b"NM")
        with pytest.raises(CheckpointError):
            read_container(path)

    @given(
        st.dictionaries(
            st.text(alphabet="abcdefgh.0123456789", min_size=1, max_size=24),
            st.binary(max_size=200),
            max_size=8,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_sections_round_trip(self, sections):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.nmcp"
            write_container(path, sections)
            assert read_container(path) == sections


class TestModelCheckpoint:
    def test_state_round_trip(self, tmp_path):
        cfg = small_cfg()
        stream, model, reports = trained_model(cfg)
        path = tmp_path / "model.nmcp"
        save_checkpoint(path, model, "deadbeef", cfg.train.seed, 3, history=reports)

        fresh = build_run_model(cfg, stream.feature_dim)
        meta = load_into(fresh, path)
        assert meta["config_hash"] == "deadbeef"
        assert fresh.sessions_completed == 2
        assert fresh.state_hash() == model.state_hash()
        assert [r.accuracy_seen for r in load_history(path)] == [
            r.accuracy_seen for r in reports
        ]

    def test_restored_model_continues_identically(self, tmp_path):
        cfg = small_cfg()
        stream, model, _ = trained_model(cfg)
        path = tmp_path / "model.nmcp"
        save_checkpoint(path, model, "h", cfg.train.seed, 3)
        fresh = build_run_model(cfg, stream.feature_dim)
        load_into(fresh, path)
        tcfg = train_config(cfg)
        rng_a = SeededRng(derive_seed(cfg.train.seed, "session", 3))
        rng_b = SeededRng(derive_seed(cfg.train.seed, "session", 3))
        rep_direct = run_session(model, stream, tcfg, rng_a)
        rep_resumed = run_session(fresh, stream, tcfg, rng_b)
        assert rep_direct == rep_resumed
        assert fresh.state_hash() == model.state_hash()

    def test_frozen_hash_mismatch_rejected(self, tmp_path):
        cfg = small_cfg()
        stream, model, _ = trained_model(cfg)
        path = tmp_path / "model.nmcp"
        save_checkpoint(path, model, "h", cfg.train.seed, 3)
        other_cfg = small_cfg()
        other_cfg.backbone.seed = 99
        other = build_run_model(other_cfg, stream.feature_dim)
        with pytest.raises(CheckpointError, match="frozen"):
            load_into(other, path)

    def test_load_into_returns_meta(self, tmp_path):
        cfg = small_cfg()
        stream, model, _ = trained_model(cfg)
        path = tmp_path / "model.nmcp"
        save_checkpoint(path, model, "abc", cfg.train.seed, 3)
        meta = load_into(build_run_model(cfg, stream.feature_dim), path)
        assert meta["config_hash"] == "abc"
        assert meta["sessions_completed"] == 2
        assert meta["rng"]["train_seed"] == cfg.train.seed

    def test_missing_meta_rejected(self, tmp_path):
        cfg = small_cfg()
        stream, model, _ = trained_model(cfg)
        path = tmp_path / "model.nmcp"
        save_checkpoint(path, model, "abc", cfg.train.seed, 3)
        sections = read_container(path)
        del sections["meta"]
        write_container(path, sections)
        with pytest.raises(CheckpointError, match="meta"):
            load_into(build_run_model(cfg, stream.feature_dim), path)

    def test_baseline_checkpoint_round_trip(self, tmp_path):
        cfg = small_cfg()
        cfg.pinoise.enabled = False
        stream, model, reports = trained_model(cfg)
        path = tmp_path / "base.nmcp"
        save_checkpoint(path, model, "h", cfg.train.seed, 3, history=reports)
        fresh = build_run_model(cfg, stream.feature_dim)
        load_into(fresh, path)
        assert fresh.state_hash() == model.state_hash()
