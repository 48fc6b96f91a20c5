import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NON_FINITE_ENTRIES, placeholder_history, set_last_entry
from noisemix import checkpoint
from noisemix.checkpoint import CheckpointError, read_container, restore, save_checkpoint, write_container
from noisemix.cli import main
from noisemix.config import RunConfig, config_hash
from noisemix.experiment import build_stream, run_training
from noisemix.model import build_model
from noisemix.numeric import SeededRng, derive_seed
from noisemix.trainer import run_session

# written by the format-v1 writer that joined each array into one bytes
# payload, from tiny_cfg() after sessions 1 and 2, with history
V1_FIXTURE = Path(__file__).parent / "data" / "v1_two_sessions.nmcp"


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


def tiny_cfg():
    cfg = RunConfig()
    cfg.data.samples_per_class = 10
    cfg.data.dim = 8
    cfg.data.tasks = 3
    cfg.data.num_classes = 6
    cfg.backbone.depth = 2
    cfg.backbone.buffer_size = 24
    cfg.backbone.feature_dim = 12
    cfg.pinoise.latent_dim = 4
    cfg.train.epochs = 1
    cfg.validate()
    return cfg


def handmade_model(cfg):
    """A tiny_cfg model whose mutable state comes from uniform draws and exact
    elementwise arithmetic, so its bytes do not depend on BLAS."""
    stream = build_stream(cfg)
    model = build_model(cfg, stream.feature_dim)
    rng = SeededRng(5)

    def draw(*shape):
        return rng.uniform(int(np.prod(shape))).reshape(shape) - 0.5

    clf = model.classifier
    d = clf.feature_dim
    clf.expand_classes([4, 1, 3])
    clf.weights = draw(d, 3)
    noise = draw(d, d)
    clf.gram_inv = np.eye(d) + 0.01 * (noise + noise.T)
    for layer in model.layers:
        k = layer.latent_dim
        rows, prototypes = [], []
        for t in (1, 2):
            rows.append(np.concatenate([draw(k, k).ravel(), draw(k), draw(k, k).ravel(), draw(k)]))
            prototypes.append(draw(k))
        layer.bank, layer.prototypes = np.stack(rows), np.stack(prototypes)
        layer.mix_weights = draw(2) + 1.0
    model.sessions_completed = 2
    return model


def trained_model(cfg):
    stream = build_stream(cfg)
    model = build_model(cfg, stream.feature_dim)
    reports = []
    for t in range(1, 3):
        reports.append(
            run_session(model, stream, cfg, SeededRng(derive_seed(cfg.train.seed, "session", t)))
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

        fresh = build_model(cfg, stream.feature_dim)
        assert restore(fresh, path, "deadbeef", stream) == reports
        assert fresh.sessions_completed == 2
        assert fresh.state_hash() == model.state_hash()

    def test_restored_model_continues_identically(self, tmp_path):
        cfg = small_cfg()
        stream, model, reports = trained_model(cfg)
        path = tmp_path / "model.nmcp"
        save_checkpoint(path, model, "h", cfg.train.seed, 3, history=reports)
        fresh = build_model(cfg, stream.feature_dim)
        restore(fresh, path, "h", stream)
        rng_a = SeededRng(derive_seed(cfg.train.seed, "session", 3))
        rng_b = SeededRng(derive_seed(cfg.train.seed, "session", 3))
        rep_direct = run_session(model, stream, cfg, rng_a)
        rep_resumed = run_session(fresh, stream, cfg, rng_b)
        assert rep_direct == rep_resumed
        assert fresh.state_hash() == model.state_hash()

    def test_frozen_hash_mismatch_rejected(self, tmp_path):
        cfg = small_cfg()
        stream, model, _ = trained_model(cfg)
        path = tmp_path / "model.nmcp"
        save_checkpoint(path, model, "h", cfg.train.seed, 3)
        other_cfg = small_cfg()
        other_cfg.backbone.seed = 99
        other = build_model(other_cfg, stream.feature_dim)
        with pytest.raises(CheckpointError, match="frozen"):
            restore(other, path, "h", stream)

    def test_meta_records_the_run(self, tmp_path):
        cfg = small_cfg()
        stream, model, _ = trained_model(cfg)
        path = tmp_path / "model.nmcp"
        save_checkpoint(path, model, "abc", cfg.train.seed, 3)
        meta = json.loads(read_container(path, names={"meta"})["meta"])
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
            restore(build_model(cfg, stream.feature_dim), path, "abc", stream)

    @pytest.mark.parametrize(
        "damage, named",
        [
            ("no-clf-weights", "clf.weights"),
            ("meta-without-eval-seed", "eval_seed"),
            ("meta-not-an-object", "meta"),
            ("short-generator-payload", "L00.G00.mw"),
            ("meta:classes_seen=5", "classes_seen"),
            ("meta:sessions_completed=[1]", "sessions_completed"),
            ("meta:eval_seed=null", "eval_seed"),
        ],
    )
    def test_malformed_file_is_one_error_line(self, tmp_path, capsys, damage, named):
        cfg = tiny_cfg()
        run_training(cfg, out_dir=tmp_path / "run", stop_after=1)
        sections = read_container(tmp_path / "run" / "checkpoint.nmcp")
        if damage == "no-clf-weights":
            del sections["clf.weights"]
        elif damage == "meta-without-eval-seed":
            meta = json.loads(sections["meta"])
            del meta["eval_seed"]
            sections["meta"] = json.dumps(meta, sort_keys=True).encode("utf-8")
        elif damage == "meta-not-an-object":
            sections["meta"] = b"7"
        elif damage.startswith("meta:"):  # one meta value of the wrong JSON type
            key, value = damage[len("meta:") :].split("=")
            meta = json.loads(sections["meta"])
            meta[key] = json.loads(value)
            sections["meta"] = json.dumps(meta, sort_keys=True).encode("utf-8")
        else:
            sections["L00.G00.mw"] = bytes(4)
        bad = tmp_path / "bad.nmcp"
        write_container(bad, sections)
        stream = build_stream(cfg)
        with pytest.raises(CheckpointError, match=named):
            restore(build_model(cfg, stream.feature_dim), bad, config_hash(cfg), stream)
        capsys.readouterr()
        config = str(tmp_path / "run" / "config.resolved")
        rc = main(["train", "--config", config, "--out", str(tmp_path / "resumed"), "--resume", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]

    @pytest.mark.parametrize(
        "history, named",
        [
            (b"[1]", "JSON objects"),
            (b'[{"n_test": 1}]', "task_index"),
            (
                b'[{"task_index": 1, "accuracy_seen": 1.0, "per_class_accuracy": 5, '
                b'"epoch_losses": [], "n_test": 1}]',
                "per_class_accuracy",
            ),
        ],
        ids=["entry-not-an-object", "entry-without-task-index", "per-class-accuracy-not-an-object"],
    )
    def test_malformed_history_rejected(self, tmp_path, history, named):
        cfg = tiny_cfg()
        path = tmp_path / "h.nmcp"
        save_checkpoint(path, handmade_model(cfg), "h", cfg.train.seed, 3)
        write_container(path, {**read_container(path), "history": history})
        stream = build_stream(cfg)
        with pytest.raises(CheckpointError, match=named):
            restore(build_model(cfg, stream.feature_dim), path, "h", stream)

    def test_baseline_checkpoint_round_trip(self, tmp_path):
        cfg = small_cfg()
        cfg.pinoise.enabled = False
        stream, model, reports = trained_model(cfg)
        path = tmp_path / "base.nmcp"
        save_checkpoint(path, model, "h", cfg.train.seed, 3, history=reports)
        fresh = build_model(cfg, stream.feature_dim)
        restore(fresh, path, "h", stream)
        assert fresh.state_hash() == model.state_hash()


class TestArraySections:
    """save_checkpoint and restore walk the one list that array_sections gives."""

    @pytest.mark.parametrize("section, value", NON_FINITE_ENTRIES)
    def test_non_finite_entry_refused_by_name(self, tmp_path, section, value):
        cfg = tiny_cfg()
        run_training(cfg, out_dir=tmp_path / "run", stop_after=2)
        path = tmp_path / "run" / "checkpoint.nmcp"
        sections = read_container(path)
        set_last_entry(sections, section, value)
        write_container(path, sections)
        stream = build_stream(cfg)
        with pytest.raises(CheckpointError, match=f"section {re.escape(section)} has non-finite values"):
            restore(build_model(cfg, stream.feature_dim), path, config_hash(cfg), stream)

    def test_written_in_the_listed_order(self, tmp_path):
        cfg = tiny_cfg()
        stream, model, reports = trained_model(cfg)
        path = tmp_path / "model.nmcp"
        save_checkpoint(path, model, "h", cfg.train.seed, 3, history=reports)
        listed = [name for name, _ in checkpoint.array_sections(model)]
        assert "L01.G01.sw" in listed
        written = list(read_container(path))
        assert [name for name in written if name in listed] == listed
        assert set(written) - set(listed) == {"meta", "clf.graminv", "history"}

    def test_every_section_written_is_documented(self, tmp_path):
        # a section that a later change adds cannot go undocumented
        cfg = tiny_cfg()
        stream, model, reports = trained_model(cfg)
        path = tmp_path / "model.nmcp"
        save_checkpoint(path, model, "h", cfg.train.seed, 3, history=reports)
        doc = (Path(__file__).parent.parent / "docs" / "checkpoint_format.md").read_text(encoding="utf-8")
        table = doc.split("\n## Sections\n")[1].split("\n## ")[0]
        rows = set(re.findall(r"^\| `([^`]+)`", table, re.M))
        names = [name for name, _ in checkpoint.array_sections(model)] + list(read_container(path))
        assert {re.sub(r"\d\d", "##", name) for name in names} - rows == set()


class TestClassifierForms:
    """A classifier within d/2 rows is stored as its rows, past that as its inverse."""

    def checkpoint(self, tmp_path, buffer_size):
        cfg = small_cfg()
        cfg.backbone.buffer_size = buffer_size
        stream, model, reports = trained_model(cfg)
        path = tmp_path / "model.nmcp"
        save_checkpoint(path, model, "h", cfg.train.seed, 3, history=reports)
        return cfg, stream, model, path

    # 64 rows after two sessions: at d = 128 session 3 folds, at d = 256 it stays in rows
    @pytest.mark.parametrize("buffer_size", [128, 256])
    def test_row_form_round_trips_and_resumes_bit_identically(self, tmp_path, buffer_size):
        cfg, stream, model, path = self.checkpoint(tmp_path, buffer_size)
        assert model.classifier.rows.shape == (64, buffer_size)
        sections = read_container(path)
        assert "clf.rows" in sections and "clf.graminv" not in sections
        fresh = build_model(cfg, stream.feature_dim)
        restore(fresh, path, "h", stream)
        assert np.array_equal(fresh.classifier.rows, model.classifier.rows)
        assert fresh.state_hash() == model.state_hash()
        reports = [
            run_session(m, stream, cfg, SeededRng(derive_seed(cfg.train.seed, "session", 3)))
            for m in (model, fresh)
        ]
        assert reports[0] == reports[1]
        assert (fresh.classifier.rows is None) == (buffer_size == 128)
        assert fresh.state_hash() == model.state_hash()

    def test_rows_appended_in_place_round_trip_and_keep_growing(self, tmp_path):
        # three sessions of 32 rows at d = 256 leave 96 rows in a store with room for 128
        cfg = small_cfg()
        cfg.backbone.buffer_size = 256
        stream, model, reports = trained_model(cfg)
        reports.append(run_session(model, stream, cfg, SeededRng(derive_seed(cfg.train.seed, "session", 3))))
        path = tmp_path / "model.nmcp"
        save_checkpoint(path, model, "h", cfg.train.seed, 3, history=reports)
        fresh = build_model(cfg, stream.feature_dim)
        restore(fresh, path, "h", stream)
        assert fresh.classifier.rows.shape == model.classifier.rows.shape == (96, 256)
        assert np.array_equal(fresh.classifier.rows, model.classifier.rows)
        assert fresh.state_hash() == model.state_hash()
        rng = SeededRng(9)
        z = rng.standard_normal(24, 256)
        labels = [model.classifier.classes_seen[rng.integer(6)] for _ in range(24)]
        for clf in (model.classifier, fresh.classifier):
            clf.update(z, clf.one_hot(labels))
        assert fresh.classifier.rows.shape == (120, 256)
        assert fresh.state_hash() == model.state_hash()

    def test_dense_form_is_stored_as_the_inverse(self, tmp_path):
        cfg, stream, model, path = self.checkpoint(tmp_path, 96)
        assert model.classifier.rows is None
        sections = read_container(path)
        assert "clf.graminv" in sections and "clf.rows" not in sections
        fresh = build_model(cfg, stream.feature_dim)
        restore(fresh, path, "h", stream)
        assert fresh.classifier.rows is None and fresh.state_hash() == model.state_hash()

    @pytest.mark.parametrize(
        "damage, named",
        [
            ("wrong-width", "not m x 128"),
            ("past-half-width", "more than half the width"),
            ("non-finite", "clf.rows has non-finite values"),
            ("diagonal", "diagonal not positive"),
            ("both-forms", "exactly one of clf.graminv and clf.rows"),
            ("neither-form", "exactly one of clf.graminv and clf.rows"),
            ("other-regularization", "another regularization"),
        ],
    )
    def test_malformed_rows_rejected(self, tmp_path, damage, named):
        cfg, stream, model, path = self.checkpoint(tmp_path, 128)
        clf = model.classifier
        rows = clf.rows.copy()
        if damage == "wrong-width":
            rows = np.zeros((3, 129))
        elif damage == "past-half-width":
            rows = np.zeros((65, 128))
        elif damage == "non-finite":
            rows[5, 70] = np.nan
        elif damage == "diagonal":
            rows[5, 70] = np.sqrt(1.0 / clf.regularization)
        clf.rows = rows
        if damage == "other-regularization":
            clf.regularization *= 2.0
        save_checkpoint(path, model, "h", cfg.train.seed, 3, history=placeholder_history(2))
        if damage in ("both-forms", "neither-form"):
            sections = read_container(path)
            if damage == "neither-form":
                del sections["clf.rows"]
            else:
                clf.gram_inv = clf.gram_inv
                save_checkpoint(tmp_path / "dense.nmcp", model, "h", cfg.train.seed, 3)
                sections["clf.graminv"] = read_container(tmp_path / "dense.nmcp")["clf.graminv"]
            write_container(path, sections)
        with pytest.raises(CheckpointError, match=named):
            restore(build_model(cfg, stream.feature_dim), path, "h", stream)


class TestFormatPinned:
    """The streamed writer produces format v1 byte for byte."""

    def test_checkpoint_bytes_pinned(self, tmp_path):
        model = handmade_model(tiny_cfg())
        path = tmp_path / "pinned.nmcp"
        save_checkpoint(path, model, "pinned", 2024, 3)
        # both digests were computed with the writer that joined each array into one payload
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4a70c63123f27c0c4318bea2f82cf6855ea1eb18b8c05e94739f5590d7b52c9d"
        )
        assert model.state_hash() == "25be09845926046b045f1958298f9621f41acfe63cd174d03a5d559d40f8913a"

    def test_reads_v1_fixture_and_writes_it_back_identically(self, tmp_path):
        cfg = tiny_cfg()
        stream = build_stream(cfg)
        model = build_model(cfg, stream.feature_dim)
        history = restore(model, V1_FIXTURE, "parent", stream)
        assert model.sessions_completed == 2
        assert model.state_hash() == "0302a57c2024e88cdbdd6af85fc0898a73bcce5fd0c7ca6d66582a2028feb4cd"
        assert [r.task_index for r in history] == [1, 2]
        meta = json.loads(read_container(V1_FIXTURE, names={"meta"})["meta"])
        path = tmp_path / "again.nmcp"
        save_checkpoint(path, model, meta["config_hash"], meta["rng"]["train_seed"], meta["total_tasks"], history)
        assert path.read_bytes() == V1_FIXTURE.read_bytes()
        report = run_session(model, stream, cfg, SeededRng(derive_seed(cfg.train.seed, "session", 3)))
        assert report.task_index == 3

    def test_save_streams_the_inverse(self, tmp_path, traced_peak):
        cfg = small_cfg()
        cfg.backbone.buffer_size = 1024
        stream, model, _ = trained_model(cfg)
        peak = traced_peak(lambda: save_checkpoint(tmp_path / "wide.nmcp", model, "h", cfg.train.seed, 3))
        assert peak < model.classifier.gram_inv.nbytes // 2


class TestLoadMemory:
    """The reader holds each payload once and decodes arrays in place."""

    def wide_checkpoint(self, tmp_path):
        # two sessions of 272 rows pass half the width of 1024, so the
        # classifier has folded into its dense form
        cfg = small_cfg()
        cfg.backbone.buffer_size = 1024
        cfg.data.samples_per_class = 170
        stream, model, reports = trained_model(cfg)
        assert model.classifier.rows is None
        path = tmp_path / "wide.nmcp"
        save_checkpoint(path, model, "h", cfg.train.seed, 3, history=reports)
        return cfg, stream, model, path

    def test_load_holds_the_inverse_once(self, tmp_path, traced_peak):
        cfg, stream, model, path = self.wide_checkpoint(tmp_path)
        fresh = build_model(cfg, stream.feature_dim)
        peak = traced_peak(lambda: restore(fresh, path, "h", stream))
        assert fresh.state_hash() == model.state_hash()
        assert peak < 1.5 * model.classifier.gram_inv.nbytes

    @pytest.mark.parametrize(
        "refusal, named",
        [
            ("other-config", "different configuration"),
            ("sessions-past-tasks", "completed 2 sessions, but the stream has 1 tasks"),
            ("history-one-short", "history does not match"),
            ("classes-reversed", "classes_seen does not match"),
            ("other-eval-seed", "eval_seed 12345 is not the configuration's"),
        ],
    )
    def test_refused_restore_reads_no_array(self, tmp_path, traced_peak, monkeypatch, refusal, named):
        cfg, stream, model, path = self.wide_checkpoint(tmp_path)
        cfg_hash, given = ("other" if refusal == "other-config" else "h"), stream
        if refusal == "sessions-past-tasks":
            given = replace(stream, tasks=stream.tasks[:1])
        elif refusal == "history-one-short":
            save_checkpoint(path, model, "h", cfg.train.seed, 3, history=placeholder_history(1))
        elif refusal == "classes-reversed":
            model.classifier.classes_seen.reverse()
            save_checkpoint(path, model, "h", cfg.train.seed, 3, history=placeholder_history(2))
        elif refusal == "other-eval-seed":
            model.eval_seed = 12345
            save_checkpoint(path, model, "h", cfg.train.seed, 3, history=placeholder_history(2))
        reads = []
        monkeypatch.setattr(checkpoint, "read_container", lambda *a, **k: reads.append(a) or read_container(*a, **k))
        fresh = build_model(cfg, stream.feature_dim)

        def refused():
            with pytest.raises(CheckpointError, match=named):
                restore(fresh, path, cfg_hash, given)

        assert traced_peak(refused) < model.classifier.gram_inv.nbytes // 100
        assert len(reads) == 1

    def test_loaded_inverse_is_downdated_in_place(self, tmp_path):
        cfg, stream, model, path = self.wide_checkpoint(tmp_path)
        fresh = build_model(cfg, stream.feature_dim)
        restore(fresh, path, "h", stream)
        clf = fresh.classifier
        assert clf.gram_inv.flags.writeable and clf.gram_inv.flags.aligned
        inverse = clf.gram_inv
        rng = SeededRng(3)
        clf.update(rng.standard_normal(8, clf.feature_dim), np.ones((8, clf.num_classes)))
        assert np.shares_memory(clf.gram_inv, inverse)

    def test_resume_holds_one_inverse(self, tmp_path, traced_peak):
        # a resumed run builds its model, whose inverse starts as eye(d) / lambda,
        # and then loads into it
        cfg, stream, model, path = self.wide_checkpoint(tmp_path)
        peak = traced_peak(lambda: restore(build_model(cfg, stream.feature_dim), path, "h", stream))
        assert peak < 1.5 * model.classifier.gram_inv.nbytes

    @pytest.mark.parametrize("row", [0, 700, 1023])
    @pytest.mark.parametrize("bad", ["shift", "nan-pair", "nan-diagonal"])
    def test_asymmetric_inverse_rejected_in_any_band(self, tmp_path, row, bad):
        cfg, stream, model, path = self.wide_checkpoint(tmp_path)
        clf = model.classifier
        clf.gram_inv = clf.gram_inv.copy()
        col = (row + 300) % clf.feature_dim
        if bad == "shift":
            clf.gram_inv[row, col] += 1e-6
        elif bad == "nan-pair":
            clf.gram_inv[row, col] = clf.gram_inv[col, row] = np.nan
        else:
            clf.gram_inv[row, row] = np.nan
        save_checkpoint(path, model, "h", cfg.train.seed, 3, history=placeholder_history(2))
        with pytest.raises(CheckpointError, match="symmetry"):
            restore(build_model(cfg, stream.feature_dim), path, "h", stream)
