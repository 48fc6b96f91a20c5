import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import NON_FINITE_ENTRIES, set_last_entry
from noisemix import checkpoint, cli, experiment, trainer
from noisemix.checkpoint import read_container, write_container
from noisemix.cli import main
from noisemix.pinoise import MixtureStrategy

MIXTURE_STRATEGIES = [m.value for m in MixtureStrategy]

FAST = [
    "--set", "data.samples_per_class=20",
    "--set", "data.dim=16",
    "--set", "backbone.feature_dim=32",
    "--set", "backbone.buffer_size=128",
    "--set", "train.epochs=2",
]

# every artifact of a run that a resumed run must reproduce byte for byte
RESUMED_ARTIFACTS = ("accuracy.csv", "summary.json", "accuracy.svg", "train_log.csv", "checkpoint.nmcp", "run.json")


def run_cli(*args, capsys=None):
    rc = main(list(args))
    return rc


class TestTrain:
    def test_happy_path_writes_artifacts(self, tmp_path, capsys):
        rc = run_cli("train", *FAST, "--out", str(tmp_path / "run"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "session 5" in out
        for name in (
            "accuracy.csv",
            "summary.json",
            "accuracy.svg",
            "checkpoint.nmcp",
            "train_log.csv",
            "run.json",
            "config.resolved",
        ):
            assert (tmp_path / "run" / name).exists()
        log_lines = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
        assert log_lines[0] == "session,epoch,lr,mean_loss"
        assert len(log_lines) == 1 + 5 * 2

    def test_invalid_tau_rejected_before_compute(self, tmp_path, capsys):
        rc = run_cli("train", "--set", "pinoise.tau=-2", "--out", str(tmp_path / "x"))
        assert rc == 1
        assert "tau" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_non_finite_value_rejected_before_compute(self, tmp_path, capsys):
        rc = run_cli("train", "--set", "pinoise.tau=inf", "--out", str(tmp_path / "x"))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: pinoise.tau must be finite, got inf"]
        assert not (tmp_path / "x").exists()

    def test_value_a_config_file_cannot_hold_rejected_before_compute(self, tmp_path, capsys):
        # config.resolved would end the path at '#', so eval --run could not read the run back
        embedding = ["--set", "data.source=embedding", "--set", f"data.embedding_path={tmp_path}/d#1/e.csv"]
        rc = run_cli("train", *embedding, "--out", str(tmp_path / "x"))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data.embedding_path must not hold '#'")
        assert not (tmp_path / "x").exists()

    def test_unknown_flag_gives_validation_exit(self, capsys):
        assert run_cli("train", "--bogus-flag") == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        run_cli("train", *FAST, "--out", str(tmp_path / "a"))
        run_cli("train", *FAST, "--out", str(tmp_path / "b"))
        for name in ("accuracy.csv", "summary.json", "accuracy.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        run_cli("train", *FAST, "--out", str(tmp_path / "full"))
        run_cli("train", *FAST, "--out", str(tmp_path / "part"), "--stop-after", "2")
        rc = run_cli(
            "train", *FAST, "--out", str(tmp_path / "part"),
            "--resume", str(tmp_path / "part" / "checkpoint.nmcp"),
        )
        assert rc == 0
        for name in ("accuracy.csv", "summary.json", "train_log.csv"):
            assert (tmp_path / "full" / name).read_bytes() == (tmp_path / "part" / name).read_bytes()

    @pytest.mark.parametrize("resumes", [["fresh"], ["part", "part"]], ids=["fresh-dir", "twice"])
    def test_resume_anywhere_matches_uninterrupted(self, tmp_path, resumes):
        run_cli("train", *FAST, "--out", str(tmp_path / "full"))
        run_cli("train", *FAST, "--out", str(tmp_path / "part"), "--stop-after", "2")
        saved = tmp_path / "session2.nmcp"
        saved.write_bytes((tmp_path / "part" / "checkpoint.nmcp").read_bytes())
        for out in resumes:
            assert run_cli("train", *FAST, "--out", str(tmp_path / out), "--resume", str(saved)) == 0
        for name in RESUMED_ARTIFACTS:
            assert (tmp_path / "full" / name).read_bytes() == (tmp_path / resumes[-1] / name).read_bytes(), name

    @pytest.mark.parametrize(
        "command", [["train"], ["grid", "--axis", "variant=baseline,full", "--class-seeds", "1", "2"]],
        ids=["train", "grid"],
    )
    def test_unreadable_embedding_leaves_no_directory(self, tmp_path, capsys, command):
        rc = run_cli(
            *command, *FAST,
            "--set", "data.source=embedding",
            "--set", f"data.embedding_path={tmp_path / 'missing.csv'}",
            "--out", str(tmp_path / "out"),
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "missing.csv" in err[0]
        assert not (tmp_path / "out").exists()

    def test_resume_rejects_other_config(self, tmp_path, capsys):
        run_cli("train", *FAST, "--out", str(tmp_path / "a"), "--stop-after", "1")
        rc = run_cli(
            "train", *FAST, "--set", "train.epochs=3",
            "--out", str(tmp_path / "b"),
            "--resume", str(tmp_path / "a" / "checkpoint.nmcp"),
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "command",
        [["train"], ["grid", "--axis", "pinoise.latent_dim=4,8"], ["gradcheck"], ["snapshot"]],
        ids=lambda command: command[0],
    )
    def test_print_config_dumps_and_exits(self, tmp_path, capsys, command):
        rc = run_cli(*command, *FAST, "--print-config", "--out", str(tmp_path / "x"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "train.epochs = 2" in out
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("stop_after", ["0", "-2"])
    def test_stop_after_with_nothing_to_run_rejected(self, tmp_path, capsys, stop_after):
        rc = run_cli("train", *FAST, "--out", str(tmp_path / "run"), "--stop-after", stop_after)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--stop-after" in err[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("stop_after", ["1", "2"])
    def test_resume_stop_after_at_or_below_completed_rejected(self, tmp_path, capsys, stop_after):
        run_dir = tmp_path / "run"
        assert run_cli("train", *FAST, "--out", str(run_dir), "--stop-after", "2") == 0
        written = {p.name: p.stat().st_mtime_ns for p in run_dir.iterdir()}
        capsys.readouterr()
        rc = run_cli(
            "train", *FAST, "--out", str(run_dir), "--resume", str(run_dir / "checkpoint.nmcp"),
            "--stop-after", stop_after,
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--stop-after" in err[0]
        assert {p.name: p.stat().st_mtime_ns for p in run_dir.iterdir()} == written

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_numerical_breakdown_exit_code(self, tmp_path, capsys):
        # absurd feature magnitudes overflow the forward pass
        csv = tmp_path / "huge.csv"
        lines = ["label,f0,f1"]
        for c in range(2):
            for i in range(5):
                lines.append(f"{c},1e200,1e200")
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = run_cli(
            "train",
            "--set", "data.source=embedding",
            "--set", f"data.embedding_path={csv}",
            "--set", "data.tasks=2",
            "--set", "data.num_classes=2",
            "--set", "backbone.feature_dim=4",
            "--set", "backbone.buffer_size=8",
            "--out", str(tmp_path / "boom"),
        )
        assert rc == 2
        assert "numerical" in capsys.readouterr().err.lower()
        assert not (tmp_path / "boom").exists()

    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB for an array")

        monkeypatch.setattr(cli, "run_training", exhausted)
        rc = run_cli("train", *FAST, "--out", str(tmp_path / "oom"))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["out of memory: Unable to allocate 2.00 GiB for an array"]

    def test_bare_out_of_memory_names_the_failure(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_training", exhausted)
        rc = run_cli("train", *FAST, "--out", str(tmp_path / "oom"))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["out of memory: an allocation failed (MemoryError with no message)"]


class TestEval:
    def test_eval_finished_run(self, tmp_path, capsys):
        run_cli("train", *FAST, "--out", str(tmp_path / "run"))
        capsys.readouterr()
        rc = run_cli("eval", "--run", str(tmp_path / "run"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "sessions=5" in out

    def test_eval_rejects_checkpoint_of_other_config(self, tmp_path, capsys):
        for seed in (11, 12):
            run_cli("train", *FAST, "--set", f"data.class_seed={seed}", "--out", str(tmp_path / str(seed)))
        (tmp_path / "11" / "checkpoint.nmcp").write_bytes((tmp_path / "12" / "checkpoint.nmcp").read_bytes())
        capsys.readouterr()
        rc = run_cli("eval", "--run", str(tmp_path / "11"))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "different configuration" in captured.err

    def test_eval_refuses_a_run_that_names_a_removed_key(self, tmp_path, capsys):
        # config.resolved as written before pinoise.shared_omega and pinoise.stochastic_eval were removed
        run_dir = tmp_path / "run"
        assert run_cli("train", *FAST, "--set", "data.tasks=2", "--out", str(run_dir)) == 0
        resolved = run_dir / "config.resolved"
        old = resolved.read_text().replace(
            "pinoise.strategy", "pinoise.shared_omega = False\npinoise.stochastic_eval = False\npinoise.strategy"
        )
        resolved.write_text(old)
        lineno = old.splitlines().index("pinoise.shared_omega = False") + 1
        capsys.readouterr()
        rc = run_cli("eval", "--run", str(run_dir))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {resolved}:{lineno}: unknown config key 'pinoise.shared_omega'"]

    def test_config_file_error_names_its_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("train.epochs = 2\npinoise.enabled = maybe\n", encoding="utf-8")
        rc = run_cli("train", *FAST, "--config", str(config), "--out", str(tmp_path / "x"))
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {config}:2: expected a boolean, got 'maybe'"]
        assert not (tmp_path / "x").exists()


class TestRestoreChecks:
    """``eval --run`` and ``train --resume`` refuse the same checkpoints."""

    @staticmethod
    def rewrite(path, sessions, task_indices):
        """The checkpoint claims ``sessions`` completed sessions and holds one
        history entry per task index, in the order given."""
        sections = read_container(path)
        meta, history = json.loads(sections["meta"]), json.loads(sections["history"])
        meta["sessions_completed"] = sessions
        history = [dict(history[i % len(history)], task_index=t) for i, t in enumerate(task_indices)]
        sections["meta"] = json.dumps(meta, sort_keys=True).encode("utf-8")
        sections["history"] = json.dumps(history, sort_keys=True).encode("utf-8")
        write_container(path, sections)

    @staticmethod
    def refusal(tmp_path, capsys, command, run_dir, flags):
        """The one ``error:`` line of an ``eval --run`` of ``run_dir``, or of a
        ``train --resume`` from its checkpoint, which must exit 1 and write nothing."""
        capsys.readouterr()
        if command == "eval":
            rc = run_cli("eval", "--run", str(run_dir))
        else:
            resume = ["--resume", str(run_dir / "checkpoint.nmcp")]
            rc = run_cli("train", *flags, "--out", str(tmp_path / "fresh"), *resume)
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "fresh").exists()
        return err[0]

    @pytest.fixture(scope="class")
    def stopped_run(self, tmp_path_factory):
        """A 3-task run stopped after session 2, and the flags that made it.
        Each layer holds two generators, a 2 x 16 L##.proto and a length-2 L##.omega."""
        flags = [*FAST, "--set", "data.tasks=3"]
        run_dir = tmp_path_factory.mktemp("stopped") / "run"
        assert run_cli("train", *flags, "--out", str(run_dir), "--stop-after", "2") == 0
        return run_dir, flags

    @pytest.mark.parametrize("noise", [False, True], ids=["baseline", "noise"])
    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize(
        "sessions, reports, named",
        [(7, 7, "completed 7 sessions, but the stream has 2 tasks"), (1, 2, "history")],
        ids=["more-sessions-than-tasks", "history-longer-than-sessions"],
    )
    def test_refused_with_one_error_line(self, tmp_path, capsys, noise, command, sessions, reports, named):
        flags = [*FAST, "--set", f"pinoise.enabled={noise}", "--set", "data.tasks=2"]
        run_dir = tmp_path / "run"
        assert run_cli("train", *flags, "--out", str(run_dir)) == 0
        self.rewrite(run_dir / "checkpoint.nmcp", sessions, range(1, reports + 1))
        assert named in self.refusal(tmp_path, capsys, command, run_dir, flags)

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize(
        "sessions, task_indices",
        [(2, [1, 7]), (2, [2, 1]), (-1, [])],
        ids=["indices-1-7", "indices-2-1", "negative-session-count"],
    )
    def test_history_out_of_order_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, stopped_run, command, sessions, task_indices
    ):
        # the first two once passed eval with exit 0, and resume ran session 3 before it refused
        run_dir = shutil.copytree(stopped_run[0], tmp_path / "run")
        self.rewrite(run_dir / "checkpoint.nmcp", sessions, task_indices)
        reads, sessions_run = [], []
        monkeypatch.setattr(
            checkpoint, "read_container", lambda *a, **k: reads.append(k.get("names")) or read_container(*a, **k)
        )
        monkeypatch.setattr(experiment, "run_session", lambda *args: sessions_run.append(args))
        refusal = self.refusal(tmp_path, capsys, command, run_dir, stopped_run[1])
        assert refusal == "error: checkpoint history does not match completed sessions"
        assert sessions_run == [] and reads == [{"meta", "history"}]

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize(
        "section, shape",
        [("L00.proto", (2,)), ("L00.proto", (2, 5)), ("L00.omega", (2, 1)), ("L01.omega", None)],
        ids=["proto-1d", "proto-narrow", "omega-2d", "omega-missing"],
    )
    def test_malformed_layer_state_refused(self, tmp_path, capsys, stopped_run, command, section, shape):
        run_dir = shutil.copytree(stopped_run[0], tmp_path / "run")
        sections = read_container(run_dir / "checkpoint.nmcp")
        if shape is None:
            del sections[section]
        else:  # an array section: u64 ndim, the u64 sizes, float64 data
            header = struct.pack(f"<{1 + len(shape)}Q", len(shape), *shape)
            sections[section] = header + np.full(shape, 0.5).tobytes()
        write_container(run_dir / "checkpoint.nmcp", sections)
        assert section in self.refusal(tmp_path, capsys, command, run_dir, stopped_run[1])

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize(
        "key, named",
        [("classes_seen", "classes_seen does not match"), ("eval_seed", "eval_seed 12345 is not")],
        ids=["classes-reversed", "other-eval-seed"],
    )
    def test_meta_at_odds_with_the_configuration_refused(self, tmp_path, capsys, stopped_run, command, key, named):
        # both once ran with exit 0: the reversed classes scored 0.00% under eval,
        # and the eval seed took the place of the one the configuration fixes
        run_dir = shutil.copytree(stopped_run[0], tmp_path / "run")
        sections = read_container(run_dir / "checkpoint.nmcp")
        meta = json.loads(sections["meta"])
        meta[key] = meta[key][::-1] if key == "classes_seen" else 12345
        sections["meta"] = json.dumps(meta, sort_keys=True).encode("utf-8")
        write_container(run_dir / "checkpoint.nmcp", sections)
        assert named in self.refusal(tmp_path, capsys, command, run_dir, stopped_run[1])

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize("section, value", NON_FINITE_ENTRIES)
    def test_non_finite_entry_refused(self, tmp_path, capsys, stopped_run, command, section, value):
        run_dir = shutil.copytree(stopped_run[0], tmp_path / "run")
        sections = read_container(run_dir / "checkpoint.nmcp")
        set_last_entry(sections, section, value)
        write_container(run_dir / "checkpoint.nmcp", sections)
        refusal = self.refusal(tmp_path, capsys, command, run_dir, stopped_run[1])
        assert refusal == f"error: section {section} has non-finite values"


class TestGrid:
    def test_variant_rows(self, tmp_path, capsys):
        rc = run_cli(
            "grid", *FAST,
            "--set", "data.overlap_classes=4",
            "--axis", "variant=baseline,last-task,full",
            "--out", str(tmp_path / "abl"),
        )
        assert rc == 0
        lines = (tmp_path / "abl" / "grid.csv").read_text().splitlines()
        assert lines[0] == "variant,seeds,avg_pct_mean,avg_pct_std,last_pct_mean,last_pct_std"
        assert [line.split(",")[:2] for line in lines[1:]] == [["baseline", "1"], ["last-task", "1"], ["full", "1"]]
        assert (tmp_path / "abl" / "runs.csv").read_text().splitlines()[0] == "variant,class_seed,avg_pct,last_pct"

    def test_separable_data_makes_noise_unnecessary(self, tmp_path, capsys):
        rc = run_cli("grid", *FAST, "--axis", "variant=baseline,full", "--out", str(tmp_path / "sep"))
        assert rc == 0
        lines = (tmp_path / "sep" / "grid.csv").read_text().splitlines()[1:]
        avgs = {line.split(",")[0]: float(line.split(",")[2]) for line in lines}
        assert abs(avgs["baseline"] - avgs["full"]) < 2.0

    def test_data_axis_by_variant_by_seeds(self, tmp_path, capsys):
        rc = run_cli(
            "grid", *FAST, "--axis", "variant=baseline,full", "--axis", "data.tasks=2,4",
            "--class-seeds", "5", "6", "--out", str(tmp_path / "g"),
        )
        assert rc == 0
        # the data.* axis goes outermost, in the table as in the runs
        cells = [line.split(",")[:3] for line in (tmp_path / "g" / "grid.csv").read_text().splitlines()]
        assert cells == [
            ["data.tasks", "variant", "seeds"],
            ["2", "baseline", "2"], ["2", "full", "2"], ["4", "baseline", "2"], ["4", "full", "2"],
        ]
        runs = [line.split(",")[:3] for line in (tmp_path / "g" / "runs.csv").read_text().splitlines()]
        assert runs[0] == ["data.tasks", "variant", "class_seed"]
        assert runs[1:] == [[t, v, s] for s in ("5", "6") for t in ("2", "4") for v in ("baseline", "full")]
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4 and out[0].startswith("data.tasks=2 variant=baseline seeds=2 avg=")

    def test_seeds_alone_give_one_cell(self, tmp_path, capsys):
        rc = run_cli("grid", *FAST, "--out", str(tmp_path / "ms"), "--class-seeds", "1993", "1994")
        assert rc == 0
        assert len((tmp_path / "ms" / "grid.csv").read_text().splitlines()) == 2
        assert len((tmp_path / "ms" / "runs.csv").read_text().splitlines()) == 3
        assert capsys.readouterr().out.startswith("seeds=2 avg=")

    def test_a_run_scores_as_a_single_train_run(self, tmp_path):
        assert run_cli("grid", *FAST, "--out", str(tmp_path / "ms"), "--class-seeds", "5", "6") == 0
        assert run_cli("train", *FAST, "--out", str(tmp_path / "one"), "--set", "data.class_seed=5") == 0
        summary = json.loads((tmp_path / "one" / "summary.json").read_text())
        one = f"5,{100 * summary['average_accuracy']:.2f},{100 * summary['last_accuracy']:.2f}"
        assert (tmp_path / "ms" / "runs.csv").read_text().splitlines()[1] == one

    def test_every_value_is_a_run(self, tmp_path, capsys):
        rc = run_cli(
            "grid", *FAST, "--axis", "classifier.regularization=10,50,100,500,1000", "--out", str(tmp_path / "sw"),
        )
        assert rc == 0
        lines = (tmp_path / "sw" / "grid.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["classifier.regularization", "10", "50", "100", "500", "1000"]
        assert len((tmp_path / "sw" / "runs.csv").read_text().splitlines()) == 6

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--class-seeds", "5", "5"), "duplicate class seeds"),
            (("--axis", "variant=baseline,full,baseline"), "duplicate values of variant"),
            (("--axis", "pinoise.tau=1,1"), "duplicate values of pinoise.tau"),
            (("--axis", "pinoise.tau=1,2", "--axis", "pinoise.tau=3"), "duplicate axis keys"),
            (("--axis", "variant=full,bogus"), "bogus"),
            (("--axis", "pinoise.gamma=1"), "unknown config key 'pinoise.gamma'"),
            (("--axis", "pinoise.latent_dim=4,2.5"), "expected int, got '2.5'"),
            (("--axis", "backbone.buffer_size=4,64.9"), "expected int, got '64.9'"),
            # the first cell's config is valid, the second's buffer is narrower than the features
            (("--axis", "backbone.buffer_size=128,16"), "buffer_size must be >= feature_dim"),
            (("--axis", "data.class_seed=1,2"), "data.class_seed cannot be an axis"),
            (("--axis", "pinoise.tau"), "--axis must look like KEY=V1,V2,..."),
        ],
        ids=[
            "seeds", "variants", "values", "axis-keys", "unknown-variant", "unknown-key", "d2-2.5",
            "buffer_size-64.9", "buffer_size-16", "class-seed-axis", "no-values",
        ],
    )
    def test_refused_before_any_run(self, tmp_path, capsys, monkeypatch, flags, named):
        sessions = []
        monkeypatch.setattr(experiment, "run_session", lambda *args: sessions.append(args))
        rc = run_cli("grid", *FAST, *flags, "--out", str(tmp_path / "g"))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert sessions == []
        assert not (tmp_path / "g").exists()


class TestGradcheckAndSnapshot:
    def test_gradcheck_passes(self, capsys):
        rc = run_cli("gradcheck")
        assert rc == 0
        out = capsys.readouterr().out
        assert "gradcheck: PASS" in out
        assert "max_rel" in out

    def test_gradcheck_ok_groups_print_max_rel_within_tolerance(self, capsys):
        # the printed relative error is the number the verdict is taken from
        assert run_cli("gradcheck") == 0
        rows = re.findall(r"max_rel=(\S+) .* (\w+)$", capsys.readouterr().out, re.M)
        assert len(rows) == 11
        for max_rel, status in rows:
            assert status == "ok" and 0 < float(max_rel) <= 1e-4, rows

    @pytest.mark.parametrize("strategy", MIXTURE_STRATEGIES)
    def test_gradcheck_passes_for_every_strategy(self, strategy, capsys):
        assert run_cli("gradcheck", "--set", f"pinoise.strategy={strategy}") == 0
        assert "gradcheck: PASS" in capsys.readouterr().out

    def test_gradcheck_corruption_fails(self, capsys, monkeypatch):
        # perturb the analytic "aux" gradient; the finite differences never call gradient_step
        real = trainer.gradient_step

        def corrupted(*args, **kwargs):
            loss, grads, z = real(*args, **kwargs)
            grads["aux"] = grads["aux"] * 1.5
            grads["aux"].ravel()[0] += 1e-3
            return loss, grads, z

        monkeypatch.setattr(trainer, "gradient_step", corrupted)
        rc = run_cli("gradcheck")
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_snapshot_writes_hash(self, tmp_path, capsys):
        rc = run_cli("snapshot", *FAST, "--out", str(tmp_path / "snap"))
        assert rc == 0
        text = (tmp_path / "snap" / "snapshot.txt").read_text()
        assert text.startswith("config ")
        assert "frozen " in text
        rc2 = run_cli("snapshot", *FAST, "--out", str(tmp_path / "snap2"))
        assert (tmp_path / "snap2" / "snapshot.txt").read_text() == text

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-m", "noisemix", "snapshot", *FAST, "--out", str(tmp_path / "snap")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("config ")
        assert (tmp_path / "snap" / "snapshot.txt").read_text().splitlines() == done.stdout.splitlines()
