import json
import xml.dom.minidom

import pytest

from noisemix.config import RunConfig
from noisemix.experiment import build_stream
from noisemix.model import build_model
from noisemix.numeric import SeededRng, derive_seed
from noisemix.report import (
    EVAL_BATCH,
    SessionReport,
    accuracy_csv_text,
    emit,
    evaluate,
    report_from_dict,
    report_to_dict,
    summarize,
)
from noisemix.trainer import run_session


def trained_setup(num_tasks=3):
    cfg = RunConfig()
    cfg.data.samples_per_class = 20
    cfg.data.dim = 16
    cfg.data.tasks = num_tasks
    cfg.data.num_classes = 4 * num_tasks
    cfg.backbone.buffer_size = 256
    cfg.backbone.feature_dim = 32
    cfg.validate()
    stream = build_stream(cfg)
    model = build_model(cfg, stream.feature_dim)
    for t in range(1, num_tasks + 1):
        run_session(model, stream, cfg, SeededRng(derive_seed(cfg.train.seed, "session", t)))
    return stream, model


class TestEvaluate:
    def test_separable_stream_is_perfect(self):
        stream, model = trained_setup()
        rep = evaluate(model, stream, 1)
        assert rep.accuracy_seen == 1.0

    def test_counts_cover_all_seen_test_sets(self):
        stream, model = trained_setup()
        rep = evaluate(model, stream, 3)
        assert rep.n_test == sum(len(task.test) for task in stream.tasks[:3])
        assert set(rep.per_class_accuracy) == set(
            c for task in stream.tasks[:3] for c in task.class_set
        )

    def test_tally_matches_loop_reference(self):
        stream, model = trained_setup()
        # random weights, so that per-class accuracies differ from class to class
        model.classifier.weights = SeededRng(3).standard_normal(*model.classifier.weights.shape)
        rep = evaluate(model, stream, 3)
        correct, total = {}, {}
        rng = SeededRng(derive_seed(model.eval_seed, "session", 3))
        for i in range(3):
            x, y = stream.tasks[i].test_arrays()
            for start in range(0, len(y), EVAL_BATCH):
                feats = model.features(x[start : start + EVAL_BATCH], rng=rng.split("batch", i, start), eval_mode=True)
                pred = model.classifier.predict_labels(feats)
                for label, p in zip(y[start : start + EVAL_BATCH].tolist(), pred.tolist()):
                    total[label] = total.get(label, 0) + 1
                    correct[label] = correct.get(label, 0) + int(p == label)
        assert rep.per_class_accuracy == {c: correct[c] / total[c] for c in sorted(total)}
        assert rep.accuracy_seen == sum(correct.values()) / sum(total.values())
        assert 0 < rep.accuracy_seen < 1

    def test_beyond_completed_sessions_rejected(self):
        stream, model = trained_setup()
        with pytest.raises(ValueError):
            evaluate(model, stream, 4)
        model.sessions_completed = 0
        with pytest.raises(ValueError):
            evaluate(model, stream, 1)

    def test_never_mutates_model(self):
        stream, model = trained_setup()
        before = model.state_hash()
        evaluate(model, stream, 3)
        assert model.state_hash() == before

    def test_deterministic(self):
        stream, model = trained_setup()
        assert evaluate(model, stream, 3) == evaluate(model, stream, 3)

    def test_relabeling_invariance(self):
        # permuting class identities consistently in data and classifier
        # leaves the accuracy unchanged
        stream, model = trained_setup()
        base = evaluate(model, stream, 3)
        mapping = {c: c + 100 for c in model.classifier.classes_seen}
        model.classifier.classes_seen = [mapping[c] for c in model.classifier.classes_seen]
        from noisemix.datastream import TaskDataset, TaskStream

        def relabel(split):
            rows = split.copy()
            rows.label = [mapping[c] for c in rows.label]
            return rows

        new_tasks = []
        for task in stream.tasks:
            new_tasks.append(
                TaskDataset(
                    task_index=task.task_index,
                    train=relabel(task.train),
                    test=relabel(task.test),
                    class_set=tuple(mapping[c] for c in task.class_set),
                )
            )
        renamed = TaskStream(tasks=tuple(new_tasks), class_order=tuple(
            mapping[c] for c in stream.class_order), seed=stream.seed)
        assert evaluate(model, renamed, 3).accuracy_seen == base.accuracy_seen


class TestSummarize:
    def reports(self, accs):
        return [
            SessionReport(task_index=i + 1, accuracy_seen=a, per_class_accuracy={}, n_test=10)
            for i, a in enumerate(accs)
        ]

    def test_mean_and_last(self):
        s = summarize(self.reports([0.9, 0.8, 0.7]))
        assert s.average_accuracy == pytest.approx(0.8)
        assert s.last_accuracy == pytest.approx(0.7)

    def test_single_session(self):
        s = summarize(self.reports([0.42]))
        assert s.average_accuracy == s.last_accuracy == pytest.approx(0.42)

    def test_constant_trace(self):
        s = summarize(self.reports([0.5] * 7))
        assert s.average_accuracy == pytest.approx(0.5)


class TestEmit:
    def summary(self):
        return summarize(
            [
                SessionReport(
                    task_index=i + 1,
                    accuracy_seen=a,
                    per_class_accuracy={0: a, 3: a},
                    epoch_losses=(0.5, 0.25),
                    n_test=40,
                )
                for i, a in enumerate([1.0, 0.95, 0.9, 0.875, 0.86])
            ],
            config_hash="cafebabe",
        )

    def test_csv_layout(self, tmp_path):
        emit(self.summary(), tmp_path)
        lines = (tmp_path / "accuracy.csv").read_text().splitlines()
        assert lines[0] == "task,accuracy_pct"
        assert len(lines) == 6
        assert lines[1] == "1,100.00"
        assert lines[3] == "3,90.00"

    def test_byte_stable(self, tmp_path):
        emit(self.summary(), tmp_path / "a")
        emit(self.summary(), tmp_path / "b")
        for name in ("accuracy.csv", "summary.json", "accuracy.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_svg_is_well_formed_xml(self, tmp_path):
        emit(self.summary(), tmp_path)
        text = (tmp_path / "accuracy.svg").read_text()
        xml.dom.minidom.parseString(text)
        assert 'viewBox="0 0 800 500"' in text
        assert "polyline" in text

    def test_json_contains_hash_and_reports(self, tmp_path):
        emit(self.summary(), tmp_path)
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["config_hash"] == "cafebabe"
        assert len(payload["reports"]) == 5
        assert payload["reports"][0]["accuracy_seen"] == 1.0

    def test_report_dict_round_trip(self):
        rep = self.summary().reports[2]
        assert report_from_dict(report_to_dict(rep)) == rep

    def test_csv_percent_rendering(self):
        text = accuracy_csv_text(self.summary())
        assert "4,87.50" in text
        assert "5,86.00" in text
