import numpy as np
import pytest

from conftest import ridge_solve
from noisemix.config import DataConfig
from noisemix.datastream import (
    _parse_embedding_csv,
    load_embedding_stream,
    make_synthetic_stream,
    partition_classes,
    record_dtype,
    shuffle_class_order,
    synthetic_class_means,
)
from noisemix.numeric import SeededRng


def default_stream(**overrides):
    """The synthetic stream of the default ``data`` section (20 classes of 50
    samples in 32 dimensions, separation 8, 5 tasks, class seed 1993) with
    ``overrides`` of its fields."""
    return make_synthetic_stream(DataConfig(**overrides))


class TestSyntheticStream:
    def test_counts(self):
        stream = default_stream()
        assert stream.num_tasks == 5
        for task in stream.tasks:
            assert len(task.class_set) == 4
            assert len(task.train) == 4 * 40
            assert len(task.test) == 4 * 10

    def test_determinism(self):
        assert default_stream().content_hash() == default_stream().content_hash()

    def test_hash_pinned(self):
        # digests from run.json files already written; the record layout must keep them
        assert default_stream().content_hash() == (
            "af12212109963d55759685fda4a4aa1bd5320a6c75c46b4f001d09ee814bd327"
        )

    @pytest.mark.parametrize(
        "overrides, digest",
        [
            # the acceptance ablation stream: overlap pairs planted across tasks
            (
                dict(overlap_classes=8, samples_per_class=30),
                "218ef50785f3337255969291dc4492a2e35045707eeaacfadc11808d27c4c676",
            ),
            # an uneven partition: the first task takes the extra class
            (dict(num_classes=7, tasks=3), "d351fbfc0fa826c9f67a7549815915bc1df2cb81fc6b7e2b73cb7cba97e7774a"),
        ],
        ids=["acceptance-ablation", "uneven-7-in-3"],
    )
    def test_more_hashes_pinned(self, overrides, digest):
        assert default_stream(**overrides).content_hash() == digest

    def test_splits_are_read_only_records(self):
        task = default_stream().tasks[0]
        assert task.train.dtype == record_dtype(32) and task.test.dtype == record_dtype(32)
        with pytest.raises(ValueError, match="read-only"):
            task.train.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            task.test.label[0] = 99
        x, y = task.train_arrays()
        x[0, 0], y[0] = 1.0, 99
        assert task.train.features[0, 0] != 1.0 and task.train.label[0] != 99

    def test_seed_changes_stream(self):
        assert default_stream().content_hash() != default_stream(class_seed=2024).content_hash()

    def test_class_sets_disjoint_and_exhaustive(self):
        stream = default_stream()
        seen = []
        for task in stream.tasks:
            seen.extend(task.class_set)
            for split in (task.train, task.test):
                assert np.isin(split.label, task.class_set).all()
        assert sorted(seen) == list(range(20))

    def test_zero_separation_gives_chance_accuracy(self):
        stream = default_stream(separation=0.0, samples_per_class=50)
        xs, ys = [], []
        for task in stream.tasks:
            x, y = task.train_arrays()
            xs.append(x)
            ys.append(y)
        x = np.vstack(xs)
        y = np.concatenate(ys)
        targets = np.zeros((len(y), 20))
        targets[np.arange(len(y)), y] = 1.0
        w = ridge_solve(x, targets, 1.0)
        tx, ty = [], []
        for task in stream.tasks:
            x_, y_ = task.test_arrays()
            tx.append(x_)
            ty.append(y_)
        pred = np.argmax(np.vstack(tx) @ w, axis=1)
        acc = float(np.mean(pred == np.concatenate(ty)))
        assert abs(acc - 0.05) < 0.05

    def test_empirical_means_converge_to_planted(self):
        n = 200
        stream = default_stream(samples_per_class=n)
        means = synthetic_class_means(DataConfig(), [t.class_set for t in stream.tasks])
        for task in stream.tasks:
            x, y = task.train_arrays()
            xt, yt = task.test_arrays()
            allx = np.vstack([x, xt])
            ally = np.concatenate([y, yt])
            for c in task.class_set:
                emp = allx[ally == c].mean(axis=0)
                # per-coordinate error of a mean of n unit-variance draws
                assert np.max(np.abs(emp - means[c])) < 4.5 / np.sqrt(n)

    def test_overlap_pairs_are_cross_task_and_nearby(self):
        stream = default_stream(overlap_classes=4)
        means = synthetic_class_means(DataConfig(overlap_classes=4), [t.class_set for t in stream.tasks])
        task_of = {}
        for task in stream.tasks:
            for c in task.class_set:
                task_of[c] = task.task_index
        close = []
        for a in range(20):
            for b in range(a + 1, 20):
                d = np.linalg.norm(means[a] - means[b])
                if d < 0.15 * 8.0 + 1e-9:
                    close.append((a, b, d))
        assert len(close) == 2
        for a, b, _ in close:
            assert task_of[a] != task_of[b]

    def test_every_class_can_participate_in_overlap(self):
        stream = default_stream(overlap_classes=20)
        assert stream.num_classes == 20


class TestClassOrder:
    def test_single_class(self):
        assert shuffle_class_order(1, 123) == (0,)

    def test_stable(self):
        assert shuffle_class_order(10, 1993) == shuffle_class_order(10, 1993)

    def test_bijection(self):
        assert sorted(shuffle_class_order(17, 5)) == list(range(17))

    def test_uneven_partition_front_loads_extras(self):
        chunks = partition_classes(tuple(range(10)), 3)
        assert chunks == [(0, 1, 2, 3), (4, 5, 6), (7, 8, 9)]
        assert all(type(c) is int for chunk in chunks for c in chunk)


def write_embedding_csv(path, labels, features):
    dim = features.shape[1]
    lines = ["label," + ",".join(f"f{i}" for i in range(dim))]
    for lab, row in zip(labels, features):
        lines.append(f"{lab}," + ",".join(f"{v:.6f}" for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestEmbeddingStream:
    def make_file(self, tmp_path, num_classes=10, per_class=10, dim=3):
        rng = SeededRng(1)
        labels = [c for c in range(num_classes) for _ in range(per_class)]
        features = rng.standard_normal(len(labels), dim)
        path = tmp_path / "data.csv"
        write_embedding_csv(path, labels, features)
        return path

    def test_hash_pinned(self, tmp_path):
        # digests from run.json files already written, default split and .split file
        path = self.make_file(tmp_path)
        assert load_embedding_stream(path, 5, 1993).content_hash() == (
            "cc6218feaf87e00858f94e880b59fbb320a4d3f5ab03b7ed27c7e30df426fb41"
        )
        (tmp_path / "data.split").write_text("0\n15\n27\n33\n41\n58\n62\n79\n84\n90\n", encoding="utf-8")
        assert load_embedding_stream(path, 5, 1993).content_hash() == (
            "529d4f477619b0969ff1e07048f0d0236bf41a56e1dc00aa632389dbeefe25e1"
        )

    def test_partition_follows_seeded_order(self, tmp_path):
        path = self.make_file(tmp_path)
        stream = load_embedding_stream(path, 5, 1993)
        order = shuffle_class_order(10, 1993)
        got = [c for task in stream.tasks for c in task.class_set]
        assert tuple(got) == order
        assert all(len(task.class_set) == 2 for task in stream.tasks)

    def test_single_task_holds_every_class(self, tmp_path):
        path = self.make_file(tmp_path)
        stream = load_embedding_stream(path, 1, 7)
        assert stream.num_tasks == 1
        assert sorted(stream.tasks[0].class_set) == list(range(10))

    def test_seeds_produce_distinct_orders(self, tmp_path):
        path = self.make_file(tmp_path)
        orders = {load_embedding_stream(path, 5, s).class_order for s in range(10)}
        assert len(orders) > 1

    def test_default_split_is_80_20(self, tmp_path):
        path = self.make_file(tmp_path, per_class=10)
        stream = load_embedding_stream(path, 2, 3)
        for task in stream.tasks:
            assert len(task.train) == 8 * len(task.class_set)
            assert len(task.test) == 2 * len(task.class_set)

    def test_split_file_respected(self, tmp_path):
        path = self.make_file(tmp_path, num_classes=2, per_class=5)
        # rows 0..4 are class 0, rows 5..9 class 1; mark one row per class as test
        (tmp_path / "data.split").write_text("0\n5\n", encoding="utf-8")
        stream = load_embedding_stream(path, 2, 3)
        for task in stream.tasks:
            assert len(task.test) == 1
            assert len(task.train) == 4

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0,f1\n0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 3 fields"):
            load_embedding_stream(path, 1, 1)
        path.write_text("label,f0,f1\n0,1.0,x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            load_embedding_stream(path, 1, 1)
        path.write_text("wrong,f0\n0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_embedding_stream(path, 1, 1)

    def test_fewer_classes_than_tasks_rejected(self, tmp_path):
        path = self.make_file(tmp_path, num_classes=3)
        with pytest.raises(ValueError, match="fewer"):
            load_embedding_stream(path, 4, 1)

    def test_non_contiguous_labels_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        rng = SeededRng(2)
        labels = [0] * 5 + [2] * 5
        write_embedding_csv(path, labels, rng.standard_normal(10, 3))
        with pytest.raises(ValueError, match="contiguous"):
            load_embedding_stream(path, 2, 1)

    def test_split_file_emptying_a_class_rejected(self, tmp_path):
        path = self.make_file(tmp_path, num_classes=2, per_class=5)
        # rows 0..4 (all of class 0) marked test, class 1 keeps one test row;
        # one class per task, so the per-class check also refuses the task without training rows
        (tmp_path / "data.split").write_text("0\n1\n2\n3\n4\n5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^classes \[0\] have no training samples$"):
            load_embedding_stream(path, 2, 1)

    @pytest.mark.parametrize(
        "num_classes, test_rows, message",
        [
            # class 2 loses every row to test while its task-mate keeps training rows
            (4, [10, 11, 12, 13, 14, 0, 5, 15], r"^classes \[2\] have no training samples$"),
            (2, [0], r"^task \d+ ended up with an empty test split$"),
        ],
        ids=["one-class-of-a-task", "no-test-rows"],
    )
    def test_split_file_emptying_a_split_rejected(self, tmp_path, num_classes, test_rows, message):
        path = self.make_file(tmp_path, num_classes=num_classes, per_class=5)
        (tmp_path / "data.split").write_text("".join(f"{i}\n" for i in test_rows), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_embedding_stream(path, 2, 1)

    def test_synthetic_rows_load_to_the_same_stream(self, tmp_path):
        # both sources assemble their rows in one layout: the synthetic stream, written
        # class by class at full precision with its test rows named, loads back unchanged
        stream = default_stream(overlap_classes=4, num_classes=7, tasks=3, samples_per_class=12)
        lines = ["label," + ",".join(f"f{i}" for i in range(stream.feature_dim))]
        test_rows = []
        for c in range(stream.num_classes):
            task = next(t for t in stream.tasks if c in t.class_set)
            train, test = task.train[task.train.label == c], task.test[task.test.label == c]
            first_test = len(lines) - 1 + len(train)  # data rows are 0-based after the header
            test_rows.extend(range(first_test, first_test + len(test)))
            lines.extend(f"{c}," + ",".join(repr(float(v)) for v in row) for row in [*train.features, *test.features])
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (tmp_path / "data.split").write_text("".join(f"{i}\n" for i in test_rows), encoding="utf-8")
        loaded = load_embedding_stream(tmp_path / "data.csv", stream.num_tasks, stream.seed)
        assert loaded.content_hash() == stream.content_hash()

    def test_uneven_class_division_front_loads(self, tmp_path):
        path = self.make_file(tmp_path, num_classes=7)
        stream = load_embedding_stream(path, 3, 4)
        assert [len(t.class_set) for t in stream.tasks] == [3, 2, 2]


class TestEmbeddingParser:
    def write(self, tmp_path, body):
        path = tmp_path / "rows.csv"
        path.write_text("label,f0,f1\n" + body, encoding="utf-8")
        return path

    def test_blank_lines_skipped(self, tmp_path):
        rows = _parse_embedding_csv(self.write(tmp_path, "\n0,1.5,2\n\n\n1,3,4\n\n"))
        assert rows["label"].tolist() == [0, 1]
        assert rows["features"].tolist() == [[1.5, 2.0], [3.0, 4.0]]

    def test_only_blank_lines_is_no_data(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            _parse_embedding_csv(self.write(tmp_path, "\n\n"))

    def test_space_padded_fields_accepted(self, tmp_path):
        rows = _parse_embedding_csv(self.write(tmp_path, " 0 , 1.5 ,\t2\n1,3 , 4 \n"))
        assert rows["label"].tolist() == [0, 1]
        assert rows["features"].tolist() == [[1.5, 2.0], [3.0, 4.0]]

    def test_hash_is_not_a_comment(self, tmp_path):
        with pytest.raises(ValueError, match=r"rows\.csv:3: malformed value"):
            _parse_embedding_csv(self.write(tmp_path, "0,1,2\n#1,3,4\n"))
        with pytest.raises(ValueError, match=r"rows\.csv:2: malformed value"):
            _parse_embedding_csv(self.write(tmp_path, "0,1,2 # note\n"))

    @pytest.mark.parametrize("row", ["1_0,1,2", "0,1_0,2", "\u0661,1,2", "0,\u0661,2"])
    def test_python_only_spellings_rejected(self, tmp_path, row):
        with pytest.raises(ValueError, match=r"rows\.csv:3: malformed value"):
            _parse_embedding_csv(self.write(tmp_path, f"0,1,2\n{row}\n"))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cells_rejected(self, tmp_path, cell):
        path = self.write(tmp_path, f"0,1,2\n\n1,{cell},4\n")
        with pytest.raises(ValueError, match=r"rows\.csv:4: non-finite feature value"):
            load_embedding_stream(path, 1, 1)

    @pytest.mark.parametrize(
        "row, message",
        [("0,1", "expected 3 fields, got 2"), ("0,1,x", "malformed value"), ("-1,1,2", "labels must be non-negative")],
    )
    def test_errors_name_the_file_line(self, tmp_path, row, message):
        # the bad row is the file's line 5 but the third data row numpy reads
        path = self.write(tmp_path, f"0,1,2\n\n1,3,4\n{row}\n0,5,6\n")
        with pytest.raises(ValueError, match=rf"rows\.csv:5: {message}"):
            load_embedding_stream(path, 1, 1)
