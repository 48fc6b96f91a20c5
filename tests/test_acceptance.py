"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import hashlib
import json
import time

import numpy as np

import noisemix.trainer as trainer_mod
from noisemix.classifier import RidgeClassifier
from noisemix.config import RunConfig
from noisemix.experiment import (
    build_stream,
    run_ablation,
    run_grid,
    run_training,
)
from noisemix.model import build_model
from noisemix.numeric import SeededRng, derive_seed, ridge_solve, softmax
from noisemix.pinoise import init_mix_weights
from noisemix.trainer import gradient_check, make_gradcheck_instance, run_session


def report_line(name, passed, details=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {details}")
    return passed


def one_hot(labels, classes):
    index = {c: j for j, c in enumerate(classes)}
    y = np.zeros((len(labels), len(classes)))
    for i, lab in enumerate(labels):
        y[i, index[lab]] = 1.0
    return y


def default_cfg(**sets):
    cfg = RunConfig()
    for key, value in sets.items():
        section, _, name = key.partition("__")
        setattr(getattr(cfg, section), name, value)
    cfg.validate()
    return cfg


def full_run(cfg):
    stream = build_stream(cfg)
    model = build_model(cfg, stream.feature_dim)
    reports = []
    for t in range(1, stream.num_tasks + 1):
        rng = SeededRng(derive_seed(cfg.train.seed, "session", t))
        reports.append(run_session(model, stream, cfg, rng))
    return stream, model, reports


def test_recursive_equals_batch():
    start = time.monotonic()
    rng = SeededRng(20240601)
    worst = 0.0
    for case in range(20):
        d = 8 * (1 + case % 8)  # 8..64
        chunks = 2 + case % 4  # 2..5
        lam = 0.5 + (case % 3)
        n_per = 12 + case % 9
        classes = [0, 1, 2]
        clf = RidgeClassifier(d, lam)
        clf.expand_classes(classes)
        zs, labels = [], []
        for _ in range(chunks):
            z = rng.standard_normal(n_per, d)
            labs = [classes[rng.integer(3)] for _ in range(n_per)]
            clf.update(z, one_hot(labs, classes))
            zs.append(z)
            labels.extend(labs)
        all_z = np.vstack(zs)
        w_direct = ridge_solve(all_z, one_hot(labels, classes), lam)
        r_direct = np.linalg.inv(all_z.T @ all_z + lam * np.eye(d))
        err_w = np.linalg.norm(clf.weights - w_direct) / np.linalg.norm(w_direct)
        err_r = np.linalg.norm(clf.gram_inv - r_direct) / np.linalg.norm(r_direct)
        worst = max(worst, err_w, err_r)
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 5.0
    assert report_line(
        "recursive-equals-batch", ok, f"worst rel err {worst:.2e}, {elapsed:.2f}s over 20 instances"
    )


def test_gradient_fidelity():
    start = time.monotonic()
    inst = make_gradcheck_instance()  # d1=8, d2=4, depth=2, n=3
    report = gradient_check(*inst, tolerance=1e-4, floor=1e-7)
    elapsed = time.monotonic() - start
    worst = max(g.max_rel_error for g in report.groups)
    groups = {g.name.split(".")[0].rstrip("01") for g in report.groups}
    ok = report.passed and elapsed < 10.0 and {"gen", "omega", "aux"} <= groups
    assert report_line(
        "gradient-fidelity", ok, f"max rel {worst:.2e} across {len(report.groups)} groups, {elapsed:.2f}s"
    )


def test_zero_noise_reduction():
    cfg_full = default_cfg(train__epochs=0, pinoise__init_scale=0.0)
    cfg_base = default_cfg(pinoise__enabled=False)
    _, full_model, full_reports = full_run(cfg_full)
    _, base_model, base_reports = full_run(cfg_base)
    accs_equal = all(
        f.accuracy_seen == b.accuracy_seen for f, b in zip(full_reports, base_reports)
    )
    state_equal = np.array_equal(
        full_model.classifier.weights, base_model.classifier.weights
    ) and np.array_equal(full_model.classifier.gram_inv, base_model.classifier.gram_inv)
    ok = accs_equal and state_equal
    assert report_line(
        "zero-noise-reduction",
        ok,
        f"accuracies {[round(r.accuracy_seen, 4) for r in full_reports]} exactly match baseline",
    )


def test_freeze_invariants():
    cfg = default_cfg()
    stream = build_stream(cfg)
    model = build_model(cfg, stream.feature_dim)

    def layer_maps():
        return [(layer.down_proj.tobytes(), layer.up_proj.tobytes()) for layer in model.layers]

    backbone_bytes = model.frozen_param_hash()
    projection_bytes = layer_maps()

    # one list per session of the classifier-weight hashes seen by backward
    weight_hashes: list[list[str]] = []
    orig_backward = trainer_mod.backward

    def audited_backward(m, tape, d_z, params):
        for value in params.values():
            assert value is not m.classifier.weights
        weights = np.ascontiguousarray(m.classifier.weights).tobytes()
        weight_hashes[-1].append(hashlib.sha256(weights).hexdigest())
        return orig_backward(m, tape, d_z, params)

    freeze_points = {}
    trainer_mod.backward = audited_backward
    try:
        for t in range(1, 6):
            weight_hashes.append([])
            rng = SeededRng(derive_seed(cfg.train.seed, "session", t))
            run_session(model, stream, cfg, rng)
            freeze_points[t] = [layer.bank[-1].tobytes() for layer in model.layers]
    finally:
        trainer_mod.backward = orig_backward

    frozen_ok = all(
        [layer.bank[k - 1].tobytes() for layer in model.layers] == freeze_points[k]
        for k in range(1, 5)
    )
    backbone_ok = model.frozen_param_hash() == backbone_bytes
    proj_ok = layer_maps() == projection_bytes
    # the classifier weights seen by the first backward call of a session
    # must be the ones every later call of that session sees
    classifier_ok = all(hashes and len(set(hashes)) == 1 for hashes in weight_hashes)
    calls = sum(len(hashes) for hashes in weight_hashes)
    ok = frozen_ok and backbone_ok and proj_ok and classifier_ok
    assert report_line(
        "freeze-invariants",
        ok,
        f"generators 1..4, backbone, projections bit-identical; classifier weights unchanged "
        f"across {calls} backward calls in {len(weight_hashes)} sessions",
    )


def test_no_forgetting_at_separability():
    start = time.monotonic()
    cfg = default_cfg()  # 20 classes, 5 tasks, separation 8, no overlap
    stream, model, reports = full_run(cfg)
    last = reports[-1].accuracy_seen

    base_cfg = default_cfg(pinoise__enabled=False)
    oracle_model = build_model(base_cfg, stream.feature_dim)
    xs, ys = [], []
    for task in stream.tasks:
        x, y = task.train_arrays()
        xs.append(x)
        ys.append(y)
    x_all = np.vstack(xs)
    y_all = np.concatenate(ys)
    classes = sorted(int(c) for c in set(y_all))
    w = ridge_solve(
        oracle_model.features(x_all), one_hot(y_all, classes), cfg.classifier.regularization
    )
    tx, ty = [], []
    for task in stream.tasks:
        x, y = task.test_arrays()
        tx.append(x)
        ty.append(y)
    feats = oracle_model.features(np.vstack(tx))
    pred = np.array(classes)[np.argmax(feats @ w, axis=1)]
    oracle_acc = float(np.mean(pred == np.concatenate(ty)))
    elapsed = time.monotonic() - start
    ok = last >= 0.95 and abs(last - oracle_acc) <= 0.02 and elapsed < 60.0
    assert report_line(
        "no-forgetting-at-separability",
        ok,
        f"last {last:.4f} vs joint oracle {oracle_acc:.4f}, {elapsed:.1f}s",
    )


def test_mixture_weight_closed_forms():
    singleton = init_mix_weights([np.array([2.0, 1.0])], 2.0)
    uniform = init_mix_weights([np.array([0.3, -0.7])] * 4, 2.0)
    direct = softmax([1.0, 0.0], 2.0)
    mirrored = init_mix_weights([np.array([1.0, 0.0]), np.array([0.0, 1.0])], 2.0)
    ok = (
        np.array_equal(singleton, [1.0])
        and np.allclose(uniform, 0.25, atol=1e-12)
        and abs(direct[0] - 0.6225) < 1e-4
        and abs(direct[1] - 0.3775) < 1e-4
        and abs(sorted(mirrored)[1] - 0.6225) < 1e-4
        and abs(sorted(mirrored)[0] - 0.3775) < 1e-4
    )
    assert report_line(
        "mixture-weight-closed-forms",
        ok,
        f"singleton {singleton}, uniform {uniform[0]:.4f}, two-point {np.round(direct, 4)}",
    )


def test_chunking_invariance():
    rng = SeededRng(777)
    d = 64
    lam = 100.0
    z = rng.standard_normal(512, d)
    labels = [rng.integer(4) for _ in range(512)]
    whole = RidgeClassifier(d, lam)
    whole.expand_classes([0, 1, 2, 3])
    whole.update(z, one_hot(labels, [0, 1, 2, 3]))
    batched = RidgeClassifier(d, lam)
    batched.expand_classes([0, 1, 2, 3])
    for i in range(0, 512, 128):
        batched.update(z[i : i + 128], one_hot(labels[i : i + 128], [0, 1, 2, 3]))
    err_w = np.linalg.norm(whole.weights - batched.weights) / np.linalg.norm(whole.weights)
    err_r = np.linalg.norm(whole.gram_inv - batched.gram_inv) / np.linalg.norm(whole.gram_inv)
    ok = err_w < 1e-8 and err_r < 1e-8
    assert report_line(
        "chunking-invariance", ok, f"512-row vs 4x128 rel err W {err_w:.2e}, R {err_r:.2e}"
    )


def test_determinism(tmp_path):
    cfg_sets = dict(
        data__samples_per_class=20,
        data__dim=16,
        backbone__feature_dim=32,
        backbone__buffer_size=256,
        train__epochs=3,
    )
    run_training(default_cfg(**cfg_sets), out_dir=tmp_path / "a")
    run_training(default_cfg(**cfg_sets), out_dir=tmp_path / "b")
    identical = (tmp_path / "a" / "accuracy.csv").read_bytes() == (
        tmp_path / "b" / "accuracy.csv"
    ).read_bytes()

    run_training(default_cfg(**cfg_sets, data__class_seed=1994), out_dir=tmp_path / "c")
    hash_a = json.loads((tmp_path / "a" / "run.json").read_text())["stream_hash"]
    hash_c = json.loads((tmp_path / "c" / "run.json").read_text())["stream_hash"]
    both_complete = (tmp_path / "c" / "accuracy.csv").exists()
    ok = identical and hash_a != hash_c and both_complete
    assert report_line(
        "determinism",
        ok,
        f"identical reruns: {identical}; seeds 1993 vs 1994 streams differ: {hash_a != hash_c}",
    )


def test_ablation_ordering_soft(tmp_path):
    cfg = default_cfg(
        data__overlap_classes=8,
        data__samples_per_class=30,
        backbone__buffer_size=512,
    )
    rows = run_ablation(
        cfg,
        variants=["baseline", "last-task", "full"],
        class_seeds=list(range(1993, 2003)),
        out_dir=tmp_path,
    )
    table = {r["variant"]: r["avg_pct_mean"] for r in rows}
    csv_path = tmp_path / "ablation.csv"
    emitted = csv_path.exists() and len(csv_path.read_text().splitlines()) == 4
    ordering = table["full"] >= table["last-task"] and table["full"] >= table["baseline"]
    # the ordering itself is reported, not gated; emission and completion are
    report_line(
        "ablation-ordering (soft)",
        ordering,
        f"full {table['full']:.2f} vs last-task {table['last-task']:.2f}, baseline {table['baseline']:.2f} (mean over 10 seeds)",
    )
    assert emitted, "comparative ablation CSV must be emitted"


def test_tau_robustness(tmp_path):
    rows = run_grid(default_cfg(), [("pinoise.tau", ["0.5", "1.0", "1.5", "2.0"])], [1993], tmp_path)
    avgs = [r["avg_pct_mean"] for r in rows]
    spread = max(avgs) - min(avgs)
    ok = spread < 1.0 and len(rows) == 4
    assert report_line(
        "tau-robustness", ok, f"average accuracy spread {spread:.3f} points over tau in {{0.5,1,1.5,2}}"
    )
