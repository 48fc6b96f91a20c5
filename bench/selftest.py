#!/usr/bin/env python3
"""Fast self-test of the benchmark's checks, on tiny sizes, with negative controls.

Each check must pass on the program's real output and fail on a corrupted
copy: a perturbed classifier weight must fail the ridge check, an off-by-one
accuracy the accuracy check, and a dropped CSV row the coverage check.
Exits 0 when every control behaves, 1 otherwise.

    python3 bench/selftest.py
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import gen_embedding

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from noisemix.classifier import RidgeClassifier  # noqa: E402
from noisemix.datastream import load_embedding_stream  # noqa: E402


def fails(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


def ridge_controls(width: int, rows_per_batch: int) -> list[str]:
    """Recursive updates against the reference, in the dual (rows <= width) or primal form."""
    rng = np.random.default_rng(width)
    clf = RidgeClassifier(width, 10.0)
    ref = checks.RidgeReference(10.0)
    for batch, classes in enumerate(([3, 0], [1, 2])):
        z = rng.standard_normal((rows_per_batch, width))
        y = rng.choice(classes, size=rows_per_batch)
        clf.expand_classes(classes)
        clf.update(z, clf.one_hot(y))
        ref.add(z, y, classes)
    form = "primal" if ref.gram is not None else "dual"
    problems = []
    if fails(checks.check_ridge, clf.weights, clf.classes_seen, ref):
        problems.append(f"ridge check ({form}) fails on the program's own weights")
    bad = clf.weights.copy()
    bad[0, 0] += 1e-6 * np.abs(bad).max()
    if not fails(checks.check_ridge, bad, clf.classes_seen, ref):
        problems.append(f"ridge check ({form}) passes a perturbed weight")
    if not fails(checks.check_ridge, clf.weights, clf.classes_seen[::-1], ref):
        problems.append(f"ridge check ({form}) passes a wrong class order")

    x = rng.standard_normal((9, width))
    labels = np.asarray(clf.predict_labels(x))
    labels[0] = 3 if labels[0] != 3 else 0
    hits = int(np.sum(clf.predict_labels(x) == labels))
    w_ref, _ = checks.check_ridge(clf.weights, clf.classes_seen, ref)
    batches = lambda: [(x[:4], labels[:4]), (x[4:], labels[4:])]
    if fails(checks.check_accuracy, hits / 9, 9, batches(), w_ref, clf.classes_seen):
        problems.append("accuracy check fails on the true accuracy")
    if not fails(checks.check_accuracy, (hits + 1) / 9, 9, batches(), w_ref, clf.classes_seen):
        problems.append("accuracy check passes an accuracy one row too high")
    if not fails(checks.check_accuracy, hits / 9, 10, batches(), w_ref, clf.classes_seen):
        problems.append("accuracy check passes a wrong test-row count")
    return problems


def coverage_controls(work: Path) -> list[str]:
    labels, values = gen_embedding.generate(5, num_classes=6, dim=4, rows_per_class=(8, 13))
    problems = []
    for name, keep in (("full", slice(None)), ("dropped", slice(1, None))):
        path = work / f"{name}.csv"
        gen_embedding.write(path, labels[keep], values[keep])
        tasks = load_embedding_stream(path, 3, 7).tasks
        n_tests = np.cumsum([len(t.test) for t in tasks]).tolist()
        failed = fails(checks.check_coverage, tasks, labels, values, n_tests)
        if name == "full" and failed:
            problems.append("coverage check fails on a complete stream")
        if name == "dropped" and not failed:
            problems.append("coverage check passes a stream missing one row")
    return problems


def main() -> int:
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems = ridge_controls(16, 5) + ridge_controls(4, 7) + coverage_controls(work)
    finally:
        shutil.rmtree(work)
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
