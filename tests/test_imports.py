import os
import subprocess
import sys
from pathlib import Path

# Runs in a fresh interpreter, so nothing the rest of the suite imported counts.
# scipy bundles its own BLAS, whose thread pool would contend with numpy's.
GUARD = """
import sys
import noisemix, noisemix.cli, noisemix.experiment
from noisemix.classifier import RidgeClassifier
from noisemix.config import RunConfig, apply_overrides

sample_side = 0
solve = RidgeClassifier._sample_side

def counted(self, z, y):
    global sample_side
    sample_side += 1
    return solve(self, z, y)

RidgeClassifier._sample_side = counted
cfg = apply_overrides(RunConfig(), [
    "data.num_classes=4", "data.samples_per_class=20", "data.dim=8", "data.tasks=2",
    "backbone.feature_dim=16", "backbone.buffer_size=64", "pinoise.latent_dim=4", "train.epochs=1",
])
noisemix.experiment.run_training(cfg, out_dir=sys.argv[1])
print(sample_side)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports noisemix from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)


def test_a_training_run_never_imports_scipy(tmp_path):
    done = fresh_python(GUARD, str(tmp_path / "run"))
    assert done.returncode == 0, done.stderr
    sample_side, scipy_modules = (done.stdout.splitlines() + [""])[:2]
    assert int(sample_side) >= 1
    assert scipy_modules == ""


def test_the_package_root_imports_no_submodule():
    done = fresh_python("import sys, noisemix; print(' '.join(m for m in sys.modules if m.startswith('noisemix.')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
