import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
    src = str(ROOT / "src")
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


def _public_definitions(tree: ast.Module):
    """``(qualified name, name, defining node or None, class name or None)`` of
    every public module-level function and class, and of every class's public
    methods, ``x = property(...)`` properties and ``self.x`` attributes.
    Names with a leading underscore, dunders among them, are left out, and so
    are dataclass fields, which are class-level annotations."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node, None
        if not isinstance(node, ast.ClassDef):
            continue
        members = []
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                members.append((item.name, item))
                members += [
                    (sub.attr, None)
                    for sub in ast.walk(item)
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                ]
            elif isinstance(item, ast.Assign) and isinstance(item.value, ast.Call):
                if getattr(item.value.func, "id", None) == "property":
                    members += [(target.id, item) for target in item.targets]
        for name, item in members:
            if not name.startswith("_"):
                yield f"{node.name}.{name}", name, item, node.name


def _references(tree: ast.AST):
    """``(kind, name, node)`` of every name the code reads: ``"name"`` for a
    bare name, ``"attr"`` for an attribute read or a string constant (a name
    handed to ``getattr`` or a patcher)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield "attr", node.attr, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield "attr", node.value, node


def uncalled_public_names(root: Path) -> list[str]:
    """The public names of ``root``'s ``src/noisemix`` that no package code
    reads outside their own definition and no program in ``bench/`` or
    ``scripts/`` names, as ``module.qualified_name``.

    A module-level function or class counts as read by a bare name or an
    attribute; a class member only by an attribute (or a string equal to its
    name). A member that overrides a method of a base class outside the
    package (``argparse.ArgumentParser.error``) is left out.
    """

    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"))

    modules = {path.stem: parse(path) for path in sorted((root / "src" / "noisemix").glob("*.py"))}
    programs = [parse(path) for d in ("bench", "scripts") for path in sorted((root / d).glob("*.py"))]
    package_refs = [(kind, name, id(node)) for tree in modules.values() for kind, name, node in _references(tree)]
    outside_refs = {(kind, name) for tree in programs for kind, name, _ in _references(tree)}
    uncalled = []
    for module, tree in modules.items():
        for qualified, name, node, cls in _public_definitions(tree):
            kinds = {"attr"} if cls else {"name", "attr"}
            if cls:
                bases = getattr(importlib.import_module(f"noisemix.{module}"), cls).__mro__[1:]
                if any(name in vars(base) for base in bases if not base.__module__.startswith("noisemix")):
                    continue
            own = set() if node is None else {id(n) for n in ast.walk(node)}
            read = any(k in kinds and n == name and ref not in own for k, n, ref in package_refs)
            if not read and not any((k, name) in outside_refs for k in kinds):
                uncalled.append(f"{module}.{qualified}")
    return sorted(set(uncalled))


def test_every_public_name_has_a_caller_outside_the_tests():
    assert uncalled_public_names(ROOT) == []
