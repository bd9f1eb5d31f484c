"""Every public name in the package has a caller outside its unit tests.

A public top-level function or class, or a public method, must be
referenced (as a bare name or an attribute) somewhere outside its own
definition: in the package itself, in the benchmark scripts, or in the
acceptance gate. A name whose only caller is its own unit test is dead
code and should be deleted with that test.

References are matched by bare name, so a method that shares its name
with a live one (say, `export_csv` on two classes) escapes the check.

The traced benchmark (perfbench/spans.py) wraps functions at the module
names their callers look them up by; the last three tests check that the
names kept only for it are still wrapped, that every name it wraps still
exists, and that the callers still look them up there.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from hessianlab import candidates, cli, fields, functionals, geometry, pipeline, polar, solver

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hessianlab"

# Methods kept only so that tests can check the output of other functions.
TEST_CHECKERS = {
    "BallFit.verify",
    "EllipsoidFit.verify",
    "ConvexBody.vertices_extreme",
}

# Functions kept only because perfbench/spans.py wraps them by name; each
# goes when spans.py stops patching it.
TRACED_ONLY = {"symm.spectral_gradient"}


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(qualified name, bare name, first line, last line) per public def."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if not isinstance(node, defs) or not _public(node.name):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and _public(item.name):
                    qual = f"{node.name}.{item.name}"
                    yield qual, item.name, item.lineno, item.end_lineno


def _references(tree):
    """(bare name, line) for every Name and Attribute in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def unreferenced_names():
    package = sorted(PACKAGE.glob("*.py"))
    callers = package + sorted((ROOT / "perfbench").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    trees = {path: _parse(path) for path in callers}

    refs = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))

    flagged = []
    for path in package:
        for qual, name, first, last in _definitions(trees[path]):
            outside = [
                (p, line) for p, line in refs.get(name, [])
                if not (p == path and first <= line <= last)
            ]
            dotted = f"{path.stem}.{qual}"
            if not outside and qual not in TEST_CHECKERS and dotted not in TRACED_ONLY:
                flagged.append(dotted)
    return flagged


def test_every_public_name_has_a_caller():
    assert unreferenced_names() == []


def test_test_checkers_still_exist():
    defined = {
        qual for path in PACKAGE.glob("*.py") for qual, *_ in _definitions(_parse(path))
    }
    assert TEST_CHECKERS <= defined


def test_traced_only_names_are_still_traced():
    tree = _parse(ROOT / "perfbench" / "spans.py")
    patched = {
        node.args[2].value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch"
        and isinstance(node.args[2], ast.Constant)
    }
    assert TRACED_ONLY <= patched


def test_the_traced_run_finds_every_name_it_wraps():
    # a fresh interpreter keeps the patches out of this one
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    )}
    run = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr


# names perfbench/spans.py patches: (span name, the modules it patches)
TRACED_LOOKUPS = {
    "polar.radial_crossings": (polar, geometry),
    "fields.rasterize": (fields,),
    "solver.solve": (solver,),
    "fields.save_hsf1": (fields, cli),
}


def test_callers_look_up_the_traced_names(monkeypatch, tmp_path):
    calls = Counter()
    for name, owners in TRACED_LOOKUPS.items():
        attr = name.split(".")[1]
        real = getattr(owners[0], attr)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, attr, counting)

    def through(name, fn, *args):
        before = calls[name]
        fn(*args)
        assert calls[name] > before, (fn.__name__, name)

    cand = candidates.quadratic(np.diag([2.0, 0.5]), name="quad:diag(2,0.5)")
    through("polar.radial_crossings", pipeline.quadratic_test, cand)
    through("polar.radial_crossings", fields.grid_for_candidate, cand, 1.0, 1 / 16)
    through("polar.radial_crossings", geometry.extract_body, cand, 1.0, 64)
    field = fields.sample_candidate(cand, fields.grid_for_candidate(cand, 1.0, 1 / 16), 1.0)
    through("fields.rasterize", functionals.legendre_transform, field)
    # cli imports solver when it runs a solve, and looks solve up on it then
    params = {"problem": {
        "n": 2, "k": 1, "l": 0, "h": 1 / 16, "min_resolution": 16,
        "domain": {"type": "ellipse", "params": {"semiaxes": [1.0, 1.0]}},
    }}
    through("solver.solve", cli._cmd_solve, params, str(tmp_path))
    through("fields.save_hsf1", cli._cmd_solve, params, str(tmp_path))
