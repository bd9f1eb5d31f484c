"""Every public name in the package has a caller outside its unit tests.

A public top-level function or class, or a public method, must be
referenced (as a bare name or an attribute) somewhere outside its own
definition: in the package itself, in the benchmark scripts, or in the
acceptance gate. A name whose only caller is its own unit test is dead
code and should be deleted with that test.

References are matched by bare name, so a method that shares its name
with a live one (say, `export_csv` on two classes) escapes the check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hessianlab"

# Methods kept only so that tests can check the output of other functions.
TEST_CHECKERS = {
    "BallFit.verify",
    "EllipsoidFit.verify",
    "ConvexBody.vertices_extreme",
    "ScalarField.with_values",
}


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
            if not outside and qual not in TEST_CHECKERS:
                flagged.append(f"{path.stem}.{qual}")
    return flagged


def test_every_public_name_has_a_caller():
    assert unreferenced_names() == []


def test_test_checkers_still_exist():
    defined = {
        qual for path in PACKAGE.glob("*.py") for qual, *_ in _definitions(_parse(path))
    }
    assert TEST_CHECKERS <= defined
