"""The docs name code that exists.

Every ``path.py::qualname`` and every dotted ``repro.…`` name in
README.md, DESIGN.md and docs/*.md must resolve in ``src/``,
``scripts/``, ``bench/`` or ``tests/``.  docs/TRAJECTORY.md is history:
it names what is gone on purpose, so it is not scanned.
"""

import ast
import glob
import importlib
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = [os.path.join(ROOT, "README.md"), os.path.join(ROOT, "DESIGN.md")] + [
    path for path in sorted(glob.glob(os.path.join(ROOT, "docs", "*.md")))
    if os.path.basename(path) != "TRAJECTORY.md"]
TREES = ("src", "scripts", "bench", "tests")
#: ``file.py::Class.method``; a trailing ``*`` names every definition
#: with that prefix (``test_calibration.py::test_fig7_*``).
PATH_NAME = re.compile(r"([\w/.-]+\.py)::([\w.]+\*?)")
DOTTED = re.compile(r"\brepro(?:\.\w+)+")


def _definitions(path):
    """Qualnames of a file's classes and functions, nested ones too,
    and the names its module level assigns."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                names.add(prefix + child.name)
                walk(child, prefix + child.name + ".")
            elif not prefix and isinstance(child, (ast.Assign,
                                                   ast.AnnAssign)):
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target])
                names.update(t.id for t in targets
                             if isinstance(t, ast.Name))

    walk(tree, "")
    return names


def _path_name_resolves(rel, qual):
    for tree in TREES:
        for path in glob.glob(os.path.join(ROOT, tree, "**", "*.py"),
                              recursive=True):
            if not path.replace(os.sep, "/").endswith("/" + rel):
                continue
            names = _definitions(path)
            if (any(n.startswith(qual[:-1]) for n in names)
                    if qual.endswith("*") else qual in names):
                return True
    return False


def _dotted_name_resolves(name):
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_code_name_in_the_docs_resolves():
    missing = []
    for doc in DOCS:
        with open(doc, encoding="utf-8") as fh:
            text = fh.read()
        where = os.path.relpath(doc, ROOT)
        missing += [f"{where}: {rel}::{qual}"
                    for rel, qual in sorted(set(PATH_NAME.findall(text)))
                    if not _path_name_resolves(rel, qual)]
        missing += [f"{where}: {name}"
                    for name in sorted(set(DOTTED.findall(text)))
                    if not _dotted_name_resolves(name)]
    assert not missing, "names in the docs that resolve nowhere:\n" + \
        "\n".join(missing)
