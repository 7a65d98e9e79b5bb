"""Every imported name is used in the file that imports it, and every
module-level name of the package is used or exported.

No linter ships with the project, so this walks the syntax tree of each
module, test and demo.  ``__init__.py`` re-exports what it imports and
is not checked; an import line marked ``# noqa`` is exempt.  Importing
the package also leaves the process pool's modules unloaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted([p for p in (ROOT / "src" / "ocalearn").glob("*.py")
                  if p.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py"))
                 + list((ROOT / "demos").glob("*.py")))


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert {"learning.py", "conftest.py", "03_learning_walkthrough.py"} <= \
        {p.name for p in CHECKED}
    unused = [entry for path in CHECKED for entry in unused_imports(path)]
    assert unused == []


def unused_definitions(package):
    """The module-level functions, classes and constants of ``package``
    that no module of it reads and ``__init__.py`` does not import."""
    defined = []
    read = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "__init__.py":
            read |= {alias.asname or alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) for alias in node.names}
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, t.id) for t in targets if isinstance(t, ast.Name)]
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_no_unused_definitions():
    package = ROOT / "src" / "ocalearn"
    assert len(list(package.glob("*.py"))) >= 12
    assert unused_definitions(package) == []


def test_import_leaves_multiprocessing_unloaded():
    # only a parallel benchmark sweep needs it, and it costs every
    # importer over a megabyte of resident memory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, ocalearn; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
