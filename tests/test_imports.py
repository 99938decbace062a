"""Every module of the package reads each name it imports: an import that
binds a name nothing reads is dead code.  ``__init__.py`` is exempt, since
its imports are the package's re-exports, and so is ``from __future__``."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "chaosid"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """The names that the imports of ``source`` bind and that it never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(bound - read)


def test_the_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport json as js\n"
        "from math import pi, tau as turn\n"
        "def f():\n    import sys\n    return pi + turn\n"
    )
    assert _unused_imports(source) == ["js", "os", "sys"]
    assert _unused_imports("import numpy as np\nx = np.zeros(1)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_importing_the_cli_loads_no_third_party_package_but_numpy():
    """A fresh interpreter that imports ``chaosid.cli`` loads, beyond what
    its own start-up loaded, only the standard library, ``chaosid`` and
    ``numpy``: every other package would add to each run's start-up time."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import chaosid.cli\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(added - set(sys.stdlib_module_names))))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.split() == ["chaosid", "numpy"]
