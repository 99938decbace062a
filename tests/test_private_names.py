"""Every module-level private function, class or constant of the package is
read somewhere in it: a private name that nothing reads is dead code.  A
read is a loaded name or attribute, or a ``from ... import`` of the name,
in any module of the package; dunder names are exempt."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "chaosid"


def _private_definitions(tree):
    """The private names that a module's top-level statements bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _reads(tree):
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_private_names(sources):
    """The module-level private names of ``sources`` that none of them reads."""
    trees = [ast.parse(source) for source in sources]
    defined = set().union(*map(_private_definitions, trees))
    return sorted(defined - set().union(*map(_reads, trees)))


def test_the_scan_finds_unread_private_names():
    module = (
        "_TOLERANCE = 1e-12\n_LIMIT: int = 3\n_A, (_B, c) = 1, (2, 3)\n__all__ = []\n"
        "class _Spec:\n    _inner = 1\n"
        "def _auto_ridge(x):\n    return _TOLERANCE * x\n"
        "def _solve(x):\n    return _solve(x - 1) if x else _A\n"
        "def fit(x):\n    return _solve(x)\n"
    )
    other = "from .identify import _Spec\nfrom . import identify\nidentify._B = identify._LIMIT\n"
    assert _unread_private_names([module, other]) == ["_B", "_auto_ridge"]
    assert _unread_private_names([module]) == ["_B", "_LIMIT", "_Spec", "_auto_ridge"]


def test_every_private_name_is_read():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert _unread_private_names(sources) == []
