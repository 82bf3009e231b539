"""Every public library name has a caller inside the library."""

import ast
import pathlib

import qmap


def _loaded_names() -> set:
    """Names that src/qmap reads outside __init__.py, as plain names or as
    attributes: definitions, assignment targets, strings and comments do
    not count."""
    names = set()
    for path in pathlib.Path(qmap.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller_in_the_library():
    exported = [name for names in qmap._EXPORTS.values() for name in names]
    used = _loaded_names()
    assert [name for name in exported if name not in used] == []
