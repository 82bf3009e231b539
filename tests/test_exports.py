"""Every public library name has a caller inside the library, and every
result field has a reader."""

import ast
import pathlib

import qmap

SRC = pathlib.Path(qmap.__file__).parent
ROOT = pathlib.Path(__file__).parent.parent


def _nodes(paths):
    """Every AST node of the given files."""
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def _loaded_names(paths, attributes_only=False) -> set:
    """Names the files read, as attributes or, unless attributes_only, as
    plain names: definitions, assignment targets, strings and comments do
    not count."""
    names = set()
    for node in _nodes(paths):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and not attributes_only:
            names.add(node.id)
    return names


def test_every_export_has_a_caller_in_the_library():
    exported = [name for names in qmap._EXPORTS.values() for name in names]
    used = _loaded_names(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert [name for name in exported if name not in used] == []


def test_every_result_field_has_a_reader():
    # a field annotated in a class body is read as an attribute by the
    # library, the benchmark or the acceptance checks, or it is not kept
    read = _loaded_names([*SRC.glob("*.py"), *ROOT.glob("bench/*.py"),
                          ROOT / "tests" / "test_acceptance.py"],
                         attributes_only=True)
    unread = [f"{node.name}.{item.target.id}"
              for node in _nodes(SRC.glob("*.py"))
              if isinstance(node, ast.ClassDef)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and item.target.id not in read]
    assert unread == []


def _passed_arguments(paths) -> dict:
    """Called name -> (keywords passed, most positional arguments) over
    every call in the files; a *args or **kwargs passes them all."""
    passed = {}
    for node in _nodes(paths):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", None)
        keywords, most = passed.get(name, (set(), 0))
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        passed[name] = (keywords | {kw.arg for kw in node.keywords},
                        max(most, float("inf") if starred else len(node.args)))
    return passed


def test_every_defaulted_parameter_is_passed():
    # a default that no call overrides is a constant, not a parameter
    passed = _passed_arguments([*SRC.glob("*.py"), *ROOT.glob("bench/*.py")])
    unpassed = []
    for node in _nodes(SRC.glob("*.py")):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        if positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        keywords, most = passed.get(node.name, (set(), 0))
        defaulted = [(i, name) for i, name in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(float("inf"), a.arg) for a, default
                      in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        unpassed += [f"{node.name}({name})" for i, name in defaulted
                     if name not in keywords and None not in keywords
                     and not i < most]
    assert unpassed == []
