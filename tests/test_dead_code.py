"""Every top-level function and class in ``src/entroflow`` has a user.

A definition is used when its name is referenced outside its own body: by
another top-level statement of a ``src/entroflow`` module (an import in
``__init__`` included), by a script under ``scripts/``, or as a target of
``perfbench/traced_entry.py``'s ``WRAPS``.  Tests do not count, so a helper
that only tests call belongs in the tests.  Dunder names are exempt.  The
files are read as text; nothing under ``perfbench/`` or ``scripts/`` runs
except the ``WRAPS`` list.

Every parameter of a ``def`` in ``src/entroflow`` is also read in its body,
so no caller sets a value that nothing uses.  ``self`` is exempt, and so are
lambdas, which keep the arity of the callable they stand for.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(node) -> set[str]:
    """Every name ``node`` references: bare names, attributes and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
    return names


def _wrapped_names() -> set[str]:
    entry = ROOT / "perfbench" / "traced_entry.py"
    namespace = {"__name__": "traced_entry"}
    exec(compile(entry.read_text(), str(entry), "exec"), namespace)
    return {part for _, attr, *_ in namespace["WRAPS"] for part in attr.split(".")}


def unused_definitions() -> list[str]:
    """``module.name`` of each top-level definition in ``src/entroflow``
    that nothing outside its own body references."""
    statements = []   # (module, top-level statement)
    for path in sorted((ROOT / "src" / "entroflow").glob("*.py")):
        statements += [(path.stem, stmt) for stmt in ast.parse(path.read_text()).body]
    outside = _wrapped_names()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        outside |= _names(ast.parse(path.read_text()))
    referenced = [_names(stmt) for _, stmt in statements]
    unused = []
    for i, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if name not in outside and not any(
                name in refs for j, refs in enumerate(referenced) if j != i):
            unused.append(f"{module}.{name}")
    return unused


def test_every_src_definition_is_used_outside_tests():
    assert unused_definitions() == []


def unread_parameters() -> list[str]:
    """``module.function(parameter)`` of each parameter of a ``def`` in
    ``src/entroflow`` that its body never reads."""
    unread = []
    for path in sorted((ROOT / "src" / "entroflow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            params += [p for p in (a.vararg, a.kwarg) if p]
            read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{path.stem}.{node.name}({p.arg})" for p in params
                       if p.arg != "self" and p.arg not in read]
    return unread


def test_every_src_parameter_is_read():
    assert unread_parameters() == []
