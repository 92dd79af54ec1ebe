"""Every function, class and method in ``src/entroflow`` has a user.

A definition is used when its name is referenced outside its own body: by
another statement of a ``src/entroflow`` module (a sibling method or class
attribute included), by a script under ``scripts/``, or as a target of
``perfbench/traced_entry.py``'s ``WRAPS``.  Tests do not count, so a helper
that only tests call belongs in the tests; nor does ``__init__``, whose
imports would otherwise count as uses of what they import.  Top-level
definitions and the methods of top-level classes are checked; dunder names
are exempt.  The files are read as text; nothing under ``perfbench/`` or
``scripts/`` runs except the ``WRAPS`` list.

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
    """``module.name`` (``module.Class.name`` for a method) of each
    definition in ``src/entroflow`` that nothing outside its own body
    references."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    units = []         # node lists whose names count as uses: one per statement
    definitions = []   # (qualified name, name, indices of its own units)
    for path in sorted((ROOT / "src" / "entroflow").glob("*.py")):
        if path.stem == "__init__":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                first = len(units)
                units.append(stmt.decorator_list + stmt.bases + stmt.keywords)
                units += [[sub] for sub in stmt.body]
                definitions.append((f"{path.stem}.{stmt.name}", stmt.name,
                                    range(first, len(units))))
                definitions += [(f"{path.stem}.{stmt.name}.{sub.name}", sub.name,
                                 [first + 1 + k])
                                for k, sub in enumerate(stmt.body)
                                if isinstance(sub, functions)]
            else:
                if isinstance(stmt, functions):
                    definitions.append((f"{path.stem}.{stmt.name}", stmt.name,
                                        [len(units)]))
                units.append([stmt])
    outside = _wrapped_names()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        outside |= _names(ast.parse(path.read_text()))
    referenced = [set().union(*map(_names, nodes)) for nodes in units]
    return [qualified for qualified, name, own in definitions
            if not (name.startswith("__") and name.endswith("__"))
            and name not in outside
            and not any(name in refs for j, refs in enumerate(referenced)
                        if j not in own)]


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
