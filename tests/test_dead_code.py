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

Every default of a ``def`` parameter or a dataclass init field in
``src/entroflow`` is taken by some call and overridden by another, counting
only the calls in ``src/``, ``scripts/`` and ``perfbench/traced_entry.py``:
a default that only tests take is a second source of its value.  Calls are
matched by the callee's name, and a ``*args`` or ``**kwargs`` argument counts
as both passing and omitting the parameters it may cover.

No ``src/entroflow`` module but ``grids`` spells a ``.17g`` format, so the
rule for how a double becomes text lives in one module.

``manifest.json`` and ``summary.json`` each occur in exactly one string
constant of ``src/entroflow`` code, docstrings aside, so a run's record is
written in one place.

``inequalities`` imports no ``entroflow`` module but ``grids`` and
``functionals``: an inequality is a property of a free energy and its
minimizer, which its caller passes in, not of any solver.
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


def _defaults(tree, module):
    """``(label, callee name, parameter, index)`` of each defaulted parameter
    of a ``def`` and each defaulted init field of a dataclass in ``tree``;
    ``index`` is the position a call may pass it at, None for keyword-only.
    A method's index skips ``self``, and a class's ``__init__`` is called by
    the class's name."""
    found = []
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    methods = {id(sub): cls for cls in classes for sub in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            cls = methods.get(id(node))
            if cls is not None:
                positional = positional[1:]
            callee = cls.name if cls is not None and node.name == "__init__" else node.name
            first = len(positional) - len(a.defaults)
            found += [(f"{module}.{callee}({p.arg})", callee, p.arg, first + k)
                      for k, p in enumerate(positional[first:])]
            found += [(f"{module}.{callee}({p.arg})", callee, p.arg, None)
                      for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                      and "init=False" not in ast.unparse(stmt)]
            found += [(f"{module}.{node.name}({stmt.target.id})", node.name,
                       stmt.target.id, k)
                      for k, stmt in enumerate(fields) if stmt.value is not None]
    return found


def _passes(call, parameter, index) -> set[bool]:
    """Whether ``call`` passes ``parameter``: {True}, {False} or, through a
    starred argument that may cover it, both."""
    if any(kw.arg == parameter for kw in call.keywords):
        return {True}
    starred = [k for k, arg in enumerate(call.args) if isinstance(arg, ast.Starred)]
    if index is not None and index < (starred[0] if starred else len(call.args)):
        return {True}
    if any(kw.arg is None for kw in call.keywords) or (
            index is not None and starred):
        return {True, False}
    return {False}


def untaken_defaults() -> list[str]:
    """``module.function(parameter)`` (``module.Class(field)``) of each
    default in ``src/entroflow`` that no call outside the tests takes, or
    that no such call overrides."""
    defaults, calls = [], {}
    paths = [*sorted((ROOT / "src" / "entroflow").glob("*.py")),
             *sorted((ROOT / "scripts").glob("*.py")),
             ROOT / "perfbench" / "traced_entry.py"]
    for path in paths:
        tree = ast.parse(path.read_text())
        if path.parent.name == "entroflow":
            defaults += _defaults(tree, path.stem)
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                calls.setdefault(name, []).append(call)
    return [label for label, callee, parameter, index in defaults
            if set().union(*(_passes(call, parameter, index)
                             for call in calls.get(callee, []))) != {True, False}]


def test_every_src_default_is_taken_outside_tests():
    assert untaken_defaults() == []


def float_formats_outside_grids() -> list[str]:
    """``module:line`` of each line of a ``src/entroflow`` module other than
    ``grids`` that holds a ``.17g`` format."""
    return [f"{path.stem}:{number}"
            for path in sorted((ROOT / "src" / "entroflow").glob("*.py"))
            if path.stem != "grids"
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if ".17g" in line]


def test_float_formatting_lives_in_grids():
    assert float_formats_outside_grids() == []


RUN_RECORD = ("manifest.json", "summary.json")


def run_record_spellings() -> dict[str, list[str]]:
    """``module:line`` of each string constant in ``src/entroflow`` code that
    holds a file name of ``RUN_RECORD``, by name; docstrings are not code."""
    found = {name: [] for name in RUN_RECORD}
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted((ROOT / "src" / "entroflow").glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, scopes) and node.body
                      and isinstance(node.body[0], ast.Expr)
                      and isinstance(node.body[0].value, ast.Constant)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings):
                for name in RUN_RECORD:
                    if name in node.value:
                        found[name].append(f"{path.stem}:{node.lineno}")
    return found


def test_run_record_is_written_in_one_place():
    spellings = run_record_spellings()
    assert all(len(lines) == 1 for lines in spellings.values()), spellings


def entroflow_imports(module: str) -> set[str]:
    """The ``entroflow`` modules that ``src/entroflow/<module>.py`` imports,
    relatively or by absolute name."""
    tree = ast.parse((ROOT / "src" / "entroflow" / f"{module}.py").read_text())
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["entroflow" * bool(node.level), node.module]))
            dotted += [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("entroflow.")}


def test_inequalities_import_no_solver():
    assert entroflow_imports("inequalities") <= {"grids", "functionals"}
