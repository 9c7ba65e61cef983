"""Every definition in ``src/li_qt`` is reachable from a caller that matters.

The walk starts from the command line (``main``, ``run_command`` and the
``_COMMANDS`` table), from the names the acceptance suite uses, and from the
names ``perfbench`` uses, the attribute strings of ``tracing.TARGETS``
included.  It is by name: a definition is reached once its name is referred
to from reached code, a method once its class is reached too, so a method
is kept alive by any reached call of a method of the same name.  Dunder
methods come with their class; annotations refer to nothing.
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "li_qt"
ALLOWED = set()


def _names(node: ast.AST, strings: bool = False) -> set[str]:
    """Identifiers ``node``'s code refers to; with ``strings``, identifier-like strings too."""
    found, stack = set(), [node]
    while stack:
        item = stack.pop()
        if isinstance(item, ast.Name):
            found.add(item.id)
        elif isinstance(item, ast.Attribute):
            found.add(item.attr)
        elif isinstance(item, ast.alias):
            found.add(item.name.split(".")[-1])
        elif strings and isinstance(item, ast.Constant) and isinstance(item.value, str):
            if item.value.isidentifier():
                found.add(item.value)
        stack += [child for field, value in ast.iter_fields(item)
                  if field not in ("annotation", "returns")
                  for child in (value if isinstance(value, list) else [value])
                  if isinstance(child, ast.AST)]
    return found


def _definitions() -> tuple[list[tuple[str, str | None, str, list]], set[str]]:
    """(module, class or None, name, code) of each top-level definition and method,
    and the names that module-level code run at import refers to.

    A class's code is its bases, decorators and body without its methods.
    """
    defs, run_at_import = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                defs.append((path.stem, None, stmt.name, [stmt]))
            elif isinstance(stmt, ast.ClassDef):
                methods = [item for item in stmt.body if isinstance(item, ast.FunctionDef)]
                defs.append((path.stem, None, stmt.name, stmt.bases + stmt.decorator_list
                             + [item for item in stmt.body if item not in methods]))
                defs += [(path.stem, stmt.name, item.name, [item]) for item in methods]
            elif isinstance(stmt, ast.Assign):
                defs += [(path.stem, None, name.id, [stmt.value]) for target in stmt.targets
                         for name in ast.walk(target) if isinstance(name, ast.Name)]
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                run_at_import |= _names(stmt)  # a try block or an expression: it runs
    return defs, run_at_import


def _roots() -> set[str]:
    roots = {"main", "run_command", "_COMMANDS"}
    roots |= _names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots |= _names(ast.parse(path.read_text()), strings=True)
    return roots


def unreached() -> list[str]:
    defs, reached = _definitions()
    reached |= _roots()
    done: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i, (_, owner, name, code) in enumerate(defs):
            if i in done:
                continue
            dunder = name.startswith("__") and name.endswith("__")
            if (owner is None or owner in reached) and (name in reached or owner and dunder):
                done.add(i)
                reached |= set().union(*map(_names, code))
                changed = True
    return [f"{module}.{owner + '.' if owner else ''}{name}"
            for i, (module, owner, name, _) in enumerate(defs)
            if i not in done and name not in ALLOWED]


def test_every_definition_has_a_caller():
    assert unreached() == []


def test_every_allowed_name_is_defined():
    defined = {name for _, _, name, _ in _definitions()[0]}
    assert ALLOWED - defined == set()


def test_every_traced_target_is_found(monkeypatch):
    """``perfbench/tracing.py`` wraps its targets by name, so a renamed or inlined one is
    reported here rather than reading 0 in the per-layer metrics."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == []
