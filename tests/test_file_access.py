"""Every file the package reads or writes goes through a few shared functions
(see `mtnlu.corpus`), so each has one rule for encoding, line ends and bad
input.  This test finds every call that touches a file in the source, and
every `global` statement: what one call leaves for the next is passed as an
argument, not kept in module state.  It also finds every imported name that
a module never uses, and every `_`-prefixed name a module imports from
another; no linter is required to run the tests, so this is the lint for
unused and private imports."""

import ast
from pathlib import Path

import mtnlu

SRC = Path(mtnlu.__file__).parent
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}

# (module, function) that may call FILE_CALLS
ALLOWED = {
    ("corpus.py", "text_lines"),  # reads every line-format file and the stage report
    ("corpus.py", "read_json"),  # reads the config and the model files
    ("corpus.py", "write_lines"),  # writes every text file, the model files too
}


def file_calls() -> list[tuple[str, str, str, int]]:
    """(module, innermost enclosing function, call, line) of each file call."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        # breadth first, so a nested function overwrites the one around it
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner[inner] = node.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in FILE_CALLS:
                found.append((path.relative_to(SRC).as_posix(), owner.get(node, "<module>"),
                              name, node.lineno))
    return found


def test_files_are_read_and_written_only_by_the_shared_functions():
    assert [c for c in file_calls() if c[:2] not in ALLOWED] == []


def test_every_allowed_function_still_touches_files():
    assert {c[:2] for c in file_calls()} == ALLOWED


def test_no_function_rebinds_a_module_global():
    found = [(path.relative_to(SRC).as_posix(), node.lineno)
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []


def unused_imports() -> list[tuple[str, str]]:
    """(module, name) of each name a module imports and never uses; the
    `__init__.py` modules are left out, since they import to re-export."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [(path.relative_to(SRC).as_posix(), name)
                  for name in imported if name not in used]
    return found


def test_every_imported_name_is_used():
    assert unused_imports() == []


def private_imports() -> list[tuple[str, str]]:
    """(module, name) of each `_`-prefixed name a module imports from another."""
    return [(path.relative_to(SRC).as_posix(), alias.name)
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name():
    assert private_imports() == []
