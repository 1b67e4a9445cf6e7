#!/usr/bin/env python
"""CI hygiene gate: every ``def`` / ``class`` / constant under ``src/``
has a user.

Ruff's F401/F841 see unused imports and locals, not a public function,
method, class or constant that nothing reads any more.  This gate
counts, for each name defined under ``src/`` by a ``def`` or ``class``
statement anywhere, or by an assignment to an UPPER_CASE name directly
in a module or class body, its whole-word occurrences in every ``*.py``
file under ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` and
``tools/``.  A name that occurs no more often than it is defined is
referenced only by its own definitions: dead.

Dunder methods (``__init__``, ``__call__``, ...) are skipped, since
Python calls them by protocol rather than by name.  The count is by
name, not by scope, so a dead method that shares its name with a live
one passes; the gate errs towards silence, never towards a false alarm.

    python tools/check_dead_defs.py

Exit code 0 = every definition is referenced; 1 = at least one is not,
each reported on its own ``file:line`` line.
"""

import ast
import os
import re
import sys
from collections import Counter

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PY_ROOTS = ("src", "tests", "benchmarks", "examples", "tools")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_WORD = re.compile(r"\w+")
_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _py_files(roots):
    for root in roots:
        for directory, _, names in os.walk(os.path.join(REPO_ROOT, root)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def _constants(body):
    """``(name, line)`` of each UPPER_CASE name a statement of ``body``
    assigns."""
    for statement in body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        else:
            continue
        for target in targets:
            names = target.elts if isinstance(target, ast.Tuple) else [target]
            for name in names:
                if isinstance(name, ast.Name) and _CONSTANT.fullmatch(name.id):
                    yield name.id, statement.lineno


def _definitions():
    """``[(name, file, line)]`` for every def/class, and every module- or
    class-level UPPER_CASE constant, under ``src/``."""
    found = []
    for path in _py_files(("src",)):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, _DEFS) and not node.name.startswith("__"):
                found.append((node.name, path, node.lineno))
            if isinstance(node, (ast.Module, ast.ClassDef)):
                found.extend((name, path, line) for name, line in _constants(node.body))
    return found


def _word_counts() -> Counter:
    counts = Counter()
    for path in _py_files(_PY_ROOTS):
        with open(path, encoding="utf-8") as f:
            counts.update(_WORD.findall(f.read()))
    return counts


def main() -> int:
    definitions = _definitions()
    defined = Counter(name for name, _, _ in definitions)
    words = _word_counts()
    dead = [
        (name, path, line)
        for name, path, line in definitions
        if words[name] <= defined[name]
    ]
    if dead:
        print(f"dead-defs FAILED ({len(dead)} unreferenced definition(s)):")
        for name, path, line in dead:
            print(f"  - {os.path.relpath(path, REPO_ROOT)}:{line}: {name}")
        return 1
    print(f"dead-defs OK: {len(definitions)} definitions, each referenced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
