"""Every public function and class of the program has a caller outside the tests.

A name counts as called when a ``Name`` or ``Attribute`` node of the
program (``src/lsgt``), of ``scripts/`` or of the benchmark's non-test
modules (``perfbench/*.py``) refers to it.  The library surface in
``lsgt.__all__`` is exempt: users call it.  An entry point that only tests
call would keep a second copy of a kernel's arithmetic that can drift from
the one the sweep runs.
"""

import ast
from pathlib import Path

import lsgt

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src" / "lsgt").glob("*.py"))
SEARCHED = PROGRAM + sorted((ROOT / "scripts").glob("*.py")) + [
    p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")
]


def test_every_public_definition_has_a_program_caller():
    referenced = set()
    for path in SEARCHED:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = [
        f"{path.stem}.{node.name}"
        for path in PROGRAM
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
        and node.name not in lsgt.__all__
    ]
    assert uncalled == [], f"public definitions with no caller outside the tests: {uncalled}"
