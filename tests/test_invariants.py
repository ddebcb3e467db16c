"""Invariant failures must survive ``python -O``.

``assert`` statements are stripped under -O, and a bare AssertionError is
reported as a traceback instead of the internal-error exit code; the package
raises its own InternalError subclasses instead.
"""

import ast
from pathlib import Path

import globalloops

SOURCES = sorted(Path(globalloops.__file__).parent.glob("*.py"))


def _raises_assertion_error(node):
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_or_assertion_errors():
    assert {p.name for p in SOURCES} >= {"oracle.py", "surface.py", "cli.py"}
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None
                and _raises_assertion_error(node)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
