"""Report which statement lines of `src/creature_lab` a pytest run never reaches.

    python scripts/line_reach.py                      # the Tier-1 run, minus two slow tests
    python scripts/line_reach.py tests/test_params.py # any pytest arguments

pytest runs in this process under a `sys.settrace` hook that records each
line executed in a package module.  A statement line is the first line of an
AST statement; docstrings, `def`/`class` lines, imports and `global`/
`nonlocal` declarations are not counted.  stdout gets one JSON object, keyed
by module file name, with the statement-line count and the unreached lines;
pytest's own output goes to stderr.  Paths are relative to the repository
root, where pytest runs.
"""

import ast
import contextlib
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "creature_lab"

# Tier-1, without the oracle's population sweep and the 40-process memo test
DEFAULT_ARGS = [
    "-q",
    "--continue-on-collection-errors",
    "--deselect=tests/test_acceptance.py::test_criterion_1_oracle_equivalence",
    "--deselect=tests/test_cli.py::test_cli_output_identical_with_warm_and_cold_memo",
]

_UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
              ast.Global, ast.Nonlocal)


def statement_lines(source: str) -> set[int]:
    """First lines of the statements that count."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _UNCOUNTED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        out.add(node.lineno)
    return out


def trace_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the package lines executed, by file path."""
    import pytest

    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines = reached.setdefault(path, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    # console_main reads its arguments from sys.argv
    sys.argv = ["pytest", *args]
    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.console_main()
    finally:
        sys.settrace(None)
    return int(code), reached


def report(reached: dict[str, set[int]]) -> dict:
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stmts = statement_lines(path.read_text())
        out[path.name] = {
            "statements": len(stmts),
            "unreached": sorted(stmts - reached.get(str(path), set())),
        }
    return out


if __name__ == "__main__":
    os.chdir(ROOT)
    # the package, for this process and for the CLI processes the tests start
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code, reached = trace_run(sys.argv[1:] or DEFAULT_ARGS)
    print(json.dumps(report(reached), indent=1))
    sys.exit(code)
