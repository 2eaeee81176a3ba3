import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_helper_has_a_reader_outside_the_tests():
    """Each top-level function and class of `src/creature_lab` is named on
    another line of the package, `scripts/*.py` or `bench/*.py`.

    `__init__.py` only re-exports and the tests only exercise, so neither
    counts as a reader. `cmd_*` functions are exempt: `cli.main` looks them up
    by name, and `test_every_subcommand_has_a_cmd_function` covers them.
    `halve_below` and `default_shape` pass because `bench/` names them; the
    benchmark is the reason they stay.
    """
    modules = [p for p in sorted((ROOT / "src" / "creature_lab").glob("*.py")) if p.name != "__init__.py"]
    readers = modules + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    lines_naming = collections.defaultdict(set)
    for path in readers:
        for n, line in enumerate(path.read_text().splitlines(), 1):
            for word in re.findall(r"\w+", line):
                lines_naming[word].add((path, n))
    dead = []
    for module in modules:
        for node in ast.parse(module.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("cmd_"):
                continue
            if not lines_naming[node.name] - {(module, node.lineno)}:
                dead.append(f"{module.stem}:{node.lineno} {node.name}")
    assert not dead, "no reader outside the tests: " + ", ".join(dead)
