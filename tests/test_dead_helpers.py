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
    benchmark is the reason they stay. A name's own definition, its body
    included, is no reader: a message or a recursive call inside it does not
    count. `amalgamate` is exempt: it is one of the paper's operations, and
    ROADMAP item 6 gives it a suite.
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
            own = {(module, n) for n in range(node.lineno, node.end_lineno + 1)}
            if node.name != "amalgamate" and not lines_naming[node.name] - own:
                dead.append(f"{module.stem}:{node.lineno} {node.name}")
    assert not dead, "no reader outside the tests: " + ", ".join(dead)


def test_every_method_has_a_reader_outside_the_tests():
    """Each method of a `src/creature_lab` class is read by an attribute access
    or named in a string (a `getattr` name or a traced layer) in
    `src/creature_lab`, `scripts/*.py` or `bench/*.py`. Dunder methods are
    exempt: Python calls them."""
    modules = sorted((ROOT / "src" / "creature_lab").glob("*.py"))
    readers = modules + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(re.findall(r"\w+", node.value))
    methods = [
        (module, cls, fn)
        for module in modules
        for cls in ast.walk(ast.parse(module.read_text()))
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("__")
    ]
    assert len(methods) > 30
    dead = [f"{module.stem}:{fn.lineno} {cls.name}.{fn.name}" for module, cls, fn in methods
            if fn.name not in read]
    assert not dead, "no reader outside the tests: " + ", ".join(dead)


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """Names a module imports and never loads; `from __future__` is exempt."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for name, line in imported.items() if name not in loaded]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _own_nodes(fn: ast.AST):
    """The nodes of a function's own scope: nested functions, lambdas and
    comprehensions are left out."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(tree: ast.Module) -> list[tuple[int, str]]:
    """Locals a function assigns and no code in it (nested scopes included)
    reads; names declared `nonlocal` or `global` and `_`-names are exempt."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = set()
        stored = {}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                declared.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and not name.id.startswith("_"):
                            stored.setdefault(name.id, name.lineno)
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(line, name) for name, line in stored.items() if name not in read | declared]
    return out


def _unread_parameters(tree: ast.Module) -> list[tuple[int, str]]:
    """Parameters that no code of their function (nested scopes included)
    reads; `self`, `cls` and `_`-names are exempt."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(arg.lineno, f"{fn.name}({arg.arg})") for arg in params
                if arg.arg not in read and arg.arg not in ("self", "cls") and not arg.arg.startswith("_")]
    return out


def test_every_parameter_is_read():
    """No function of `src/creature_lab` takes a parameter it never reads.
    `decide`'s `shape` is exempt: the benchmark's `decide` workload and its
    tests fill that slot positionally."""
    unread = [
        f"{path.stem}:{line} {name}"
        for path in sorted((ROOT / "src" / "creature_lab").glob("*.py"))
        for line, name in _unread_parameters(ast.parse(path.read_text()))
        if (path.stem, name) != ("homogenize", "decide(shape)")
    ]
    assert not unread, "unread parameters: " + ", ".join(unread)


def test_no_unused_import_or_unread_local():
    """No module of `src/creature_lab` or `scripts/` imports a name it never
    uses or assigns a local that is never read. `__init__.py` re-exports."""
    paths = sorted((ROOT / "src" / "creature_lab").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        sites = _unread_locals(tree)
        if path.name != "__init__.py":
            sites += _unused_imports(tree)
        unused += [f"{path.relative_to(ROOT)}:{line} {name}" for line, name in sorted(sites)]
    assert not unused, "unused: " + ", ".join(unused)
