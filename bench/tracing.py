"""Spans around the program's public functions, recorded from outside.

`Tracer.install` wraps each of its functions (given as "module.function")
wherever it is bound: in its own module, in every creature_lab module that
from-imports it, and in the package namespace.  A span is (function, start,
end, parent span, inside a timed operation); spans are kept in memory in flat
arrays and written out by `Tracer.write`.  A function's self time is its
spans' durations minus the part covered by their direct child spans (spans
nest, one thread).
"""

from __future__ import annotations

import gzip
import os
import statistics
import subprocess
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


def _tree_key(tree):
    return tree.width, tree.nodes, tuple(sorted(tree.parent.items()))


def _norm0_key(args, kwargs):
    c, tree, params = args[:3]
    return c, _tree_key(tree), params


def _fragment_key(args, kwargs):
    p, tree, params = args[:3]
    norm_floor = args[3] if len(args) > 3 else kwargs.get("norm_floor")
    nodes = tuple((fn, p.parent[fn], p.klabel[fn]) for fn in p.fns)
    return nodes, p.coverage, _tree_key(tree), params, tuple(norm_floor or ())


# functions whose distinct arguments are counted, with the key of one call
DISTINCT = {"creature.norm0": _norm0_key, "forcing.validate_condition": _fragment_key}


class Tracer:
    def __init__(self, functions: list[str]):
        self.functions = functions
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.fn = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.in_op = array("b")
        self.stack: list[int] = []
        self.op_depth = 0
        self.keys: dict[str, set] = defaultdict(set)
        self.op_calls: dict[str, int] = defaultdict(int)
        self.searched = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        mods = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "creature_lab" or name.startswith("creature_lab."))
        }
        for qual in self.functions:
            mod_name, attr = qual.split(".")
            home = mods.get("creature_lab." + mod_name)
            if home is None:
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(qual, original)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, val))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, val in reversed(self._restore):
            setattr(mod, key, val)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, qual: str, original):
        ident = self.name_id.setdefault(qual, len(self.names))
        if ident == len(self.names):
            self.names.append(qual)
        key_of = DISTINCT.get(qual)
        is_decide = qual == "homogenize.decide"
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.fn)
            tracer.fn.append(ident)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.in_op.append(1 if tracer.op_depth else 0)
            tracer.start.append(0)
            tracer.end.append(0)
            if key_of is not None and tracer.op_depth:
                tracer.keys[qual].add(key_of(args, kwargs))
                tracer.op_calls[qual] += 1
            tracer.stack.append(idx)
            tracer.start[idx] = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter_ns()
                tracer.stack.pop()
            if is_decide:
                tracer.searched += result.searched
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, self_ms and (for DISTINCT functions) distinct_share."""
        n = len(self.fn)
        child_ns = [0] * n
        for idx in range(n):
            par = self.parent[idx]
            if par >= 0:
                child_ns[par] += self.end[idx] - self.start[idx]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_ms": 0.0} for name in self.names
        }
        for idx in range(n):
            rec = out[self.names[self.fn[idx]]]
            rec["calls"] += 1
            rec["self_ms"] += (self.end[idx] - self.start[idx] - child_ns[idx]) / 1e6
        for qual in DISTINCT:
            if qual in out:
                calls = self.op_calls[qual]
                out[qual]["distinct_share"] = len(self.keys[qual]) / calls if calls else 0.0
        if "homogenize.decide" in out:
            out["homogenize.decide"]["subfragments"] = self.searched
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tfunction\tstart_ns\tend_ns\tparent\tin_op\n")
            for idx in range(len(self.fn)):
                fh.write(
                    f"{idx}\t{self.names[self.fn[idx]]}\t{self.start[idx]}\t{self.end[idx]}"
                    f"\t{self.parent[idx]}\t{self.in_op[idx]}\n"
                )


def import_times(src: Path, modules: list[str], repeats: int = 5) -> dict[str, float]:
    """Median cumulative import time (ms) of each module, from -X importtime."""
    samples: dict[str, list[float]] = {m: [] for m in modules}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import creature_lab.cli"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120, check=True,
        )
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1000)
    return {m: statistics.median(v) for m, v in samples.items()}
