"""The benchmark's own tests: each check catches a broken program.

Run from the root of the repository:  python3 -m pytest bench/tests -q
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path


BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def patch_where_bound(monkeypatch, original, replacement):
    """Replace `original` in every creature_lab module that binds it."""
    for name, mod in list(sys.modules.items()):
        if name == "creature_lab" or name.startswith("creature_lab."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, replacement)


def run_rounds(w, rounds):
    tally = run.Tally()
    for r in range(rounds):
        tally.run(w.round(r))
    return tally


def test_norm_sweep_catches_norm0_without_beta_filter(monkeypatch):
    w = workloads.build("norm-sweep", 7)
    creature = w.p.creature
    src = inspect.getsource(creature.norm0)
    original, mutated = "(sz << k) <= n2i and alpha_ok", "alpha_ok"
    assert src.count(original) == 1
    namespace = dict(vars(creature))
    exec(src.replace(original, mutated), namespace)
    assert run_rounds(w, 3).failed == 0
    patch_where_bound(monkeypatch, creature.norm0, namespace["norm0"])
    tally = run_rounds(w, 30)
    assert tally.failed > 0
    assert tally.unexpected and all("oracle" in u or "closed form" in u for u in tally.unexpected)


def test_decide_catches_found_on_separating_labelling(monkeypatch):
    w = workloads.build("decide", 7)
    hom = w.p.homogenize
    real = hom.decide

    def always_found(p, label, m, tree, params, shape, max_level=None):
        res = real(p, label, m, tree, params, shape, max_level=max_level)
        if res.found:
            return res
        leaves = {leaf: label.values[leaf] for leaf in p.leaves()}
        return hom.DecideResult(True, p, p.depth, leaves, exhaustive=True, searched=res.searched)

    monkeypatch.setattr(hom, "decide", always_found)
    tally = run_rounds(w, 1)
    separating = sum(1 for family, _, _ in w.MIX if family == "separating")
    assert tally.failed == separating
    assert all("separating" in u for u in tally.unexpected)


def test_decide_catches_table_that_disagrees_with_a_cone(monkeypatch):
    w = workloads.build("decide", 7)
    hom = w.p.homogenize
    real = hom.decide

    def wrong_table(*args, **kwargs):
        res = real(*args, **kwargs)
        if res.found:
            first = min(res.table, key=lambda fn: fn.pairs)
            res.table = {**res.table, first: res.table[first] + 1}
        return res

    monkeypatch.setattr(hom, "decide", wrong_table)
    tally = run_rounds(w, 1)
    planted = sum(1 for family, _, _ in w.MIX if family == "planted")
    assert tally.failed == planted
    assert all("table says" in u for u in tally.unexpected)


def test_cli_catches_a_wrong_norm(monkeypatch):
    w = workloads.build("cli", 7)
    clean = run_rounds(w, 1)
    assert clean.unexpected == []
    assert clean.failed <= 3  # the three malformed-input operations
    real = w._run

    def wrong_norm(argv):
        code, stdout, stderr = real(argv)
        if argv[0] == "norm" and code == 0:
            doc = json.loads(stdout)
            doc["norms"][0]["norm0"] += 1
            stdout = workloads.canonical(doc)
        return code, stdout, stderr

    monkeypatch.setattr(w, "_run", wrong_norm)
    tally = run_rounds(w, 1)
    assert tally.failed == clean.failed + 2
    assert len(tally.unexpected) == 2 and all(u.startswith("norm:") for u in tally.unexpected)


def test_diagonal_closed_form_agrees_with_oracle():
    """Wherever the oracle's budget allows: the norm-sweep diagonal creatures
    and every sub-creature of the decide fragments' creatures."""
    w = workloads.build("norm-sweep", 3)
    p = w.p
    checked = 0
    for g, groups in w.diagonals:
        specs = [spec for group in groups for spec in group]
        for ac, members, band in specs[::25]:
            c = p.generators.diagonal_creature(0, p.specfn.EMPTY_FN, ac, members, band, g, w.tree)
            want = workloads.diagonal_norm0(members, len(ac), g.n1[0], g.n2[0])
            assert p.oracle.oracle_norm0(c, w.tree, g) == want, c
            checked += 1
    d = workloads.Decide(p, 3)
    seen = set()
    for key, (frag, tree, g) in d.frags.items():
        for fn in frag.internal():
            i = frag.level_of(fn)
            kids = frag.children(fn)
            for size in range(2, len(kids) + 1):
                if (key, i, size) in seen:  # same shape as a creature already checked
                    continue
                seen.add((key, i, size))
                c = p.creature.SimpleCreature.make(i, fn, kids[:size])
                want = workloads.diagonal_norm0(size, len(kids[0]), g.n1[i], g.n2[i])
                try:
                    got = p.oracle.oracle_norm0(c, tree, g)
                except p.oracle.BudgetError:
                    continue
                assert got == want, c
                checked += 1
    assert checked > 300


def test_traced_call_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        _, tally, tracer = run.trace_workload(workloads, tracing, "decide", 5, 1)
        assert tally.unexpected == []
        counts.append({f: rec["calls"] for f, rec in tracer.summary().items()})
    assert counts[0] == counts[1]
    assert counts[0]["forcing.validate_condition"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 201)]) == (90.0, 180.0)
    assert run.tail([float(x) for x in range(1, 2001)], 90.0) == (90.0, 1800.0)
    assert run.tail([float(x) for x in range(1, 100)], 99.0)[0] == 75.0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_scale_cancels_a_slower_host():
    import speed

    fast, slow = speed.Speed(), speed.Speed()
    fast.samples.extend([1e-4] * 5)
    slow.samples.extend([2e-4] * 5)
    # an operation that takes twice as long on a host half as fast
    assert abs(0.010 * fast.scale() - 0.020 * slow.scale()) < 1e-12
    s = speed.Speed()
    s.after(speed.EVERY_S * 4.5)
    assert len(s.samples) == 4 and s.owed < speed.EVERY_S
