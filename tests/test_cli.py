import json
import pathlib
import subprocess
import sys

import pytest

FIXDIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "creature_lab", *args],
        capture_output=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr.decode()}")
    return proc


def test_usage_error_exit_code():
    proc = run_cli("frobnicate", check=False)
    assert proc.returncode == 64
    proc2 = run_cli(check=False)
    assert proc2.returncode == 64


def test_domain_error_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    proc = run_cli("norm", "--in", str(missing), check=False)
    assert proc.returncode == 1


def test_gen_tree_deterministic():
    a = run_cli("gen-tree", "--width", "4", "--height", "3", "--seed", "9")
    b = run_cli("gen-tree", "--width", "4", "--height", "3", "--seed", "9")
    assert a.stdout == b.stdout


def test_canonical_roundtrip(tmp_path):
    a = run_cli("gen-params", "--growth", "cond2")
    doc = json.loads(a.stdout)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    # parse-then-emit is the identity on the canonical form
    reparsed = json.loads(path.read_text())
    emitted = json.dumps(reparsed, sort_keys=True, separators=(",", ":")) + "\n"
    assert emitted.encode() == a.stdout


def test_norm_fixture_stable():
    a = run_cli("norm", "--in", str(FIXDIR / "creatures.json"))
    b = run_cli("norm", "--in", str(FIXDIR / "creatures.json"))
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert all(entry["valid"] for entry in doc["norms"])


def test_check_condition_fixture():
    proc = run_cli("check-condition", "--in", str(FIXDIR / "conditions.json"))
    doc = json.loads(proc.stdout)
    assert all(entry["ok"] for entry in doc["conditions"])


def test_check_leq_identity(tmp_path):
    proc = run_cli(
        "check-leq",
        "--p", str(FIXDIR / "conditions.json"),
        "--q", str(FIXDIR / "conditions.json"),
    )
    doc = json.loads(proc.stdout)
    assert doc["leq"] == "yes" and doc["identity"] is True


def test_enum_spec(tmp_path):
    tree_doc = json.loads(run_cli("gen-tree", "--width", "2", "--height", "2", "--seed", "1").stdout)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tree_doc))
    nodes = [str(n) for n in tree_doc["tree"]["nodes"][:2]]
    proc = run_cli("enum-spec", "--in", str(path), "--nodes", *nodes, "--bound", "2")
    doc = json.loads(proc.stdout)
    assert len(doc["specfns"]) >= 2


def test_apply_op_halve(tmp_path):
    proc = run_cli(
        "apply-op", "--op", "shrink", "--k", "1",
        "--in", str(FIXDIR / "creatures.json"), "--index", "3",
    )
    doc = json.loads(proc.stdout)
    assert doc["result"]["bound"] == 1


def test_propcheck_exit_codes():
    ok = run_cli("propcheck", "--suite", "growth", "--count", "10", "--seed", "2")
    assert ok.returncode == 0
    bad = run_cli("propcheck", "--suite", "bigness", "--count", "60", "--seed", "11", check=False)
    assert bad.returncode == 1  # documented claim defect surfaces here


def test_propcheck_budget_exit_code():
    import os

    env = dict(os.environ, CREATURE_LAB_BUDGET="1")
    proc = subprocess.run(
        [sys.executable, "-m", "creature_lab", "propcheck",
         "--suite", "norm-oracle", "--count", "10", "--seed", "1"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["status"] == "budget"


def test_propcheck_bytes_identical_across_jobs():
    a = run_cli("propcheck", "--suite", "shrink", "--count", "16", "--seed", "3", "--jobs", "1")
    b = run_cli("propcheck", "--suite", "shrink", "--count", "16", "--seed", "3", "--jobs", "2")
    assert a.stdout == b.stdout


def test_decide_cli():
    proc = run_cli("decide", "--p", str(FIXDIR / "conditions.json"), "--m", "0", check=False)
    assert proc.returncode in (0, 1)
    doc = json.loads(proc.stdout)
    assert doc["decide"] in ("found", "not-found")


def test_purify_cli():
    proc = run_cli("purify", "--p", str(FIXDIR / "conditions.json"), "--kstar", "0")
    doc = json.loads(proc.stdout)
    assert doc["alternatives"]


def test_report_subcommand(tmp_path):
    rep = run_cli("propcheck", "--suite", "growth", "--count", "5", "--seed", "1")
    path = tmp_path / "rep.json"
    path.write_bytes(rep.stdout)
    out = run_cli("report", "--in", str(path))
    assert b"suite growth: pass" in out.stdout


def _assert_clean_failure(proc, code, needle):
    stderr = proc.stderr.decode()
    assert proc.returncode == code, stderr
    assert "Traceback" not in stderr
    assert needle in stderr.lower(), stderr


def test_apply_op_index_past_the_end():
    proc = run_cli(
        "apply-op", "--op", "halve", "--in", str(FIXDIR / "creatures.json"), "--index", "5",
        check=False,
    )
    _assert_clean_failure(proc, 1, "index 5")


def test_apply_op_rebase_that_would_drop_members_fails(tmp_path, capsys):
    """rebase refuses a member without a spec union with etastar instead of
    dropping it and printing a bound that the result's norm0 misses."""
    from creature_lab import fixtures as fx
    from creature_lab.cli import main
    from creature_lab.creature import Creature, SimpleCreature
    from creature_lab.generators import chain_antichain_tree, profile
    from creature_lab.specfn import SpecFn

    members = [{0: 4, 4: 0}, {4: 0, 5: 2}, {4: 0, 6: 1}, {4: 0, 7: 3}]
    c = SimpleCreature.make(1, SpecFn.make({4: 0}), [SpecFn.make(m) for m in members])
    doc = fx.empty_document()
    doc["tree"] = fx.tree_to_fixture(chain_antichain_tree())
    doc["params"] = fx.params_to_fixture(profile("ops"))
    doc["creatures"] = [fx.creature_to_fixture(Creature(c, 1))]
    doc["specfns"] = [fx.specfn_to_fixture(SpecFn.make({4: 0, 6: 4}))]
    path = tmp_path / "rebase.json"
    fx.save_document(str(path), doc)
    assert main(["apply-op", "--op", "rebase", "--in", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: clause (c): member {0:4,4:0} has no union with etastar: "
        "comparable nodes share a value\n"
    )


def test_tree_without_edges_names_the_field(tmp_path):
    path = tmp_path / "no-edges.json"
    path.write_text(json.dumps({"tree": {"width": 3}}))
    _assert_clean_failure(run_cli("norm", "--in", str(path), check=False), 1, "'edges'")


def test_file_that_is_not_json(tmp_path):
    path = tmp_path / "not-json.json"
    path.write_text("creatures: none\n")
    _assert_clean_failure(run_cli("norm", "--in", str(path), check=False), 1, "not valid json")


def test_malformed_budget_is_a_usage_error():
    import os

    env = dict(os.environ, CREATURE_LAB_BUDGET="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "creature_lab", "propcheck",
         "--suite", "norm-oracle", "--count", "3", "--seed", "1"],
        capture_output=True,
        env=env,
    )
    _assert_clean_failure(proc, 64, "creature_lab_budget")
    assert proc.stdout == b""


def test_jobs_zero_is_a_usage_error():
    proc = run_cli("propcheck", "--suite", "growth", "--count", "3", "--seed", "1", "--jobs", "0",
                   check=False)
    _assert_clean_failure(proc, 64, "--jobs")


def _fixture_commands():
    creatures, conditions = str(FIXDIR / "creatures.json"), str(FIXDIR / "conditions.json")
    cmds = [
        ["gen-tree", "--width", "4", "--height", "3", "--seed", "7"],
        ["gen-params", "--growth", "cond2"],
        ["enum-spec", "--in", creatures, "--nodes", "0", "3", "--bound", "2"],
        ["norm", "--in", creatures],
        ["check-condition", "--in", conditions],
        ["check-leq", "--p", conditions, "--q", conditions],
        ["purify", "--p", conditions, "--kstar", "0"],
        ["decide", "--p", conditions, "--m", "0"],
        ["propcheck", "--suite", "decide", "--count", "4", "--seed", "5"],
        ["report", "--in", creatures],
    ]
    for op in ("glue", "fill", "rebase", "shrink", "split", "halve"):
        for index in range(5):
            cmds.append(["apply-op", "--op", op, "--in", creatures, "--index", str(index)])
    return cmds


def test_cli_output_identical_with_warm_and_cold_memo():
    """Each subcommand twice in one process, then once in a fresh process."""
    script = (
        "import contextlib, io, json, sys\n"
        "from creature_lab.cli import main\n"
        "outs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    for _ in range(2):\n"
        "        buf = io.StringIO()\n"
        "        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):\n"
        "            code = main(argv)\n"
        "        outs.append([code, buf.getvalue()])\n"
        "json.dump(outs, sys.stdout)\n"
    )
    cmds = _fixture_commands()
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(cmds)], capture_output=True, check=True
    )
    warm = json.loads(proc.stdout)
    for j, argv in enumerate(cmds):
        first, second = warm[2 * j], warm[2 * j + 1]
        cold = run_cli(*argv, check=False)
        assert first == second, argv
        assert first[1].encode() == cold.stdout and first[0] == cold.returncode, argv


def _mutations(doc, path=()):
    """Documents with one field of `doc` deleted or replaced by a wrong type.

    Every object key is mutated; of a list, the first and the last element.
    """
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
        items = items[:1] + items[1:][-1:]
    else:
        return
    for key, val in items:
        for bad in ("delete", "x", None, [["x"]]):
            if bad == "delete" and isinstance(doc, list):
                continue
            yield path + (key,), bad
        yield from _mutations(val, path + (key,))


def _apply(doc, path, bad):
    out = json.loads(json.dumps(doc))
    target = out
    for key in path[:-1]:
        target = target[key]
    if bad == "delete":
        del target[path[-1]]
    else:
        target[path[-1]] = bad
    return out


def test_mutated_fixtures_fail_cleanly(tmp_path, capsys):
    """One broken field of a shipped fixture: exit 0 or 1, never an exception."""
    from creature_lab.cli import main

    commands = {
        "creatures.json": [["norm", "--in"], ["apply-op", "--op", "halve", "--in"]],
        "conditions.json": [["check-condition", "--in"], ["decide", "--m", "0", "--p"]],
    }
    tried = 0
    for name, argvs in commands.items():
        doc = json.loads((FIXDIR / name).read_text())
        for path, bad in _mutations(doc):
            bad_file = tmp_path / name
            bad_file.write_text(json.dumps(_apply(doc, path, bad)))
            for argv in argvs:
                code = main([*argv, str(bad_file)])
                assert code in (0, 1), (name, path, bad, argv)
                tried += 1
    capsys.readouterr()
    assert tried > 500



def _not_a_condition(doc: dict, broken: str) -> dict:
    """conditions.json whose first fragment is not a condition under its params."""
    out = json.loads(json.dumps(doc))
    if broken == "too-few-kinds":
        out["params"] = {"imax": 0, "n1": [4], "n2": [4], "n3": [8]}
    else:
        out["conditions"][0]["nodes"][0]["klabel"] = 50
    return out


_NAMED = {
    "too-few-kinds": "(iv) kinds in range: deepest kind 2 exceeds imax = 0",
    "root-klabel-50": "(iv) creatures and labels: klabel({}) exceeds the half-norm",
}
# (id, argv with BAD for the broken document and GOOD for the shipped one,
# the flag that stderr names, broken documents); check-leq validates both
# fragments against --p's tree and params, so the too-few-kinds document is a
# condition there when it comes as --q alone
_REJECTING = [
    ("decide", ["decide", "--m", "0", "--p", "BAD"], "", _NAMED),
    ("decide-max-level-1", ["decide", "--m", "0", "--max-level", "1", "--p", "BAD"], "", _NAMED),
    ("purify", ["purify", "--p", "BAD"], "", _NAMED),
    ("check-leq", ["check-leq", "--p", "BAD", "--q", "BAD"], "--p: ", _NAMED),
    ("check-leq-q", ["check-leq", "--p", "GOOD", "--q", "BAD"], "--q: ", ["root-klabel-50"]),
]


@pytest.mark.parametrize(
    "argv, flag, broken",
    [
        pytest.param(argv, flag, broken, id=f"{name}-{broken}")
        for name, argv, flag, brokens in _REJECTING
        for broken in brokens
    ],
)
def test_fragment_that_is_not_a_condition_is_rejected(tmp_path, capsys, argv, flag, broken):
    from creature_lab.cli import main

    path = tmp_path / "conditions.json"
    path.write_text(json.dumps(_not_a_condition(json.loads((FIXDIR / "conditions.json").read_text()), broken)))
    files = {"BAD": str(path), "GOOD": str(FIXDIR / "conditions.json")}
    assert main([files.get(a, a) for a in argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {flag}conditions[0] is not a condition: {_NAMED[broken]}\n"
