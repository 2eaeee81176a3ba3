import hashlib
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


def test_importing_the_cli_leaves_the_process_pool_out():
    # run_suite imports the pool only when --jobs asks for workers
    names = ["concurrent.futures", "multiprocessing", "creature_lab.verify"]
    script = f"import sys, creature_lab.cli; print([m in sys.modules for m in {names!r}])"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True, text=True)
    assert proc.stdout.strip() == "[False, False, True]"


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


_JOBS_ZERO = ["propcheck", "--suite", "growth", "--count", "3", "--seed", "1", "--jobs", "0"]


def _in_process(argv, capsys):
    from creature_lab.cli import main

    code = main(argv)
    out = capsys.readouterr()
    return code, out.out.encode(), out.err.encode()


# sha256 of exit code, stdout and stderr over `_fixture_commands()`, one per
# subcommand (per op for apply-op), and of `--help` at 80 columns; taken
# before `apply-op` lost its per-op result branches, except `split`'s, taken
# once `apply-op` validated its result (`--index 1` keeps one member and exits 1)
_CLI_GOLDEN = {
    "gen-tree": "32780ae212a9dd843830f25544c6aff9a5991aa154815ded885699aa9b966357",
    "gen-params": "3d0626ee3cd9f1312c9ab008ed1d2850fa5b311559b099d66db606298615c8e8",
    "enum-spec": "80c4e31eff0c443556d6c07044cc57da939141ee7a7261ed07d06a62be9dcf97",
    "norm": "b1176b3d586dc47fee7571b01f60743f84fa5f700923a745aea35790e600448b",
    "check-condition": "f5421b109f375d10fbe9d1d799572925b94b655bb0674e11d34b8d27d5bba959",
    "check-leq": "5cc9baa02030c314eaa25bcb7676eb911ce2670c98b2a2f1d59b8072e2a5f284",
    "purify": "f60fffca3b25f44fa0854898626e4329a6df5ca1b4726c36d06c3089666f1398",
    "decide": "0d222a3b7cd070d9728f9a7a0a44d012bfa43f4f070c0c3926b2ca0d8043ca4c",
    "propcheck": "83d171c955dd0eea45a61f5b40fb1d2eafb44bb421ecdca945aca1814136aa55",
    "report": "403199644e51917d1ac2139b8f1e7ade8bcf6c12fec5300bf72a25288cd00a30",
    "apply-op --op glue": "29bac02c3d8c80ea8c55f747145c8ea5219e592888508177f697ab3b0c7ca39c",
    "apply-op --op fill": "57f14a52e1d9399f364094e04a3531d80850abf2b0f30c1ca13ec80a211f952b",
    "apply-op --op rebase": "ff32255895698926b6e5843d3e7e84767ba08a1f2ef085d2bcf7e93570256236",
    "apply-op --op shrink": "136a46454a7f748450a57d85f1a673aa4b7b95d22e40c55069a72a68522d87d5",
    "apply-op --op split": "e3bcf6a65cc0afb8308938577047bd8740d38bbdf953ca03164f73af52497665",
    "apply-op --op halve": "38af61e7cbd6f0b334f4bdff14d93d6ac09328fc06cc84286d1a9fb9b16e3b6e",
    "--help": "28dfb7c5549c4465a7df2c993ed094b1090305342869f47c8b2ef9839b5e3d93",
}


def test_cli_output_matches_golden_digests(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    got = {}
    for argv in _fixture_commands() + [["--help"]]:
        code, out, err = _in_process(argv, capsys)
        key = " ".join(argv[:3]) if argv[0] == "apply-op" else argv[0]
        got.setdefault(key, hashlib.sha256()).update(b"%d\n%s\0%s" % (code, out, err))
    assert {key: h.hexdigest() for key, h in got.items()} == _CLI_GOLDEN


def test_parser_is_built_once_per_process(capsys):
    """20 in-process calls, usage errors among them, build one parser."""
    from creature_lab import cli

    cli.build_parser.cache_clear()
    argvs = [
        ["gen-params", "--growth", "cond2"],
        ["gen-tree", "--width", "4", "--height", "3", "--seed", "9"],
        ["report", "--in", str(FIXDIR / "creatures.json")],
        _JOBS_ZERO,
        ["frobnicate"],
    ]
    codes = [_in_process(argvs[j % len(argvs)], capsys)[0] for j in range(20)]
    assert codes == [0, 0, 0, 64, 64] * 4
    assert cli.build_parser.cache_info().misses == 1


def test_every_subcommand_has_a_cmd_function():
    """`main` finds each subcommand's function by name; none may be missing."""
    import argparse

    from creature_lab import cli

    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.choices
    for name in sub.choices:
        assert callable(getattr(cli, "cmd_" + name.replace("-", "_"), None)), name


def test_usage_errors_leave_the_parser_usable(monkeypatch, capsys):
    """After usage errors in a process, a valid call prints what a fresh process prints."""
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (_JOBS_ZERO, ["frobnicate"]):
        fresh = run_cli(*argv, check=False)
        assert _in_process(argv, capsys) == (64, fresh.stdout, fresh.stderr)
    for argv in (["norm", "--in", str(FIXDIR / "creatures.json")], ["gen-params"]):
        fresh = run_cli(*argv)
        assert _in_process(argv, capsys) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_subcommands_are_looked_up_when_called(monkeypatch, capsys):
    """A cmd_* function replaced after the parser exists is the one that runs."""
    from creature_lab import cli

    argv = ["report", "--in", str(FIXDIR / "creatures.json")]
    assert _in_process(argv, capsys)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: seen.append(args.infile) or 7)
    assert _in_process(argv, capsys) == (7, b"", b"")
    assert seen == [argv[2]]


def _mutations(doc, path=()):
    """Documents with one field of `doc` deleted or replaced by a wrong type
    or an out-of-range value.

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
        for bad in ("delete", "x", None, [["x"]], -1, 99, []):
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


_OP_ARGVS = [
    ["apply-op", "--op", op, *extra]
    for op in ("glue", "fill", "rebase", "shrink", "split", "halve")
    for extra in ([], ["--nodes", "2", "--k", "2"])
]


def _printed_documents_validate(printed: str, doc: dict) -> bool:
    """The creature or condition printed validates against `doc`'s tree and
    params (make_growth(2) when it has none), as the CLI read them."""
    from creature_lab import fixtures as fx
    from creature_lab.creature import validate_creature
    from creature_lab.forcing import validate_condition
    from creature_lab.params import make_growth

    out = json.loads(printed)
    if "creature" not in out and "condition" not in out:
        return True
    tree = fx.tree_from_fixture(doc["tree"])
    params = fx.params_from_fixture(doc["params"]) if doc.get("params") else make_growth(2)
    ok = True
    if "creature" in out:
        ok = validate_creature(fx.creature_from_fixture(out["creature"]).simple, params, tree).ok
    if "condition" in out:
        ok = ok and validate_condition(fx.condition_from_fixture(out["condition"]), tree, params).ok
    return ok


def test_mutated_fixtures_fail_cleanly(tmp_path, capsys):
    """One broken field of a shipped fixture, also as decide's --label
    document: exit 0 or 1, never an exception; a creature or condition
    printed with exit 0 validates again, and so does every op's result on
    the shipped creatures."""
    from creature_lab.cli import main

    conditions = str(FIXDIR / "conditions.json")
    commands = {
        "creatures.json": [["norm", "--in"]] + [[*argv, "--in"] for argv in _OP_ARGVS],
        "conditions.json": [
            ["check-condition", "--in"],
            ["decide", "--m", "0", "--p"],
            ["decide", "--m", "0", "--p", conditions, "--label"],
            ["purify", "--p"],
            ["check-leq", "--q", conditions, "--p"],
        ],
    }
    tried = 0
    for name, argvs in commands.items():
        doc = json.loads((FIXDIR / name).read_text())
        for path, bad in _mutations(doc):
            broken = _apply(doc, path, bad)
            bad_file = tmp_path / name
            bad_file.write_text(json.dumps(broken))
            for argv in argvs:
                code = main([*argv, str(bad_file)])
                printed = capsys.readouterr().out
                assert code in (0, 1), (name, path, bad, argv)
                # a mutated --label document leaves the tree and params of --p
                read = doc if argv[-1] == "--label" else broken
                assert code == 1 or _printed_documents_validate(printed, read), (name, path, bad, argv)
                tried += 1
    assert tried > 7000
    doc = json.loads((FIXDIR / "creatures.json").read_text())
    for argv in _OP_ARGVS:
        for index in range(len(doc["creatures"])):
            code = main([*argv, "--index", str(index), "--in", str(FIXDIR / "creatures.json")])
            printed = capsys.readouterr().out
            assert code == 1 or _printed_documents_validate(printed, doc), (argv, index)


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


@pytest.mark.parametrize(
    "change, field",
    [
        (lambda labeling: labeling["values"].append([1, 5]), "values"),
        (lambda labeling: labeling["values"].append([4, 1]), "values"),
        (lambda labeling: labeling.update(condition=7), "condition"),
    ],
    ids=["internal-node", "leaf-twice", "condition-7"],
)
def test_decide_rejects_a_malformed_labeling(tmp_path, capsys, change, field):
    """A labelling is of condition 0 and lists each leaf at most once; node 1
    of the shipped fixture is internal and node 4 is a listed leaf."""
    from creature_lab.cli import main

    doc = json.loads((FIXDIR / "conditions.json").read_text())
    change(doc["labelings"][0])
    path = tmp_path / "conditions.json"
    path.write_text(json.dumps(doc))
    assert main(["decide", "--p", str(path), "--m", "0", "--max-level", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: labeling: field {field!r} must be ")


def test_decide_negative_max_level_is_an_error(capsys):
    """No level is negative, so decide refuses before it searches."""
    from creature_lab.cli import main

    conditions = str(FIXDIR / "conditions.json")
    assert main(["decide", "--p", conditions, "--m", "0", "--max-level", "-1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "--max-level -1" in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("op", ["glue", "fill", "rebase", "shrink", "split", "halve"])
@pytest.mark.parametrize(
    "field, bad, clause",
    [("i", 99, "(a): kind 99"), ("i", -1, "(a): kind -1"), ("valrange", [], "(c): empty value range")],
    ids=["kind-99", "kind-minus-1", "empty-valrange"],
)
def test_apply_op_rejects_an_invalid_creature(tmp_path, capsys, op, field, bad, clause):
    """Each op validates its creature first and names itself in the error."""
    from creature_lab.cli import main

    doc = json.loads((FIXDIR / "creatures.json").read_text())
    doc["creatures"][0][field] = bad
    path = tmp_path / "creatures.json"
    path.write_text(json.dumps(doc))
    assert main(["apply-op", "--op", op, "--in", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {op} of invalid creature: {clause}"), out.err


@pytest.mark.parametrize(
    "report, field",
    [
        ({"suite": "glue"}, "missing field 'status'"),
        (
            {"suite": "glue", "status": "pass", "premise_hits": 1, "instances": 2, "failures": 0,
             "stats": [1]},
            "field 'stats' must be a JSON object",
        ),
    ],
    ids=["no-status", "stats-list"],
)
def test_report_names_the_bad_field_of_a_suite_report(tmp_path, capsys, report, field):
    from creature_lab.cli import main

    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["report", "--in", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: suite report: {field}\n"


@pytest.mark.parametrize(
    "argv, flag, least",
    [
        (["gen-tree", "--width", "4", "--height", "3", "--seed", "7", "--roots", "-1"], "--roots", 0),
        (["propcheck", "--suite", "growth", "--count", "-3", "--seed", "1"], "--count", 0),
        (["gen-tree", "--width", "4", "--height", "-2", "--seed", "7"], "--height", 0),
        (["gen-tree", "--width", "-1", "--height", "3", "--seed", "7"], "--width", 1),
        (["purify", "--p", str(FIXDIR / "conditions.json"), "--kstar", "-1"], "--kstar", 0),
        (["decide", "--p", str(FIXDIR / "conditions.json"), "--m", "-1"], "--m", 0),
        (["enum-spec", "--in", str(FIXDIR / "creatures.json"), "--nodes", "0", "3", "--bound", "-1"], "--bound", 0),
    ],
    ids=["roots", "count", "height", "width", "kstar", "m", "bound"],
)
def test_negative_count_is_a_usage_error(capsys, argv, flag, least):
    """A value below the flag's least is a usage error; the least value runs."""
    kind = "positive" if least else "non-negative"
    at = argv.index(flag) + 1
    for value in (argv[at], str(least - 1)):
        code, out, err = _in_process(argv[:at] + [value] + argv[at + 1 :], capsys)
        assert (code, out) == (64, b"")
        assert f"argument {flag}: must be a {kind} integer, got {value}" in err.decode()
    code, out, err = _in_process(argv[:at] + ["x"] + argv[at + 1 :], capsys)
    assert code == 64 and f"argument {flag}: invalid int value: 'x'" in err.decode()
    code, out, _ = _in_process(argv[:at] + [str(least)] + argv[at + 1 :], capsys)
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [["norm", "--in", str(FIXDIR)], ["gen-params", "--growth", f"file:{FIXDIR}"]],
    ids=["norm", "gen-params"],
)
def test_path_that_is_not_a_file_is_an_error(capsys, argv):
    code, out, err = _in_process(argv, capsys)
    assert (code, out) == (1, b"")
    assert err.decode().startswith("error: ") and str(FIXDIR) in err.decode()
