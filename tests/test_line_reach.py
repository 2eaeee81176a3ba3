import ast
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "creature_lab"


def test_line_reach_reports_each_module_and_reaches_the_halving_witness():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "line_reach.py"), "-q", "-p", "no:cacheprovider",
         "tests/test_params.py"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    doc = json.loads(run.stdout)
    assert set(doc) == {path.name for path in PACKAGE.glob("*.py")}
    for name, entry in doc.items():
        assert set(entry) == {"statements", "unreached"}, name
        assert entry["unreached"] == sorted(set(entry["unreached"])), name
        assert len(entry["unreached"]) <= entry["statements"], name
    # test_params.py calls halving_witness on every branch of its body
    fn = next(node for node in ast.parse((PACKAGE / "params.py").read_text()).body
              if isinstance(node, ast.FunctionDef) and node.name == "halving_witness")
    body = {node.lineno for stmt in fn.body[1:] for node in ast.walk(stmt) if isinstance(node, ast.stmt)}
    assert len(body) >= 6
    assert not body & set(doc["params.py"]["unreached"])
