"""The benchmark's trace mode (`bench/run.py --trace 1`) still fits the program.

The trace wraps every function that `bench/run.py` names in `TRACED` and
times the import of every module in `IMPORTS`; a program change that removes
one of those functions, or stops importing one of those modules from
`creature_lab.cli`, breaks the traced run only after all its workloads.  The
check runs in a fresh interpreter, because `workloads.load_program` imports
the program afresh and would replace this process's modules.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, "bench")
import run, tracing, workloads

workloads.load_program(with_cli=True)
tracer = tracing.Tracer(run.TRACED)
tracer.install()
wrapped = sorted(tracer.names)
tracer.uninstall()
times = tracing.import_times(workloads.SRC, run.IMPORTS)
print(json.dumps({"traced": run.TRACED, "wrapped": wrapped, "imports": run.IMPORTS, "times": times}))
"""


def test_trace_mode_finds_every_function_and_module():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=REPO, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["wrapped"] == sorted(out["traced"])
    assert sorted(out["times"]) == sorted(out["imports"])
    assert all(isinstance(ms, (int, float)) and ms > 0 for ms in out["times"].values())
