"""The shipped fixture corpus is what scripts/make_fixtures.py writes.

The CLI tests and the benchmark's `cli` workload read these files, so a
generator change that moves them must fail here rather than drift silently.
"""

import importlib.util
import pathlib

import pytest

from creature_lab import fixtures as fx

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _make_fixtures():
    spec = importlib.util.spec_from_file_location("make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, build",
    [("creatures.json", "creatures_fixture"), ("conditions.json", "condition_fixture")],
)
def test_fixture_is_regenerated_byte_for_byte(name, build):
    doc = getattr(_make_fixtures(), build)()
    assert fx.canonical_dumps(doc) == (ROOT / "fixtures" / name).read_text(encoding="utf-8")
