import pytest

from creature_lab import verify
from creature_lab.errors import DomainError


def test_unknown_suite():
    with pytest.raises(DomainError, match="unknown suite"):
        verify.run_suite("nope", 5, 1)


def test_reports_deterministic():
    a = verify.run_suite("norm-oracle", 30, 3)
    b = verify.run_suite("norm-oracle", 30, 3)
    assert a == b


def test_reports_jobs_invariant():
    a = verify.run_suite("shrink", 24, 5, jobs=1)
    b = verify.run_suite("shrink", 24, 5, jobs=3)
    assert a == b


@pytest.mark.parametrize(
    "suite",
    [s for s in verify.SUITES if s != "bigness"],
)
def test_suites_pass_smoke(suite):
    rep = verify.run_suite(suite, 15, 23)
    assert rep["status"] == "pass", rep["first_failure"]


def test_bigness_suite_reports_known_defect():
    # the ceiling-log 2-bigness claim fails at the odd norm boundary; the
    # suite surfaces it and the floor variant stays clean
    rep = verify.run_suite("bigness", 60, 11)
    assert rep["status"] == "fail"
    assert rep["stats"]["norm1_floor"] == 0
    assert rep["minimal_counterexample"] is not None
    # the shrunk counterexample is locally minimal: small value range
    assert len(rep["minimal_counterexample"]["valrange"]) <= 5


def test_shrinking_preserves_failure():
    from creature_lab import fixtures as fx
    from creature_lab.verify import _bigness_violations, _creature_context

    rep = verify.run_suite("bigness", 60, 11)
    cx = rep["minimal_counterexample"]
    tree, params = _creature_context()
    shrunk = fx.creature_from_fixture(cx).simple
    v = _bigness_violations(shrunk, tree, params)
    assert v["norm1_ceil"] + v["norm2_ceil"] + v["norm"] > 0


def test_fault_injection_breaks_fill(monkeypatch):
    # skipping the forbidden-value avoidance must be caught by the suite
    import creature_lab.ops as ops_mod
    import creature_lab.verify as verify_mod
    from creature_lab.ops import OpResult
    from creature_lab.creature import SimpleCreature
    from creature_lab.specfn import SpecFn

    real_fill = ops_mod.fill

    def broken_fill(c, xs, tree, params):
        res = real_fill(c, xs, tree, params)
        # sabotage: overwrite every new point with a constant forbidden value
        bad = []
        for nu in res.creature.valrange:
            m = nu.as_dict()
            for x in xs:
                m[x] = 0
            bad.append(SpecFn.make(m, bound=params.n3[c.i]))
        broken = SimpleCreature.make(c.i, c.base, bad)
        return OpResult(creature=broken, bound=res.bound, trace=res.trace)

    monkeypatch.setattr(verify_mod, "fill", broken_fill)
    rep = verify_mod.run_suite("fill", 40, 11)
    assert rep["status"] == "fail"
    # the report carries a minimized failing creature
    assert rep["minimal_counterexample"] is not None
    assert len(rep["minimal_counterexample"]["valrange"]) <= 3


def test_premise_hit_rate_reported():
    rep = verify.run_suite("rebase", 40, 11)
    assert rep["premise_hits"] > 0
    assert rep["instances"] == 40


def test_decide_oracle_stops_at_its_enumeration_limit(monkeypatch):
    import random

    from creature_lab.generators import depth2_fragment, random_labeling
    from creature_lab.homogenize import LeafLabeling
    from creature_lab.params import default_shape

    tree, params = verify._condition_context()
    p = depth2_fragment(tree, params, branching=(3, 3))
    label = LeafLabeling(random_labeling(random.Random(1), p, values=2))
    args = (p, label, 0, tree, params, default_shape(), 1)
    assert verify._decide_oracle(*args) in (True, False)
    monkeypatch.setattr(verify, "_ORACLE_LIMIT", 1)
    with pytest.raises(DomainError, match="enumeration limit"):
        verify._decide_oracle(*args)
