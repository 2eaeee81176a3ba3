import hashlib
from collections import Counter

import pytest

from creature_lab import fixtures as fx
from creature_lab import creature, verify
from creature_lab.creature import SimpleCreature, validate_creature
from creature_lab.errors import DomainError, PreconditionError, ValidationError
from creature_lab.generators import chain_antichain_tree, diagonal_creature
from creature_lab.ops import HalveResult, OpResult
from creature_lab.oracle import oracle_norm0
from creature_lab.params import make_growth
from creature_lab.specfn import EMPTY_FN, SpecFn


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


def _fill_with_forbidden_values(real_fill):
    # skipping the forbidden-value avoidance: every new point gets value 0
    def fill(c, xs, tree, params):
        res = real_fill(c, xs, tree, params)
        bad = []
        for nu in res.creature.valrange:
            m = nu.as_dict()
            for x in xs:
                m[x] = 0
            bad.append(SpecFn.make(m, bound=params.n3[c.i]))
        return OpResult(SimpleCreature.make(c.i, c.base, bad), res.bound, res.trace)

    return fill


def _overstating(real_op, extra):
    # the operation promises `extra` more than its construction guarantees
    def op(*args):
        res = real_op(*args)
        return OpResult(res.creature, res.bound + extra, res.trace)

    return op


# suite -> (name the suite's check calls, defect planted on the real function)
_PLANTED = {
    "norm-oracle": ("norm0", lambda real: lambda c, *a, **kw: real(c, *a, **kw) + (len(c.valrange) >= 2)),
    "glue": ("glue", lambda real: _overstating(real, 1)),
    "fill": ("fill", _fill_with_forbidden_values),
    "rebase": ("rebase", lambda real: _overstating(real, 2)),
    "shrink": ("shrink_to_norm", lambda real: lambda c, k, tree, params: OpResult(c, k, {})),
    # the ceiling-log 2-bigness defect is real: nothing needs planting
    "bigness": None,
    "halving": ("halve", lambda real: lambda cplus, tree, params: HalveResult(cplus, False)),
}


def _fails(check, tree, params, c, rest) -> bool:
    """A valid creature on which the suite's check returns a premise-hit failure."""
    if not validate_creature(c, params, tree).ok:
        return False
    try:
        out = check(tree, params, c, *rest)
    except (PreconditionError, ValidationError, DomainError):
        return False
    return out.premise_hit and not out.ok


@pytest.mark.parametrize("suite", list(_PLANTED))
def test_planted_defect_is_shrunk(monkeypatch, suite):
    if _PLANTED[suite] is not None:
        name, plant = _PLANTED[suite]
        monkeypatch.setattr(verify, name, plant(getattr(verify, name)))
    rep = verify.run_suite(suite, 60, 11)
    assert rep["status"] == "fail"
    assert rep["minimal_counterexample"] is not None
    runner = verify._RUNNERS[suite]
    tree, params, _, *rest = runner.draw(verify._rng_for(11, rep["first_failure"]["index"]))
    shrunk = fx.creature_from_fixture(rep["minimal_counterexample"]).simple
    assert _fails(runner.check, tree, params, shrunk, rest)
    # locally minimal: no single member can go
    for eta in shrunk.valrange:
        smaller = SimpleCreature.make(shrunk.i, shrunk.base, [f for f in shrunk.valrange if f != eta])
        assert not _fails(runner.check, tree, params, smaller, rest)


def test_crash_is_reported_with_its_index(monkeypatch):
    suite, count, seed = "shrink", 12, 5
    runner = verify._RUNNERS[suite]
    before = [verify._run_one(suite, seed, j) for j in range(count)]
    index = next(r["index"] for r in before if r["status"] == "pass")
    planted = runner.draw(verify._rng_for(seed, index))[2:]

    def check(tree, params, *inst):
        if inst == planted:
            raise KeyError("planted")
        return runner.check(tree, params, *inst)

    monkeypatch.setitem(verify._RUNNERS, suite, verify._CreatureSuite(runner.draw, check))
    rep = verify.run_suite(suite, count, seed)
    assert rep["failures"] == 1
    assert rep["first_failure"] == {
        "index": index,
        "status": "fail",
        "info": {"error": "KeyError: 'planted'", "crash": 1},
    }
    assert rep["stats"]["crash"] == 1
    # only a failure that a check returned is shrunk
    assert rep["minimal_counterexample"] is None
    after = [verify._run_one(suite, seed, j) for j in range(count)]
    assert [r for r in after if r["index"] != index] == [r for r in before if r["index"] != index]



def test_shrinker_keeps_only_valid_creatures(monkeypatch):
    # a check that fails on every creature would shrink to the empty value
    # range if the shrinker did not require each step to stay a creature
    suite = "shrink"
    runner = verify._RUNNERS[suite]
    always_fails = verify._CreatureSuite(runner.draw, lambda tree, params, c, *rest: verify._failed(c, {}))
    monkeypatch.setitem(verify._RUNNERS, suite, always_fails)
    rep = verify.run_suite(suite, 12, 5)
    assert rep["failures"] == rep["premise_hits"] > 0
    tree, params, *_ = runner.draw(verify._rng_for(5, rep["first_failure"]["index"]))
    shrunk = fx.creature_from_fixture(rep["minimal_counterexample"]).simple
    assert validate_creature(shrunk, params, tree).ok
    # locally minimal: dropping any one member leaves no creature
    for eta in shrunk.valrange:
        smaller = SimpleCreature.make(shrunk.i, shrunk.base, [f for f in shrunk.valrange if f != eta])
        assert not validate_creature(smaller, params, tree).ok

# sha256 of each canonical report, computed before the creature suites were
# split into draw and check; a change to any report has to update them
_GOLDEN = {
    ("growth", 20, 5): "8f9b5697de3fd4006a8d6cce0be24ef14e74994d0fd4bfdd51302be676100400",
    ("normshape", 20, 5): "5cd3f343320ae709d4e6357b7d0a3bc3533f7015a13b4029d969db11da719ded",
    ("norm-oracle", 20, 5): "322f41b442658cfab330001976d20e891ea896c25e7a4d90fc801ce159f588ce",
    ("glue", 20, 5): "11eaf716b503fc46d226cbf505cad3421acb721167fc2be854ab55acf5b3e01f",
    ("fill", 20, 5): "a32a8f90e0c5b021bfadc58cd9a1e0e2aa78eaa4a919f57666abdfb704148b84",
    ("rebase", 20, 5): "8d68a480c2fe2892bbfbcc25cca061d56df2fecb33dfe69b40486ef732eef19c",
    ("shrink", 20, 5): "5e133120a6fa6d5b1158a32a0a9553002ae986e1786b7471efe77f6f6c6bed1f",
    ("bigness", 20, 5): "227ea65a82100ac555603bbe2141c0e77073c550870efdfc55d1e0e018c99198",
    ("halving", 20, 5): "9de8ed0fdc33804a8a1a52c848c5e717d046640f00948f40edbe715d181f99f0",
    ("leq", 20, 5): "53360ac398b18c39f53fae6c2c0e8ba78330a94ae29af9015b622aec25ed9ed0",
    ("fusion", 20, 5): "2be2bcbcc1d5d6ee2dc162e59f352c3bd5b8434bc5e2d57c7d4b95aa5e3dafd2",
    ("smoothen", 20, 5): "dfe1dd8288cc352697f8e924f8810509a8d950fc128feed7c13494c25471977b",
    ("purify", 20, 5): "a51bf7d882a3c0f9cf2c8d7e1b33192e7447ebd5685d5135a35bcbba624ecbbe",
    ("decide", 20, 5): "0fb5d660e3f0bd35f067639c6e0fc9d911ae2fde944097b4d3d16c8801131ea0",
    ("fact2.6", 20, 5): "15a98da17089f85258267c587ff71429e91648e3b9c77334dd76bf3be93df372",
    ("claim2.8", 20, 5): "5638e901226cea7e014317cc83e41753aef1734a677e45675acba5a0dd379abc",
    ("bigness", 60, 11): "9d03120a4a703380d37ba8193d827489399c8a74d484cd4372abb3aeae75f509",
}


def test_reports_match_golden_digests():
    got = {
        key: hashlib.sha256(fx.canonical_dumps(verify.run_suite(*key)).encode()).hexdigest()
        for key in _GOLDEN
    }
    assert got == _GOLDEN


def test_an_invalid_rebase_output_fails_the_suite(monkeypatch):
    # a rebase whose output keeps one member refuses it with a ValidationError;
    # that is the operation failing, not a premise miss
    real = verify.rebase

    def one_member_rebase(c, etastar, tree, params):
        d = real(c, etastar, tree, params).creature
        kept = SimpleCreature.make(d.i, d.base, d.valrange[:1])
        validate_creature(kept, params, tree).require("rebase produced an invalid creature")

    monkeypatch.setattr(verify, "rebase", one_member_rebase)
    rep = verify.run_suite("rebase", 40, 11)
    assert rep["status"] == "fail"
    assert rep["premise_hits"] == rep["failures"] == 40
    assert "rebase produced an invalid creature" in rep["first_failure"]["info"]["error"]


@pytest.mark.parametrize(
    "suite, count, seed", [("fusion", 40, 48), ("claim2.8", 40, 46), ("smoothen", 40, 49)]
)
def test_no_suite_family_computes_a_norm_twice(monkeypatch, suite, count, seed):
    # each family's instances share one tree memo; start from empty memos so
    # that what earlier tests left there does not hide a second computation
    for tree, _ in (verify._CREATURE, verify._REBASE, verify._HALVING, verify._CONDITION,
                    verify._DEPTH3, verify._TALL):
        monkeypatch.setattr(tree, "_memo", {})
    calls = Counter()
    real = creature.norm0

    def counting(c, tree, params, validate=True):
        calls[(c, params)] += 1
        return real(c, tree, params, validate)

    monkeypatch.setattr(creature, "norm0", counting)
    assert verify.run_suite(suite, count, seed)["status"] == "pass"
    assert calls and [key for key, n in calls.items() if n > 1] == []


def test_premise_hit_rate_reported():
    rep = verify.run_suite("rebase", 40, 11)
    assert rep["premise_hits"] > 0
    assert rep["instances"] == 40


def test_decide_oracle_stops_at_its_enumeration_limit(monkeypatch):
    import random

    from creature_lab.generators import depth2_fragment, random_labeling
    from creature_lab.homogenize import LeafLabeling

    tree, params = verify._CONDITION
    p = depth2_fragment(tree, params, branching=(3, 3))
    label = LeafLabeling(random_labeling(random.Random(1), p, values=2))
    args = (p, label, 0, tree, params, 1)
    assert verify._decide_oracle(*args) in (True, False)
    monkeypatch.setattr(verify, "_ORACLE_LIMIT", 1)
    with pytest.raises(DomainError, match="enumeration limit"):
        verify._decide_oracle(*args)


def test_oracle_disagrees_is_silent_over_its_budget():
    tree, params = chain_antichain_tree(), make_growth(0, ((9,), (16,), (12,)))
    # within 2 * 10**6 steps up to k = 4: the oracle answers and contradicts a wrong norm
    small = diagonal_creature(0, EMPTY_FN, [6], 4, 1, params, tree)
    assert verify._oracle_disagrees(small, 0, tree, params)
    assert not verify._oracle_disagrees(small, 3, tree, params)
    # k = 4 costs 3,970,000 steps: over the budget nothing is contradicted,
    # not even a norm that the default budget shows wrong
    big = diagonal_creature(0, EMPTY_FN, [6], 8, 1, params, tree)
    assert oracle_norm0(big, tree, params, validate=False) == 4
    assert not verify._oracle_disagrees(big, 0, tree, params)
