"""The ambient tree's memo of norm0 (`cached_norm0`), creature validation
and the pairwise unions of condition clause (v).

Every memoized value must equal the value computed on a cold copy of the
tree (a fresh AmbientTree with the same width, edges and nodes, whose memo is
empty), the key must separate growth sequences, the memo must stay within its
bound, and neither the plain norm0 nor the naive oracle may be cached.
Validation computes no norm, and `cached_norm0` validates nothing.
"""

import itertools
import pathlib
import random

import pytest

from creature_lab import creature
from creature_lab import fixtures as fx
from creature_lab.creature import (
    ClauseCheck,
    SimpleCreature,
    cached_norm0,
    clause_d_holds,
    norm0,
    normhalf,
    validate_creature,
)
from creature_lab.forcing import ConditionFragment, creature_at, subfragment, validate_condition
from creature_lab.generators import (
    PROFILES,
    chain_antichain_tree,
    depth2_fragment,
    depth3_fragment,
    diagonal_creature,
    profile,
    random_creature,
    two_level_tree,
    wide_tree,
)
from creature_lab.oracle import oracle_norm0
from creature_lab.params import make_growth
from creature_lab.homogenize import _valid_subfragments
from creature_lab.specfn import EMPTY_FN, SpecFn, is_spec, union_spec
from creature_lab.tree_model import MEMO_LIMIT, AmbientTree, build_tree

FIXDIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

# criterion 1's forests with their exhaustive windows and value bounds
WINDOW_FORESTS = [
    (build_tree(2, [(0, 2), (0, 3)]), (0, 2, 3), 4),
    (build_tree(3, [(0, 3), (0, 4), (3, 6), (3, 7), (1, 5), (5, 8)], nodes=[2]), (0, 3, 5), 3),
    (build_tree(3, [(0, 3), (1, 4), (1, 5), (4, 7)], nodes=[2]), (1, 4, 2), 3),
]


def _cold(tree: AmbientTree) -> AmbientTree:
    return AmbientTree(tree.width, tree.parent, tree.nodes)


def _fixture_corpus():
    doc = fx.load_document(str(FIXDIR / "creatures.json"))
    tree = fx.tree_from_fixture(doc["tree"])
    params = fx.params_from_fixture(doc["params"])
    return [(tree, params, [fx.creature_from_fixture(c).simple for c in doc["creatures"]])]


def _profile_corpus():
    out = []
    rng = random.Random(7)
    for name in ("sweep", "ops"):
        tree, params = chain_antichain_tree(), profile(name)
        kinds = range(params.imax + 1)
        cs = [random_creature(rng, tree, params, i=rng.choice(kinds)) for _ in range(60)]
        out.append((tree, params, [c for c in cs if c is not None]))
    for tree, params, frag in (
        (two_level_tree(), profile("cond2"), lambda t, g: depth2_fragment(t, g, branching=(3, 3))),
        (wide_tree(6, 3), profile("cond3"), depth3_fragment),
    ):
        p = frag(tree, params)
        cs = []
        for eta in p.internal():
            c = creature_at(p, eta, params)
            for r in range(1, len(c.valrange) + 1):
                for sub in itertools.combinations(c.valrange, r):
                    cs.append(SimpleCreature.make(c.i, c.base, sub))
        out.append((tree, params, cs))
    return out


def _window_corpus():
    g = make_growth(0, PROFILES["sweep"])
    out = []
    for tree, window, bound in WINDOW_FORESTS:
        pool = []
        for r in (1, 2):
            for nodes in itertools.combinations(window, r):
                for vals in itertools.product(range(bound), repeat=r):
                    fn = SpecFn.make(dict(zip(nodes, vals)), bound=8)
                    if is_spec(tree, fn, bound=8):
                        pool.append(fn)
        cs = [
            SimpleCreature.make(0, EMPTY_FN, combo)
            for size in (1, 2, 3)
            for combo in itertools.combinations(pool[:10], size)
        ]
        out.append((tree, g, cs))
    return out


CORPORA = {
    "fixtures": _fixture_corpus,
    "profiles": _profile_corpus,
    "windows": _window_corpus,
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_memoized_values_equal_cold_values(corpus):
    compared = 0
    for tree, params, creatures in CORPORA[corpus]():
        assert creatures
        for c in creatures:
            warm = [validate_creature(c, params, tree) for _ in range(2)]
            assert warm[0] == warm[1] == validate_creature(c, params, _cold(tree))
            if not warm[0].ok:
                continue
            for fn in (cached_norm0, normhalf):
                warm_vals = [fn(c, tree, params) for _ in range(2)]
                assert warm_vals[0] == warm_vals[1] == fn(c, _cold(tree), params)
            plain = norm0(c, tree, params, validate=False)
            assert cached_norm0(c, tree, params) == plain
            compared += 1
            assert len(tree._memo) <= MEMO_LIMIT
    assert compared > 0


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_positive_norm0_implies_clause_d(corpus):
    """The lemma that once let validation skip clause (d): on every corpus
    creature that passes clauses (a)-(c), norm0 > 0 implies clause (d)."""
    positive = 0
    for tree, params, creatures in CORPORA[corpus]():
        for c in creatures:
            checks = validate_creature(c, params, tree).checks
            if not all(ch.ok for ch in checks[:3]) or norm0(c, tree, params, validate=False) == 0:
                continue
            assert checks[3] == ClauseCheck("(d)", True) and clause_d_holds(c) == (True, "")
            positive += 1
    assert positive > 0


def _raise(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("corpus", ["fixtures", "windows"])
def test_validation_computes_no_norm(corpus, monkeypatch):
    verdicts = set()
    for tree, params, creatures in CORPORA[corpus]():
        expected = [validate_creature(c, params, _cold(tree)) for c in creatures]
        verdicts |= {rep.ok for rep in expected}
        with monkeypatch.context() as m:
            m.setattr(creature, "norm0", _raise)
            m.setattr(creature, "cached_norm0", _raise)
            cold = _cold(tree)
            assert [validate_creature(c, params, cold) for c in creatures] == expected
    # the window pools hold one-member creatures, which fail clause (d)
    assert verdicts == ({True} if corpus == "fixtures" else {True, False})


@pytest.mark.parametrize("corpus", ["fixtures", "windows"])
def test_cached_norm0_validates_nothing(corpus, monkeypatch):
    for tree, params, creatures in CORPORA[corpus]():
        valid = [c for c in creatures if validate_creature(c, params, _cold(tree)).ok]
        expected = [norm0(c, _cold(tree), params) for c in valid]
        with monkeypatch.context() as m:
            m.setattr(creature, "validate_creature", _raise)
            cold = _cold(tree)
            assert [cached_norm0(c, cold, params) for c in valid] == expected


def test_one_tree_two_growth_sequences_keep_separate_entries():
    tree = chain_antichain_tree()
    tight = make_growth(0, ((5,), (6,), (8,)))
    roomy = make_growth(0, ((5,), (16,), (8,)))
    # four members on the antichain {0, 1}: the beta budget n2 caps the norm
    c = diagonal_creature(0, EMPTY_FN, [0, 1], 4, 0, tight, tree)
    assert validate_creature(c, roomy, tree).ok
    assert (cached_norm0(c, tree, tight), cached_norm0(c, tree, roomy)) == (1, 3)
    assert tree._memo[("norm0", c, tight)] == 1
    assert tree._memo[("norm0", c, roomy)] == 3
    assert cached_norm0(c, tree, tight) == norm0(c, _cold(tree), tight)
    assert cached_norm0(c, tree, roomy) == norm0(c, _cold(tree), roomy)


def test_validate_creature_is_remembered_under_creature_and_params():
    tree = chain_antichain_tree()
    params = profile("sweep")
    c = diagonal_creature(0, EMPTY_FN, [0, 1], 3, 0, params, tree)
    rep = validate_creature(c, params, tree)
    assert rep.ok
    assert rep.checks[-1] == ClauseCheck("(d)", True)
    assert ("validate_creature", c, params) in tree._memo
    assert validate_creature(c, params, tree) is rep


def test_memo_never_exceeds_its_bound():
    tree = chain_antichain_tree()
    params = make_growth(0, ((9,), (16,), (12,)))
    rng = random.Random(11)
    seen = 0
    sizes = []
    while seen < 2 * MEMO_LIMIT:
        c = random_creature(rng, tree, params, max_members=4, value_bound=8)
        if c is None:
            continue
        assert cached_norm0(c, tree, params) == norm0(c, _cold(tree), params)
        sizes.append(len(tree._memo))
        seen += 1
    assert max(sizes) == MEMO_LIMIT
    assert min(sizes[MEMO_LIMIT:]) < MEMO_LIMIT  # emptied once full, then refilled


def test_plain_norm0_adds_no_memo_entry():
    tree = chain_antichain_tree()
    params = make_growth(0, ((9,), (16,), (12,)))
    rng = random.Random(5)
    creatures = [c for c in (random_creature(rng, tree, params, value_bound=8) for _ in range(20)) if c]
    cold = _cold(tree)
    values = [norm0(c, cold, params, validate=False) for c in creatures]
    assert cold._memo == {}
    assert values == [cached_norm0(c, cold, params) for c in creatures]
    assert len(cold._memo) == len(set(creatures))


def test_oracle_adds_no_memo_entry():
    tree = chain_antichain_tree()
    params = make_growth(0, ((9,), (16,), (12,)))
    rng = random.Random(3)
    creatures = [c for c in (random_creature(rng, tree, params, value_bound=8) for _ in range(20)) if c]
    reference = _cold(tree)
    for c in creatures:
        validate_creature(c, params, reference)
    cold = _cold(tree)
    for c in creatures:
        oracle_norm0(c, cold, params, validate=False)
    assert cold._memo == {}
    for c in creatures:
        oracle_norm0(c, cold, params)
    # validating the input is the only memo traffic: no key of the oracle's own
    assert cold._memo.keys() == reference._memo.keys()


def test_memoized_unions_match_cold_validation():
    """Every subfragment that decide's exhaustive search enumerates on the
    benchmark's four fragments validates on the warm tree exactly as on a
    cold copy, and every remembered union and spec-function verdict equals a
    fresh one."""
    t2, g2 = two_level_tree(), profile("cond2")
    t3, g3 = wide_tree(6, 3), profile("cond3")
    cases = [
        (depth2_fragment(t2, g2, branching=b), t2, g2, m)
        for b in ((2, 3), (3, 3), (3, 4))
        for m in (0, 1)
    ] + [(depth3_fragment(t3, g3), t3, g3, 0)]
    validated = 0
    verdicts = set()
    for p, tree, params, m in cases:
        for keep in _valid_subfragments(p, m + 1, tree, params):
            q = subfragment(p, {fn for j, fn in enumerate(p.fns) if keep >> j & 1})
            warm = validate_condition(q, tree, params)
            assert warm.checks == validate_condition(q, _cold(tree), params).checks
            assert len(tree._memo) <= MEMO_LIMIT
            verdicts.add(warm.ok)
            validated += 1
        unions = [key for key in tree._memo if key[0] == "union_spec"]
        assert unions
        for key in unions:
            _, a, b = key
            assert tree._memo[key] == union_spec(_cold(tree), a, b), key
        verdict_keys = [key for key in tree._memo if key[0] == "is_spec"]
        assert verdict_keys
        for key in verdict_keys:
            assert tree._memo[key] == is_spec(_cold(tree), key[1]), key
    # (2,3), (3,3), (3,4) at m = 0 and at m = 1, then depth 3 at m = 0
    assert validated == 16 + 1 + 64 + 1 + 1331 + 1 + 256
    # the search builds conditions only; a failing clause (v) is the next test's
    assert verdicts == {True}


def _clause_v_reference(p, tree):
    """Clause (v) over every pair of nodes, comparable pairs included."""
    fnset = set(p.fns)
    for a, b in itertools.combinations(p.fns, 2):
        u = union_spec(tree, a, b)
        if isinstance(u, SpecFn) and u not in fnset:
            return ClauseCheck("(v) closure", False, f"union of {a} and {b} missing")
    return ClauseCheck("(v) closure", True)


def test_clause_v_looks_up_no_union_of_comparable_nodes():
    """The union of comparable nodes is the larger node, so clause (v) skips
    those pairs: its verdict and witness are those of the scan over every
    pair, and the memo holds no union of comparable nodes."""
    t2, g2 = two_level_tree(), profile("cond2")
    t3, g3 = wide_tree(6, 3), profile("cond3")
    a, b = SpecFn.make({0: 0}), SpecFn.make({1: 0})  # incomparable nodes
    missing = ConditionFragment({EMPTY_FN: None, a: EMPTY_FN, b: EMPTY_FN}, {EMPTY_FN: 0, a: 0, b: 0})
    cases = [(depth2_fragment(t2, g2, branching=br), t2, g2) for br in ((2, 3), (3, 3), (3, 4))]
    cases += [(depth3_fragment(t3, g3), t3, g3), (missing, t2, g2)]
    verdicts = set()
    for p, tree, params in cases:
        cold = _cold(tree)
        (check,) = [c for c in validate_condition(p, cold, params).checks if c.clause == "(v) closure"]
        assert check == _clause_v_reference(p, tree)
        verdicts.add(check.ok)
        unions = [key[1:] for key in cold._memo if key[0] == "union_spec"]
        assert unions
        assert not [(x, y) for x, y in unions if x.extends(y) or y.extends(x)]
    assert verdicts == {True, False}


def test_missing_union_is_reported_from_the_memo():
    tree, params = two_level_tree(), profile("cond2")
    a, b = SpecFn.make({0: 0}), SpecFn.make({1: 0})  # incomparable nodes
    q = ConditionFragment({EMPTY_FN: None, a: EMPTY_FN, b: EMPTY_FN}, {EMPTY_FN: 0, a: 0, b: 0})
    cold = validate_condition(q, _cold(tree), params)
    assert not cold.ok and cold.failures()[0].witness == "union of {0:0} and {1:0} missing"
    for _ in range(2):
        assert validate_condition(q, tree, params).checks == cold.checks
    assert tree._memo[("union_spec", a, b)] == SpecFn.make({0: 0, 1: 0})


def test_node_that_is_not_a_spec_function_is_reported_from_the_memo():
    tree, params = two_level_tree(), profile("cond2")
    bad = SpecFn.make({0: 0, 3: 0})  # comparable nodes 0 < 3 share a value
    q = ConditionFragment({EMPTY_FN: None, bad: EMPTY_FN}, {EMPTY_FN: 0, bad: 0})
    cold = validate_condition(q, _cold(tree), params)
    first = cold.failures()[0]
    assert (first.clause, first.witness) == ("(i) spec functions", "{0:0,3:0}")
    for _ in range(2):
        assert validate_condition(q, tree, params).checks == cold.checks
    assert tree._memo[("is_spec", bad)] is False
    assert tree._memo[("is_spec", EMPTY_FN)] is True
