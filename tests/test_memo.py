"""The ambient tree's memo of norm0 (`cached_norm0`) and creature validation.

Every memoized value must equal the value computed on a cold copy of the
tree (a fresh AmbientTree with the same width, edges and nodes, whose memo is
empty), the key must separate growth sequences and clause-(d) modes, the memo
must stay within its bound, and neither the plain norm0 nor the naive oracle
may be cached.
"""

import itertools
import pathlib
import random

import pytest

from creature_lab import fixtures as fx
from creature_lab.creature import SimpleCreature, cached_norm0, norm0, normhalf, validate_creature
from creature_lab.forcing import creature_at
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
from creature_lab.specfn import EMPTY_FN, SpecFn, is_spec
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
            for check_d in (False, True):
                warm = [validate_creature(c, params, tree, check_d) for _ in range(2)]
                assert warm[0] == warm[1] == validate_creature(c, params, _cold(tree), check_d)
            if not warm[0].ok:
                continue
            for fn in (cached_norm0, normhalf):
                warm_vals = [fn(c, tree, params, validate=False) for _ in range(2)]
                assert warm_vals[0] == warm_vals[1] == fn(c, _cold(tree), params, validate=False)
            plain = norm0(c, tree, params, validate=False)
            assert cached_norm0(c, tree, params, validate=False) == plain
            compared += 1
            assert len(tree._memo) <= MEMO_LIMIT
    assert compared > 0


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


def test_check_d_always_is_part_of_the_key():
    tree = chain_antichain_tree()
    params = profile("sweep")
    c = diagonal_creature(0, EMPTY_FN, [0, 1], 3, 0, params, tree)
    shortcut = validate_creature(c, params, tree)
    direct = validate_creature(c, params, tree, check_d_always=True)
    assert shortcut.ok and direct.ok
    assert shortcut.checks[-1].witness == "implied by norm0 > 0"
    assert direct.checks[-1].witness == ""
    assert ("validate_creature", c, params, False) in tree._memo
    assert ("validate_creature", c, params, True) in tree._memo
    assert validate_creature(c, params, tree) is shortcut


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
    assert values == [cached_norm0(c, cold, params, validate=False) for c in creatures]
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
