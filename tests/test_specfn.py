import itertools
import pickle
import random

import pytest

from creature_lab.errors import DomainError
from creature_lab.specfn import (
    EMPTY_FN,
    Incompatible,
    SpecFn,
    delta_system,
    enumerate_spec,
    is_spec,
    union_spec,
)
from creature_lab.tree_model import build_tree


@pytest.fixture
def tree():
    # roots 0,1,2; 0 -> 3,4; 3 -> 6,7; 1 -> 5
    return build_tree(3, [(0, 3), (0, 4), (3, 6), (3, 7), (1, 5)], nodes=[2])


def test_enumerate_empty_domain(tree):
    assert enumerate_spec(tree, set(), 5) == [EMPTY_FN]


def test_enumerate_chain(tree):
    fns = enumerate_spec(tree, {0, 3}, 2)
    assert fns == [SpecFn.make({0: 0, 3: 1}), SpecFn.make({0: 1, 3: 0})]


def test_enumerate_antichain(tree):
    assert len(enumerate_spec(tree, {3, 4}, 2)) == 4


def test_enumerate_zero_bound(tree):
    assert enumerate_spec(tree, {0}, 0) == []


def naive_enumerate(tree, u, n):
    out = []
    nodes = sorted(u)
    for values in itertools.product(range(n), repeat=len(nodes)):
        fn = SpecFn.make(dict(zip(nodes, values)), bound=n)
        if is_spec(tree, fn, bound=n):
            out.append(fn)
    return out


def test_enumeration_counts_against_naive_filter(tree):
    rng = random.Random(0)
    for _ in range(25):
        size = rng.randint(0, 4)
        u = set(rng.sample(list(tree.nodes), size))
        n = rng.randint(0, 4)
        fast = enumerate_spec(tree, u, n)
        slow = naive_enumerate(tree, u, n)
        assert sorted(fn.pairs for fn in fast) == sorted(fn.pairs for fn in slow)


def test_chain_times_antichain_count(tree):
    # chain of length 2 ({0,3}) with an isolated node (2): n*(n-1) * n maps
    for n in (2, 3, 4):
        fns = enumerate_spec(tree, {0, 3, 2}, n)
        assert len(fns) == n * (n - 1) * n


def test_equal_pairs_with_different_bounds_are_equal(tree):
    for u in ({0, 3}, {2, 4}, set()):
        for a, b in itertools.product(enumerate_spec(tree, u, 2), enumerate_spec(tree, u, 3)):
            wide = SpecFn.make(b.as_dict(), bound=b.bound + 5)
            assert b == wide and hash(b) == hash(wide) and b.bound != wide.bound
            assert (a == b) == (a.pairs == b.pairs)
            if a == b:
                assert hash(a) == hash(b) and a.bound != b.bound
            assert len({a, b, wide}) == (1 if a == b else 2)


def test_pickle_round_trip_keeps_equality_and_hash(tree):
    pool = enumerate_spec(tree, {0, 3, 2}, 2) + [EMPTY_FN, SpecFn.make({9: 4}, bound=7)]
    back = pickle.loads(pickle.dumps(pool))
    for fn, again in zip(pool, back):
        assert again == fn and hash(again) == hash(fn)
        assert again.pairs == fn.pairs and again.bound == fn.bound
        assert again.domset() == fn.domset() and again.extends(fn) and fn.extends(again)
    # as a dict key, an unpickled function finds the entry of the original
    table = {fn: j for j, fn in enumerate(pool)}
    assert [table[fn] for fn in back] == list(range(len(pool)))


def _pool(tree):
    """Every function on every subset of a window, values below 3."""
    window = (0, 3, 4, 6, 2)
    return [
        fn
        for r in range(len(window) + 1)
        for u in itertools.combinations(window, r)
        for fn in enumerate_spec(tree, set(u), 3)
    ]


def test_extends_and_domset_agree_with_dict_definitions(tree):
    pool = _pool(tree)
    seen = set()
    for a, b in itertools.product(pool, repeat=2):
        mine = dict(a.pairs)
        expected = all(mine.get(x) == v for x, v in b.pairs)
        assert a.extends(b) == expected, (a, b)
        seen.add(expected)
    assert seen == {True, False}
    for fn in pool:
        assert fn.domset() == frozenset(x for x, _ in fn.pairs)
        for x in tree.nodes:
            assert (x in fn) == any(node == x for node, _ in fn.pairs)


def test_union_examples(tree):
    a = SpecFn.make({0: 0})
    b = SpecFn.make({3: 1})
    u = union_spec(tree, a, b)
    assert isinstance(u, SpecFn) and u == SpecFn.make({0: 0, 3: 1})
    clash = union_spec(tree, a, SpecFn.make({3: 0}))
    assert isinstance(clash, Incompatible) and set(clash.witness) == {0, 3}
    notfun = union_spec(tree, a, SpecFn.make({0: 1}))
    assert isinstance(notfun, Incompatible) and notfun.witness == (0,)
    assert notfun.reason == "not a function"



def test_union_node_outside_tree_is_comparable_to_none(tree):
    # node 9 is not in the tree; sharing a value with node 0 is no clash here
    u = union_spec(tree, SpecFn.make({0: 1}), SpecFn.make({9: 1}))
    assert isinstance(u, SpecFn) and u == SpecFn.make({0: 1, 9: 1})
    assert not is_spec(tree, u, bound=8)

def test_union_commutative_associative_small(tree):
    pool = [
        EMPTY_FN,
        SpecFn.make({0: 0}),
        SpecFn.make({0: 1}),
        SpecFn.make({3: 1}),
        SpecFn.make({4: 0}),
        SpecFn.make({2: 0}),
    ]
    for a, b in itertools.product(pool, repeat=2):
        ab = union_spec(tree, a, b)
        ba = union_spec(tree, b, a)
        assert isinstance(ab, SpecFn) == isinstance(ba, SpecFn)
        if isinstance(ab, SpecFn):
            assert ab == ba
    for a, b, c in itertools.product(pool, repeat=3):
        ab = union_spec(tree, a, b)
        bc = union_spec(tree, b, c)
        left = union_spec(tree, ab, c) if isinstance(ab, SpecFn) else None
        right = union_spec(tree, a, bc) if isinstance(bc, SpecFn) else None
        if isinstance(left, SpecFn) and isinstance(right, SpecFn):
            assert left == right


def _verify_delta(tree, family, root, idxs):
    for i, j in itertools.combinations(idxs, 2):
        inter = frozenset(family[i]) & frozenset(family[j])
        assert inter == root
        for x in frozenset(family[i]) - root:
            for y in frozenset(family[j]) - root:
                assert not tree.comparable(x, y)


def test_delta_disjoint_antichain(tree):
    family = [{2}, {4}, {5}]
    root, idxs = delta_system(family, tree)
    assert root == frozenset() and idxs == [0, 1, 2]
    _verify_delta(tree, family, root, idxs)


def test_delta_identical_sets(tree):
    family = [{0, 3}, {0, 3}, {0, 3}]
    root, idxs = delta_system(family, tree)
    assert root == frozenset({0, 3}) and idxs == [0, 1, 2]


def test_delta_random_two_sets(tree):
    rng = random.Random(7)
    family = [set(rng.sample(list(tree.nodes), 2)) for _ in range(5)]
    root, idxs = delta_system(family, tree)
    assert len(idxs) >= 2
    _verify_delta(tree, family, root, idxs)


def test_delta_verifies_own_conditions_randomly(tree):
    rng = random.Random(8)
    for _ in range(30):
        family = [set(rng.sample(list(tree.nodes), rng.randint(1, 3))) for _ in range(rng.randint(1, 6))]
        root, idxs = delta_system(family, tree)
        assert len(idxs) >= 1
        _verify_delta(tree, family, root, idxs)


def test_enumerate_unknown_node(tree):
    with pytest.raises(DomainError):
        enumerate_spec(tree, {99}, 2)
