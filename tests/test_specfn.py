import itertools
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
    isomorphic_over,
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


def test_isomorphic_reflexive(tree):
    fn = SpecFn.make({3: 1, 4: 0})
    ok, wit = isomorphic_over(tree, fn, fn, frozenset({0}))
    assert ok and all(wit[x] == x for x in wit)


def test_isomorphic_sibling_leaves(tree):
    ok, wit = isomorphic_over(tree, SpecFn.make({6: 0}), SpecFn.make({7: 0}), frozenset({0, 3}))
    assert ok and wit[6] == 7


def test_isomorphic_value_mismatch(tree):
    ok, wit = isomorphic_over(tree, SpecFn.make({6: 0}), SpecFn.make({7: 1}), frozenset({0, 3}))
    assert not ok and wit is None


def test_isomorphic_order_mismatch(tree):
    # a chain pair cannot map onto an antichain pair
    ok, _ = isomorphic_over(tree, SpecFn.make({0: 0, 3: 1}), SpecFn.make({3: 0, 4: 1}), frozenset())
    assert not ok


def test_isomorphic_is_equivalence_sampled(tree):
    rng = random.Random(1)
    pool = []
    for _ in range(12):
        nodes = rng.sample(list(tree.nodes), 2)
        pool.append(SpecFn.make({x: rng.randint(0, 2) for x in nodes}))
    base = frozenset({0})
    for fn in pool:
        ok, _ = isomorphic_over(tree, fn, fn, base)
        assert ok
    for a, b in itertools.combinations(pool, 2):
        ab, _ = isomorphic_over(tree, a, b, base)
        ba, _ = isomorphic_over(tree, b, a, base)
        assert ab == ba
    for a, b, c in itertools.combinations(pool, 3):
        ab, _ = isomorphic_over(tree, a, b, base)
        bc, _ = isomorphic_over(tree, b, c, base)
        ac, _ = isomorphic_over(tree, a, c, base)
        if ab and bc:
            assert ac


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
