import itertools

import pytest

from creature_lab.errors import ConstructionError
from creature_lab.tree_model import build_tree, initial_segment, random_tree


def test_basic_tree_levels():
    t = build_tree(2, [(0, 2), (0, 3)])
    assert t.level(0) == 0
    assert t.level(2) == t.level(3) == 1
    assert t.roots() == (0,)


def test_level_skip_rejected():
    with pytest.raises(ConstructionError, match="level interval"):
        build_tree(2, [(0, 5)])


def test_single_node_tree():
    t = build_tree(2, [], nodes={0})
    assert t.nodes == (0,)
    assert [frozenset(b) for b in t.branches()] == [frozenset({0})]


def test_multiple_parents_rejected():
    with pytest.raises(ConstructionError, match="multiple parents"):
        build_tree(2, [(0, 2), (1, 2)])


def test_orphan_rejected():
    with pytest.raises(ConstructionError, match="no parent"):
        build_tree(2, [], nodes={4})


def test_branches_examples():
    t = build_tree(2, [(0, 2), (0, 3)])
    assert [frozenset(b) for b in t.branches()] == [frozenset({0, 2}), frozenset({0, 3})]
    chain = build_tree(2, [(0, 2), (2, 4)])
    assert [frozenset(b) for b in chain.branches()] == [frozenset({0, 2, 4})]


def test_initial_segment():
    t = build_tree(2, [(0, 2), (0, 3)])
    assert initial_segment(t, 0) == frozenset()
    assert initial_segment(t, 1) == frozenset({0})
    assert initial_segment(t, max(t.level(x) for x in t.nodes) + 1) == frozenset(t.nodes)


def test_branches_cover_and_are_incomparable():
    t = build_tree(3, [(0, 3), (0, 4), (3, 6), (3, 7), (1, 5), (5, 8)], nodes=[2])
    bs = t.branches()
    leaves = set(t.nodes) - set(t.parent.values())
    assert {b[-1] for b in bs} == leaves
    for x in t.nodes:
        assert any(x in b for b in bs)
    for a, b in itertools.combinations(bs, 2):
        assert not set(a) <= set(b)
        assert not set(b) <= set(a)


def test_comparable_matches_transitive_closure_exhaustively():
    t = build_tree(3, [(0, 3), (0, 4), (3, 6), (3, 7), (1, 5), (5, 8), (6, 9), (6, 10)], nodes=[2])
    assert len(t.nodes) <= 12
    closure = {(x, x) for x in t.nodes}
    for child, par in t.parent.items():
        closure.add((par, child))
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(closure), list(closure)):
            if b == c and (a, d) not in closure:
                closure.add((a, d))
                changed = True
    for x, y in itertools.product(t.nodes, repeat=2):
        expect = (x, y) in closure or (y, x) in closure
        assert t.comparable(x, y) == expect
        assert t.less(x, y) == ((x, y) in closure and x != y)


def test_random_tree_deterministic_and_valid():
    t1 = random_tree(4, 4, seed=9, root_count=2)
    t2 = random_tree(4, 4, seed=9, root_count=2)
    assert t1.nodes == t2.nodes and t1.parent == t2.parent
    for child, par in t1.parent.items():
        assert t1.level(child) == t1.level(par) + 1


def _mask_nodes(mask):
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


@pytest.mark.parametrize(
    "t",
    [
        # criterion 1's three forests
        build_tree(2, [(0, 2), (0, 3)]),
        build_tree(3, [(0, 3), (0, 4), (3, 6), (3, 7), (1, 5), (5, 8)], nodes=[2]),
        build_tree(3, [(0, 3), (1, 4), (1, 5), (4, 7)], nodes=[2]),
        build_tree(2, [], nodes={0}),
        build_tree(2, []),
    ]
    + [random_tree(4, 5, seed=s, root_count=1 + s % 3) for s in range(8)],
)
def test_branch_masks_match_branches(t):
    # norm0 reads these masks; the oracle reads branches() itself, so a fault
    # in the masks would show only here
    masks = t.branch_masks()
    assert [_mask_nodes(m) for m in masks] == [frozenset(b) for b in t.branches()]
    assert t.branch_masks() is masks
