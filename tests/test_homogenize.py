import itertools
import random

import pytest

from creature_lab.creature import SimpleCreature, normhalf, validate_creature
from creature_lab.errors import DomainError, PreconditionError
from creature_lab.forcing import creature_at, leq, leq_n, validate_condition
from creature_lab.generators import (
    depth2_fragment,
    depth3_fragment,
    profile,
    random_labeling,
    random_upward_closed,
    two_level_tree,
    wide_tree,
)
from creature_lab.homogenize import (
    LeafLabeling,
    _cone_labels,
    _valid_subfragments,
    decide,
    halve_below,
    is_upward_closed,
    purify,
)
from creature_lab.params import default_shape, log2ceil


@pytest.fixture
def ctx():
    return two_level_tree(), profile("cond2"), default_shape()


@pytest.fixture
def frag(ctx):
    tree, params, _ = ctx
    return depth2_fragment(tree, params, branching=(3, 3))


def test_purify_empty_set(ctx, frag):
    tree, params, shape = ctx
    res = purify(frag, frozenset(), 0, tree, params)
    assert set(res.fragment.fns) == set(frag.fns)
    assert set(res.alternatives.values()) == {"disjoint"}


def _fragment(name):
    if name == "2x2x3":
        tree, params = wide_tree(6, 3), profile("cond3")
        return depth3_fragment(tree, params), tree, params
    tree, params = two_level_tree(), profile("cond2")
    branching = tuple(int(b) for b in name.split("x"))
    return depth2_fragment(tree, params, branching=branching), tree, params


def test_purify_full_set():
    """An upward-closed X that holds every leaf: purify keeps p whole and
    every front node is inside.  X is every node, or the nodes whose cone
    carries one label under a seeded random labelling."""
    for name in ("2x3", "3x3", "3x4", "2x2x3"):
        p, tree, params = _fragment(name)
        xsets = {"every node": frozenset(p.fns)}
        for seed in range(3):
            label = LeafLabeling(random_labeling(random.Random(seed), p, values=2))
            xsets[f"constant cones, seed {seed}"] = frozenset(
                fn for fn in p.fns if len(_cone_labels(p, fn, label)) == 1
            )
        for (kind, xset), kstar in itertools.product(xsets.items(), (0, 1)):
            case = (name, kind, kstar)
            assert is_upward_closed(p, xset) and set(p.leaves()) <= xset, case
            res = purify(p, xset, kstar, tree, params)
            assert res.fragment.parent == p.parent, case
            assert res.fragment.klabel == p.klabel, case
            assert res.alternatives == {nu: "inside" for nu in res.front}, case
            for nu in res.front:
                assert (res.inside_levels[nu] == p.level_of(nu)) == (nu in xset), case


def test_purify_single_cone(ctx, frag):
    tree, params, shape = ctx
    target = frag.level_nodes(1)[0]
    xset = frozenset(frag.cone_nodes(target))
    assert is_upward_closed(frag, xset)
    res = purify(frag, xset, 0, tree, params)
    q = res.fragment
    assert leq_n(frag, q, 0, tree, params)
    alt = res.alternatives[q.root]
    if alt == "disjoint":
        assert all(fn not in xset for fn in q.fns)
    else:
        lv = res.inside_levels[q.root]
        assert all(fn in xset for fn in q.fns if q.level_of(fn) >= lv)


def test_purify_norm_drops(ctx, frag):
    tree, params, shape = ctx
    rng = random.Random(0)
    for _ in range(20):
        xset = random_upward_closed(rng, frag)
        try:
            res = purify(frag, xset, 0, tree, params)
        except PreconditionError:
            continue
        q = res.fragment
        pr = leq(frag, q, tree, params)
        for eta in q.internal():
            nu = pr(eta)
            cq, cp = creature_at(q, eta, params), creature_at(frag, nu, params)
            if set(cq.valrange) == set(cp.valrange):
                continue
            nh_new, nh_old = normhalf(cq, tree, params), normhalf(cp, tree, params)
            assert log2ceil(nh_new) >= log2ceil(nh_old) - 1
            kl = max(q.klabel[eta], 1)
            assert shape.norm_geq_shifted(nh_new, kl, nh_old, kl, 1)


def test_purify_rejects_non_upward_closed(ctx, frag):
    tree, params, shape = ctx
    xset = frozenset({frag.root})  # root without its cone
    with pytest.raises(PreconditionError, match="upward"):
        purify(frag, xset, 0, tree, params)


def test_purify_kstar_budget(ctx, frag):
    tree, params, shape = ctx
    target = frag.level_nodes(1)[0]
    xset = frozenset(frag.cone_nodes(target))
    res = purify(frag, xset, 1, tree, params)
    assert leq_n(frag, res.fragment, 1, tree, params)
    for nu in res.front:
        assert res.alternatives[nu] in ("inside", "disjoint")


def test_halve_below_identity_at_zero(ctx, frag):
    tree, params, shape = ctx
    p = halve_below(frag, 0, tree, params)
    assert p.klabel == frag.klabel


def test_halve_below_drops_at_most_one(ctx):
    tree, params, shape = ctx
    p = depth2_fragment(tree, params, branching=(3, 4))
    q = halve_below(p, [1], tree, params)
    for eta in p.level_nodes(1):
        c = creature_at(p, eta, params)
        nh = normhalf(c, tree, params)
        assert q.klabel[eta] > p.klabel[eta]
        assert shape.norm_geq_shifted(nh, q.klabel[eta], nh, max(p.klabel[eta], 1), 1)
    assert validate_condition(q, tree, params).ok


def test_halve_below_low_norm_error(ctx, frag):
    tree, params, shape = ctx
    # the root creature has norm 0 here
    with pytest.raises(PreconditionError, match="norm below 1"):
        halve_below(frag, [0], tree, params)


def test_decide_constant_labeling(ctx, frag):
    tree, params, shape = ctx
    label = LeafLabeling({leaf: 5 for leaf in frag.leaves()})
    res = decide(frag, label, 1, tree, params, shape)
    assert res.found and res.level == 0
    assert res.table[frag.root] == 5


def test_decide_per_cone_constant(ctx, frag):
    tree, params, shape = ctx
    values = {}
    for j, nu in enumerate(frag.level_nodes(1)):
        for fn in frag.cone_nodes(nu):
            if not frag.children(fn):
                values[fn] = j
    res = decide(frag, LeafLabeling(values), 1, tree, params, shape)
    assert res.found and res.level == 1
    assert sorted(res.table.values()) == [0, 1, 2]


def test_decide_single_cone_constantable(ctx, frag):
    tree, params, shape = ctx
    # one level-1 cone uniformly 0; elsewhere a value per leaf index
    values = {}
    lvl1 = frag.level_nodes(1)
    for j, nu in enumerate(lvl1):
        for idx, fn in enumerate(frag.cone_nodes(nu)):
            if not frag.children(fn):
                values[fn] = 0 if j == 0 else 1 + (idx % 2)
    res = decide(frag, LeafLabeling(values), 0, tree, params, shape, max_level=1)
    if res.found:
        q = res.fragment
        assert leq_n(frag, q, 0, tree, params)
        for fn in q.level_nodes(res.level):
            assert len(_cone_labels(q, fn, LeafLabeling(values))) == 1
    else:
        assert res.exhaustive


def test_decide_not_found_certified(ctx):
    tree, params, shape = ctx
    # 2-member creatures cannot shrink (singletons break the disagreement
    # clause), so alternating labels below level 1 are undecidable there
    p = depth2_fragment(tree, params, branching=(2, 2))
    values = {}
    for nu in p.level_nodes(1):
        leaves = [fn for fn in p.cone_nodes(nu) if not p.children(fn)]
        for idx, fn in enumerate(leaves):
            values[fn] = idx % 2
    res = decide(p, LeafLabeling(values), 0, tree, params, shape, max_level=1)
    assert not res.found
    assert res.exhaustive and res.searched > 0


def test_decide_random_verified(ctx, frag):
    tree, params, shape = ctx
    rng = random.Random(1)
    label_obj = None
    found_ct = 0
    for _ in range(20):
        label_obj = LeafLabeling(random_labeling(rng, frag, values=2))
        res = decide(frag, label_obj, 0, tree, params, shape, max_level=1)
        if res.found:
            found_ct += 1
            q = res.fragment
            assert leq_n(frag, q, 0, tree, params)
            assert all(
                len(_cone_labels(q, fn, label_obj)) == 1
                for fn in q.level_nodes(res.level)
            )
    assert found_ct > 0


def test_decide_requires_total_labeling(ctx, frag):
    tree, params, shape = ctx
    with pytest.raises(DomainError, match="misses"):
        decide(frag, LeafLabeling({}), 0, tree, params, shape)


def _reference_subfragments(p, frozen_levels, tree, params):
    """Reference enumeration without sharing: a cone's options are rebuilt
    for every sibling subset that holds its root."""

    def expand(fn, lv):
        kids = p.children(fn)
        if not kids:
            yield {fn}
            return
        if lv < frozen_levels:
            subsets = [kids]
        else:
            subsets = []
            for r in range(1, len(kids) + 1):
                subsets.extend(itertools.combinations(kids, r))
        c = creature_at(p, fn, params)
        for subset in subsets:
            cand = SimpleCreature.make(c.i, c.base, subset)
            if not validate_creature(cand, params, tree).ok:
                continue
            pools = [list(expand(ch, lv + 1)) for ch in subset]
            if any(not pool for pool in pools):
                continue
            for combo in itertools.product(*pools):
                keep = {fn}
                for s in combo:
                    keep.update(s)
                yield keep

    yield from expand(p.root, 0)


@pytest.mark.parametrize("name", ["2x2x3", "3x4"])
@pytest.mark.parametrize("m", [-1, 0, 1])
def test_subfragments_match_the_reference_enumeration(name, m):
    # at m = -1 no level is frozen: each level-1 cone serves several of the
    # root's child subsets, the case where its options are built only once
    p, tree, params = _fragment(name)
    got = list(_valid_subfragments(p, m + 1, tree, params))
    assert got == list(_reference_subfragments(p, m + 1, tree, params))
    expected = {"2x2x3": {-1: 256, 0: 256, 1: 256}, "3x4": {-1: 1694, 0: 1331, 1: 1}}
    assert len(got) == expected[name][m]


# (3,3): each of the three level-1 cones has 4 options, keep sets 1-12 when
# the root is frozen, and then the root's 4^3 = 64 combinations follow.
# Unfrozen, the root's valid child subsets are the three pairs and the
# triple; each cone's options are built once, when its first subset needs
# them, and 3 * 16 + 64 = 112 combinations follow (rebuilding them for every
# subset would count 148 keep sets in all).
@pytest.mark.parametrize(
    "frozen, stops",
    [
        (1, {10: 0, 12: 0, 17: 5, 30: 18, 75: 63, 76: None}),
        (0, {10: 2, 12: 4, 17: 9, 30: 18, 123: 111, 124: None}),
    ],
)
def test_enumeration_limit_counts_every_keep_set_once(frozen, stops):
    p, tree, params = _fragment("3x3")
    total = len(list(_valid_subfragments(p, frozen, tree, params)))
    assert total == {1: 64, 0: 112}[frozen]
    for limit, before in stops.items():
        yielded = []
        if before is None:
            yielded.extend(_valid_subfragments(p, frozen, tree, params, limit=limit))
            assert len(yielded) == total, limit
            continue
        with pytest.raises(DomainError, match="enumeration limit"):
            for keep in _valid_subfragments(p, frozen, tree, params, limit=limit):
                yielded.append(keep)
        assert len(yielded) == before, limit


def _last_level_labels(p, planted):
    """Labels on the leaves under each last internal node: planted, the
    first two share 0 and the rest get a label of their own; separating,
    pairwise distinct."""
    values = {}
    for j, nu in enumerate(p.level_nodes(p.depth - 1)):
        for idx, leaf in enumerate(p.children(nu)):
            values[leaf] = (0 if idx < 2 else 10 * j + idx) if planted else 10 * j + idx
    return LeafLabeling(values)


@pytest.mark.parametrize("name", ["2x3", "3x3", "3x4"])
def test_decide_records_the_stage_that_answered(name):
    p, tree, params = _fragment(name)
    shape = default_shape()
    cases = (
        ("trivial", LeafLabeling({leaf: 5 for leaf in p.leaves()}), True),
        ("greedy", _last_level_labels(p, planted=True), True),
        ("exhaustive", _last_level_labels(p, planted=False), False),
    )
    for stage, label, found in cases:
        res = decide(p, label, 0, tree, params, shape, max_level=1)
        assert (res.stage, res.found) == (stage, found), stage
        assert res.exhaustive == (stage == "exhaustive")
        assert (res.searched > 0) == (stage == "exhaustive")
