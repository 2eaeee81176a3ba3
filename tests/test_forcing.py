import itertools
import random

import pytest

from creature_lab.creature import norm0, normhalf
from creature_lab.errors import ConstructionError, PreconditionError, ValidationError
from creature_lab.forcing import (
    ConditionFragment,
    Coverage,
    NotRelated,
    Projection,
    classify,
    creature_at,
    fuse,
    is_front,
    kind_of,
    leq,
    leq_n,
    amalgamate,
    normalize,
    restrict,
    smoothen,
    validate_condition,
)
from creature_lab.generators import (
    canonical_fragment,
    depth2_fragment,
    extend_fragment,
    profile,
    shrink_fragment_above,
    smooth_target_fragment,
    two_level_tree,
)
from creature_lab.params import default_shape, log2ceil, make_growth
from creature_lab.specfn import EMPTY_FN, SpecFn
from creature_lab.tree_model import build_tree


@pytest.fixture
def ctx():
    return two_level_tree(), profile("cond2"), default_shape()


@pytest.fixture
def frag(ctx):
    tree, params, _ = ctx
    return depth2_fragment(tree, params, branching=(3, 3))


def test_fragment_is_valid(ctx, frag):
    tree, params, _ = ctx
    assert validate_condition(frag, tree, params).ok
    assert kind_of(frag, params) == 0
    assert frag.depth == 2


def test_single_root_fragment_valid(ctx):
    tree, params, _ = ctx
    p = ConditionFragment(parent={EMPTY_FN: None}, klabel={EMPTY_FN: 0})
    assert validate_condition(p, tree, params).ok


def test_klabel_above_halfnorm_invalid(ctx, frag):
    tree, params, _ = ctx
    klabel = dict(frag.klabel)
    klabel[frag.root] = 9
    p = ConditionFragment(parent=dict(frag.parent), klabel=klabel)
    rep = validate_condition(p, tree, params)
    assert not rep.ok
    assert any("(iv)" in c.clause for c in rep.failures())


def test_missing_union_violates_closure(ctx):
    tree, params, _ = ctx
    # two compatible functions (disjoint incomparable domains) without their union
    a = SpecFn.make({0: 0})
    b = SpecFn.make({0: 0, 3: 1})
    c = SpecFn.make({0: 0, 3: 2})
    other = SpecFn.make({1: 0})
    parent = {EMPTY_FN: None, a: EMPTY_FN, other: EMPTY_FN, b: a, c: a}
    klabel = dict.fromkeys(parent, 0)
    p = ConditionFragment(parent=parent, klabel=klabel)
    rep = validate_condition(p, tree, params)
    assert not rep.ok
    assert any("closure" in c.clause for c in rep.failures())


def test_two_roots_rejected():
    a, b = SpecFn.make({0: 0}), SpecFn.make({0: 1})
    with pytest.raises(ConstructionError, match="exactly one root"):
        ConditionFragment(parent={a: None, b: None}, klabel={a: 0, b: 0})


def test_a_cycle_of_parent_links_is_not_connected():
    r, a, b = EMPTY_FN, SpecFn.make({0: 0}), SpecFn.make({0: 1})
    with pytest.raises(ConstructionError, match="fragment is not connected"):
        ConditionFragment(parent={r: None, a: b, b: a}, klabel={r: 0, a: 0, b: 0})


def test_leq_reflexive_identity(ctx, frag):
    tree, params, _ = ctx
    pr = leq(frag, frag, params)
    assert isinstance(pr, Projection)
    assert pr.shift == 0
    assert all(a == b for a, b in pr.mapping.items())


def test_leq_restrict_shift(ctx, frag):
    tree, params, _ = ctx
    eta = frag.level_nodes(1)[0]
    cone = restrict(frag, eta)
    assert cone.root == eta and cone.depth == 1
    pr = leq(frag, cone, params)
    assert isinstance(pr, Projection) and pr.shift == 1


def test_leq_transitivity_composition(ctx, frag):
    tree, params, _ = ctx
    eta = frag.level_nodes(1)[0]
    q = restrict(frag, eta)
    leaf = q.level_nodes(1)[0]
    r = restrict(q, leaf)
    pr_pq = leq(frag, q, params)
    pr_qr = leq(q, r, params)
    direct = leq(frag, r, params)
    assert isinstance(direct, Projection)
    composed = pr_pq.compose(pr_qr)
    assert composed.mapping == direct.mapping
    assert composed.shift == direct.shift


def test_leq_kind_and_norm_monotone(ctx, frag):
    tree, params, shape = ctx
    rng = random.Random(0)
    q = shrink_fragment_above(rng, frag, 0, tree, params)
    assert q is not None
    pr = leq(frag, q, params)
    assert isinstance(pr, Projection)
    for eta in q.internal():
        nu = pr(eta)
        assert kind_of(q, params) + q.level_of(eta) == kind_of(frag, params) + frag.level_of(nu)
        assert norm0(creature_at(q, eta, params), tree, params, validate=False) <= norm0(
            creature_at(frag, nu, params), tree, params, validate=False
        )


def test_leq_n_reflexive(ctx, frag):
    tree, params, shape = ctx
    for n in range(3):
        assert leq_n(frag, frag, n, tree, params)


def test_leq_n_frozen_levels(ctx):
    tree, params, shape = ctx
    # 5-member leaf creatures keep enough norm after one removal for grade 1
    frag = depth2_fragment(tree, params, branching=(3, 5))
    rng = random.Random(1)
    q = shrink_fragment_above(rng, frag, 1, tree, params)
    assert q is not None
    assert leq_n(frag, q, 1, tree, params)
    assert leq_n(frag, q, 0, tree, params)  # 2.8(7): grades weaken
    assert not isinstance(leq(frag, q, params), NotRelated)


def test_leq_n_rejects_low_level_change(ctx, frag):
    tree, params, shape = ctx
    rng = random.Random(2)
    q = shrink_fragment_above(rng, frag, 0, tree, params)
    assert q is not None
    if q.level_nodes(1) != frag.level_nodes(1):
        assert not leq_n(frag, q, 1, tree, params)


def test_restrict_identity_and_leaf(ctx, frag):
    tree, params, _ = ctx
    assert set(restrict(frag, frag.root).fns) == set(frag.fns)
    leaf = frag.leaves()[0]
    single = restrict(frag, leaf)
    assert single.fns == (leaf,)


def test_restrict_rejects_a_cone_not_closed_under_parents():
    """{0:0, 1:0, 3:1} extends {0:0} but hangs under {1:0}, which does not."""
    a, b, stray = SpecFn.make({0: 0}), SpecFn.make({1: 0}), SpecFn.make({0: 0, 1: 0, 3: 1})
    p = ConditionFragment(
        parent={EMPTY_FN: None, a: EMPTY_FN, b: EMPTY_FN, stray: b},
        klabel={EMPTY_FN: 0, a: 0, b: 0, stray: 0},
    )
    with pytest.raises(ConstructionError):
        restrict(p, a)


def test_fuse_single(ctx, frag):
    tree, params, shape = ctx
    out = fuse([frag], [1], tree, params)
    assert set(out.fns) == set(frag.fns)


def test_fuse_two_chain(ctx, frag):
    tree, params, shape = ctx
    rng = random.Random(3)
    q = None
    while q is None:
        q = shrink_fragment_above(rng, frag, 0, tree, params)
    assert leq_n(frag, q, 0, tree, params)
    fused = fuse([frag, q], [0, 1], tree, params)
    assert leq_n(frag, fused, 0, tree, params)
    assert leq_n(q, fused, 1, tree, params)


def test_fuse_non_chain_rejected(ctx, frag):
    tree, params, shape = ctx
    from creature_lab.generators import canonical_fragment

    # same shape, disjoint value bands: roots agree, nothing else projects
    other = canonical_fragment(tree, params, [2, 3], [[0], [2, 3, 4, 5]], [1, 1, 0], value_bands=[4, 30])
    with pytest.raises(PreconditionError, match="chain"):
        fuse([frag, other], [0, 1], tree, params)


def test_classify_examples(ctx):
    tree, params, shape = ctx
    p = ConditionFragment(
        parent={EMPTY_FN: None},
        klabel={EMPTY_FN: 0},
        coverage=Coverage(k=0, alpha=0, u=frozenset()),
    )
    cls = classify(p, tree)
    assert cls.smooth and p.coverage.k == 0 and cls.alpha == 0
    smooth = smooth_target_fragment(tree, params, alpha=2)
    cls2 = classify(smooth, tree)
    assert cls2.smooth and cls2.alpha == 2


def test_classify_weakly_smooth_with_u(ctx):
    tree, params, shape = ctx
    smooth = smooth_target_fragment(tree, params, alpha=2)
    p = ConditionFragment(
        parent=dict(smooth.parent),
        klabel=dict(smooth.klabel),
        coverage=Coverage(k=0, alpha=2, u=frozenset({99})),
    )
    cls = classify(p, tree)
    assert p.coverage.k == 0 and not cls.smooth


def test_classify_requires_coverage(ctx, frag):
    tree, params, shape = ctx
    with pytest.raises(PreconditionError):
        classify(frag, tree)


def test_fronts(ctx, frag):
    lvl1 = list(frag.level_nodes(1))
    assert is_front(frag, [frag.root])
    assert is_front(frag, lvl1)
    assert not is_front(frag, [frag.root, lvl1[0]])


@pytest.mark.parametrize("branching", [(2, 3), (3, 3)])
def test_is_front_matches_the_branch_definition(ctx, branching):
    """A front: no member extends another, and every root-to-leaf path of p
    meets the set.  Every subset of p's nodes, also with a function that is
    not a node of p and so meets no path."""
    tree, params, _ = ctx
    p = depth2_fragment(tree, params, branching=branching)
    branches = []
    for leaf in p.leaves():
        path = [leaf]
        while p.parent[path[-1]] is not None:
            path.append(p.parent[path[-1]])
        branches.append(set(path))
    outsider = SpecFn.make({5: 99})
    assert outsider not in p
    for size in range(len(p.fns) + 1):
        for subset in itertools.combinations(p.fns, size):
            for front in (list(subset), [*subset, outsider]):
                antichain = not any(a != b and a.extends(b) for a in front for b in front)
                meets = all(not branch.isdisjoint(front) for branch in branches)
                assert is_front(p, front) == (antichain and meets), front


def test_amalgamate_identity(ctx, frag):
    tree, params, _ = ctx
    front = list(frag.level_nodes(1))
    cones = [restrict(frag, eta) for eta in front]
    out = amalgamate(frag, front, cones, tree, params)
    assert set(out.fns) == set(frag.fns)


def test_amalgamate_strengthened_cones(ctx, frag):
    tree, params, shape = ctx
    rng = random.Random(4)
    front = list(frag.level_nodes(1))
    cones = []
    for eta in front:
        cone = restrict(frag, eta)
        q = shrink_fragment_above(rng, cone, 0, tree, params)
        cones.append(q if q is not None else cone)
    out = amalgamate(frag, front, cones, tree, params)
    assert validate_condition(out, tree, params).ok
    pr = leq(frag, out, params)
    assert isinstance(pr, Projection)
    for eta, q in zip(front, cones):
        again = restrict(out, eta)
        assert set(again.fns) == set(q.fns)
        assert all(again.klabel[fn] == q.klabel[fn] for fn in q.fns)


def test_amalgamate_rejects_a_label_above_the_half_norm(ctx, frag):
    # leq lets labels grow, so the cone check passes; the amalgam is no condition
    tree, params, _ = ctx
    front = list(frag.level_nodes(1))
    cones = [restrict(frag, eta) for eta in front]
    eta = front[0]
    raised = normhalf(creature_at(frag, eta, params), tree, params) + 1
    cones[0] = ConditionFragment(parent=dict(cones[0].parent), klabel={**cones[0].klabel, eta: raised})
    assert isinstance(leq(restrict(frag, eta), cones[0], params), Projection)
    with pytest.raises(ValidationError, match=r"^amalgamate output invalid: \(iv\) creatures and labels: klabel"):
        amalgamate(frag, front, cones, tree, params)


def test_amalgamate_rejects_non_front(ctx, frag):
    tree, params, _ = ctx
    with pytest.raises(PreconditionError, match="front"):
        amalgamate(frag, [frag.level_nodes(1)[0]], [restrict(frag, frag.level_nodes(1)[0])], tree, params)


def test_normalize_cone_min(ctx, frag):
    tree, params, _ = ctx
    nq = normalize(frag, tree, params)
    assert validate_condition(nq, tree, params).ok
    pr = leq(frag, nq, params)
    assert isinstance(pr, Projection)
    for fn in nq.internal():
        target = min(
            norm0(creature_at(frag, rho, params), tree, params, validate=False)
            for rho in frag.cone_nodes(pr(fn))
            if frag.children(rho)
        )
        assert norm0(creature_at(nq, fn, params), tree, params, validate=False) == target


def test_smoothen_already_smooth(ctx):
    tree, params, shape = ctx
    p = smooth_target_fragment(tree, params, alpha=2)
    q = smoothen(p, 2, 1, tree, params)
    assert set(q.fns) == set(p.fns)
    assert classify(q, tree).smooth


def test_smoothen_fills_missing_node(ctx):
    tree, params, shape = ctx
    p = smooth_target_fragment(tree, params, alpha=2, hold_out=[2])
    q = smoothen(p, 2, 1, tree, params)
    cls = classify(q, tree)
    assert cls.smooth and cls.alpha == 2
    assert leq_n(p, q, 1, tree, params)
    pr = leq(p, q, params)
    for eta in q.internal():
        n_new = norm0(creature_at(q, eta, params), tree, params, validate=False)
        n_old = norm0(creature_at(p, pr(eta), params), tree, params, validate=False)
        assert log2ceil(n_new) >= log2ceil(n_old) - 1


@pytest.mark.parametrize(
    "branching, fill_level", [((3, 3, 3), 0), ((2, 3, 3), 1)], ids=["fill-0", "fill-1"]
)
def test_smoothen_grafts_below_the_fill_level(monkeypatch, branching, fill_level):
    """A depth-3 fragment over 11 roots leaves out root 10.  The shallowest
    level whose creatures have norm0 2 absorbs it; its children are internal,
    so every creature below them is rebased onto the filled functions."""
    import creature_lab.forcing as forcing_mod

    n1 = (8, 64, 4096, 4096**2)
    params = make_growth(3, (n1, n1, (16, 128, 3 * 4096, 4 * 4096**2)))
    tree = build_tree(11, [], nodes=range(11))
    slices = [[0], list(range(1, 9)), [9]]
    p = canonical_fragment(tree, params, list(branching), slices, [1, 1, 1, 0])
    norms = [norm0(creature_at(p, fn, params), tree, params) for fn in p.level_nodes(fill_level)]
    assert min(norms) == 2 and p.depth == 3
    rebased = []
    rebase = forcing_mod.rebase

    def counted(c, *args):
        rebased.append(c)
        return rebase(c, *args)

    monkeypatch.setattr(forcing_mod, "rebase", counted)
    for m in (-1, 0):
        rebased.clear()
        q = smoothen(p, 1, m, tree, params)
        assert rebased
        assert validate_condition(q, tree, params).ok
        assert leq_n(p, q, m, tree, params)
        assert classify(q, tree).smooth
        assert all(10 in leaf for leaf in q.leaves())
        pr = leq(p, q, params)
        assert all(q.klabel[fn] == p.klabel[pr(fn)] for fn in q.fns)


def test_smoothen_leaf_outside_segment_rejected(ctx):
    tree, params, shape = ctx
    p = smooth_target_fragment(tree, params, alpha=2)
    with pytest.raises(PreconditionError, match="outside"):
        smoothen(p, 1, 0, tree, params)


def test_smoothen_budget_failure(ctx):
    tree, params, shape = ctx
    # 2-branching creatures have game norm 1: cannot absorb a missing node
    p = smooth_target_fragment(tree, params, alpha=2, branching=(2, 2), hold_out=[2])
    with pytest.raises(PreconditionError, match="budget|absorb|norm"):
        smoothen(p, 2, 0, tree, params)
