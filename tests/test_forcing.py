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
    fragments_agree_below,
    fuse,
    is_front,
    kind_of,
    leq,
    leq_n,
    leq_strict_f,
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


# -- verdicts no suite reaches, on fragments built by hand --------------------


def _fragment(parent, coverage=None):
    """The fragment with these parent links, every klabel 0."""
    return ConditionFragment(parent=parent, klabel=dict.fromkeys(parent, 0), coverage=coverage)


def _failed_checks(p, tree, params):
    return {c.clause: c.witness for c in validate_condition(p, tree, params).failures()}


def test_a_level_over_its_n1_bound_fails_the_level_size_check():
    tree, params = two_level_tree(), make_growth(1, ((2, 4), (2, 4), (8, 16)))
    kids = [SpecFn.make({0: v}) for v in range(4)]
    failed = _failed_checks(_fragment({EMPTY_FN: None, **dict.fromkeys(kids, EMPTY_FN)}), tree, params)
    assert failed == {
        "(iv) creatures and labels": f"creature at {EMPTY_FN}: clause (c) |valrange| = 4 not < n1[i] = 2",
        "level-size bound": "|level 1| = 4 not < n1[1]",
    }


@pytest.mark.parametrize("level", [0, 1])
def test_a_domain_at_its_window_edge_fails_the_domain_size_check(level):
    # a root of size n2[0] has kind 1, whose roots need a size below n2[0];
    # a kind-0 root's children need the same
    tree, params = two_level_tree(), make_growth(1, ((2, 4), (2, 4), (8, 16)))
    wide = SpecFn.make({0: 0, 1: 0})
    p = _fragment({wide: None} if level == 0 else {EMPTY_FN: None, wide: EMPTY_FN})
    failed = _failed_checks(p, tree, params)
    assert failed["domain-size bound"] == f"|dom| = 2 at level {level} not < n2[0]"
    assert set(failed) == {"domain-size bound"} | ({"(iv) creatures and labels"} if level else set())


def test_an_exceptional_set_meeting_the_segment_fails_coverage(ctx):
    tree, params, _ = ctx
    p = _fragment({EMPTY_FN: None}, coverage=Coverage(k=0, alpha=1, u=frozenset({0})))
    assert _failed_checks(p, tree, params) == {"(vi) coverage": "u meets the initial segment"}


def _first_missing_union(p, tree):
    """Clause (v) from its definition: the first pair of nodes whose union is a
    specialization function outside p."""
    for a, b in itertools.combinations(p.fns, 2):
        union = dict(a.pairs)
        if any(union.setdefault(x, v) != v for x, v in b.pairs):
            continue
        pairs = itertools.combinations(union.items(), 2)
        if any(vx == vy and tree.comparable(x, y) for (x, vx), (y, vy) in pairs):
            continue
        if SpecFn.make(union) not in p:
            return f"union of {a} and {b} missing"
    return None


def test_clause_v_finds_the_first_missing_union_of_every_level_set(ctx):
    tree, params, _ = ctx
    # unions that are specialization functions, one that is not ({0:0} and
    # {3:0}, with 0 below 3) and one that is no function ({0:0} and {0:1})
    pool = [
        SpecFn.make(m)
        for m in ({0: 0}, {1: 0}, {2: 0}, {3: 0}, {0: 1}, {0: 0, 1: 0}, {1: 0, 2: 0}, {0: 1, 3: 0})
    ]
    witnesses = set()
    for r in range(len(pool) + 1):
        for kids in itertools.combinations(pool, r):
            p = _fragment({EMPTY_FN: None, **dict.fromkeys(kids, EMPTY_FN)})
            (check,) = [c for c in validate_condition(p, tree, params).checks if c.clause == "(v) closure"]
            want = _first_missing_union(p, tree)
            assert (check.ok, check.witness) == (want is None, want or ""), kids
            witnesses.add(want)
    assert len(witnesses) > 5


# p: {} -> {0:0} -> {0:0,3:1,4:2} and {0:0,5:1}, kind 0.  A kind-1 q rooted at
# {0:0,3:1} projects its root to {0:0}; that root holds node 3 of the first
# leaf but not the whole leaf.
_A = SpecFn.make({0: 0})
_T1, _T2 = SpecFn.make({0: 0, 3: 1, 4: 2}), SpecFn.make({0: 0, 5: 1})
_R = SpecFn.make({0: 0, 3: 1})


def _shift_one_p():
    return _fragment({EMPTY_FN: None, _A: EMPTY_FN, _T1: _A, _T2: _A})


def test_leq_names_the_clause_a_pair_fails(ctx):
    _, params, _ = ctx
    empty, a, a1 = (_fragment({fn: None}) for fn in (EMPTY_FN, _A, SpecFn.make({0: 1})))
    assert leq(a, empty, params) == NotRelated("i(p) <= i(q)", "i(p)=1 > i(q)=0")
    assert leq(a, a1, params) == NotRelated("(a)", "no element of p is contained in rt(q)")
    assert leq(empty, a, params) == NotRelated("(b)", "rt(q) projects to level 0, expected 1")
    # the leaf above rt(q) projects to _T1, whose node 3 is in dom(rt(q)) but not in dom({0:0})
    q = _fragment({_R: None, _T1: _R})
    assert leq(_shift_one_p(), q, params) == NotRelated("(f)", f"dom({_T1}) ∩ dom({_R}) != dom({_A})")


def test_leq_strict_f_sees_an_extension_leq_does_not_visit(ctx):
    _, params, _ = ctx
    p = _shift_one_p()
    leaf = SpecFn.make({0: 0, 3: 1, 5: 1})
    q = _fragment({_R: None, leaf: _R})
    pr = leq(p, q, params)
    assert isinstance(pr, Projection) and pr.mapping == {_R: _A, leaf: _T2}
    # _T1 extends the image of rt(q) and meets dom(rt(q)) in node 3
    assert not leq_strict_f(p, q, pr)
    assert leq_strict_f(p, p, leq(p, p, params))


def test_fragments_agree_below_compares_nodes_labels_and_parents(frag):
    p = frag
    assert fragments_agree_below(p, p, p.depth)
    a, b = p.level_nodes(1)[:2]
    assert not fragments_agree_below(p, restrict(p, a), 0)
    bumped = ConditionFragment(parent=p.parent, klabel={**p.klabel, a: p.klabel[a] + 1})
    assert fragments_agree_below(p, bumped, 0) and not fragments_agree_below(p, bumped, 1)
    # two leaves trade parents; every level keeps its nodes and labels
    x, y = p.children(a)[0], p.children(b)[0]
    swapped = ConditionFragment(parent={**p.parent, x: b, y: a}, klabel=p.klabel)
    assert swapped.levels() == p.levels()
    assert fragments_agree_below(p, swapped, 1) and not fragments_agree_below(p, swapped, 2)


def test_leq_n_rejects_a_kind_change_and_an_unrelated_pair_at_grade_minus_one(ctx, frag):
    tree, params, _ = ctx
    # grade -1 freezes no level, so only the kind test and leq's verdict decide
    cone = restrict(frag, frag.level_nodes(1)[0])
    assert isinstance(leq(frag, cone, params), Projection)
    assert kind_of(frag, params) != kind_of(cone, params)
    assert not leq_n(frag, cone, -1, tree, params)
    p, q = _fragment({_A: None}), _fragment({SpecFn.make({0: 1}): None})
    assert kind_of(p, params) == kind_of(q, params) and isinstance(leq(p, q, params), NotRelated)
    assert not leq_n(p, q, -1, tree, params)


def test_leq_n_freezes_the_labels_of_levels_up_to_n(ctx, frag):
    # a leaf carries no creature, so only the frozen levels see its label
    tree, params, _ = ctx
    leaf = frag.level_nodes(2)[0]
    bumped = ConditionFragment(parent=frag.parent, klabel={**frag.klabel, leaf: frag.klabel[leaf] + 1})
    assert isinstance(leq(frag, bumped, params), Projection)
    assert leq_n(frag, bumped, 1, tree, params)
    assert not leq_n(frag, bumped, 2, tree, params)
