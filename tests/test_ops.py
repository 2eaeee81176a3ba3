import itertools
import random

import pytest

from creature_lab.creature import Creature, SimpleCreature, norm0, normhalf, normstar, validate_creature
from creature_lab.errors import DomainError, PreconditionError
from creature_lab import ops
from creature_lab.generators import chain_antichain_tree, diagonal_creature, profile, wide_tree
from creature_lab.oracle import oracle_norm0
from creature_lab.ops import bigness_split, fill, glue, halve, rebase, shrink_to_norm
from creature_lab.params import default_shape, log2ceil, make_growth
from creature_lab.specfn import EMPTY_FN, SpecFn
from creature_lab.tree_model import build_tree


@pytest.fixture
def tree():
    return build_tree(3, [(0, 3), (0, 4), (3, 6), (3, 7), (1, 5), (5, 8)], nodes=[2])


@pytest.fixture
def params():
    return make_growth(0, ((9,), (16,), (12,)))


@pytest.fixture
def four_member(tree, params):
    fns = [SpecFn.make({3: v}) for v in (0, 1)] + [SpecFn.make({4: v}) for v in (0, 1)]
    return SimpleCreature.make(0, EMPTY_FN, fns)


def test_glue_identity_extensions(tree, params, four_member):
    c = four_member
    exts = {(eta, k): eta for eta in c.valrange for k in range(2)}
    res = glue(c, exts, 2, tree, params)
    assert set(res.creature.valrange) == set(c.valrange)
    assert norm0(res.creature, tree, params) == norm0(c, tree, params) >= res.bound


def test_glue_fresh_incomparable_nodes(tree, params, four_member):
    c = four_member
    exts = {}
    for eta in c.valrange:
        picks = [6, 7] if eta.dom()[0] == 3 else [8, 2]
        for k in range(2):
            m = eta.as_dict()
            m[picks[k]] = 5 + k
            exts[(eta, k)] = SpecFn.make(m)
    res = glue(c, exts, 2, tree, params)
    d = res.creature
    assert validate_creature(d, params, tree).ok
    nd = norm0(d, tree, params)
    assert nd >= res.bound
    assert oracle_norm0(d, tree, params) == nd
    # value-range accounting from the construction
    assert normstar(d, params) >= normstar(c, params) - log2ceil(2)


def test_glue_comparable_extension_nodes_rejected(tree, params, four_member):
    c = four_member
    exts = {}
    for eta in c.valrange:
        # 3 < 6: comparable new points across k = 0 and k = 1
        picks = [3, 6] if eta.dom()[0] == 4 else [6, 7]
        if eta.dom()[0] == 3:
            picks = [6, 7]
        for k in range(2):
            m = eta.as_dict()
            if picks[k] not in m:
                m[picks[k]] = 5 + k
            exts[(eta, k)] = SpecFn.make(m)
    # members on node 4 get extensions through 3 then 6, which are comparable
    bad_eta = [eta for eta in c.valrange if eta.dom()[0] == 4][0]
    m0 = bad_eta.as_dict()
    m0[3] = 5
    m1 = bad_eta.as_dict()
    m1[6] = 6
    exts[(bad_eta, 0)] = SpecFn.make(m0)
    exts[(bad_eta, 1)] = SpecFn.make(m1)
    with pytest.raises(PreconditionError, match=r"clause \(e\)"):
        glue(c, exts, 2, tree, params)


def test_glue_ceiling_bound_counterexample():
    """Why the glue bound uses the floor of the domain-budget log term.

    With extensions of domain size 5 against n2 = 16, the ceiling reading
    promises norm 2 but every output member already busts the level-2 domain
    budget (5 * 4 > 16); the floor reading promises 1, which is tight.
    """
    from creature_lab.params import log2ceil_ratio
    from creature_lab.tree_model import build_tree as _bt

    flat = _bt(16, [], nodes=range(16))
    g = make_growth(0, ((10,), (16,), (20,)))
    c = diagonal_creature(0, EMPTY_FN, [3], 3, 0, g, flat)
    assert norm0(c, flat, g) == 2
    blocks = [[4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
    exts = {}
    for eta in c.valrange:
        for k in range(3):
            m = eta.as_dict()
            for j, x in enumerate(blocks[k]):
                m[x] = 3 + j
            exts[(eta, k)] = SpecFn.make(m, bound=20)
    res = glue(c, exts, 3, flat, g)
    lstar = res.trace["lstar"]
    ceil_bound = min(2, log2ceil_ratio(16, lstar), 2)
    nd = norm0(res.creature, flat, g)
    assert nd == oracle_norm0(res.creature, flat, g) == 1
    assert nd < ceil_bound  # the ceiling reading over-promises
    assert nd >= res.bound  # the floor reading is sound (and tight here)


def test_glue_norm_positive_required(tree, params):
    # valid creature with game norm 0: both members sit on one branch with
    # the same value, so a single forbidden value defeats level 1
    c = SimpleCreature.make(0, EMPTY_FN, [SpecFn.make({0: 0}), SpecFn.make({3: 0})])
    assert validate_creature(c, params, tree).ok
    assert norm0(c, tree, params) == 0
    exts = {(eta, k): eta for eta in c.valrange for k in range(2)}
    with pytest.raises(PreconditionError, match=r"clause \(b\)"):
        glue(c, exts, 2, tree, params)


def test_fill_m_equals_k(tree, params, four_member):
    res = fill(four_member, [2], tree, params)
    assert res.bound == 0
    d = res.creature
    assert validate_creature(d, params, tree).ok
    assert all(2 in nu for nu in d.valrange)


def test_fill_bound_and_oracle(tree):
    params = make_growth(0, ((17,), (32,), (20,)))
    c = diagonal_creature(0, EMPTY_FN, [3, 4], 4, 1, params, tree)
    k = norm0(c, tree, params)
    res = fill(c, [2], tree, params)
    d = res.creature
    nd = norm0(d, tree, params)
    assert nd >= k - 1 == res.bound
    assert oracle_norm0(d, tree, params) == nd
    assert normstar(d, params) >= normstar(c, params) - log2ceil(k)


def test_fill_m_too_large(tree, params, four_member):
    # norm0 = 1 admits only m = 1
    with pytest.raises(PreconditionError, match=r"clause \(c\)"):
        fill(four_member, [2, 5], tree, params)


def test_fill_node_already_present(tree, params, four_member):
    with pytest.raises(PreconditionError, match="already"):
        fill(four_member, [3], tree, params)


def test_fill_forbids_the_values_above_the_xs_for_every_member():
    # each member puts its own value (1..4) on node 16, above x = 10; none of
    # those values may appear at 10 in any member of the result
    tree, params = wide_tree(6, 3), profile("cond3")
    base = SpecFn.make({0: 0, 1: 0, 2: 0, 3: 0})
    c = diagonal_creature(2, base, [16, 17], 4, 1, params, tree)
    k = norm0(c, tree, params)
    d = fill(c, [10], tree, params).creature
    above = {v for eta in c.valrange for y, v in eta.pairs if tree.less(10, y)}
    assert above == {1, 2, 3, 4}
    assert not {nu.as_dict()[10] for nu in d.valrange} & above
    assert norm0(d, tree, params) >= k - 1


def test_rebase_identity(tree, params, four_member):
    res = rebase(four_member, EMPTY_FN, tree, params)
    assert res.creature == four_member
    assert res.bound == norm0(four_member, tree, params)


def test_rebase_kind1_bound_is_attained():
    # the proven bound norm0 - l1 - l2 is tight here, so a bound off by one shows
    tree, g = chain_antichain_tree(), profile("ops")
    base = SpecFn.make({0: 1, 1: 4, 2: 2, 3: 3, 6: 5, 7: 5, 8: 7})
    members = [SpecFn.make({**base.as_dict(), 4: v}) for v in (0, 2, 3, 4, 5)]
    c = SimpleCreature.make(1, base, members)
    assert validate_creature(c, g, tree).ok and norm0(c, tree, g) == 4
    res = rebase(c, SpecFn.make({**base.as_dict(), 5: 0}), tree, g)
    assert (res.trace["l1"], res.trace["l2"], res.bound) == (0, 1, 3)
    # nine points a member now: the beta budget 9 * 2^k <= n2[1] = 128 stops at k = 3
    assert norm0(res.creature, tree, g) == res.bound


def test_rebase_grow_kind1(tree):
    g = make_growth(1, ((3, 9), (3, 16), (6, 64)))
    base = SpecFn.make({0: 0})
    vr = [SpecFn.make({0: 0, n: v}) for n in (3, 4) for v in (1, 2, 3)]
    c = SimpleCreature.make(1, base, vr)
    assert norm0(c, tree, g) == 2
    star = SpecFn.make({0: 0, 2: 3})
    res = rebase(c, star, tree, g)
    assert res.trace["l1"] == 0 and res.trace["l2"] == 1
    assert res.bound == 1
    assert norm0(res.creature, tree, g) >= 1
    assert normstar(res.creature, g) >= normstar(c, g)
    assert res.creature.base == star


def test_rebase_budget_precondition(tree):
    g = make_growth(1, ((3, 9), (3, 16), (6, 64)))
    base = SpecFn.make({0: 0})
    vr = [SpecFn.make({0: 0, 3: 1}), SpecFn.make({0: 0, 3: 2})]
    c = SimpleCreature.make(1, base, vr)
    assert norm0(c, tree, g) == 1
    star = SpecFn.make({0: 0, 2: 3})
    with pytest.raises(PreconditionError, match=r"clause \(d\)"):
        rebase(c, star, tree, g)


def test_rebase_refuses_a_member_without_a_spec_union():
    # dropping the two members whose union with etastar is not a spec
    # function would leave norm0 1 under a promised bound of 3 - 0 - 1 = 2
    tree, g = chain_antichain_tree(), profile("ops")
    members = [{0: 4, 4: 0}, {4: 0, 5: 2}, {4: 0, 6: 1}, {4: 0, 7: 3}]
    c = SimpleCreature.make(1, SpecFn.make({4: 0}), [SpecFn.make(m) for m in members])
    assert validate_creature(c, g, tree).ok and norm0(c, tree, g) == 3
    with pytest.raises(PreconditionError, match=r"clause \(c\): member \{0:4,4:0\}"):
        rebase(c, SpecFn.make({4: 0, 6: 4}), tree, g)


def test_shrink_identity_at_full_norm(tree, params, four_member):
    n0 = norm0(four_member, tree, params)
    res = shrink_to_norm(four_member, n0, tree, params)
    assert norm0(res.creature, tree, params) == n0


def test_shrink_four_member_to_one(tree, params, four_member):
    res = shrink_to_norm(four_member, 1, tree, params)
    assert norm0(res.creature, tree, params) == 1
    assert set(res.creature.valrange) <= set(four_member.valrange)
    # exhaustive confirmation that a norm-1 subset exists
    found = False
    members = four_member.valrange
    for r in range(1, len(members) + 1):
        for combo in itertools.combinations(members, r):
            sub = SimpleCreature.make(0, EMPTY_FN, combo)
            if norm0(sub, tree, params, validate=False) == 1:
                found = True
    assert found


def test_shrink_degenerate_corner(tree, params):
    g = make_growth(1, ((2, 4), (2, 25), (4, 16)))
    base = SpecFn.make({0: 0})
    c = SimpleCreature.make(1, base, [base])
    with pytest.raises(DomainError, match="stuck"):
        shrink_to_norm(c, 1, tree, g)


def test_shrink_target_above_norm(tree, params, four_member):
    with pytest.raises(PreconditionError):
        shrink_to_norm(four_member, 5, tree, params)


def test_bigness_empty_side(tree, params, four_member):
    res = bigness_split(four_member, (list(four_member.valrange), []), tree, params)
    assert res.side == 1 and res.creature == four_member


def test_bigness_split_keeps_strong_side(tree, params, four_member):
    b_side = [fn for fn in four_member.valrange if 3 in fn]
    c_side = [fn for fn in four_member.valrange if 4 in fn]
    res = bigness_split(four_member, (b_side, c_side), tree, params)
    kept = res.creature
    n_orig = norm0(four_member, tree, params)
    n_kept = norm0(kept, tree, params, validate=False)
    assert n_kept >= n_orig // 2
    assert log2ceil(n_kept) >= log2ceil(n_orig) - 1


def test_bigness_boundary_counterexample(tree):
    """The odd-boundary defect of the 2-bigness claim, realized.

    A 4-member diagonal creature with game norm 3 (ceil-log norm 2) splits
    into two valid 2-member creatures both with game norm 1 (ceil-log 0),
    while the claim promises one side with ceil-log norm >= 1.  The floor-log
    variant of the claim survives.
    """
    g = make_growth(1, ((3, 33), (4, 40), (8, 80)))
    base = SpecFn.make({0: 0})
    members = [SpecFn.make({0: 0, 3: 10 + j, 4: 10 + j, 5: 10 + j}) for j in range(4)]
    c = SimpleCreature.make(1, base, members)
    assert validate_creature(c, g, tree).ok
    n0 = norm0(c, tree, g)
    assert n0 == 3 and log2ceil(n0) == 2
    s1 = SimpleCreature.make(1, base, members[:2])
    s2 = SimpleCreature.make(1, base, members[2:])
    assert validate_creature(s1, g, tree).ok and validate_creature(s2, g, tree).ok
    n1, n2 = norm0(s1, tree, g), norm0(s2, tree, g)
    assert (n1, n2) == (1, 1)
    # ceiling-log claim fails ...
    assert not (log2ceil(n1) >= 1 or log2ceil(n2) >= 1)
    # ... the floor-log variant holds (norm0 halves up to floor)
    assert max(n1, n2) >= n0 // 2 - 0  # floor(3/2) = 1
    def floorlog(x):
        return x.bit_length() - 1 if x > 0 else 0
    assert floorlog(n1) >= floorlog(n0) - 1 or floorlog(n2) >= floorlog(n0) - 1


def test_bigness_parts_must_cover(tree, params, four_member):
    with pytest.raises(PreconditionError):
        bigness_split(four_member, ([four_member.valrange[0]], []), tree, params)


def test_halve_repair_instance(tree):
    # normhalf 16, counter 1: the sqrt witness drops the norm from 4 to 2,
    # violating the drop bound; the repair lands on the largest compliant
    # counter, 2
    g = make_growth(1, ((4, 16), (4, 64), (8, 64)))
    base = SpecFn.make({0: 0})
    c = SimpleCreature.make(1, base, [base])
    nh = normhalf(c, tree, g)
    assert nh == 4  # min(norm0 cap..., normstar)
    sh = default_shape()
    cp = Creature(c, 1)
    res = halve(cp, tree, g)
    assert res.creature.k > 1
    assert sh.norm_geq_shifted(nh, res.creature.k, nh, 1, 1)


def test_halve_direct_16_1():
    # pure shape-level check of the repair arithmetic
    sh = default_shape()
    assert sh.f(16, 4) == 2.0 and sh.f(16, 1) == 4.0
    assert not sh.norm_geq_shifted(16, 4, 16, 1, 1)  # 2 >= 4 - 1 fails
    assert sh.norm_geq_shifted(16, 2, 16, 1, 1)  # 3 >= 3 holds


def test_halve_precondition(tree, params, four_member):
    sh = default_shape()
    cp = Creature(four_member, norm0(four_member, tree, params))
    # normhalf equals the counter: f = 0 < 1
    with pytest.raises(PreconditionError):
        halve(cp, tree, params)


def test_halve_takes_the_largest_counter_the_drop_bound_allows(monkeypatch, tree, params, four_member):
    sh = default_shape()
    for nh in range(2, 70):
        monkeypatch.setattr(ops, "normhalf", lambda c, tree, params: nh)
        for k in range(1, nh // 2 + 1):
            scan = [kp for kp in range(nh - 1, k, -1) if sh.norm_geq_shifted(nh, kp, nh, k, 1)]
            if not scan:
                # (k, nh) holds no integer: halving_witness refuses first
                assert (nh, k) == (2, 1)
                with pytest.raises(PreconditionError, match="strictly between 1 and 2"):
                    halve(Creature(four_member, k), tree, params)
                continue
            assert halve(Creature(four_member, k), tree, params).creature.k == scan[0]


def test_halve_monotone_and_drop_sweep(tree):
    g = make_growth(0, ((41,), (64,), (50,)))
    sh = default_shape()
    rng = random.Random(9)
    checked = 0
    repaired = 0
    for _ in range(300):
        members = rng.randint(4, 9)
        sl = rng.choice([[3], [4], [3, 4]])
        c = diagonal_creature(0, EMPTY_FN, sl, members, rng.randint(0, 9), g, tree)
        nh = normhalf(c, tree, g)
        k = rng.randint(1, max(1, nh // 2))
        if not sh.norm_geq(nh, k, 1) or nh - k < 2:
            continue
        res = halve(Creature(c, k), tree, g)
        assert res.creature.simple == c
        assert res.creature.k > k
        assert sh.norm_geq_shifted(nh, res.creature.k, nh, k, 1)
        repaired += int(res.repaired)
        checked += 1
    assert checked > 100
