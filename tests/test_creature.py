import itertools
import random

import pytest

from creature_lab.creature import (
    Creature,
    SimpleCreature,
    _hit_by,
    clause_d_holds,
    norm0,
    normhalf,
    norms,
    normstar,
    validate_creature,
)
from creature_lab.errors import BudgetError, ValidationError
from creature_lab.generators import diagonal_creature, profile, random_creature
from creature_lab.oracle import oracle_norm0
from creature_lab.params import default_shape, make_growth
from creature_lab.specfn import EMPTY_FN, SpecFn, is_spec
from creature_lab.tree_model import build_tree


@pytest.fixture
def tree():
    return build_tree(3, [(0, 3), (0, 4), (3, 6), (3, 7), (1, 5), (5, 8)], nodes=[2])


@pytest.fixture
def params():
    return make_growth(0, ((9,), (16,), (12,)))


def test_degenerate_empty_creature_valid(tree, params):
    c = SimpleCreature.make(0, EMPTY_FN, [EMPTY_FN])
    assert validate_creature(c, params, tree).ok


def test_member_not_extending_base_invalid(tree):
    g = make_growth(1, ((2, 4), (2, 25), (4, 16)))
    base = SpecFn.make({0: 0})
    c = SimpleCreature.make(1, base, [SpecFn.make({3: 1})])
    rep = validate_creature(c, g, tree)
    assert not rep.ok
    assert rep.failures()[0].clause == "(c)"


def test_singleton_with_new_point_fails_clause_d(tree, params):
    c = SimpleCreature.make(0, EMPTY_FN, [SpecFn.make({3: 0})])
    rep = validate_creature(c, params, tree)
    assert not rep.ok
    assert rep.failures()[0].clause == "(d)"
    ok, wit = clause_d_holds(c)
    assert not ok and "3" in wit


def test_wrong_kind_invalid(tree, params):
    c = SimpleCreature.make(0, SpecFn.make({0: 0}), [SpecFn.make({0: 0, 3: 1})])
    rep = validate_creature(c, params, tree)
    assert not rep.ok
    assert rep.failures()[0].clause == "(b)"


def test_norm0_four_member_example(tree):
    # values 0/1 on two sibling leaves: the forbidden pair {0,1} with branches
    # through both siblings caps the norm at 1
    g = make_growth(0, ((5,), (5,), (8,)))
    fns = [SpecFn.make({3: v}) for v in (0, 1)] + [SpecFn.make({4: v}) for v in (0, 1)]
    c = SimpleCreature.make(0, EMPTY_FN, fns)
    assert validate_creature(c, g, tree).ok
    assert norm0(c, tree, g) == 1
    assert oracle_norm0(c, tree, g) == 1


SWEEP = ((5,), (6,), (8,))


@pytest.mark.parametrize(
    "i, g, base, extensions, expected, valid",
    [
        # {base}: alpha is vacuous, min(cap, floor(lg(n2/|dom base|)))
        pytest.param(1, ((2, 4), (2, 25), (4, 16)), {0: 0}, [], min(4, (25).bit_length() - 1), True,
                     id="base-only"),
        # the empty base wins every instance and its budget never runs out
        pytest.param(0, SWEEP, {}, [{3: 0}, {4: 1}], 5, True, id="kind-0-empty-base-and-two"),
        pytest.param(0, SWEEP, {}, [{3: 0}, {4: 1}, {5: 0}], 5, True, id="kind-0-empty-base-and-three"),
        # the base outlives every extension: floor(lg(128/2)) = 6 < n1[1] = 81
        pytest.param(1, "ops", {0: 0, 1: 0}, [{3: 1}, {3: 2}, {4: 1, 5: 2}], 6, True,
                     id="kind-1-base-and-extensions"),
        # an unvalidated base longer than n2[0] = 6 is over budget at every k
        pytest.param(0, SWEEP, dict.fromkeys(range(7), 0), [], 0, False, id="unvalidated-base-over-n2"),
    ],
)
def test_norm0_degenerate_closed_form(tree, i, g, base, extensions, expected, valid):
    """A value range holding its base: the norm is the base's beta budget, capped."""
    g = profile(g) if isinstance(g, str) else make_growth(i, g)
    base_fn = SpecFn.make(base)
    c = SimpleCreature.make(i, base_fn, [base_fn] + [SpecFn.make({**base, **e}) for e in extensions])
    assert validate_creature(c, g, tree).ok == valid
    assert norm0(c, tree, g, validate=valid) == expected
    if g.n3[i] <= 16:
        assert oracle_norm0(c, tree, g, validate=False) == expected


def test_norm0_empty_degenerate_hits_cap(tree):
    g = make_growth(0, ((3,), (3,), (4,)))
    c = SimpleCreature.make(0, EMPTY_FN, [EMPTY_FN])
    assert norm0(c, tree, g) == 3
    assert oracle_norm0(c, tree, g) == 3


def test_norm0_clause_d_violation_is_zero(tree, params):
    c = SimpleCreature.make(0, EMPTY_FN, [SpecFn.make({3: 0})])
    assert norm0(c, tree, params, validate=False) == 0


def test_norm0_of_invalid_creature_raises(tree, params):
    c = SimpleCreature.make(0, EMPTY_FN, [SpecFn.make({3: 0})])
    with pytest.raises(ValidationError):
        norm0(c, tree, params)


def test_norms_record(tree):
    g = make_growth(0, ((16,), (16,), (20,)))
    sh = default_shape()
    fns = [SpecFn.make({3: v}) for v in range(2)] + [SpecFn.make({4: v}) for v in range(2)]
    c = SimpleCreature.make(0, EMPTY_FN, fns)
    rec = norms(Creature(c, 2), tree, g)
    assert rec.normstar == 2  # lg(16/4) exactly
    assert rec.norm1 == 0 if rec.norm0 == 0 else True
    # normhalf 8, k 2 -> norm 2.0 on a synthetic record
    assert sh.f(8, 2) == 2.0


def test_norm1_of_zero_is_zero(tree, params):
    c = SimpleCreature.make(0, EMPTY_FN, [SpecFn.make({3: 0})])
    sh = default_shape()
    rec = norms(Creature(c, 1), tree, params)
    assert rec.norm0 == 0 and rec.norm1 == 0


def test_diagonal_norm_formula(tree, params):
    for members in (2, 3, 4, 5):
        c = diagonal_creature(0, EMPTY_FN, [3, 4], members, 1, params, tree)
        beta_cap = 0
        while (2 << (beta_cap + 1)) <= params.n2[0]:
            beta_cap += 1
        assert norm0(c, tree, params) == min(members - 1, beta_cap)


def test_base_recovery_for_positive_norm(tree, params):
    # intersection of the members recovers the base; the kind follows
    rng = random.Random(3)
    recovered = 0
    for _ in range(200):
        c = random_creature(rng, tree, params, max_members=4, value_bound=8)
        if c is None or norm0(c, tree, params, validate=False) < 1:
            continue
        inter = set(c.valrange[0].pairs)
        for fn in c.valrange[1:]:
            inter &= set(fn.pairs)
        assert SpecFn(tuple(sorted(inter))) == SpecFn(c.base.pairs)
        assert params.kind_for_dom_size(len(c.base)) == c.i
        recovered += 1
    assert recovered > 30


def test_normstar_grows_on_subsets(tree, params):
    rng = random.Random(4)
    for _ in range(100):
        c = random_creature(rng, tree, params, max_members=4, value_bound=8)
        if c is None or len(c.valrange) < 2:
            continue
        sub = SimpleCreature.make(c.i, c.base, c.valrange[:-1])
        assert normstar(sub, params) >= normstar(c, params)


def test_reduction_matches_oracle_random(tree, params):
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        c = random_creature(rng, tree, params, max_members=4, value_bound=6)
        if c is None:
            continue
        assert norm0(c, tree, params, validate=False) == oracle_norm0(
            c, tree, params, validate=False
        )
        checked += 1
    assert checked > 150


@pytest.mark.parametrize("i, g", [(0, SWEEP), (1, ((2, 5), (3, 9), (4, 12)))], ids=["kind-0", "kind-1"])
def test_norm0_matches_the_oracle_with_the_base_in_the_value_range(tree, i, g):
    """A value range that holds its base goes through the level loop like any
    other: random creatures with the base added, and the base alone."""
    g = make_growth(i, g)
    rng = random.Random(24 + i)
    checked = 0
    for _ in range(80):
        c = random_creature(rng, tree, g, i=i, max_members=3, value_bound=6)
        if c is None:
            continue
        for held in (c.valrange + (c.base,), (c.base,)):
            d = SimpleCreature.make(i, c.base, held)
            assert norm0(d, tree, g, validate=False) == oracle_norm0(d, tree, g, validate=False), d
            checked += 1
    assert checked > 100


def test_hit_by_matches_an_enumeration_of_value_sets():
    """`_hit_by(masks, s)` against every s-subset of 5 values (all 5 once s
    exceeds them), for every family of at most 4 masks over those values: the
    empty family, zero masks, s = 0 and s >= #masks among them."""
    values = 5
    subsets = range(1 << values)
    # meets[m]: bit a set when value set a meets mask m
    meets = [sum(1 << a for a in subsets if a & m) for m in subsets]
    # of_size[r]: bit a set when value set a has r values
    of_size = [sum(1 << a for a in subsets if a.bit_count() == r) for r in range(values + 1)]
    for count in range(5):
        for family in itertools.combinations_with_replacement(subsets, count):
            hitting = (1 << (1 << values)) - 1
            for m in family:
                hitting &= meets[m]
            for s in range(values + 2):
                expected = bool(hitting & of_size[min(s, values)])
                assert _hit_by(list(family), s) == expected, (family, s)


# criterion 1's forests with their exhaustive windows and value bounds
WINDOW_FORESTS = [
    (build_tree(2, [(0, 2), (0, 3)]), (0, 2, 3), 4),
    (build_tree(3, [(0, 3), (0, 4), (3, 6), (3, 7), (1, 5), (5, 8)], nodes=[2]), (0, 3, 5), 3),
    (build_tree(3, [(0, 3), (1, 4), (1, 5), (4, 7)], nodes=[2]), (1, 4, 2), 3),
]


def _window_pool(wtree, window, bound):
    """Criterion 1's pool: spec functions on the window with domains of size <= 2."""
    pool = []
    for r in (1, 2):
        for nodes in itertools.combinations(window, r):
            for vals in itertools.product(range(bound), repeat=r):
                fn = SpecFn.make(dict(zip(nodes, vals)), bound=8)
                if is_spec(wtree, fn, bound=8):
                    pool.append(fn)
    return pool


def _oracle_cases(tree, params):
    """(creature, tree, params) for diagonal, random and window-pool creatures."""
    cases = []
    antichains = [[6], [4, 6], [2, 4, 8]]
    for prof in (((5,), (6,), (8,)), ((7,), (12,), (10,)), ((9,), (16,), (12,))):
        g = make_growth(0, prof)
        for ac in antichains:
            for members in (2, 3, 4):
                c = diagonal_creature(0, EMPTY_FN, ac, members, 1, g, tree)
                cases.append((c, tree, g))
    rng = random.Random(6)
    for _ in range(60):
        c = random_creature(rng, tree, params, max_members=4, value_bound=6)
        if c is not None:
            cases.append((c, tree, params))
    g = make_growth(0, ((5,), (6,), (8,)))
    for wtree, window, bound in WINDOW_FORESTS:
        pool = _window_pool(wtree, window, bound)
        for size in (1, 2, 3):
            for combo in itertools.combinations(pool[:7], size):
                c = SimpleCreature.make(0, EMPTY_FN, combo)
                if clause_d_holds(c)[0]:
                    cases.append((c, wtree, g))
    return cases


def test_oracle_streamed_masks_match_table(tree, params, monkeypatch):
    # forbidden sets too many for a table are streamed per branch tuple and
    # checked one at a time; the table path checks them all at once through
    # the avoider sets, and both must give the same norm
    import creature_lab.oracle as oracle_mod

    cases = _oracle_cases(tree, params)
    assert len(cases) > 150
    tabled = [oracle_norm0(c, t, g, validate=False) for c, t, g in cases]
    monkeypatch.setattr(oracle_mod, "A_MASK_TABLE_LIMIT", 0)
    assert [oracle_norm0(c, t, g, validate=False) for c, t, g in cases] == tabled
    assert list(oracle_mod._a_masks(4, 2)) == [0, 1, 2, 4, 8, 3, 5, 9, 6, 10, 12]


@pytest.mark.parametrize(
    "n3, ks, m",
    [(4, (2,), 0), (4, (1, 2), 0b0101), (6, (3,), 0b100110), (8, (0, 2, 4), 0b10000001), (12, (3,), 0b111)],
)
def test_avoiders_match_a_scan(n3, ks, m):
    import creature_lab.oracle as oracle_mod

    # one m under several k in a row: the tables keep k apart
    for k in ks:
        family = list(oracle_mod._a_masks(n3, k))
        expected = sum(1 << j for j, a in enumerate(family) if not a & m)
        assert oracle_mod._avoider_table(n3, k)[m] == expected


def test_avoider_tables_stay_within_their_bound(tree, params, monkeypatch):
    # a bound far below the population's distinct (n3, k, field value) keys
    # empties the tables over and over; no answer may change, and the tables
    # never hold more entries than the bound
    import creature_lab.oracle as oracle_mod

    cases = _oracle_cases(tree, params)
    expected = [oracle_norm0(c, t, g, validate=False) for c, t, g in cases]
    bound = 6
    monkeypatch.setattr(oracle_mod, "AVOIDER_LIMIT", bound)
    monkeypatch.setattr(oracle_mod, "_avoider_tables", {})
    tables = oracle_mod._avoider_tables
    answers, seen = [], set()
    for c, t, g in cases:
        answers.append(oracle_norm0(c, t, g, validate=False))
        assert sum(map(len, tables.values())) <= bound
        seen.update((key, m) for key, table in tables.items() for m in table)
    assert answers == expected
    assert len(seen) > 3 * bound


def test_oracle_budget_guard_message(tree, params):
    # the guard runs before any enumeration at each k, with the cost of the
    # whole instance: (branches ** k) * (forbidden sets) * (members)
    c = diagonal_creature(0, EMPTY_FN, [4, 6], 4, 1, params, tree)
    assert len(tree.branches()) == 5
    with pytest.raises(BudgetError) as err:
        oracle_norm0(c, tree, params, budget=50_000, validate=False)
    assert str(err.value) == "oracle instance too large at k=3: 149500 > budget 50000"
    assert oracle_norm0(c, tree, params, validate=False) == 3


def test_oracle_ignores_values_outside_n3(params):
    # n3[0] = 8.  The first member's values 8 and 9 meet no forbidden set; in
    # a packed field layout they must not spill into the second member's
    # field as values 0 and 1.  The second member (size 1, live for k <= 2)
    # then puts no value below 8 anywhere and wins every instance up to k = 2.
    chain = build_tree(2, [(0, 2)])
    g = make_growth(0, ((5,), (6,), (8,)))
    c = SimpleCreature.make(0, EMPTY_FN, [SpecFn.make({0: 8, 2: 9}), SpecFn.make({0: 10})])
    assert [len(eta) for eta in c.valrange] == [2, 1]
    assert oracle_norm0(c, chain, g, validate=False) == 2


def _clause_d_scan(c):
    """Clause (d) as a pointwise scan: each new point of each member, in
    order, against every member."""
    base_dom = c.base.domset()
    for eta1 in c.valrange:
        d1 = eta1.as_dict()
        for x in sorted(eta1.domset() - base_dom):
            if all(x in eta2 and eta2.as_dict()[x] == d1[x] for eta2 in c.valrange):
                return False, f"member {eta1} point {x}"
    return True, ""


def _clause_d_cases():
    for wtree, window, bound in WINDOW_FORESTS:
        pool = _window_pool(wtree, window, bound)
        for size in (1, 2, 3):
            for combo in itertools.combinations(pool, size):
                yield SimpleCreature.make(0, EMPTY_FN, combo)
    # random value ranges over a random base, valid or not; members draw
    # from few nodes and values so that common pairs are frequent
    rng = random.Random(11)
    for _ in range(3000):
        base = SpecFn.make({x: rng.randrange(3) for x in rng.sample(range(6), rng.randint(0, 2))})
        members = []
        for _ in range(rng.randint(1, 4)):
            m = {x: rng.randrange(3) for x in rng.sample(range(6), rng.randint(0, 4))}
            if rng.random() < 0.5:
                m.update(base.as_dict())
            members.append(SpecFn.make(m))
        yield SimpleCreature.make(rng.randint(0, 1), base, members)


def test_clause_d_intersection_matches_pointwise_scan(tree):
    verdicts = {True: 0, False: 0}
    for c in _clause_d_cases():
        got = clause_d_holds(c)
        assert got == _clause_d_scan(c), c
        verdicts[got[0]] += 1
    assert min(verdicts.values()) > 1000, verdicts
    rng = random.Random(5)
    params = make_growth(0, ((9,), (16,), (12,)))
    for _ in range(300):
        c = random_creature(rng, tree, params, max_members=4, value_bound=8)
        if c is not None:
            assert clause_d_holds(c) == _clause_d_scan(c), c


def test_work_budget_follows_the_variable(monkeypatch):
    from creature_lab.errors import UsageError
    from creature_lab.oracle import DEFAULT_BUDGET, work_budget

    monkeypatch.delenv("CREATURE_LAB_BUDGET", raising=False)
    assert work_budget() == DEFAULT_BUDGET
    monkeypatch.setenv("CREATURE_LAB_BUDGET", "17")
    assert work_budget() == 17
    monkeypatch.setenv("CREATURE_LAB_BUDGET", "0")
    assert work_budget() == 0
    for bad in ("abc", "-1", "abc"):
        monkeypatch.setenv("CREATURE_LAB_BUDGET", bad)
        # every call raises, not only the first
        for _ in range(2):
            with pytest.raises(UsageError, match="CREATURE_LAB_BUDGET"):
                work_budget()
    monkeypatch.setenv("CREATURE_LAB_BUDGET", "17")
    assert work_budget() == 17
    monkeypatch.setenv("CREATURE_LAB_BUDGET", "")
    assert work_budget() == DEFAULT_BUDGET
