import gc
import hashlib
import itertools
import random
import types

import pytest

from creature_lab import homogenize, verify
from creature_lab.creature import (
    ClauseCheck,
    ClauseReport,
    SimpleCreature,
    cached_norm0,
    normhalf,
    validate_creature,
)
from creature_lab.errors import DomainError, PreconditionError, ValidationError
from creature_lab.forcing import ConditionFragment, creature_at, leq, leq_n, subfragment, validate_condition
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
    DecideResult,
    LeafLabeling,
    _cone_labels,
    _cone_leaf_labels,
    _greedy_candidates,
    _keep_constant_level,
    _valid_subfragments,
    decide,
    halve_below,
    is_upward_closed,
    purify,
)
from creature_lab.params import NormShape, default_shape, log2ceil, make_growth


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


@pytest.mark.parametrize("name", ["2x3", "3x3", "3x4", "2x2x3"])
def test_purify_front_level_matches_its_definition(name):
    """The front level is the least lv >= kstar such that every internal node
    at level >= lv has norm_geq(normhalf, max(klabel, 1), kstar + 1); with
    kstar = 0 no node is held to it.  There is none when kstar > depth."""
    p, tree, params = _fragment(name)
    for kstar in range(p.depth + 2):

        def misses(eta):
            nh = normhalf(creature_at(p, eta, params), tree, params)
            return kstar > 0 and not NormShape.norm_geq(nh, max(p.klabel[eta], 1), kstar + 1)

        levels = [
            lv for lv in range(kstar, p.depth + 1)
            if not any(misses(eta) for eta in p.internal() if p.level_of(eta) >= lv)
        ]
        if not levels:
            assert kstar > p.depth
            with pytest.raises(PreconditionError, match="no front level"):
                purify(p, frozenset(), kstar, tree, params)
            continue
        res = purify(p, frozenset(), kstar, tree, params)
        assert p.level_of(res.front[0]) == levels[0], (name, kstar)
        assert set(res.front) == set(p.level_nodes(levels[0])), (name, kstar)


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
        pr = leq(frag, q, params)
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


def _purify_corpus(name):
    """purify's answers on one fragment: X empty, each node's cone and 30
    seeded random upward-closed sets, kstar from 0 to depth + 1.  An answer
    is the result as plain values, or the exception's type and message; each
    comes with whether the colour split's fallback decided it (a kept side
    below half its node's norm0, or no valid side at all)."""
    p, tree, params = _fragment(name)
    xsets = {frozenset(), *(frozenset(p.cone_nodes(fn)) for fn in p.fns)}
    rng = random.Random(2400)
    xsets.update(random_upward_closed(rng, p) for _ in range(30))
    out = []
    for kstar in range(p.depth + 2):
        for xset in sorted(xsets, key=lambda s: sorted(fn.pairs for fn in s)):
            try:
                res = purify(p, xset, kstar, tree, params)
            except (DomainError, PreconditionError, ValidationError) as exc:
                out.append(((type(exc).__name__, str(exc)), "no valid creature side" in str(exc)))
                continue
            q = res.fragment
            answer = (
                _rows(q),
                [fn.pairs for fn in res.front],
                sorted((fn.pairs, alt) for fn, alt in res.alternatives.items()),
                sorted((fn.pairs, lv) for fn, lv in res.inside_levels.items()),
            )
            fallback = any(
                cached_norm0(creature_at(q, eta, params), tree, params)
                < (cached_norm0(creature_at(p, eta, params), tree, params) + 1) // 2
                for eta in q.internal()
            )
            out.append((answer, fallback))
    return out


# sha256 of purify's answers on _purify_corpus, taken before purify became
# one recursion
_PURIFY_GOLDEN = {
    "2x3": "6113ba75238161deb2769d38bc7daeeb4c23d514f9a7ef996a20b1dacd74d2ea",
    "3x3": "79b958ca16c8775f97810184b44430fc75b0940dd1a013b495352e119199acac",
    "3x4": "5f046298fd335406a7977b12b221b9563e2c87fb9f0dedaed16894ac687d123e",
    "3x5": "1c921643ce41095afa0947ced065f5ae9aa5083c1482dec8bd65576e1602a0cb",
    "2x5": "23249cde49e2c0a35a60e0c253ecbae8256735962e4158d1a7b91893671a9c62",
    "2x2x3": "0ff34dc21958ab42af3b16a0ee83f4b5ef8488f02c093b103e0a9f4a3c0b8a91",
}


@pytest.mark.parametrize("name", sorted(_PURIFY_GOLDEN))
def test_purify_answers_match_golden_digests(name):
    answers = [answer for answer, _ in _purify_corpus(name)]
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == _PURIFY_GOLDEN[name]


def test_the_purify_corpus_reaches_the_fallback():
    """Some cases of the digest corpus keep a side below half the norm, and
    some find no valid side: both branches of the fallback are pinned."""
    raised = kept = 0
    for name in _PURIFY_GOLDEN:
        for answer, fallback in _purify_corpus(name):
            raised += fallback and isinstance(answer[0], str)
            kept += fallback and not isinstance(answer[0], str)
    assert raised > 0 and kept > 0, (raised, kept)


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


def test_decide_refuses_a_negative_max_level(ctx, frag, monkeypatch):
    tree, params, shape = ctx
    label = LeafLabeling({leaf: 5 for leaf in frag.leaves()})

    def no_search(*args, **kwargs):
        raise AssertionError("searched for a level that cannot exist")

    monkeypatch.setattr(homogenize, "_valid_subfragments", no_search)
    with pytest.raises(DomainError, match="max_level -1 is negative"):
        decide(frag, label, 0, tree, params, shape, max_level=-1)


def _nodes(p, keep):
    """The node set of a keep mask: bit j stands for p.fns[j]."""
    assert keep > 0 and keep >> len(p.fns) == 0
    return {fn for j, fn in enumerate(p.fns) if keep >> j & 1}


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
    got = [_nodes(p, keep) for keep in _valid_subfragments(p, m + 1, tree, params)]
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


# -- the label test on keep sets --------------------------------------------

FRAGMENT_NAMES = ("2x2", "2x3", "3x3", "3x4", "2x2x3")


def _labelings(p):
    """Planted, separating and two seeded random labellings of p."""
    out = {
        "planted": _last_level_labels(p, planted=True),
        "separating": _last_level_labels(p, planted=False),
    }
    for seed, values in ((0, 2), (1, 3)):
        out[f"random {seed}"] = LeafLabeling(random_labeling(random.Random(seed), p, values=values))
    return out


def _fragment_constant_level(q, label, cutoff):
    """The constancy test on a built fragment, as decide ran it on every
    candidate before the label test moved to keep sets."""
    for lv in range(min(cutoff, q.depth) + 1):
        if all(len(_cone_labels(q, fn, label)) == 1 for fn in q.level_nodes(lv)):
            return lv
    return None


@pytest.mark.parametrize("name", FRAGMENT_NAMES)
@pytest.mark.parametrize("m", [-1, 0, 1])
def test_keep_set_constancy_matches_the_built_fragment(name, m):
    p, tree, params = _fragment(name)
    labelings = _labelings(p)
    cutoffs = range(p.depth + 2)
    keeps = [(1 << len(p.fns)) - 1]
    for label in labelings.values():
        for cutoff in cutoffs:
            keeps.extend(_greedy_candidates(p, label, _cone_leaf_labels(p, label), cutoff, tree, params))
    keeps.extend(_valid_subfragments(p, m + 1, tree, params))
    tables = {kind: _cone_leaf_labels(p, label) for kind, label in labelings.items()}
    found = 0
    for keep in keeps:
        nodes = _nodes(p, keep)
        q = subfragment(p, nodes)
        for kind, label in labelings.items():
            for cutoff in cutoffs:
                expected = _fragment_constant_level(q, label, cutoff)
                got = _keep_constant_level(keep, tables[kind], cutoff)
                assert got == expected, (kind, cutoff, sorted(f.pairs for f in nodes))
                found += expected is not None
    assert found > 0


def _validate_first_decide(p, label, m, tree, params, max_level=None):
    """decide's candidate loop with the label test last: every candidate is
    built, validated and leq_n-checked before its cones are read."""
    cutoff = p.depth if max_level is None else max_level

    def candidates():
        yield p, "trivial", 0
        for keep in _greedy_candidates(p, label, _cone_leaf_labels(p, label), cutoff, tree, params):
            yield subfragment(p, _nodes(p, keep)), "greedy", 0
        for searched, keep in enumerate(_valid_subfragments(p, m + 1, tree, params), 1):
            yield subfragment(p, _nodes(p, keep)), "exhaustive", searched

    searched = 0
    for q, stage, searched in candidates():
        if q is not p and not (
            validate_condition(q, tree, params).ok and leq_n(p, q, m, tree, params)
        ):
            continue
        lv = _fragment_constant_level(q, label, cutoff)
        if lv is not None:
            table = {fn: _cone_labels(q, fn, label).pop() for fn in q.level_nodes(lv)}
            return DecideResult(True, q, lv, table, stage == "exhaustive", searched, stage)
    return DecideResult(False, None, None, {}, True, searched, "exhaustive")


def _result_fields(res):
    frag = None
    if res.fragment is not None:
        frag = (res.fragment.parent, res.fragment.klabel, res.fragment.coverage)
    return (res.found, res.level, res.table, frag, res.exhaustive, res.searched, res.stage)


def test_decide_matches_the_validate_first_loop():
    rng = random.Random(13)
    fragments = {name: _fragment(name) for name in FRAGMENT_NAMES}
    labelings = {name: _labelings(p) for name, (p, _, _) in fragments.items()}
    stages = set()
    for _ in range(60):
        name = rng.choice(FRAGMENT_NAMES)
        p, tree, params = fragments[name]
        kind = rng.choice(list(labelings[name]))
        label = labelings[name][kind]
        m = rng.choice((-1, 0, 1))
        max_level = rng.choice((None, *range(p.depth + 2)))
        case = (name, kind, m, max_level)
        got = decide(p, label, m, tree, params, default_shape(), max_level=max_level)
        ref = _validate_first_decide(p, label, m, tree, params, max_level=max_level)
        assert _result_fields(got) == _result_fields(ref), case
        stages.add((got.stage, got.found))
    assert stages >= {("trivial", True), ("greedy", True), ("exhaustive", False)}


@pytest.mark.parametrize("broken", ["validate_condition", "leq_n"])
def test_every_built_candidate_is_checked(broken, monkeypatch):
    """With validation or the graded order failing every candidate, only p
    itself may answer: planted labellings that greedy answers go unfound."""
    cases = [(*_fragment(name), cutoff) for name in ("2x3", "3x3", "3x4") for cutoff in (1, 2)]
    def run(p, tree, params, cutoff):
        label = _last_level_labels(p, planted=True)
        return decide(p, label, 0, tree, params, default_shape(), max_level=cutoff)

    plain = [run(*case).stage for case in cases]
    assert "greedy" in plain and "trivial" in plain
    failing = {
        "validate_condition": lambda q, tree, params: ClauseReport(
            (ClauseCheck("patched", False),)
        ),
        "leq_n": lambda p, q, m, tree, params: False,
    }[broken]
    monkeypatch.setattr(homogenize, broken, failing)
    for case, before in zip(cases, plain):
        res = run(*case)
        if before == "trivial":
            assert (res.found, res.stage) == (True, "trivial")
        else:
            assert (res.found, res.stage) == (False, "exhaustive")


@pytest.mark.parametrize("name, m, searched", [("3x3", 0, 64), ("3x4", 1, 1)])
def test_not_found_builds_and_validates_nothing(name, m, searched, monkeypatch):
    """The benchmark's tail group: on a separating labelling no keep set has
    a constant level, so the search counts every keep set and never calls
    validate_condition or leq_n."""
    calls = {"validate_condition": 0, "leq_n": 0}
    for fname in calls:
        real = getattr(homogenize, fname)

        def counted(*args, _real=real, _name=fname):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(homogenize, fname, counted)
    p, tree, params = _fragment(name)
    label = _last_level_labels(p, planted=False)
    res = decide(p, label, m, tree, params, default_shape(), max_level=1)
    assert (res.found, res.exhaustive, res.searched) == (False, True, searched)
    assert calls == {"validate_condition": 0, "leq_n": 0}


def _rows(q):
    """A fragment's nodes by their pairs, each with its parent's pairs and its
    counter."""
    return sorted(
        (fn.pairs, None if q.parent[fn] is None else q.parent[fn].pairs, q.klabel[fn]) for fn in q.fns
    )


def _answer(res):
    """A decide result as plain values: fragment nodes (as `_rows`) and table
    entries by their pairs."""
    frag = None if res.fragment is None else _rows(res.fragment)
    table = sorted((fn.pairs, v) for fn, v in res.table.items())
    return (res.found, res.level, res.stage, res.exhaustive, res.searched, table, frag)


# sha256 of decide's answers on the benchmark's four fragments, taken before
# keep sets became node masks: planted, separating and two seeded random
# labellings, m in {0, 1}, max_level in {0, depth - 1, None}
_DECIDE_GOLDEN = {
    "2x3": "a2e5b2943dcf7721b1416f4504c049d0cefdb6cc572ad05552595d53a3a9b63b",
    "3x3": "f628f44b0232e87c5a7ae04f85fa5fdf47c3e010b3d5535bcb7dca76bc60f8ce",
    "3x4": "0077d0f6a9d2893630b07f3ca5a13bb37dc5e88b699ef63afe8cf7e352a0394d",
    "2x2x3": "5330b115cb707a69fafe2b0acd11ecafb4f279215614351ee266c05df3d53302",
}


@pytest.mark.parametrize("name", sorted(_DECIDE_GOLDEN))
def test_decide_answers_match_golden_digests(name):
    p, tree, params = _fragment(name)
    answers = []
    for kind, label in _labelings(p).items():
        for m in (0, 1):
            for max_level in (0, p.depth - 1, None):
                res = decide(p, label, m, tree, params, default_shape(), max_level=max_level)
                answers.append((kind, m, max_level, _answer(res)))
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == _DECIDE_GOLDEN[name]


# -- decide's index of label-free facts --------------------------------------


@pytest.mark.parametrize("name", sorted(_DECIDE_GOLDEN))
def test_a_warm_index_answers_as_a_cold_one(name):
    """decide on one reused fragment, whose index fills from call to call,
    answers each labelling as decide on a fresh copy with an empty index."""
    p, tree, params = _fragment(name)
    rng = random.Random(1900)
    labelings = [LeafLabeling(random_labeling(rng, p, values=rng.randint(2, 3))) for _ in range(20)]
    stages = set()
    for label in labelings:
        for m in (0, 1):
            for max_level in (p.depth - 1, None):
                warm = decide(p, label, m, tree, params, default_shape(), max_level=max_level)
                fresh = ConditionFragment(p.parent, p.klabel, p.coverage)
                cold = decide(fresh, label, m, tree, params, default_shape(), max_level=max_level)
                assert _answer(warm) == _answer(cold), (m, max_level)
                stages.add(warm.stage)
    assert list(p._decide_index) == [(tree, params)]
    assert len(stages) > 1


def test_the_index_is_kept_per_tree_and_per_growth_sequences():
    """One fragment under two trees (equal, but two objects) or two growth
    sequences gets one index per pair; a pair used again reuses its own."""
    p, tree, params = _fragment("3x3")
    label = _last_level_labels(p, planted=True)
    other_tree = two_level_tree()
    roomier = make_growth(2, ((4, 33, 1100), (4, 40, 1100), (8, 80, 2500)))
    pairs = [(tree, params), (other_tree, params), (tree, roomier), (tree, params)]
    for t, g in pairs:
        res = decide(p, label, 0, t, g, default_shape(), max_level=1)
        assert (res.found, res.stage) == (True, "greedy")
    assert list(p._decide_index) == pairs[:3]
    for (t, g), index in p._decide_index.items():
        assert (index.tree, index.params) == (t, g)


def test_the_index_references_no_fragment():
    """Everything reachable from a filled index, types and modules aside,
    is no ConditionFragment: the index makes no reference cycle."""
    p, tree, params = _fragment("2x2x3")
    decide(p, _last_level_labels(p, planted=True), 0, tree, params, default_shape())
    decide(p, _last_level_labels(p, planted=False), 0, tree, params, default_shape(), max_level=1)
    (index,) = p._decide_index.values()
    seen = {id(index)}
    todo = [index]
    while todo:
        obj = todo.pop()
        assert not isinstance(obj, ConditionFragment)
        for ref in gc.get_referents(obj):
            if isinstance(ref, (type, types.ModuleType)) or id(ref) in seen:
                continue
            seen.add(id(ref))
            todo.append(ref)
    assert len(seen) > len(p.fns)


def test_the_decide_oracle_reads_no_index(monkeypatch):
    p, tree, params = _fragment("3x3")
    cases = [(_last_level_labels(p, planted=planted), m) for planted in (True, False) for m in (0, 1)]
    found = [decide(p, label, m, tree, params, default_shape(), max_level=1).found for label, m in cases]

    def refuse(*args):
        raise AssertionError("the oracle reached decide's index")

    monkeypatch.setattr(homogenize, "_index", refuse)
    monkeypatch.setattr(homogenize, "_DecideIndex", refuse)
    assert [verify._decide_oracle(p, label, m, tree, params, 1) for label, m in cases] == found
