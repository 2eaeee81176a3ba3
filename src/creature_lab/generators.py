"""Deterministic instance generators for fixtures and property suites.

Every generator takes an explicit seed; identical seeds give identical
instances.  Premise-satisfying generation is rejection sampling with a
bounded retry budget; suites report the hit rate.

The workhorse creature layout is "diagonal": every member extends the base
on the same antichain of fresh nodes, member j using value band + j
everywhere.  Such a creature has norm0 = min(|members| - 1, beta cap), which
makes norm budgets plannable when building condition fragments.
"""

from __future__ import annotations

import random

from .creature import SimpleCreature, validate_creature
from .errors import PreconditionError
from .forcing import ConditionFragment, Coverage, creature_at, subfragment, validate_condition
from .params import GrowthSequences, make_growth
from .specfn import SpecFn, is_spec
from .tree_model import AmbientTree, build_tree

# profiles tuned so condition fragments of depth 2-3 exist at desk scale;
# all of them pass the growth validator
PROFILES: dict[str, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = {
    # single-kind profile for creature sweeps (small values, small ranges)
    "sweep": ((5,), (6,), (8,)),
    # creature-op profile: roomy kind-0/1 windows
    "ops": ((9, 81), (16, 128), (20, 256)),
    # condition profile for depth-2 fragments with mid norms
    "cond2": ((4, 33, 1100), (4, 40, 1100), (8, 80, 2400)),
    # condition profile for depth-3 fragments (leaf domains 10..17)
    "cond3": ((3, 9, 81, 6561), (3, 9, 81, 6561), (8, 20, 200, 22000)),
}


def profile(name: str) -> GrowthSequences:
    n1, n2, n3 = PROFILES[name]
    return make_growth(len(n1) - 1, (n1, n2, n3))


def two_level_tree() -> AmbientTree:
    """Width-3 forest: roots 0,1,2; children 3,4 of 0 and 5 of 1."""
    return build_tree(3, [(0, 3), (0, 4), (1, 5)], nodes=[2])


def chain_antichain_tree() -> AmbientTree:
    """A 9-node forest mixing chains and antichains (width 3)."""
    return build_tree(3, [(0, 3), (0, 4), (3, 6), (3, 7), (1, 5), (5, 8)], nodes=[2])


def wide_tree(width: int = 6, height: int = 3) -> AmbientTree:
    """Full (width x height) grid forest: every slot filled, parents round-robin."""
    edges = []
    for lv in range(1, height):
        for j in range(width):
            child = width * lv + j
            par = width * (lv - 1) + (j % width)
            edges.append((par, child))
    return build_tree(width, edges, nodes=range(width))


def random_specfn(
    rng: random.Random,
    tree: AmbientTree,
    max_dom: int,
    bound: int,
    base: SpecFn | None = None,
) -> SpecFn | None:
    """A random specialization function extending `base` (rejection sampling)."""
    base_map = base.as_dict() if base else {}
    pool = [x for x in tree.nodes if x not in base_map]
    for _ in range(60):
        extra = rng.randint(0 if base else 1, max_dom)
        if extra > len(pool):
            extra = len(pool)
        chosen = rng.sample(pool, extra) if extra else []
        m = dict(base_map)
        ok = True
        for x in sorted(chosen):
            banned = {v for y, v in m.items() if tree.comparable(x, y)}
            options = [v for v in range(bound) if v not in banned]
            if not options:
                ok = False
                break
            m[x] = rng.choice(options)
        if not ok:
            continue
        fn = SpecFn.make(m, bound=bound)
        if is_spec(tree, fn, bound=bound):
            return fn
    return None


def random_creature(
    rng: random.Random,
    tree: AmbientTree,
    params: GrowthSequences,
    i: int = 0,
    max_members: int = 4,
    value_bound: int | None = None,
) -> SimpleCreature | None:
    """A random valid simple i-creature (empty base for i = 0)."""
    bound = value_bound if value_bound is not None else params.n3[i]
    bound = min(bound, params.n3[i])
    for _ in range(80):
        if i == 0:
            base = SpecFn.make({})
        else:
            size = rng.randint(
                params.n2[i - 2] + 1 if i >= 2 else 1, min(params.n2[i - 1], len(tree.nodes))
            )
            base = random_specfn(rng, tree, size, min(params.n3[i - 1], bound))
            if base is None or len(base) != size:
                continue
        count = rng.randint(1, min(max_members, params.n1[i] - 1))
        members = set()
        for _ in range(count * 3):
            fn = random_specfn(rng, tree, rng.randint(1, 2), bound, base=base)
            if fn is not None and len(fn) < params.n2[i] and len(fn) > len(base):
                members.add(fn)
            if len(members) >= count:
                break
        if not members:
            continue
        c = SimpleCreature.make(i, base, sorted(members, key=lambda f: f.pairs))
        if validate_creature(c, params, tree).ok:
            return c
    return None


def diagonal_creature(
    i: int,
    base: SpecFn,
    new_nodes: list[int],
    members: int,
    value_band: int,
    params: GrowthSequences,
    tree: AmbientTree,
) -> SimpleCreature:
    """Members extend `base` on the antichain `new_nodes`, member j using
    value_band + j everywhere; norm0 = min(members - 1, beta cap)."""
    for a in new_nodes:
        for b in new_nodes:
            if a != b and tree.comparable(a, b):
                raise PreconditionError("diagonal creature needs an antichain of new nodes")
    vr = []
    for j in range(members):
        m = base.as_dict()
        for x in new_nodes:
            m[x] = value_band + j
        vr.append(SpecFn.make(m, bound=params.n3[i]))
    c = SimpleCreature.make(i, base, vr)
    validate_creature(c, params, tree).require("diagonal creature invalid")
    return c


def canonical_fragment(
    tree: AmbientTree,
    params: GrowthSequences,
    branching: list[int],
    slices: list[list[int]],
    klabels: list[int],
    coverage: Coverage | None = None,
    value_bands: list[int] | None = None,
) -> ConditionFragment:
    """A valid fragment built from diagonal creatures, level by level.

    Each node of level l has branching[l] children, which extend it on
    slices[l] (an antichain of ambient nodes), children of one parent
    differing everywhere, so the closure clause holds vacuously and norms
    are plannable.  klabels[l] is the counter of level l's nodes (0 past its
    end).
    """
    depth = len(branching)
    bands = value_bands or [1 + 7 * l for l in range(depth)]
    root = SpecFn.make({})
    parent: dict[SpecFn, SpecFn | None] = {root: None}
    klabel: dict[SpecFn, int] = {root: klabels[0]}
    frontier = [root]
    for lv in range(depth):
        new_frontier = []
        for node in frontier:
            # rooted at the empty function, so the level-lv kind is lv;
            # children of distinct parents clash on the parent domains already
            c = diagonal_creature(lv, node, slices[lv], branching[lv], bands[lv], params, tree)
            for ch in c.valrange:
                parent[ch] = node
                klabel[ch] = klabels[lv + 1] if lv + 1 < len(klabels) else 0
                new_frontier.append(ch)
        frontier = new_frontier
    frag = ConditionFragment(parent=parent, klabel=klabel, coverage=coverage)
    validate_condition(frag, tree, params).require("canonical fragment invalid")
    return frag


def depth2_fragment(
    tree: AmbientTree,
    params: GrowthSequences,
    branching: tuple[int, int] = (2, 3),
) -> ConditionFragment:
    """A depth-2 canonical fragment over the two-level tree.

    Leaf domains are padded with spare roots so they land inside the next
    kind window, keeping restricted cones projectable.
    """
    roots = sorted(x for x in tree.nodes if tree.level(x) == 0)
    level1 = sorted(x for x in tree.nodes if tree.level(x) == 1)
    spare = [
        r
        for r in roots[1:]
        if all(not tree.comparable(r, y) for y in level1)
    ]
    return canonical_fragment(tree, params, list(branching), [[roots[0]], sorted(level1 + spare)], [1, 1, 0])


def depth3_fragment(tree: AmbientTree, params: GrowthSequences) -> ConditionFragment:
    """A depth-3 canonical fragment over the full grid forest.

    Level slices: one root, three of its level-1 row, the whole level-2 row;
    domain sizes 1 / 4 / 10 land inside the kind windows of the `cond3`
    profile.
    """
    lvl1 = [x for x in tree.nodes if tree.level(x) == 1]
    lvl2 = [x for x in tree.nodes if tree.level(x) == 2]
    return canonical_fragment(tree, params, [2, 2, 3], [[0], sorted(lvl1)[:3], sorted(lvl2)], [1, 1, 1, 0])


def smooth_target_fragment(
    tree: AmbientTree,
    params: GrowthSequences,
    alpha: int,
    branching: tuple[int, int] = (2, 4),
    hold_out: list[int] | None = None,
) -> ConditionFragment:
    """Depth-2 fragment whose leaves tile T_{<alpha} minus `hold_out`."""
    seg = sorted(x for x in tree.nodes if tree.level(x) < alpha)
    hold = set(hold_out or [])
    lvl0 = [x for x in seg if tree.level(x) == 0 and x not in hold]
    rest = [x for x in seg if tree.level(x) > 0 and x not in hold]
    if not lvl0 or not rest:
        raise PreconditionError("need nodes on both levels for a depth-2 tiling")
    cov = None
    if not hold:
        cov = Coverage(k=0, alpha=alpha, u=frozenset())
    return canonical_fragment(tree, params, list(branching), [lvl0, rest], [0, 1, 0], coverage=cov)


def extend_fragment(
    p: ConditionFragment,
    tree: AmbientTree,
    params: GrowthSequences,
    x: int,
    value: int,
    from_level: int,
) -> ConditionFragment:
    """Strengthen p by adding x to every function at levels >= from_level.

    x must be fresh to all domains.  Siblings at from_level receive distinct
    values (value, value+1, ...) skipping values that clash on comparable
    nodes, and their descendants inherit them, so the extended creatures keep
    the disagreement clause; the result projects onto p by dropping x.
    """
    for fn in p.fns:
        if x in fn:
            raise PreconditionError(f"node {x} already occurs in {fn}")
    assigned: dict[SpecFn, int] = {}
    counter = 0
    for fn in p.level_nodes(from_level) if from_level <= p.depth else ():
        banned = {v for y, v in fn.pairs if tree.comparable(x, y)}
        v = value + counter
        while v in banned:
            v += 1
        counter = v - value + 1
        assigned[fn] = v

    def value_for(fn: SpecFn) -> int:
        cur = fn
        while cur is not None and cur not in assigned:
            cur = p.parent[cur]
        if cur is None:
            raise PreconditionError("node below from_level has no extension anchor")
        return assigned[cur]

    parent: dict[SpecFn, SpecFn | None] = {}
    klabel: dict[SpecFn, int] = {}
    mapping: dict[SpecFn, SpecFn] = {}
    for lv, fns in enumerate(p.levels()):
        for fn in fns:
            if lv < from_level:
                new = fn
            else:
                m = fn.as_dict()
                m[x] = value_for(fn)
                new = SpecFn.make(m, bound=fn.bound)
            mapping[fn] = new
            par = p.parent[fn]
            parent[new] = mapping[par] if par is not None else None
            klabel[new] = p.klabel[fn]
    out = ConditionFragment(parent=parent, klabel=klabel, coverage=None)
    validate_condition(out, tree, params).require("extension invalid")
    return out


def shrink_fragment_above(
    rng: random.Random,
    p: ConditionFragment,
    n: int,
    tree: AmbientTree,
    params: GrowthSequences,
) -> ConditionFragment | None:
    """A random proper subfragment keeping levels <= n frozen, or None."""
    keep = {p.root}
    changed = False

    def collect(fn: SpecFn, lv: int) -> None:
        nonlocal changed
        kids = p.children(fn)
        if lv >= n and len(kids) > 2 and rng.random() < 0.6:
            drop = rng.choice(kids)
            cand = [ch for ch in kids if ch != drop]
            c = creature_at(p, fn, params)
            if validate_creature(SimpleCreature.make(c.i, c.base, cand), params, tree).ok:
                kids = cand
                changed = True
        for ch in kids:
            keep.add(ch)
            collect(ch, lv + 1)

    collect(p.root, 0)
    if not changed:
        return None
    out = subfragment(p, keep)
    return out if validate_condition(out, tree, params).ok else None


def random_upward_closed(
    rng: random.Random, p: ConditionFragment
) -> frozenset[SpecFn]:
    """A random upward-closed node set of the fragment (possibly empty)."""
    seeds = [fn for fn in p.fns if rng.random() < 0.3]
    out: set[SpecFn] = set()
    for s in seeds:
        out.update(p.cone_nodes(s))
    return frozenset(out)


def random_labeling(
    rng: random.Random, p: ConditionFragment, values: int = 3
) -> dict[SpecFn, int]:
    """A random total labeling of the maximal branches, keyed by leaf."""
    return {leaf: rng.randrange(values) for leaf in p.leaves()}
