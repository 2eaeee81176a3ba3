"""Seeded property suites with counterexample shrinking.

Each suite draws premise-satisfying instances from its own generator and
checks the corresponding constructive guarantee.  The seven creature suites
(norm-oracle, glue, fill, rebase, shrink, bigness, halving) split into a
`draw` of the instance and a `check` of it.  When one of them fails, the
failing instance is drawn again and its value-range members are dropped one
at a time for as long as the same check still fails; the locally minimal
creature is embedded in the report as a fixture.  The other suites report no
counterexample.  Reports are pure functions of (suite, count, seed) and
identical under any --jobs split: instance j is generated from
Random(seed * 1_000_003 + j).
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import fixtures as fx
from .creature import (
    Creature,
    SimpleCreature,
    cached_norm0,
    norm0,
    normhalf,
    norms,
    normstar,
    validate_creature,
)
from .errors import BudgetError, ConstructionError, DomainError, PreconditionError, ValidationError
from .forcing import (
    ConditionFragment,
    NotRelated,
    Projection,
    classify,
    creature_at,
    fuse,
    kind_of,
    leq,
    leq_n,
    leq_strict_f,
    normalize,
    restrict,
    smoothen,
    validate_condition,
)
from .generators import (
    chain_antichain_tree,
    depth2_fragment,
    depth3_fragment,
    diagonal_creature,
    extend_fragment,
    profile,
    random_creature,
    random_labeling,
    random_upward_closed,
    shrink_fragment_above,
    smooth_target_fragment,
    two_level_tree,
    wide_tree,
)
from .homogenize import LeafLabeling, _cone_labels, decide, purify
from .oracle import oracle_norm0
from .ops import fill, glue, halve, rebase, shrink_to_norm
from .params import NormShape, default_shape, halving_witness, log2ceil, log2ceil_ratio, make_growth
from .specfn import SpecFn
from .tree_model import AmbientTree, build_tree, initial_segment

_SEED_STRIDE = 1_000_003


@dataclass
class SuiteOutcome:
    ok: bool
    premise_hit: bool
    info: dict


_MISS = SuiteOutcome(True, False, {})


def _failed(c: SimpleCreature, info: dict) -> SuiteOutcome:
    """A premise-hit failure that names the creature it was found on."""
    return SuiteOutcome(False, True, {**info, "creature": fx.creature_to_fixture(Creature(c, 1))})


@dataclass(frozen=True)
class _CreatureSuite:
    """A suite whose instance is (tree, params, creature, *rest).

    `draw(rng)` returns the instance, or None on a premise miss.  `check`
    states the suite's whole verdict on an instance.  The shrinker calls it
    again on sub-creatures, so it turns a premise that a smaller creature
    breaks into a miss instead of raising.
    """

    draw: Callable[[random.Random], tuple | None]
    check: Callable[..., SuiteOutcome]

    def __call__(self, rng: random.Random) -> SuiteOutcome:
        inst = self.draw(rng)
        return _MISS if inst is None else self.check(*inst)


def _rng_for(seed: int, index: int) -> random.Random:
    return random.Random(seed * _SEED_STRIDE + index)


# -- shared contexts ---------------------------------------------------------


def _creature_context():
    tree = chain_antichain_tree()
    params = make_growth(0, ((9,), (16,), (12,)))
    return tree, params


def _condition_context():
    tree = two_level_tree()
    params = profile("cond2")
    return tree, params


def _oracle_disagrees(d: SimpleCreature, nd: int, tree, params) -> bool:
    """Whether the budgeted oracle contradicts norm0(d) = nd; a run over
    budget contradicts nothing."""
    try:
        return oracle_norm0(d, tree, params, validate=False, budget=2 * 10 ** 6) != nd
    except BudgetError:
        return False


# -- suite: growth -----------------------------------------------------------


def _run_growth(rng: random.Random) -> SuiteOutcome:
    imax = rng.randint(0, 3)
    n1 = [rng.randint(2, 5)]
    for _ in range(imax):
        n1.append(n1[-1] * n1[-1] * rng.randint(1, 3))
    n2 = [n1[j] + rng.randint(0, max(0, (n1[j + 1] - 1 - n1[j]) if j < imax else 5))
          for j in range(imax + 1)]
    n3 = [max(j * n1[j] + 1, n2[j] + rng.randint(1, 8)) for j in range(imax + 1)]
    g = make_growth(imax, (tuple(n1), tuple(n2), tuple(n3)))
    g.validate()
    for j in range(imax + 1):
        for k in (0, n1[j] // 2, n1[j]):
            if not (j - 1) * n1[j] + k < n3[j]:
                return SuiteOutcome(False, True, {"derived": (j, k)})
    # fault injection: break one inequality, expect the validator to name it
    bad = list(n2)
    if imax >= 1:
        bad[0] = n1[1]
        try:
            make_growth(imax, (tuple(n1), tuple(bad), tuple(n3)))
            return SuiteOutcome(False, True, {"mutation": "accepted"})
        except ValidationError as e:
            if "n2[0] < n1[1]" not in str(e):
                return SuiteOutcome(False, True, {"mutation_msg": str(e)})
    return SuiteOutcome(True, True, {})


# -- suite: normshape --------------------------------------------------------


def _run_normshape(rng: random.Random) -> SuiteOutcome:
    k1 = rng.randint(1, 2 ** 8)
    k2 = rng.randint(k1, 2 ** 8)
    n2_ = rng.randint(k2, 2 ** 16)
    n1_ = rng.randint(n2_, 2 ** 16)
    if NormShape.f(n1_, k1) < NormShape.f(n2_, k2) - 1e-12:
        return SuiteOutcome(False, True, {"star2": (n1_, n2_, k2, k1)})
    n = rng.randint(1, 2 ** 16)
    k = rng.randint(1, n)
    if n <= k and NormShape.f(n, k) != 0.0:
        return SuiteOutcome(False, True, {"star4": (n, k)})
    if n % 2 == 0 and NormShape.f(n // 2, k) < NormShape.f(n, k) - 1 - 1e-12:
        return SuiteOutcome(False, True, {"star3": (n, k)})
    if NormShape.norm_geq(n, k, 1) and n >= k + 2:
        kp = halving_witness(n, k)
        if not (k < kp < n):
            return SuiteOutcome(False, True, {"witness_range": (n, k, kp)})
        # exact additivity of the lg shape on the unclamped region
        for _ in range(3):
            np_ = rng.randint(kp + 1, n)
            lhs = NormShape.f(np_, k)
            rhs = NormShape.f(np_, kp) + NormShape.f(kp, k)
            if abs(lhs - rhs) > 1e-9:
                return SuiteOutcome(False, True, {"additivity": (np_, k, kp)})
    return SuiteOutcome(True, True, {})


# -- suite: norm-oracle ------------------------------------------------------


def _draw_norm_oracle(rng: random.Random):
    tree, params = _creature_context()
    c = random_creature(rng, tree, params, value_bound=6)
    return None if c is None else (tree, params, c)


def _check_norm_oracle(tree, params, c) -> SuiteOutcome:
    fast = norm0(c, tree, params, validate=False)
    slow = oracle_norm0(c, tree, params, validate=False)
    if fast != slow:
        return _failed(c, {"fast": fast, "slow": slow})
    return SuiteOutcome(True, True, {})


# -- suite: glue -------------------------------------------------------------


def _draw_glue(rng: random.Random):
    tree, params = _creature_context()
    c = random_creature(rng, tree, params, max_members=3, value_bound=8)
    if c is None or cached_norm0(c, tree, params) < 1:
        return None
    kstar = rng.randint(2, 3)
    if len(c.valrange) * kstar > params.n1[c.i] - 1:
        return None
    used = set()
    for eta in c.valrange:
        used.update(eta.dom())
    free = [x for x in tree.nodes if x not in used]
    extensions = {}
    for eta in c.valrange:
        pool = [x for x in free if all(not tree.comparable(x, y) for y in eta.dom())]
        rng.shuffle(pool)
        picks: list[list[int]] = []
        flat: list[int] = []
        for k in range(kstar):
            if rng.random() < 0.4 or not pool:
                picks.append([])
                continue
            cand = None
            for x in pool:
                if all(not tree.comparable(x, y) and x != y for y in flat):
                    cand = x
                    break
            if cand is None:
                picks.append([])
                continue
            pool.remove(cand)
            flat.append(cand)
            picks.append([cand])
        for k in range(kstar):
            m = eta.as_dict()
            for x in picks[k]:
                banned = {v for y, v in m.items() if tree.comparable(x, y)}
                options = [v for v in range(params.n3[c.i]) if v not in banned]
                if not options:
                    return None
                m[x] = options[rng.randrange(len(options))]
            extensions[(eta, k)] = SpecFn.make(m, bound=params.n3[c.i])
    return tree, params, c, extensions, kstar


def _check_glue(tree, params, c, extensions, kstar) -> SuiteOutcome:
    try:
        res = glue(c, extensions, kstar, tree, params)
    except PreconditionError:
        return _MISS
    d = res.creature
    nd = cached_norm0(d, tree, params)
    info: dict = {"bound": res.bound, "norm0_d": nd}
    if nd < res.bound:
        return _failed(c, info)
    if _oracle_disagrees(d, nd, tree, params):
        return SuiteOutcome(False, True, {"oracle_mismatch": True})
    ns_c, ns_d = normstar(c, params), normstar(d, params)
    if ns_d < ns_c - log2ceil(kstar):
        return SuiteOutcome(False, True, {"normstar": (ns_c, ns_d, kstar)})
    if ns_d < ns_c - kstar:
        return SuiteOutcome(False, True, {"normstar_weak": (ns_c, ns_d, kstar)})
    # how often the ceiling reading of the bound's log term would promise
    # more than the provable floor form does
    lstar = res.trace["lstar"]
    ceil_bound = min(res.trace["norm0_c"], log2ceil_ratio(params.n2[c.i], lstar), kstar - 1)
    info["ceil_floor_differ"] = int(ceil_bound != res.bound)
    info["ceil_bound_violated"] = int(nd < ceil_bound)
    return SuiteOutcome(True, True, info)


# -- suite: fill -------------------------------------------------------------


def _draw_fill(rng: random.Random):
    tree, params = _creature_context()
    c = random_creature(rng, tree, params, max_members=3, value_bound=8)
    if c is None:
        return None
    k = cached_norm0(c, tree, params)
    if k < 1:
        return None
    used = set()
    for eta in c.valrange:
        used.update(eta.dom())
    free = [
        x
        for x in tree.nodes
        if x not in used and not any(tree.less(x, y) for y in used)
    ]
    if not free:
        return None
    mmax = min(k, params.n2[c.i] // (1 << k), len(free), 2)
    if mmax < 1:
        return None
    m = rng.randint(1, mmax)
    if len(c.valrange) * math.comb(k, m) > params.n1[c.i]:
        return None
    return tree, params, c, rng.sample(free, m)


def _check_fill(tree, params, c, xs) -> SuiteOutcome:
    k = cached_norm0(c, tree, params)
    m = len(xs)
    try:
        res = fill(c, xs, tree, params)
    except PreconditionError:
        return _MISS
    d = res.creature
    nd = cached_norm0(d, tree, params)
    if nd < k - m:
        return _failed(c, {"xs": xs, "norm0_d": nd, "bound": k - m})
    if not all(all(x in nu for x in xs) for nu in d.valrange):
        return _failed(c, {"coverage": xs})
    if normstar(d, params) < normstar(c, params) - log2ceil(math.comb(k, m)):
        return _failed(c, {"normstar": (normstar(c, params), normstar(d, params))})
    if _oracle_disagrees(d, nd, tree, params):
        return _failed(c, {"oracle_mismatch": True})
    return SuiteOutcome(True, True, {"k": k, "m": m})


# -- suite: rebase -----------------------------------------------------------


def _draw_rebase(rng: random.Random):
    # rebasing preserves the kind, so only creatures with nonempty-base kinds
    # can grow their base; the suite works at kind 1
    tree = chain_antichain_tree()
    params = profile("ops")
    base_node = rng.choice([0, 1, 2])
    base = SpecFn.make({base_node: rng.randint(0, 3)})
    slices = [s for s in ([3, 4], [4, 5], [3, 5], [6, 7], [7, 8])
              if all(x in tree and x != base_node for x in s)]
    sl = list(rng.choice(slices))
    members = rng.randint(3, 5)
    try:
        c = diagonal_creature(1, base, sl, members, 5 + rng.randint(0, 4), params, tree)
    except (PreconditionError, ValidationError):
        return None
    n0 = cached_norm0(c, tree, params)
    if n0 < 2:
        return None
    used = {base_node, *sl}
    news = [x for x in tree.nodes if x not in used]
    rng.shuffle(news)
    for x in news:
        ys = sum(1 for y in sl if tree.less(x, y))
        if ys + 1 >= n0:
            continue
        if (len(base) + 1) * (1 << (n0 + 1)) > params.n2[c.i]:
            continue
        banned = {v for eta in c.valrange for y, v in eta.pairs if tree.comparable(x, y)}
        # the base of the output must live in spec_{n3[i-1]} (creature clause
        # (b)), which is stricter than the raw premise's n3[i] bound
        value_cap = params.n3[c.i - 1] if c.i >= 1 else params.n3[0]
        options = [v for v in range(value_cap) if v not in banned]
        if not options:
            continue
        star_map = base.as_dict()
        star_map[x] = options[rng.randrange(len(options))]
        return tree, params, c, SpecFn.make(star_map, bound=params.n3[c.i])
    return None


def _check_rebase(tree, params, c, etastar) -> SuiteOutcome:
    # rebase's own premise l1 + l2 < norm0 (with l2 = 1) keeps norm0 >= 2
    try:
        res = rebase(c, etastar, tree, params)
    except (PreconditionError, ValidationError):
        return _MISS
    d = res.creature
    nd = cached_norm0(d, tree, params)
    if nd < res.bound:
        return _failed(c, {"norm0_d": nd, "bound": res.bound})
    if normstar(d, params) < normstar(c, params):
        return SuiteOutcome(False, True, {"normstar_drop": True})
    return SuiteOutcome(True, True, {"l1": res.trace["l1"], "l2": res.trace["l2"]})


# -- suite: shrink -----------------------------------------------------------


def _draw_shrink(rng: random.Random):
    tree, params = _creature_context()
    c = random_creature(rng, tree, params, value_bound=8)
    if c is None:
        return None
    n0 = cached_norm0(c, tree, params)
    if n0 < 1 or len(c.valrange) < 2:
        return None
    return tree, params, c, rng.randint(1, n0)


def _check_shrink(tree, params, c, k) -> SuiteOutcome:
    if len(c.valrange) < 2:
        return _MISS
    try:
        res = shrink_to_norm(c, k, tree, params)
    except (PreconditionError, DomainError):
        # PreconditionError: a smaller creature's norm0 fell below the target
        return _MISS
    sub = res.creature
    if cached_norm0(sub, tree, params) != k:
        return _failed(c, {"target": k})
    if not set(sub.valrange) <= set(c.valrange):
        return SuiteOutcome(False, True, {"not_subset": True})
    return SuiteOutcome(True, True, {})


# -- suite: bigness ----------------------------------------------------------


def _bigness_violations(c: SimpleCreature, tree, params, klabels=(1, 2)) -> dict:
    """Exhaustive bipartition check of the three norm variants, both log
    conventions for the integer norms.  Returns violation counts."""
    rec = norms(Creature(c, 1), tree, params)
    out = {"norm1_ceil": 0, "norm2_ceil": 0, "norm1_floor": 0, "norm": 0, "splits": 0}
    members = c.valrange
    n0_all = rec.norm0
    nh_all = rec.normhalf

    def floorlog(x: int) -> int:
        return x.bit_length() - 1 if x > 0 else 0

    for mask in range(1, 2 ** len(members) - 1, 2):
        side1 = [m for j, m in enumerate(members) if mask >> j & 1]
        side2 = [m for j, m in enumerate(members) if not mask >> j & 1]
        c1 = SimpleCreature.make(c.i, c.base, side1)
        c2 = SimpleCreature.make(c.i, c.base, side2)
        n01 = cached_norm0(c1, tree, params)
        n02 = cached_norm0(c2, tree, params)
        nh1 = min(n01, normstar(c1, params))
        nh2 = min(n02, normstar(c2, params))
        out["splits"] += 1
        for k in range(0, log2ceil(n0_all)):
            if log2ceil(n0_all) >= k + 1 and not (log2ceil(n01) >= k or log2ceil(n02) >= k):
                out["norm1_ceil"] += 1
        for k in range(0, log2ceil(nh_all)):
            if log2ceil(nh_all) >= k + 1 and not (log2ceil(nh1) >= k or log2ceil(nh2) >= k):
                out["norm2_ceil"] += 1
        for k in range(0, floorlog(n0_all)):
            if floorlog(n0_all) >= k + 1 and not (floorlog(n01) >= k or floorlog(n02) >= k):
                out["norm1_floor"] += 1
        for kl in klabels:
            f_all = NormShape.f(nh_all, kl)
            for k in range(0, int(f_all)):
                if f_all >= k + 1 and not (NormShape.f(nh1, kl) >= k or NormShape.f(nh2, kl) >= k):
                    out["norm"] += 1
    return out


def _draw_bigness(rng: random.Random):
    tree, params = _creature_context()
    c = random_creature(rng, tree, params, max_members=5, value_bound=8)
    return None if c is None else (tree, params, c)


def _check_bigness(tree, params, c) -> SuiteOutcome:
    if len(c.valrange) < 2:
        return _MISS
    v = _bigness_violations(c, tree, params)
    if v["norm1_ceil"] + v["norm2_ceil"] + v["norm"]:
        return _failed(c, v)
    return SuiteOutcome(True, True, v)


# -- suite: halving ----------------------------------------------------------


def _halving_context():
    tree = chain_antichain_tree()
    # wide value range so half-norms reach 6+, exercising the repair path
    params = make_growth(0, ((8193,), (16384,), (8200,)))
    return tree, params


def _draw_halving(rng: random.Random):
    tree, params = _halving_context()
    slice_ = rng.choice([[3], [4], [3, 4], [6, 7]])
    members = rng.randint(4, 12)
    try:
        c = diagonal_creature(0, SpecFn.make({}), slice_, members, rng.randint(0, 9), params, tree)
    except (PreconditionError, ValidationError):
        return None
    nh = normhalf(c, tree, params)
    if nh < 3:
        return None
    return tree, params, c, rng.randint(1, nh // 2)


def _check_halving(tree, params, c, k) -> SuiteOutcome:
    nh = normhalf(c, tree, params)
    if not NormShape.norm_geq(nh, k, 1) or nh - k < 2:
        return _MISS
    res = halve(Creature(c, k), tree, params)
    info = {"repaired": int(res.repaired), "kprime": res.kprime}
    if res.creature.simple != c:
        return SuiteOutcome(False, True, {"simple_changed": True})
    if not res.creature.k > k:
        return SuiteOutcome(False, True, {"not_monotone": (k, res.creature.k)})
    if not NormShape.norm_geq_shifted(nh, res.creature.k, nh, k, 1):
        return SuiteOutcome(False, True, {"drop_gt_1": (nh, k, res.creature.k)})
    # recovery property (informational): count failures over the n' range
    rec_fail = 0
    for np_ in range(res.creature.k + 1, nh + 3):
        if NormShape.norm_pos(np_, res.creature.k):
            if not NormShape.norm_geq_shifted(np_, k, nh, k, 0):
                rec_fail += 1
    info["recovery_failures"] = rec_fail
    return SuiteOutcome(True, True, info)


# -- suite: leq --------------------------------------------------------------


def _leq_pair(rng, tree, params):
    branching = rng.choice([(2, 3), (3, 3), (3, 4), (2, 5)])
    p = depth2_fragment(tree, params, branching=branching)
    mode = rng.choice(["restrict", "shrink", "extend"])
    if mode == "restrict":
        eta = rng.choice(list(p.level_nodes(1)))
        return p, restrict(p, eta)
    if mode == "shrink":
        q = shrink_fragment_above(rng, p, rng.randint(0, 1), tree, params)
        return (p, q) if q is not None else None
    free = [x for x in tree.nodes if all(x not in fn for fn in p.fns)]
    if not free:
        return None
    x = rng.choice(free)
    try:
        q = extend_fragment(p, tree, params, x, rng.randrange(params.n3[-1]), from_level=rng.randint(1, 2))
    except (PreconditionError, ValidationError):
        return None
    return p, q


def _run_leq(rng: random.Random) -> SuiteOutcome:
    tree, params = _condition_context()
    pair = _leq_pair(rng, tree, params)
    if pair is None:
        return _MISS
    p, q = pair
    pr = leq(p, q, tree, params)
    if isinstance(pr, NotRelated):
        return SuiteOutcome(False, True, {"not_related": pr.clause})
    ip, iq = kind_of(p, params), kind_of(q, params)
    for eta in q.internal():
        nu = pr(eta)
        # kinds agree under the level shift
        if iq + q.level_of(eta) != ip + p.level_of(nu):
            return SuiteOutcome(False, True, {"kind": str(eta)})
        # the game norm never grows along a projection
        if p.children(nu):
            cq = creature_at(q, eta, params)
            cp_ = creature_at(p, nu, params)
            if cached_norm0(cq, tree, params) > cached_norm0(cp_, tree, params):
                return SuiteOutcome(False, True, {"norm_monotone": str(eta)})
    info = {"strict_f": int(leq_strict_f(p, q, pr))}
    # transitivity through a restricted cone
    eta = rng.choice(list(q.level_nodes(min(1, q.depth))))
    try:
        r = restrict(q, eta)
    except (DomainError, ConstructionError):
        return SuiteOutcome(True, True, info)
    pr2 = leq(q, r, tree, params)
    if isinstance(pr2, Projection):
        direct = leq(p, r, tree, params)
        composed = pr.compose(pr2)
        if isinstance(direct, NotRelated):
            return SuiteOutcome(False, True, {"transitivity": "direct missing"})
        if direct.mapping != composed.mapping:
            return SuiteOutcome(False, True, {"transitivity": "maps differ"})
    return SuiteOutcome(True, True, info)


# -- suite: fusion -----------------------------------------------------------


def _run_fusion(rng: random.Random) -> SuiteOutcome:
    tree, params = _condition_context()
    p = depth2_fragment(tree, params, branching=rng.choice([(3, 3), (3, 4), (2, 5)]))
    chain = [p]
    ns = []
    grade = 0
    for _ in range(rng.randint(1, 3)):
        nxt = shrink_fragment_above(rng, chain[-1], grade, tree, params)
        if nxt is None or not leq_n(chain[-1], nxt, grade, tree, params):
            nxt = chain[-1]
        chain.append(nxt)
        ns.append(grade)
        grade += 1
    ns.append(grade)
    try:
        fused = fuse(chain, ns, tree, params)
    except PreconditionError as e:
        return SuiteOutcome(False, True, {"chain": str(e)})
    for q, n in zip(chain, ns):
        if not leq_n(q, fused, n, tree, params):
            return SuiteOutcome(False, True, {"grade": n})
    return SuiteOutcome(True, True, {"len": len(chain)})


# -- suite: smoothen ---------------------------------------------------------


def _run_smoothen(rng: random.Random) -> SuiteOutcome:
    tree, params = _condition_context()
    hold = rng.choice([[2], [2], [1]])
    try:
        p = smooth_target_fragment(tree, params, alpha=2, branching=(2, 4), hold_out=hold)
    except (PreconditionError, ValidationError):
        return _MISS
    m = rng.randint(0, 1)
    try:
        q = smoothen(p, 2, m, tree, params)
    except PreconditionError:
        return _MISS
    cls = classify(q, tree, params)
    if not cls.smooth or cls.alpha != 2:
        return SuiteOutcome(False, True, {"smooth": cls.smooth, "alpha": cls.alpha})
    if not leq_n(p, q, m, tree, params):
        return SuiteOutcome(False, True, {"grade": m})
    pr = leq(p, q, tree, params)
    for eta in q.internal():
        n_new = cached_norm0(creature_at(q, eta, params), tree, params)
        n_old = cached_norm0(creature_at(p, pr(eta), params), tree, params)
        if log2ceil(n_new) < log2ceil(n_old) - 1:
            return SuiteOutcome(False, True, {"norm1_drop": (n_old, n_new)})
    return SuiteOutcome(True, True, {"m": m})


# -- suite: purify -----------------------------------------------------------


def _run_purify(rng: random.Random) -> SuiteOutcome:
    tree, params = _condition_context()
    p = depth2_fragment(tree, params, branching=rng.choice([(3, 3), (3, 5), (2, 3)]))
    xset = random_upward_closed(rng, p)
    kstar = rng.randint(0, 1)
    try:
        res = purify(p, xset, kstar, tree, params)
    except PreconditionError:
        return _MISS
    q = res.fragment
    if not leq_n(p, q, kstar, tree, params):
        return SuiteOutcome(False, True, {"grade": kstar})
    for nu, alt in res.alternatives.items():
        cone = q.cone_nodes(nu)
        if alt == "disjoint":
            if any(fn in xset for fn in cone):
                return SuiteOutcome(False, True, {"alt": "disjoint broken"})
        else:
            lv = res.inside_levels[nu]
            if not all(fn in xset for fn in cone if q.level_of(fn) >= lv):
                return SuiteOutcome(False, True, {"alt": "inside broken"})
    pr = leq(p, q, tree, params)
    for eta in q.internal():
        nu = pr(eta)
        cq = creature_at(q, eta, params)
        cp_ = creature_at(p, nu, params)
        if set(cq.valrange) == set(cp_.valrange):
            continue
        nh_new, nh_old = normhalf(cq, tree, params), normhalf(cp_, tree, params)
        if log2ceil(nh_new) < log2ceil(nh_old) - 1:
            return SuiteOutcome(False, True, {"norm2_drop": (nh_old, nh_new)})
        kl = max(q.klabel[eta], 1)
        if not NormShape.norm_geq_shifted(nh_new, kl, nh_old, kl, 1):
            return SuiteOutcome(False, True, {"norm_drop": (nh_old, nh_new, kl)})
    return SuiteOutcome(True, True, {"front": len(res.front)})


# -- suite: decide -----------------------------------------------------------


# cone choices one node of `_decide_oracle` may combine, as in decide's search
_ORACLE_LIMIT = 200000


def _decide_oracle(p, label, m, tree, params, cutoff):
    """Independent exhaustive confirmation that no subfragment decides.

    Its own enumeration of `decide`'s search space: nodes at levels <= m keep
    all their children, deeper internal nodes keep any set of children that
    forms a valid creature (the rest fail clause (iv) anyway).  Every check
    runs on a copy of the tree, so no memo entry of `decide` is reused.  A
    node whose choices would pass _ORACLE_LIMIT raises DomainError before
    they are built.
    """
    cold = AmbientTree(tree.width, tree.parent, tree.nodes)
    cones: dict[SpecFn, list[tuple[SpecFn, ...]]] = {}
    for lv in reversed(range(p.depth + 1)):
        for fn in p.level_nodes(lv):
            kids = p.children(fn)
            if not kids:
                cones[fn] = [(fn,)]
                continue
            if lv <= m:
                subsets = [kids]
            else:
                subsets = [
                    sub for r in range(1, len(kids) + 1) for sub in itertools.combinations(kids, r)
                ]
            c = creature_at(p, fn, params)
            valid = [
                sub
                for sub in subsets
                if validate_creature(SimpleCreature.make(c.i, c.base, sub), params, cold).ok
            ]
            if sum(math.prod(len(cones[ch]) for ch in sub) for sub in valid) > _ORACLE_LIMIT:
                raise DomainError("decide oracle exceeded the enumeration limit")
            cones[fn] = [
                (fn,) + tuple(itertools.chain.from_iterable(parts))
                for sub in valid
                for parts in itertools.product(*(cones[ch] for ch in sub))
            ]
    for keep in cones[p.root]:
        q = ConditionFragment(
            parent={fn: p.parent[fn] for fn in keep},
            klabel={fn: p.klabel[fn] for fn in keep},
            coverage=p.coverage,
        )
        if not validate_condition(q, cold, params).ok:
            continue
        if not leq_n(p, q, m, cold, params):
            continue
        for lv in range(min(cutoff, q.depth) + 1):
            if all(len(_cone_labels(q, fn, label)) == 1 for fn in q.level_nodes(lv)):
                return True
    return False


def _run_decide(rng: random.Random) -> SuiteOutcome:
    if rng.random() < 0.3:
        tree = wide_tree(6, 3)
        params = profile("cond3")
        p = depth3_fragment(tree, params)
        m = 0
        cutoff = rng.randint(1, 2)
    else:
        tree, params = _condition_context()
        p = depth2_fragment(tree, params, branching=rng.choice([(2, 3), (3, 3)]))
        m = rng.randint(0, 1)
        cutoff = 1
    label = LeafLabeling(random_labeling(rng, p, values=rng.randint(2, 3)))
    res = decide(p, label, m, tree, params, default_shape(), max_level=cutoff)
    if res.found:
        q = res.fragment
        if not leq_n(p, q, m, tree, params):
            return SuiteOutcome(False, True, {"graded": False})
        if res.level > cutoff:
            return SuiteOutcome(False, True, {"level": res.level})
        for fn in q.level_nodes(res.level):
            vals = _cone_labels(q, fn, label)
            if len(vals) != 1 or res.table[fn] not in vals:
                return SuiteOutcome(False, True, {"cone": str(fn)})
        return SuiteOutcome(True, True, {"found": 1})
    if _decide_oracle(p, label, m, tree, params, cutoff):
        return SuiteOutcome(False, True, {"not_found_wrong": True})
    return SuiteOutcome(True, True, {"found": 0})


# -- suite: fact2.6 ----------------------------------------------------------


def _tall_tree() -> AmbientTree:
    return build_tree(3, [(0, 3), (0, 4), (1, 5), (3, 6), (4, 7), (5, 8)], nodes=[2])


def _run_fact26(rng: random.Random) -> SuiteOutcome:
    tree = _tall_tree()
    params = profile("cond2")
    try:
        p = smooth_target_fragment(tree, params, alpha=2, branching=(2, 4))
    except (PreconditionError, ValidationError):
        return _MISS
    # weakly smooth: coverage k = 0 (u empty here, the strongest case)
    free = [x for x in tree.nodes if all(x not in fn for fn in p.fns)]
    if not free:
        return _MISS
    x = rng.choice(free)
    try:
        q = extend_fragment(p, tree, params, x, rng.randrange(20), from_level=2)
    except (PreconditionError, ValidationError):
        return _MISS
    pr = leq(p, q, tree, params)
    if isinstance(pr, NotRelated):
        return SuiteOutcome(False, True, {"leq": pr.clause})
    seg = initial_segment(tree, p.coverage.alpha) | p.coverage.u
    for nu in q.fns:
        if nu.domset() & seg != pr(nu).domset():
            return SuiteOutcome(False, True, {"fact26": str(nu)})
    return SuiteOutcome(True, True, {})


# -- suite: claim2.8 ---------------------------------------------------------


def _run_claim28(rng: random.Random) -> SuiteOutcome:
    tree, params = _condition_context()
    p = depth2_fragment(tree, params, branching=rng.choice([(3, 3), (3, 4)]))
    ip = kind_of(p, params)
    # level-size and domain-size bounds re-checked directly
    for lv, fns in enumerate(p.levels()):
        if not len(fns) < params.n1[ip + lv]:
            return SuiteOutcome(False, True, {"levelbound": lv})
        for fn in fns:
            if lv == 0 and ip == 0 and len(fn) == 0:
                continue
            if not len(fn) < params.n2[ip + lv - 1]:
                return SuiteOutcome(False, True, {"dombound": lv})
    # graded chains compose; higher grades imply lower ones
    q = shrink_fragment_above(rng, p, 1, tree, params)
    if q is not None and leq_n(p, q, 1, tree, params):
        r = shrink_fragment_above(rng, q, 1, tree, params)
        if r is not None and leq_n(q, r, 1, tree, params):
            if not leq_n(p, r, 1, tree, params):
                return SuiteOutcome(False, True, {"transitive_leqn": True})
        if not leq_n(p, q, 0, tree, params):
            return SuiteOutcome(False, True, {"grade_weaken": True})
        if isinstance(leq(p, q, tree, params), NotRelated):
            return SuiteOutcome(False, True, {"leqn_implies_leq": True})
    # projection uniqueness on a restricted pair: any clause-satisfying map equals ours
    eta = rng.choice(list(p.level_nodes(1)))
    cone = restrict(p, eta)
    pr = leq(p, cone, tree, params)
    if isinstance(pr, NotRelated):
        return SuiteOutcome(False, True, {"cone_leq": pr.clause})
    alt = _count_projections(p, cone, tree, params)
    if alt != 1:
        return SuiteOutcome(False, True, {"uniqueness": alt})
    # normalize: cone-min leveling
    try:
        nq = normalize(p, tree, params)
    except PreconditionError:
        return SuiteOutcome(True, True, {"normalize": "skipped"})
    prn = leq(p, nq, tree, params)
    if isinstance(prn, NotRelated):
        return SuiteOutcome(False, True, {"normalize_leq": prn.clause})
    for fn in nq.internal():
        target = min(
            cached_norm0(creature_at(p, rho, params), tree, params)
            for rho in p.cone_nodes(prn(fn))
            if p.children(rho)
        )
        if cached_norm0(creature_at(nq, fn, params), tree, params) != target:
            return SuiteOutcome(False, True, {"normalize_value": str(fn)})
    return SuiteOutcome(True, True, {})


def _count_projections(p, q, tree, params) -> int:
    """Exhaustively count clause-(a)-(f) maps q -> p (small fragments)."""
    levels_p = {fn: p.level_of(fn) for fn in p.fns}
    shift = kind_of(q, params) - kind_of(p, params)
    count = 0
    q_nodes = list(q.fns)
    pools = []
    for fn in q_nodes:
        lv = q.level_of(fn) + shift
        pools.append([g for g in p.fns if levels_p[g] == lv and fn.extends(g)])
    for combo in itertools.product(*pools):
        mp = dict(zip(q_nodes, combo))
        ok = True
        for fn in q_nodes:
            par = q.parent[fn]
            if par is not None:
                if p.parent[mp[fn]] != mp[par]:
                    ok = False
                    break
                tau, nu = mp[fn], par
                if set(tau.dom()) & set(nu.dom()) != set(mp[par].dom()):
                    ok = False
                    break
            if q.klabel[fn] < p.klabel[mp[fn]]:
                ok = False
                break
        if ok:
            count += 1
    return count


_RUNNERS = {
    "growth": _run_growth,
    "normshape": _run_normshape,
    "norm-oracle": _CreatureSuite(_draw_norm_oracle, _check_norm_oracle),
    "glue": _CreatureSuite(_draw_glue, _check_glue),
    "fill": _CreatureSuite(_draw_fill, _check_fill),
    "rebase": _CreatureSuite(_draw_rebase, _check_rebase),
    "shrink": _CreatureSuite(_draw_shrink, _check_shrink),
    "bigness": _CreatureSuite(_draw_bigness, _check_bigness),
    "halving": _CreatureSuite(_draw_halving, _check_halving),
    "leq": _run_leq,
    "fusion": _run_fusion,
    "smoothen": _run_smoothen,
    "purify": _run_purify,
    "decide": _run_decide,
    "fact2.6": _run_fact26,
    "claim2.8": _run_claim28,
}

SUITES = list(_RUNNERS)


def _evaluate(run: Callable[..., SuiteOutcome], *args) -> dict:
    """Status and info of run(*args).

    An exception makes a failure whose info holds the error; one the suites
    do not expect is also counted as a crash, so that it names its instance
    instead of aborting the report.
    """
    try:
        out = run(*args)
    except BudgetError as e:
        return {"status": "budget", "info": {"error": str(e)}}
    except (PreconditionError, ValidationError, DomainError) as e:
        return {"status": "fail", "info": {"error": str(e)}}
    except Exception as e:
        return {"status": "fail", "info": {"error": f"{type(e).__name__}: {e}", "crash": 1}}
    if not out.premise_hit:
        return {"status": "miss", "info": out.info}
    return {"status": "pass" if out.ok else "fail", "info": out.info}


def _returned_failure(result: dict) -> bool:
    """A failure that a check returned, as opposed to one an exception made."""
    return result["status"] == "fail" and "error" not in result["info"]


def _run_one(suite: str, seed: int, index: int) -> dict:
    return {"index": index, **_evaluate(_RUNNERS[suite], _rng_for(seed, index))}


def _run_range(args: tuple[str, int, int, int]) -> list[dict]:
    suite, seed, start, stop = args
    return [_run_one(suite, seed, j) for j in range(start, stop)]


def run_suite(suite: str, count: int, seed: int, jobs: int = 1) -> dict:
    """Run a suite; the report is a pure function of (suite, count, seed)."""
    if suite not in _RUNNERS:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    results: list[dict]
    if jobs > 1 and count >= 8:
        chunk = max(1, count // (jobs * 4))
        ranges = [
            (suite, seed, lo, min(lo + chunk, count)) for lo in range(0, count, chunk)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_run_range, ranges))
        results = [r for part in parts for r in part]
    else:
        results = _run_range((suite, seed, 0, count))
    results.sort(key=lambda r: r["index"])
    failures = [r for r in results if r["status"] == "fail"]
    budget = [r for r in results if r["status"] == "budget"]
    misses = sum(1 for r in results if r["status"] == "miss")
    returned = [r for r in failures if _returned_failure(r)]
    shrunk = _shrink_failure(suite, seed, returned[0]["index"]) if returned else None
    agg: dict = {}
    for r in results:
        for key, val in r["info"].items():
            if isinstance(val, int) and not isinstance(val, bool):
                agg[key] = agg.get(key, 0) + val
    status = "budget" if budget and not failures else ("fail" if failures else "pass")
    return {
        "suite": suite,
        "count": count,
        "seed": seed,
        "status": status,
        "instances": len(results),
        "premise_hits": len(results) - misses,
        "failures": len(failures),
        "first_failure": failures[0] if failures else None,
        "minimal_counterexample": shrunk,
        "stats": dict(sorted(agg.items())),
    }


def _shrink_failure(suite: str, seed: int, index: int) -> dict | None:
    """Greedily drop value-range members of a failing creature instance.

    The instance is drawn again.  Each round removes the first member, in
    value-range order, whose removal leaves a valid creature that the suite's
    check still returns as a premise-hit failure; shrinking stops when no
    single removal does.  Suites without a creature instance give None.
    """
    runner = _RUNNERS[suite]
    if not isinstance(runner, _CreatureSuite):
        return None
    tree, params, current, *rest = runner.draw(_rng_for(seed, index))
    while True:
        for eta in current.valrange:
            cand = SimpleCreature.make(current.i, current.base, [f for f in current.valrange if f != eta])
            if validate_creature(cand, params, tree).ok and _returned_failure(
                _evaluate(runner.check, tree, params, cand, *rest)
            ):
                current = cand
                break
        else:
            return fx.creature_to_fixture(Creature(current, 1))
