"""Constructive creature operations with their guaranteed norm bounds.

Each operation checks its premise clause by clause, builds the new creature
exactly as the corresponding construction prescribes, and returns the
creature together with the bound the construction guarantees plus a trace of
the choices made, so a failed verification is diagnosable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .creature import Creature, SimpleCreature, cached_norm0, normhalf, validate_creature
from .errors import DomainError, PreconditionError, ValidationError
from .params import GrowthSequences, NormShape, halving_witness, log2floor_ratio
from .specfn import SpecFn, is_spec, union_spec
from .tree_model import AmbientTree


@dataclass
class OpResult:
    creature: SimpleCreature
    bound: int
    trace: dict = field(default_factory=dict)


def _require(cond: bool, clause: str, detail: str) -> None:
    if not cond:
        raise PreconditionError(f"clause {clause}: {detail}")


def glue(
    c: SimpleCreature,
    extensions: dict[tuple[SpecFn, int], SpecFn],
    kstar: int,
    tree: AmbientTree,
    params: GrowthSequences,
) -> OpResult:
    """Replace every member by kstar extensions with incomparable new parts.

    Returns d with valrange {rho_{eta,k}} and the bound
    m0 = min(norm0(c), floor-lg(n2[i]/l*), kstar-1); the floor realizes the
    domain-budget step of the construction exactly (2^m0 <= n2[i]/l*).
    """
    i = c.i
    validate_creature(c, params, tree).require("norm0 of invalid creature")
    n0 = cached_norm0(c, tree, params)
    _require(n0 > 0, "(b)", f"norm0(c) = {n0} not > 0")
    _require(kstar > 1, "(c)", f"kstar = {kstar} not > 1")
    _require(
        len(c.valrange) * kstar <= params.n1[i],
        "(c)",
        f"|valrange|*kstar = {len(c.valrange) * kstar} exceeds n1[i] = {params.n1[i]}",
    )
    base_dom = c.base.domset()
    for eta in c.valrange:
        for k in range(kstar):
            rho = extensions.get((eta, k))
            _require(rho is not None, "(d)", f"missing extension for ({eta}, {k})")
            _require(rho.extends(eta), "(d)", f"extension {rho} does not contain {eta}")
            _require(
                is_spec(tree, rho, bound=params.n3[i]),
                "(d)",
                f"extension {rho} not in spec_n3[i]",
            )
            _require(
                len(rho) < params.n2[i],
                "(d)",
                f"extension {rho} domain size {len(rho)} not < n2[i]",
            )
    for eta in c.valrange:
        eta_dom = eta.domset()
        news = {
            k: sorted(extensions[(eta, k)].domset() - eta_dom) for k in range(kstar)
        }
        for k1, k2 in itertools.combinations(range(kstar), 2):
            for x1 in news[k1]:
                for x2 in news[k2]:
                    if tree.comparable(x1, x2):
                        raise PreconditionError(
                            f"clause (e): new points {x1} (k={k1}) and {x2} (k={k2}) "
                            f"of member {eta} are comparable"
                        )
    lstar = max(len(extensions[(eta, k)]) + 1 for eta in c.valrange for k in range(kstar))
    m0 = min(n0, log2floor_ratio(params.n2[i], lstar), kstar - 1)
    d = SimpleCreature.make(
        i, c.base, [extensions[(eta, k)] for eta in c.valrange for k in range(kstar)]
    )
    validate_creature(d, params, tree).require("glue produced an invalid creature")
    return OpResult(
        creature=d,
        bound=m0,
        trace={"lstar": lstar, "norm0_c": n0, "kstar": kstar},
    )


def fill(
    c: SimpleCreature,
    xs: list[int],
    tree: AmbientTree,
    params: GrowthSequences,
) -> OpResult:
    """Extend every member to cover the nodes xs, preserving norm0 >= k - m.

    Per member, the m-tuples of values come from the m-subsets of the k
    smallest admissible values (admissible: unused on nodes comparable with
    any x, uniformly for the above direction across the whole value range),
    assigned to the sorted xs in increasing order.
    """
    i = c.i
    validate_creature(c, params, tree).require("norm0 of invalid creature")
    k = cached_norm0(c, tree, params)
    m = len(xs)
    _require(k >= 1, "(b)", f"norm0(c) = {k} not >= 1")
    _require(k <= params.n1[i], "(b)", "norm0(c) exceeds n1[i]")
    _require(len(set(xs)) == m and m >= 1, "(c)", "xs must be nonempty and distinct")
    _require(m <= k, "(c)", f"m = {m} exceeds k = {k}")
    _require(m * (1 << k) <= params.n2[i], "(c)", f"m = {m} exceeds n2[i]/2^k")
    _require(
        len(c.valrange) * math.comb(k, m) <= params.n1[i],
        "(d)",
        f"|valrange|*C(k,m) exceeds n1[i]",
    )
    for x in xs:
        _require(x in tree, "(c)", f"node {x} not in the ambient tree")
        _require(
            all(x not in eta for eta in c.valrange) and x not in c.base,
            "(c)",
            f"node {x} already in a member domain",
        )
    # above-count budget: < i, read as <= max(i-1, 0) so that kind 0 admits
    # the (only possible) zero count
    above_cap = max(i - 1, 0)
    for eta in c.valrange:
        above = [y for y in eta.dom() if any(tree.less(x, y) for x in xs)]
        _require(
            len(above) <= above_cap,
            "(e)",
            f"member {eta} has {len(above)} domain points above the xs (cap {above_cap})",
        )

    xs_sorted = sorted(xs)
    # values of any member on nodes above some x are forbidden uniformly
    forbidden_common: set[int] = set()
    for eta in c.valrange:
        for y, v in eta.pairs:
            if any(tree.less(x, y) for x in xs_sorted):
                forbidden_common.add(v)
    new_members: list[SpecFn] = []
    per_eta_tuples: dict[SpecFn, int] = {}
    used_values: set[int] = set()
    for eta in c.valrange:
        own_comparable = {
            v for y, v in eta.pairs if any(tree.comparable(x, y) for x in xs_sorted)
        }
        banned = forbidden_common | own_comparable
        admissible = [z for z in range(params.n3[i]) if z not in banned]
        if len(admissible) < k:
            raise ValidationError(
                f"fill: only {len(admissible)} admissible values for member {eta}; "
                "growth inequality (1.1) should prevent this"
            )
        # any k admissible values support the avoidance pigeonhole; preferring
        # values unused at the new points keeps the members disagreeing there
        # (the disagreement clause) even when k = m gives one tuple each
        fresh = [z for z in admissible if z not in used_values]
        stale = [z for z in admissible if z in used_values]
        zpool = sorted((fresh + stale)[:k])
        used_values.update(zpool)
        count = 0
        for subset in itertools.combinations(zpool, m):
            nu_map = eta.as_dict()
            for x, z in zip(xs_sorted, subset):
                nu_map[x] = z
            nu = SpecFn.make(nu_map, bound=params.n3[i])
            if not is_spec(tree, nu, bound=params.n3[i]):
                continue
            if len(nu) >= params.n2[i]:
                continue
            new_members.append(nu)
            count += 1
        if count == 0:
            raise ValidationError(f"fill: no admissible tuple for member {eta}")
        per_eta_tuples[eta] = count
    d = SimpleCreature.make(i, c.base, new_members)
    _require(len(d.valrange) <= params.n1[i], "post", "output value range too large")
    validate_creature(d, params, tree).require("fill produced an invalid creature")
    return OpResult(
        creature=d,
        bound=k - m,
        trace={"k": k, "m": m, "xs": xs_sorted, "tuples": dict(per_eta_tuples)},
    )


def rebase(
    c: SimpleCreature,
    etastar: SpecFn,
    tree: AmbientTree,
    params: GrowthSequences,
) -> OpResult:
    """Replace the base by etastar, unioning it into every member.

    Every union must be a spec function of domain size below n2[i]; a member
    that fails is a clause (c) error, since dropping it could break the bound.
    """
    i = c.i
    validate_creature(c, params, tree).require("norm0 of invalid creature")
    n0 = cached_norm0(c, tree, params)
    _require(n0 >= 1, "(b)", f"norm0(c) = {n0} not >= 1")
    _require(etastar.extends(c.base), "(c)", "etastar does not contain the base")
    _require(
        is_spec(tree, etastar, bound=params.n3[i]),
        "(c)",
        "etastar not in spec_n3[i]",
    )
    if i >= 1:
        _require(
            len(etastar) <= params.n2[i - 1],
            "(c)",
            f"|dom(etastar)| = {len(etastar)} exceeds n2[i-1]",
        )
    else:
        _require(len(etastar) == 0, "(c)", "a 0-kind base must stay empty")
    base_dom = c.base.domset()
    star_new = etastar.domset() - base_dom
    l2 = len(star_new)
    ys = set()
    for nu in c.valrange:
        for y in nu.domset() - base_dom:
            if any(tree.less(x, y) for x in star_new):
                ys.add(y)
    l1 = len(ys)
    _require(l1 + l2 < n0, "(d)", f"l1*+l2* = {l1}+{l2} not < norm0(c) = {n0}")

    members = []
    for nu in c.valrange:
        u = union_spec(tree, nu, etastar)
        if not isinstance(u, SpecFn):
            raise PreconditionError(f"clause (c): member {nu} has no union with etastar: {u.reason}")
        _require(
            len(u) < params.n2[i],
            "(c)",
            f"union of member {nu} with etastar has domain size {len(u)}, not < n2[i]",
        )
        members.append(u)
    d = SimpleCreature.make(i, etastar, members)
    validate_creature(d, params, tree).require("rebase produced an invalid creature")
    return OpResult(
        creature=d,
        bound=n0 - l1 - l2,
        trace={"l1": l1, "l2": l2, "norm0_c": n0},
    )


def shrink_to_norm(
    c: SimpleCreature,
    k: int,
    tree: AmbientTree,
    params: GrowthSequences,
) -> OpResult:
    """A sub-value-range creature with norm0 exactly k (1 <= k <= norm0)."""
    validate_creature(c, params, tree).require("norm0 of invalid creature")
    n0 = cached_norm0(c, tree, params)
    _require(1 <= k <= n0, "pre", f"need 1 <= k <= norm0(c) = {n0}, got {k}")
    current = c
    cur_norm = n0
    while cur_norm > k:
        progressed = False
        for eta in current.valrange:
            if len(current.valrange) == 1:
                break
            rest = tuple(f for f in current.valrange if f != eta)
            cand = SimpleCreature.make(c.i, c.base, rest)
            cand_norm = cached_norm0(cand, tree, params)
            if cand_norm >= k:
                current, cur_norm = cand, cand_norm
                progressed = True
                break
        if not progressed:
            raise DomainError(
                "shrink_to_norm: stuck above the target norm "
                f"(norm0 = {cur_norm}, target {k}); the value range has no removable member"
            )
    validate_creature(current, params, tree).require("shrink_to_norm produced an invalid creature")
    return OpResult(creature=current, bound=k, trace={"start_norm": n0})


@dataclass
class SplitResult:
    side: int
    creature: SimpleCreature | Creature
    norms: dict


def bigness_split(
    c: SimpleCreature | Creature,
    parts: tuple[list[SpecFn], list[SpecFn]],
    tree: AmbientTree,
    params: GrowthSequences,
) -> SplitResult:
    """Keep the bipartition side with the larger norm0; ties go to side 1.

    The kept side holds at least floor(norm0/2) and floor(normhalf/2), so
    the drop-by-one bound holds in these readings: the floor-log norm1 and
    norm2, and the shape norm against the floor of the original (for
    creatures with a shared counter).  The ceiling-log norm1 and norm2 can
    drop by 2: at norm0 = 2^m + 1 (ceiling-log m + 1) the guaranteed half is
    2^(m-1) (ceiling-log m - 1), and norm0 3 splitting into 1 and 1 occurs.
    """
    simple = c.simple if isinstance(c, Creature) else c
    val1, val2 = (tuple(sorted(set(p), key=lambda f: f.pairs)) for p in parts)
    union = set(val1) | set(val2)
    _require(
        union == set(simple.valrange),
        "pre",
        "parts do not cover the value range exactly",
    )
    if not val2:
        return SplitResult(side=1, creature=c, norms={})
    if not val1:
        side = 2
        kept = SimpleCreature.make(simple.i, simple.base, val2)
    else:
        c1 = SimpleCreature.make(simple.i, simple.base, val1)
        c2 = SimpleCreature.make(simple.i, simple.base, val2)
        n1 = cached_norm0(c1, tree, params)
        n2 = cached_norm0(c2, tree, params)
        side = 1 if n1 >= n2 else 2
        kept = c1 if side == 1 else c2
    result: SimpleCreature | Creature
    if isinstance(c, Creature):
        result = Creature(simple=kept, k=c.k)
    else:
        result = kept
    info = {
        "norm0_kept": cached_norm0(kept, tree, params),
        "norm0_orig": cached_norm0(simple, tree, params),
    }
    return SplitResult(side=side, creature=result, norms=info)


@dataclass
class HalveResult:
    creature: Creature
    repaired: bool
    kprime: int


def halve(
    cplus: Creature,
    tree: AmbientTree,
    params: GrowthSequences,
) -> HalveResult:
    """Raise the counter as far as the drop bound allows.

    The new counter is the largest k' in (k, normhalf) with
    f(normhalf, k') >= f(normhalf, k) - 1.  Among the counters that keep the
    drop within one unit it is the best one for the recovery property (a half
    norm n' > k' must give back the original norm at k), since raising k'
    only shrinks the range of n' to be recovered.  For the lg shape it is
    min(2k, normhalf - 1).  `repaired` records that the shape's own witness
    (`halving_witness`) would have broken the drop bound.
    """
    c = cplus.simple
    nh = normhalf(c, tree, params)
    k = cplus.k
    if not NormShape.norm_geq(nh, k, 1):
        raise PreconditionError(f"halve requires norm >= 1, got f({nh}, {k}) < 1")
    kd = halving_witness(nh, k)
    repaired = not NormShape.norm_geq_shifted(nh, kd, nh, k, 1)
    kp = next(
        (cand for cand in range(nh - 1, k, -1) if NormShape.norm_geq_shifted(nh, cand, nh, k, 1)),
        None,
    )
    if kp is None:
        raise PreconditionError("halve: no counter satisfies the drop bound")
    return HalveResult(
        creature=Creature(simple=c, k=kp),
        repaired=repaired,
        kprime=kp,
    )
