"""Purification, counter halving over a fragment, and label decision.

purify restricts a fragment against an upward-closed node set so that every
cone over a kept front is eventually inside the set or disjoint from it,
losing at most one unit of norm2 and norm per changed creature.  decide
searches for a graded strengthening with a level whose cones are constant
under a leaf labeling in three stages: the fragment itself, a greedy
assembly of label-uniform subcones per level, and an exhaustive subfragment
enumeration whose completion certifies not-found.  decide does not purify:
against the set of constant-cone nodes, which holds every leaf, purify keeps
the whole fragment, so it could only repeat the first stage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .creature import Creature, SimpleCreature, cached_norm0, normhalf, validate_creature
from .errors import DomainError, PreconditionError, ValidationError
from .forcing import (
    ConditionFragment,
    creature_at,
    kind_of,
    leq_n,
    validate_condition,
)
from .ops import halve
from .params import GrowthSequences, NormShape
from .specfn import SpecFn
from .specfn import delta_system as _delta_system
from .tree_model import AmbientTree


@dataclass(frozen=True)
class LeafLabeling:
    """A total assignment of naturals to the maximal branches, keyed by leaf."""

    values: dict[SpecFn, int] = field(hash=False)

    def check_total(self, p: ConditionFragment) -> None:
        missing = [leaf for leaf in p.leaves() if leaf not in self.values]
        if missing:
            raise DomainError(f"labeling misses leaves, e.g. {missing[0]}")


def is_upward_closed(p: ConditionFragment, xset: frozenset[SpecFn]) -> bool:
    for fn in xset:
        for ch in p.children(fn):
            if ch not in xset:
                return False
    return True


def _subfragment(p: ConditionFragment, keep: set[SpecFn]) -> ConditionFragment:
    parent = {}
    klabel = {}
    for fn in p.fns:
        if fn not in keep:
            continue
        par = p.parent[fn]
        parent[fn] = par if par in keep or par is None else None
        klabel[fn] = p.klabel[fn]
    return ConditionFragment(parent=parent, klabel=klabel, coverage=p.coverage)


@dataclass
class PurifyResult:
    fragment: ConditionFragment
    front: list[SpecFn]
    alternatives: dict[SpecFn, str]  # front node -> "inside" | "disjoint"
    inside_levels: dict[SpecFn, int]


def purify(
    p: ConditionFragment,
    xset: frozenset[SpecFn],
    kstar: int,
    tree: AmbientTree,
    params: GrowthSequences,
) -> PurifyResult:
    """Majority-colour restriction of p against an upward-closed set.

    Colour 0 marks nodes whose kept cone is eventually inside the set; at
    each internal node the side of the bipartition with at least half the
    game norm survives (ties towards colour 0), so norm2 and norm drop by at
    most one at every changed creature.
    """
    if not is_upward_closed(p, xset):
        raise PreconditionError("X is not upward closed in the fragment order")
    for eta in p.internal():
        n0 = cached_norm0(creature_at(p, eta, params), tree, params)
        if n0 <= 0:
            raise PreconditionError(f"norm0 = 0 at {eta}; purify needs positive norms")

    ip = kind_of(p, params)
    # the frozen front: the shallowest level from which every deeper creature
    # keeps norm >= kstar + 1 (so the restriction stays a graded extension)
    front_level = None
    for lv in range(kstar, p.depth + 1):
        ok = True
        for eta in p.level_nodes(lv):
            for rho in p.cone_nodes(eta):
                if not p.children(rho):
                    continue
                c = creature_at(p, rho, params)
                nh = normhalf(c, tree, params)
                if not NormShape.norm_geq(nh, max(p.klabel[rho], 1), kstar + 1) and kstar > 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            front_level = lv
            break
    if front_level is None:
        raise PreconditionError(
            f"no front level with norm budget kstar + 1 = {kstar + 1}"
        )
    front = list(p.level_nodes(front_level))

    colour: dict[SpecFn, int] = {}
    kept_children: dict[SpecFn, tuple[SpecFn, ...]] = {}

    def paint(fn: SpecFn) -> int:
        kids = p.children(fn)
        if not kids:
            colour[fn] = 0 if fn in xset else 1
            return colour[fn]
        for ch in kids:
            paint(ch)
        if fn in xset:
            # upward closure puts the whole cone inside the set
            kept_children[fn] = kids
            colour[fn] = 0
            return 0
        side0 = tuple(ch for ch in kids if colour[ch] == 0)
        side1 = tuple(ch for ch in kids if colour[ch] == 1)
        c = creature_at(p, fn, params)
        n0 = cached_norm0(c, tree, params)
        target = (n0 + 1) // 2
        pick: tuple[SpecFn, ...] | None = None
        pick_colour = 0
        for side, col in ((side0, 0), (side1, 1)):
            if not side:
                continue
            cand = SimpleCreature.make(c.i, c.base, side)
            if cached_norm0(cand, tree, params) >= target:
                pick, pick_colour = side, col
                break
        if pick is None:
            # neither side reaches half the norm (the odd-norm boundary of the
            # bigness argument); keep the best side that is still a creature
            scored = []
            for side, col in ((side0, 0), (side1, 1)):
                if side:
                    cand = SimpleCreature.make(c.i, c.base, side)
                    n_side = cached_norm0(cand, tree, params)
                    if n_side >= 1 or validate_creature(cand, params, tree).ok:
                        scored.append((-n_side, col, side))
            if not scored:
                raise PreconditionError(
                    f"purify: the colour split at {fn} leaves no valid creature side "
                    "(value range too small for the restriction)"
                )
            scored.sort()
            _, pick_colour, pick = scored[0]
        kept_children[fn] = pick
        colour[fn] = pick_colour
        return colour[fn]

    keep: set[SpecFn] = set()

    def collect(fn: SpecFn) -> None:
        keep.add(fn)
        for ch in kept_children.get(fn, ()):
            collect(ch)

    # below the front everything is kept verbatim
    for lv in range(front_level):
        keep.update(p.level_nodes(lv))
    alternatives: dict[SpecFn, str] = {}
    inside_levels: dict[SpecFn, int] = {}
    for nu in front:
        paint(nu)
        collect(nu)
        if colour[nu] == 0:
            alternatives[nu] = "inside"
        else:
            alternatives[nu] = "disjoint"

    q = _subfragment(p, keep)
    validate_condition(q, tree, params).require("purify output invalid")
    if not leq_n(p, q, kstar, tree, params):
        raise ValidationError("purify output is not a graded extension at kstar")
    # compute the uniform inside level per inside-front element
    for nu in front:
        if alternatives[nu] == "inside":
            inside_levels[nu] = _verify_inside_level(q, nu, xset)
    return PurifyResult(fragment=q, front=front, alternatives=alternatives, inside_levels=inside_levels)


def _verify_inside_level(q: ConditionFragment, nu: SpecFn, xset: frozenset[SpecFn]) -> int:
    """The least level from which the whole cone above nu sits inside the set."""
    cone = q.cone_nodes(nu)
    for lv in range(q.level_of(nu), q.depth + 1):
        if all(fn in xset for fn in cone if q.level_of(fn) >= lv):
            return lv
    raise ValidationError(f"cone above {nu} never enters the set")


def halve_below(
    p: ConditionFragment,
    levels: int | list[int],
    tree: AmbientTree,
    params: GrowthSequences,
) -> ConditionFragment:
    """Replace the counters on the given levels by the counters `halve` returns.

    An integer argument nstar means levels 0 .. nstar-1; a list names the
    levels one by one.
    """
    affected = set(range(levels)) if isinstance(levels, int) else set(levels)
    klabel = dict(p.klabel)
    for eta in p.internal():
        if p.level_of(eta) not in affected:
            continue
        c = creature_at(p, eta, params)
        k = max(p.klabel[eta], 1)
        nh = normhalf(c, tree, params)
        if not NormShape.norm_geq(nh, k, 1):
            raise PreconditionError(
                f"norm below 1 at {eta}; halving the counter is undefined there"
            )
        res = halve(Creature(simple=c, k=k), tree, params)
        klabel[eta] = res.creature.k
    return ConditionFragment(parent=dict(p.parent), klabel=klabel, coverage=p.coverage)


@dataclass
class DecideResult:
    found: bool
    fragment: ConditionFragment | None
    level: int | None
    table: dict[SpecFn, int]
    exhaustive: bool
    searched: int
    # the stage that answered: "trivial", "greedy" or "exhaustive" ("" when
    # the result is built by hand)
    stage: str = ""


def _cone_labels(p: ConditionFragment, fn: SpecFn, label: LeafLabeling) -> set[int]:
    return {
        label.values[leaf]
        for leaf in p.cone_nodes(fn)
        if not p.children(leaf)
    }


def _uniform_subcone(
    p: ConditionFragment,
    fn: SpecFn,
    value: int,
    label: LeafLabeling,
    tree: AmbientTree,
    params: GrowthSequences,
) -> set[SpecFn] | None:
    """Maximal subcone above fn whose leaves all carry `value`, or None."""
    kids = p.children(fn)
    if not kids:
        return {fn} if label.values[fn] == value else None
    kept_sets = []
    kept_kids = []
    for ch in kids:
        sub = _uniform_subcone(p, ch, value, label, tree, params)
        if sub is not None:
            kept_sets.append(sub)
            kept_kids.append(ch)
    if not kept_kids:
        return None
    c = creature_at(p, fn, params)
    cand = SimpleCreature.make(c.i, c.base, kept_kids)
    if not validate_creature(cand, params, tree).ok:
        return None
    out = {fn}
    for s in kept_sets:
        out.update(s)
    return out


def _valid_subfragments(
    p: ConditionFragment,
    frozen_levels: int,
    tree: AmbientTree,
    params: GrowthSequences,
    limit: int = 200000,
):
    """Yield all valid subfragments keeping levels <= frozen_levels intact.

    Every keep set built, at any level, counts once against `limit`.  The
    options of a cone below the root are built once and reused by every
    sibling subset that holds its root; the root's own combinations are
    yielded lazily, so a caller that stops early builds no more of them.
    """
    counter = [0]
    options: dict[SpecFn, list[set[SpecFn]]] = {}

    def cone_options(fn: SpecFn, lv: int) -> list[set[SpecFn]]:
        if fn not in options:
            options[fn] = list(expand(fn, lv))
        return options[fn]

    def expand(fn: SpecFn, lv: int):
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
            pools = [cone_options(ch, lv + 1) for ch in subset]
            if any(not pool for pool in pools):
                continue
            for combo in itertools.product(*pools):
                counter[0] += 1
                if counter[0] > limit:
                    raise DomainError("subfragment search exceeded the enumeration limit")
                keep = {fn}
                for s in combo:
                    keep.update(s)
                yield keep

    yield from expand(p.root, 0)


def decide(
    p: ConditionFragment,
    label: LeafLabeling,
    m: int,
    tree: AmbientTree,
    params: GrowthSequences,
    shape: NormShape,
    max_level: int | None = None,
) -> DecideResult:
    """Find q with p <=_m q and a level <= max_level of label-constant cones.

    In a finite truncation the leaf level decides trivially (one branch per
    leaf), so max_level is the real content of the search; it defaults to the
    leaf level, matching the unbounded conclusion's shape.  Three stages, in
    order: p itself (trivial constancy), greedy uniform-subcone assembly per
    level, then exhaustive subfragment search.  Every candidate but p must be
    a condition with p <=_m q; the first with a constant level answers, and
    not-found carries the certificate that the exhaustive pass completed.

    `shape` is not read: the norm shape is fixed (`params.NormShape`).  The
    slot stays because the benchmark's `decide` workload and its tests fill
    it positionally; they pass `default_shape()`.
    """
    label.check_total(p)
    cutoff = p.depth if max_level is None else max_level

    def candidates():
        """(q, stage, searched) in stage order."""
        yield p, "trivial", 0
        for q in _greedy_candidates(p, label, cutoff, tree, params):
            yield q, "greedy", 0
        for searched, keep in enumerate(_valid_subfragments(p, m + 1, tree, params), 1):
            yield _subfragment(p, keep), "exhaustive", searched

    def constant_level(q: ConditionFragment) -> int | None:
        for lv in range(min(cutoff, q.depth) + 1):
            if all(len(_cone_labels(q, fn, label)) == 1 for fn in q.level_nodes(lv)):
                return lv
        return None

    searched = 0
    for q, stage, searched in candidates():
        # p <=_m p needs no check
        if q is not p and not (
            validate_condition(q, tree, params).ok and leq_n(p, q, m, tree, params)
        ):
            continue
        lv = constant_level(q)
        if lv is not None:
            table = {fn: _cone_labels(q, fn, label).pop() for fn in q.level_nodes(lv)}
            return DecideResult(True, q, lv, table, stage == "exhaustive", searched, stage)
    return DecideResult(False, None, None, {}, True, searched, "exhaustive")


def _greedy_candidates(
    p: ConditionFragment,
    label: LeafLabeling,
    cutoff: int,
    tree: AmbientTree,
    params: GrowthSequences,
):
    """Per level up to the cutoff, the fragment that keeps every lower node
    and a value-uniform maximal subcone above each node of that level; the
    delta-system of the leaf domains orders the value candidates."""
    for lv in range(1, min(cutoff, p.depth) + 1):
        keep: set[SpecFn] = set()
        for fn in p.level_nodes(lv):
            sub = None
            for value in _candidate_values(p, fn, label, tree):
                sub = _uniform_subcone(p, fn, value, label, tree, params)
                if sub is not None:
                    break
            if sub is None:
                break
            keep.update(sub)
        else:
            for l2 in range(lv):
                keep.update(p.level_nodes(l2))
            yield _subfragment(p, keep)


def _candidate_values(
    p: ConditionFragment, fn: SpecFn, label: LeafLabeling, tree: AmbientTree
) -> list[int]:
    """Cone label values, most frequent first; delta-system root of the
    leaf domains breaks ties (richer shared structure first)."""
    leaves = [leaf for leaf in p.cone_nodes(fn) if not p.children(leaf)]
    freq: dict[int, int] = {}
    for leaf in leaves:
        freq[label.values[leaf]] = freq.get(label.values[leaf], 0) + 1
    ordered = sorted(freq, key=lambda v: (-freq[v], v))
    if len(ordered) > 1:
        root, members = _delta_system([leaves[j].domset() for j in range(len(leaves))], tree)
        if members:
            preferred = label.values[leaves[members[0]]]
            if preferred in ordered:
                ordered.remove(preferred)
                ordered.insert(0, preferred)
    return ordered
