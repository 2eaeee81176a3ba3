"""Purification, counter halving over a fragment, and label decision.

purify restricts a fragment against an upward-closed node set so that every
cone over a kept front is eventually inside the set or disjoint from it,
losing at most one unit of norm2 and norm per changed creature.  decide
searches for a graded strengthening with a level whose cones are constant
under a leaf labeling in three stages: the fragment itself, a greedy
assembly of label-uniform subcones per level, and an exhaustive subfragment
enumeration whose completion certifies not-found.  Each stage proposes keep
sets: masks over p.fns, bit j for p.fns[j], whose nodes hold the root and
every kept node's parent and whose leaves are leaves of p.  The label test
runs first, on the keep mask and a label table built once per call, which
holds each node's (label, leaf mask) pairs; only a candidate with a constant
level becomes a node set, built as a fragment, validated and checked against
p in the graded order.  decide does not purify: against the set of
constant-cone nodes, which holds every leaf, purify keeps the whole
fragment, so it could only repeat the first stage.

What decide derives from a fragment without reading a label lives in the
fragment, one index per (tree, params), made lazily and read by every later
call: the node numbering of keep masks, whether a node with a subset of its
children is a valid creature, and each node's preferred leaf, the one the
delta-system of its cone's leaf domains picks.  How many leaves of a cone
carry each label is read off the call's label table.  The exhaustive
enumeration is not kept in the index, since one (fragment, m) pair can have
up to the enumeration limit of keep masks; it is rebuilt on every call from
the remembered verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .creature import Creature, SimpleCreature, cached_norm0, normhalf, validate_creature
from .errors import DomainError, PreconditionError, ValidationError
from .forcing import ConditionFragment, creature_at, leq_n, subfragment, validate_condition
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

    Colour 0 marks nodes whose kept cone is eventually inside the set.  One
    recursion paints each node above the front and returns its colour, the
    nodes of its cone that stay, and the level from which that kept cone lies
    inside the set: a node's own level when it is in the set, else the
    largest of its kept children's (depth + 1 when the cone never enters the
    set); `inside_levels` holds it for the colour-0 front nodes.  A node of
    the set keeps its whole cone, and at any other internal node the first
    colour side (in colour order) with at least half the game norm survives,
    so norm2 and norm drop by at most one at every changed creature.  When
    neither side reaches half (the odd-norm boundary of the bigness argument)
    the side with the larger norm0 that is still a creature survives, ties
    towards colour 0.  The front is the shallowest level >= kstar from which
    every deeper creature keeps norm >= kstar + 1, so the result stays a
    graded extension: one past the deepest internal node at level >= kstar
    that misses that budget (with kstar = 0 none does).  Levels below the
    front are kept verbatim.
    """
    if not is_upward_closed(p, xset):
        raise PreconditionError("X is not upward closed in the fragment order")
    # the frozen front; a level's cones hold every deeper node
    front_level = kstar
    for eta in p.internal():
        c = creature_at(p, eta, params)
        if cached_norm0(c, tree, params) <= 0:
            raise PreconditionError(f"norm0 = 0 at {eta}; purify needs positive norms")
        lv = p.level_of(eta)
        if kstar > 0 and lv >= kstar:
            if not NormShape.norm_geq(normhalf(c, tree, params), max(p.klabel[eta], 1), kstar + 1):
                front_level = max(front_level, lv + 1)
    if front_level > p.depth:
        raise PreconditionError(
            f"no front level with norm budget kstar + 1 = {kstar + 1}"
        )

    def paint(fn: SpecFn) -> tuple[int, list[SpecFn], int]:
        if fn in xset:
            # upward closure puts the whole cone inside the set
            return 0, p.cone_nodes(fn), p.level_of(fn)
        kids = p.children(fn)
        if not kids:
            return 1, [fn], p.depth + 1
        painted = {ch: paint(ch) for ch in kids}
        c = creature_at(p, fn, params)
        sides = []  # (norm0, colour, creature) for each nonempty side, in colour order
        for col in (0, 1):
            side = [ch for ch in kids if painted[ch][0] == col]
            if side:
                cand = SimpleCreature.make(c.i, c.base, side)
                sides.append((cached_norm0(cand, tree, params), col, cand))
        target = (cached_norm0(c, tree, params) + 1) // 2
        pick = next((side for side in sides if side[0] >= target), None)
        if pick is None:
            valid = [side for side in sides if side[0] >= 1 or validate_creature(side[2], params, tree).ok]
            if not valid:
                raise PreconditionError(
                    f"purify: the colour split at {fn} leaves no valid creature side "
                    "(value range too small for the restriction)"
                )
            pick = max(valid, key=lambda side: side[0])
        _, col, cand = pick
        kept = [fn, *(node for ch in cand.valrange for node in painted[ch][1])]
        return col, kept, max(painted[ch][2] for ch in cand.valrange)

    keep = {fn for lv in range(front_level) for fn in p.level_nodes(lv)}
    front = list(p.level_nodes(front_level))
    alternatives: dict[SpecFn, str] = {}
    inside_levels: dict[SpecFn, int] = {}
    for nu in front:
        col, kept, level = paint(nu)
        keep.update(kept)
        alternatives[nu] = ("inside", "disjoint")[col]
        if col == 0:
            inside_levels[nu] = level
    q = subfragment(p, keep)
    validate_condition(q, tree, params).require("purify output invalid")
    if not leq_n(p, q, kstar, tree, params):
        raise ValidationError("purify output is not a graded extension at kstar")
    return PurifyResult(fragment=q, front=front, alternatives=alternatives, inside_levels=inside_levels)


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
    return {label.values[leaf] for leaf in p.cone_leaves(fn)}


class _DecideIndex:
    """decide's label-free facts about one fragment under one (tree, params).

    `bit` numbers the nodes for keep masks: bit j stands for p.fns[j].  The
    other facts are computed the first time a call asks for them and read by
    every later call on the same fragment, whatever its labelling or m:
    - whether an internal node with a nonempty subset of its children (a
      tuple in p.children order, which names the node) is a valid creature;
    - each node's preferred leaf, the one that the delta-system of its cone's
      leaf domains picks first (None when it picks no member).
    The index lives in the fragment (see `_index`) and holds its nodes but
    never the fragment, so it makes no reference cycle.
    """

    __slots__ = ("tree", "params", "bit", "_valid", "_preferred")

    def __init__(self, fns: tuple[SpecFn, ...], tree: AmbientTree, params: GrowthSequences):
        self.tree = tree
        self.params = params
        self.bit = {fn: 1 << j for j, fn in enumerate(fns)}
        self._valid: dict[tuple[SpecFn, ...], bool] = {}
        self._preferred: dict[SpecFn, SpecFn | None] = {}

    def valid(self, p: ConditionFragment, fn: SpecFn, kids: tuple[SpecFn, ...]) -> bool:
        ok = self._valid.get(kids)
        if ok is None:
            c = creature_at(p, fn, self.params)
            cand = SimpleCreature.make(c.i, c.base, kids)
            ok = self._valid[kids] = validate_creature(cand, self.params, self.tree).ok
        return ok

    def preferred(self, p: ConditionFragment, fn: SpecFn) -> SpecFn | None:
        if fn not in self._preferred:
            leaves = p.cone_leaves(fn)
            _, members = _delta_system([leaf.domset() for leaf in leaves], self.tree)
            self._preferred[fn] = leaves[members[0]] if members else None
        return self._preferred[fn]


def _index(p: ConditionFragment, tree: AmbientTree, params: GrowthSequences) -> _DecideIndex:
    """p's decide index under (tree, params), made on first use; it dies
    with p."""
    key = (tree, params)
    index = p._decide_index.get(key)
    if index is None:
        index = p._decide_index[key] = _DecideIndex(p.fns, tree, params)
    return index


LabelTable = tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]


def _cone_leaf_labels(p: ConditionFragment, label: LeafLabeling) -> LabelTable:
    """decide's label table: for each level of p, each node's bit with the
    (label, leaf mask) pairs of its cone, one pair per label that a leaf of
    the cone carries; the mask holds the bits of the leaves carrying it."""
    rows = []
    cone: dict[SpecFn, tuple[tuple[int, int], ...]] = {}
    start = len(p.fns)  # p.fns runs level by level
    for level in reversed(p.levels()):
        start -= len(level)
        row = []
        for j, fn in enumerate(level, start):
            kids = p.children(fn)
            if kids:
                merged: dict[int, int] = {}
                for ch in kids:
                    for value, leaves in cone[ch]:
                        merged[value] = merged.get(value, 0) | leaves
                pairs = tuple(merged.items())
            else:
                pairs = ((label.values[fn], 1 << j),)
            cone[fn] = pairs
            row.append((1 << j, pairs))
        rows.append(tuple(row))
    return tuple(reversed(rows))


def _keep_constant_level(keep: int, table: LabelTable, cutoff: int) -> int | None:
    """The least level <= cutoff whose cones are label-constant in the
    subfragment of p on keep's nodes, read from p's label table alone, or
    None.

    keep is a mask over p.fns; it must hold p's root and each kept node's
    parent, and its leaves must be leaves of p: then a kept node's cone in
    the subfragment is its cone in p cut down to keep, and the subfragment's
    depth is the last level with a kept node.  A kept node's cone is
    constant when exactly one of its label masks meets keep.  table is
    _cone_leaf_labels(p, label).
    """
    for lv, nodes in enumerate(table[: cutoff + 1]):
        kept = False
        for node, pairs in nodes:
            if not keep & node:
                continue
            kept = True
            met = 0
            for _, leaves in pairs:
                if keep & leaves:
                    met += 1
                    if met > 1:
                        break
            if met != 1:
                break  # this cone is not constant: try the next level
        else:
            return lv if kept else None
    return None


def _uniform_subcone(
    p: ConditionFragment,
    fn: SpecFn,
    value: int,
    label: LeafLabeling,
    index: _DecideIndex,
) -> int:
    """The mask of the maximal subcone above fn whose leaves all carry
    `value`, or 0 when there is none.  The node numbering, and whether a node
    with its kept children is a valid creature, are read from p's decide
    index."""
    kids = p.children(fn)
    if not kids:
        return index.bit[fn] if label.values[fn] == value else 0
    out = index.bit[fn]
    kept_kids = []
    for ch in kids:
        sub = _uniform_subcone(p, ch, value, label, index)
        if sub:
            out |= sub
            kept_kids.append(ch)
    if not kept_kids or not index.valid(p, fn, tuple(kept_kids)):
        return 0
    return out


def _valid_subfragments(
    p: ConditionFragment,
    frozen_levels: int,
    tree: AmbientTree,
    params: GrowthSequences,
    limit: int = 200000,
):
    """Yield the keep mask of every valid subfragment keeping levels <=
    frozen_levels intact; bit j of a mask stands for p.fns[j].

    Every keep set built, at any level, counts once against `limit`.  The
    options of a cone below the root, masks of that cone's nodes, are built
    once and reused by every sibling subset that holds its root; a keep set
    is its node's bit ORed with one option of each kept child.  The root's
    own combinations are yielded lazily, so a caller that stops early builds
    no more of them.

    Whether a node with a subset of its children is a valid creature is read
    from p's decide index.  The enumeration itself is not kept: a (fragment,
    m) pair can have up to `limit` keep sets, and a list of them per pair would
    outweigh every other fact the index holds.
    """
    counter = [0]
    index = _index(p, tree, params)
    bit = index.bit
    options: dict[SpecFn, list[int]] = {}

    def cone_options(fn: SpecFn, lv: int) -> list[int]:
        if fn not in options:
            options[fn] = list(expand(fn, lv))
        return options[fn]

    def expand(fn: SpecFn, lv: int):
        kids = p.children(fn)
        if not kids:
            yield bit[fn]
            return
        if lv < frozen_levels:
            subsets = [kids]
        else:
            subsets = []
            for r in range(1, len(kids) + 1):
                subsets.extend(itertools.combinations(kids, r))
        own = bit[fn]
        for subset in subsets:
            if not index.valid(p, fn, subset):
                continue
            # a child with no options leaves the product empty
            for combo in itertools.product(*[cone_options(ch, lv + 1) for ch in subset]):
                counter[0] += 1
                if counter[0] > limit:
                    raise DomainError("subfragment search exceeded the enumeration limit")
                keep = own
                for s in combo:
                    keep |= s
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
    leaf level, matching the unbounded conclusion's shape, and a negative
    max_level is a DomainError, since no level can answer it.  Three stages,
    in order: p itself (trivial constancy), greedy uniform-subcone assembly
    per level, then exhaustive subfragment search.  Each stage yields keep
    masks over p.fns (bit j for p.fns[j]); the label test reads the mask
    against the call's label table first, and only a candidate with a
    constant level becomes a node set that is built, validated and
    leq_n-checked: every answer but p must be a condition with p <=_m q.
    The first that passes answers, and not-found carries the certificate
    that the exhaustive pass completed.

    `shape` is not read: the norm shape is fixed (`params.NormShape`).  The
    slot stays because the benchmark's `decide` workload and its tests fill
    it positionally; they pass `default_shape()`.
    """
    label.check_total(p)
    if max_level is not None and max_level < 0:
        raise DomainError(f"max_level {max_level} is negative: no level can answer")
    cutoff = p.depth if max_level is None else max_level
    label_table = _cone_leaf_labels(p, label)

    def candidates():
        """(keep mask, stage, searched) in stage order."""
        yield (1 << len(p.fns)) - 1, "trivial", 0
        for keep in _greedy_candidates(p, label, label_table, cutoff, tree, params):
            yield keep, "greedy", 0
        for searched, keep in enumerate(_valid_subfragments(p, m + 1, tree, params), 1):
            yield keep, "exhaustive", searched

    searched = 0
    for keep, stage, searched in candidates():
        lv = _keep_constant_level(keep, label_table, cutoff)
        if lv is None:
            continue
        if stage == "trivial":
            q = p  # p <=_m p needs no check
        else:
            q = subfragment(p, {fn for j, fn in enumerate(p.fns) if keep >> j & 1})
            if not (validate_condition(q, tree, params).ok and leq_n(p, q, m, tree, params)):
                continue
        # each kept node of the level, with the one label that meets keep
        table = {
            fn: value
            for fn, (node, pairs) in zip(p.level_nodes(lv), label_table[lv])
            if keep & node
            for value, leaves in pairs
            if keep & leaves
        }
        return DecideResult(True, q, lv, table, stage == "exhaustive", searched, stage)
    return DecideResult(False, None, None, {}, True, searched, "exhaustive")


def _greedy_candidates(
    p: ConditionFragment,
    label: LeafLabeling,
    table: LabelTable,
    cutoff: int,
    tree: AmbientTree,
    params: GrowthSequences,
):
    """Per level up to the cutoff, the keep mask of every lower node and a
    value-uniform maximal subcone above each node of that level; the leaf
    counts in table (_cone_leaf_labels(p, label)) and the delta-system of the
    leaf domains order the value candidates.  decide tests each keep mask's
    labels before it builds the subfragment."""
    index = _index(p, tree, params)
    below = 0  # the number of nodes under level lv: p.fns runs level by level
    for lv in range(1, min(cutoff, p.depth) + 1):
        below += len(p.level_nodes(lv - 1))
        keep = (1 << below) - 1
        for fn, (_, pairs) in zip(p.level_nodes(lv), table[lv]):
            sub = 0
            for value in _candidate_values(p, fn, pairs, label, index):
                sub = _uniform_subcone(p, fn, value, label, index)
                if sub:
                    break
            if not sub:
                break
            keep |= sub
        else:
            yield keep


def _candidate_values(
    p: ConditionFragment,
    fn: SpecFn,
    pairs: tuple[tuple[int, int], ...],
    label: LeafLabeling,
    index: _DecideIndex,
) -> list[int]:
    """Cone label values, most leaves first and then by value, except that
    the label of the leaf the delta-system of the leaf domains prefers
    (richer shared structure) goes first.  The leaf counts come from fn's
    (label, leaf mask) pairs in the call's label table, the preferred leaf
    from p's decide index."""
    ordered = [value for value, _ in sorted(pairs, key=lambda pair: (-pair[1].bit_count(), pair[0]))]
    preferred = index.preferred(p, fn) if len(ordered) > 1 else None
    if preferred is not None:
        ordered.remove(label.values[preferred])
        ordered.insert(0, label.values[preferred])
    return ordered
