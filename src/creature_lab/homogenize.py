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
level is certified, on its keep mask, to be a condition q with p <=_m q, and
only the answer is built as a fragment.  decide does not purify: against
the set of constant-cone nodes, which holds every leaf, purify keeps the
whole fragment, so it could only repeat the first stage.

What decide derives from a fragment without reading a label lives in the
fragment, one index per (tree, params), made lazily and read by every later
call: the node numbering of keep masks, whether a node with a subset of its
children is a valid creature and that creature's half-norm, each node's
preferred leaf, the one the delta-system of its cone's leaf domains picks,
and the certificate's per-level, per-pair and per-node masks, which stand in
for validate_condition and leq_n on a keep mask.  How many leaves of a cone
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
from .forcing import ConditionFragment, creature_at, kind_of, leq_n, subfragment, validate_condition
from .ops import halve
from .params import GrowthSequences, NormShape
from .specfn import SpecFn, is_spec, union_spec
from .specfn import delta_system as _delta_system
from .tree_model import AmbientTree, initial_segment


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
    - for an internal node and a nonempty mask of its children (which names
      the node), the creature they form, or None when it is not valid, and
      the half-norm of a valid one;
    - each node's preferred leaf, the one that the delta-system of its cone's
      leaf domains picks first (None when it picks no member);
    - the facts `certify` reads, derived together on its first call: whether
      p's root fails every q (it has no kind, fails clause (i) or sits at its
      kind's window edge); each level's node mask and n1 bound; the level
      that coverage asks q to reach and the nodes whose domains do not tile
      its segment; each pair of incomparable nodes with a compatible union
      and that union's bit (0 when it is not a node); and each node's
      children and level+1 extensions.
    The index lives in the fragment (see `_index`) and holds its nodes but
    never the fragment, so it makes no reference cycle.
    """

    __slots__ = ("tree", "params", "bit", "_creature", "_half", "_preferred", "_facts")

    def __init__(self, fns: tuple[SpecFn, ...], tree: AmbientTree, params: GrowthSequences):
        self.tree = tree
        self.params = params
        self.bit = {fn: 1 << j for j, fn in enumerate(fns)}
        self._creature: dict[int, SimpleCreature | None] = {}
        self._half: dict[int, int] = {}
        self._preferred: dict[SpecFn, SpecFn | None] = {}
        self._facts: tuple | None = None

    def creature(self, p: ConditionFragment, fn: SpecFn, kids: int) -> SimpleCreature | None:
        """The creature fn forms with the children in the mask kids, or None
        when it is not valid."""
        if kids not in self._creature:
            c = creature_at(p, fn, self.params)
            cand = SimpleCreature.make(c.i, fn, [ch for ch in c.valrange if kids & self.bit[ch]])
            self._creature[kids] = cand if validate_creature(cand, self.params, self.tree).ok else None
        return self._creature[kids]

    def preferred(self, p: ConditionFragment, fn: SpecFn) -> SpecFn | None:
        if fn not in self._preferred:
            leaves = p.cone_leaves(fn)
            _, members = _delta_system([leaf.domset() for leaf in leaves], self.tree)
            self._preferred[fn] = leaves[members[0]] if members else None
        return self._preferred[fn]

    def certify(self, p: ConditionFragment, keep: int, m: int) -> bool:
        """validate_condition(q).ok and leq_n(p, q, m) for the subfragment q
        of p on keep, a mask that holds p's root and each kept node's parent.

        q has p's root, so p's kind, and leq's canonical projection of q is
        the identity: each kept child is the one maximal candidate among its
        image's children.  So leq's clauses (a)-(e) hold, leq_n's frozen
        levels <= m must be kept whole, and its norm floor falls on the
        creatures that lost a child.  Each non-root node of q is a member of
        its parent's creature, so when that creature is valid the node is a
        specialization function, extends its parent (leq's clause (f)) and
        meets the domain-size bound; the root's verdicts on those hold for
        every q.  An exceptional set that meets the segment leaves no node
        tiling it, so coverage asks only for its level and tiling leaves.
        What is left is a fact about one level, one pair of nodes, or one
        node with its kept children.
        """
        if self._facts is None:
            self._facts = self._derive(p)
        if not self._facts:
            return False
        levels, reach, nontile, unions, nodes = self._facts
        if not keep & reach:
            return False
        for lv, (mask, bound) in enumerate(levels):
            kept = keep & mask
            if kept != mask and lv <= m:
                return False
            if not kept:
                break
            if kept.bit_count() >= bound:
                return False
        for pair, union in unions:
            if keep & pair == pair and not keep & union:
                return False
        for node, fn, kids, ext, k in nodes:
            if not keep & node:
                continue
            kept = keep & kids
            if not kept:
                if nontile & node:
                    return False
                continue
            if keep & ext != kept or not self.creature(p, fn, kept):
                return False
            half = self._half.get(kept)
            if half is None:
                half = self._half[kept] = normhalf(self._creature[kept], self.tree, self.params)
            if k > half or kept != kids and not NormShape.norm_geq(half, max(k, 1), m):
                return False
        return True

    def _derive(self, p: ConditionFragment) -> tuple:
        """certify's facts, (levels, reach, nontile, unions, nodes), or ()
        when p's root fails every q: it has no kind, it is no specialization
        function, or its domain is at its kind's window edge."""
        tree, params, bit = self.tree, self.params, self.bit
        try:
            ip = kind_of(p, params)
        except DomainError:
            return ()
        if not is_spec(tree, p.root) or ip > 0 and not len(p.root) < params.n2[ip - 1]:
            return ()
        cov = p.coverage
        seg = initial_segment(tree, cov.alpha) if cov else frozenset()
        levels, nodes = [], []
        nontile = 0
        for lv, level in enumerate(p.levels()):
            for fn in level:
                if cov and fn.domset() - cov.u != seg:
                    nontile |= bit[fn]
                kids = sum(bit[ch] for ch in p.children(fn))
                ext = sum(bit[nu] for nu in p.level_nodes(lv + 1) if nu.extends(fn))
                nodes.append((bit[fn], fn, kids, ext, p.klabel[fn]))
            # the level-size bound; a level whose kind is past imax keeps no node
            kind = ip + lv
            levels.append((sum(bit[fn] for fn in level), params.n1[kind] if kind <= params.imax else 0))
        unions = []
        for a, b in itertools.combinations(p.fns, 2):
            if not (a.extends(b) or b.extends(a)):
                # the key of validate_condition's clause (v), which shares it
                u = tree.memoized(("union_spec", a, b), union_spec, tree, a, b)
                if isinstance(u, SpecFn):
                    unions.append((bit[a] | bit[b], bit.get(u, 0)))
        # q must reach the coverage level: no mask meets a level past p's depth
        reach = sum(bit[fn] for fn in p.level_nodes(max(cov.k, 0) if cov else 0))
        return tuple(levels), reach, nontile, tuple(unions), tuple(nodes)


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
    kept = 0
    for ch in kids:
        sub = _uniform_subcone(p, ch, value, label, index)
        if sub:
            out |= sub
            kept |= index.bit[ch]
    if not kept or not index.creature(p, fn, kept):
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
            if not index.creature(p, fn, sum(bit[ch] for ch in subset)):
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
    constant level is certified from p's decide index, on its mask, to be a
    condition q with p <=_m q (`_DecideIndex.certify`, which equals
    validate_condition(q).ok and leq_n(p, q, m)).  The first that passes
    answers and is the one candidate built into a fragment; not-found
    carries the certificate that the exhaustive pass completed.

    `shape` is not read: the norm shape is fixed (`params.NormShape`).  The
    slot stays because the benchmark's `decide` workload and its tests fill
    it positionally; they pass `default_shape()`.
    """
    label.check_total(p)
    if max_level is not None and max_level < 0:
        raise DomainError(f"max_level {max_level} is negative: no level can answer")
    cutoff = p.depth if max_level is None else max_level
    label_table = _cone_leaf_labels(p, label)
    index = _index(p, tree, params)

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
        elif index.certify(p, keep, m):
            q = subfragment(p, {fn for j, fn in enumerate(p.fns) if keep >> j & 1})
        else:
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
