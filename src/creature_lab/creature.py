"""Simple creatures, creatures, and their norms.

A simple creature is (kind i, base function, value range); a creature adds a
counter k >= 1.  norm0 is the game norm: the largest level at which every
choice of forbidden values and branch tuple is beaten by some member of the
value range.  The computation quantifies over branch traces on the new points
only; the naive reference implementation lives in `oracle.oracle_norm0`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .params import GrowthSequences, NormShape, log2ceil, log2ceil_ratio, log2floor_ratio
from .specfn import SpecFn, is_spec
from .tree_model import AmbientTree


@dataclass(frozen=True)
class SimpleCreature:
    i: int
    base: SpecFn
    valrange: tuple[SpecFn, ...]

    @staticmethod
    def make(i: int, base: SpecFn, valrange) -> "SimpleCreature":
        vr = tuple(sorted(set(valrange), key=lambda fn: fn.pairs))
        return SimpleCreature(i=i, base=base, valrange=vr)

    def __repr__(self) -> str:
        return f"SimpleCreature(i={self.i}, base={self.base}, |val|={len(self.valrange)})"


@dataclass(frozen=True)
class Creature:
    simple: SimpleCreature
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("creature counter k must be >= 1")


@dataclass(frozen=True)
class ClauseCheck:
    clause: str
    ok: bool
    witness: str = ""


@dataclass(frozen=True)
class ClauseReport:
    """A creature's or a condition's clause checks.

    Read-only: one creature report is shared by every caller through the
    tree's memo.
    """

    checks: tuple[ClauseCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[ClauseCheck]:
        return [c for c in self.checks if not c.ok]

    def require(self, what: str) -> None:
        """Raise ValidationError naming `what` and the first failing check."""
        if not self.ok:
            f = self.failures()[0]
            raise ValidationError(f"{what}: {f.clause}: {f.witness}")


def clause_d_holds(c: SimpleCreature) -> tuple[bool, str]:
    """Every new point of a member is contradicted or omitted by some member.

    A new point fails exactly when its (node, value) pair is common to all
    members; the first member then fails first, at the smallest such node.
    """
    if not c.valrange:
        return True, ""
    first = c.valrange[0]
    common = first.pairset().intersection(*(eta.pairset() for eta in c.valrange[1:]))
    base_dom = c.base.domset()
    new = [x for x, _ in common if x not in base_dom]
    if new:
        return False, f"member {first} point {min(new)}"
    return True, ""


def validate_creature(
    c: SimpleCreature,
    params: GrowthSequences,
    tree: AmbientTree,
) -> ClauseReport:
    """Clause-by-clause validation of clauses (a)-(d); computes no norm.

    Clause (d) is checked directly, by `clause_d_holds`, once (c) holds.
    Remembered in the tree's memo under (c, params).
    """
    return tree.memoized(("validate_creature", c, params), _validate_creature, c, params, tree)


def _validate_creature(
    c: SimpleCreature,
    params: GrowthSequences,
    tree: AmbientTree,
) -> ClauseReport:
    checks: list[ClauseCheck] = []
    i = c.i
    if i < 0 or i > params.imax:
        checks.append(ClauseCheck("(a)", False, f"kind {i} outside [0, imax]"))
        return ClauseReport(tuple(checks))
    checks.append(ClauseCheck("(a)", True))

    # (b): kind is forced by the base domain size; base lives in spec_{n3[i-1]}
    size = len(c.base)
    try:
        forced = params.kind_for_dom_size(size)
    except DomainError as e:
        checks.append(ClauseCheck("(b)", False, str(e)))
        forced = None
    if forced is not None:
        if forced != i:
            checks.append(
                ClauseCheck("(b)", False, f"base size {size} forces kind {forced}, not {i}")
            )
        elif i == 0:
            checks.append(ClauseCheck("(b)", True))
        else:
            ok = is_spec(tree, c.base, bound=params.n3[i - 1])
            checks.append(ClauseCheck("(b)", ok, "" if ok else f"base {c.base} not in spec_n3[i-1]"))

    # (c): members extend the base, are small, bounded, and few
    ok_c = True
    wit = ""
    if not c.valrange:
        ok_c, wit = False, "empty value range"
    for eta in c.valrange:
        if not eta.extends(c.base):
            ok_c, wit = False, f"member {eta} does not extend the base"
            break
        if not is_spec(tree, eta, bound=params.n3[i]):
            ok_c, wit = False, f"member {eta} not in spec_n3[i]"
            break
        if not len(eta) < params.n2[i]:
            ok_c, wit = False, f"member {eta} domain size {len(eta)} not < n2[i]"
            break
    if ok_c and not len(c.valrange) < params.n1[i]:
        ok_c, wit = False, f"|valrange| = {len(c.valrange)} not < n1[i] = {params.n1[i]}"
    checks.append(ClauseCheck("(c)", ok_c, wit))

    if ok_c:
        ok_d, wit_d = clause_d_holds(c)
        checks.append(ClauseCheck("(d)", ok_d, wit_d))
    return ClauseReport(tuple(checks))


def norm0(
    c: SimpleCreature,
    tree: AmbientTree,
    params: GrowthSequences,
    validate: bool = True,
) -> int:
    """The game norm, computed with the branch-trace reduction on node masks.

    Only traces of branches on the creature's new points and only values that
    actually occur on new points matter; both reductions are exercised against
    the naive oracle in the verification suite.

    Nodes and values are bits of ints: a trace is a branch's node mask (the
    tree's `branch_masks`, bit x for node x) cut down to the relevant nodes,
    a member's new points are (node bit, value bit) pairs, and a forbidden
    set is a value mask.

    One loop over k.  An instance at level k is a union of min(k, #traces)
    traces and a set of min(k, #values) forbidden values; a member wins it
    when its beta budget holds (|eta| * 2^k <= n2[i]) and it puts no forbidden
    value on a new point of the union.  The loop returns k - 1 at the first
    instance no member wins; the order of the instances does not matter.  It
    ends by itself: once k exceeds both counts, the one instance left forbids
    every value on every relevant point, and only a member without new points
    -- the base -- can win it.  So a value range without its base stops
    there, and one with its base has a closed form: the largest k within the
    base's beta budget (every k for the empty base, whose budget never runs
    out).  Capped at n1[i].  Computed afresh on every call; `cached_norm0`
    remembers it in the tree's memo.  With `validate` it first requires c to
    pass `validate_creature`, which never computes a norm.
    """
    if validate:
        validate_creature(c, params, tree).require("norm0 of invalid creature")
    i = c.i
    cap, n2i = params.n1[i], params.n2[i]
    base_dom = c.base.domset()
    # per member: its size and its new points as (node bit, value bit)
    members = []
    relevant = values_mask = 0
    for eta in c.valrange:
        news = [(1 << x, 1 << v) for x, v in eta.pairs if x not in base_dom]
        for node_bit, value_bit in news:
            relevant |= node_bit
            values_mask |= value_bit
        members.append((len(eta), news))
    values = [1 << v for v in range(values_mask.bit_length()) if values_mask >> v & 1]
    traces = sorted({mask & relevant for mask in tree.branch_masks()})

    if not traces:
        # no branches at all: every instance is vacuous, so only the cap applies
        return cap
    if c.base in c.valrange:
        size = len(c.base)
        if size == 0:
            return cap
        return min(cap, log2floor_ratio(n2i, size)) if size <= n2i else 0

    def alpha_ok(hit: int, a: int) -> bool:
        return not hit & a

    for k in range(1, cap + 1):
        t = min(k, len(traces))
        unions = {functools.reduce(operator.or_, combo) for combo in itertools.combinations(traces, t)}
        forbidden = [sum(a) for a in itertools.combinations(values, min(k, len(values)))]
        for union in unions:
            # per member: its size and the values it puts on the union's new points
            hits = []
            for sz, news in members:
                hit = 0
                for node_bit, value_bit in news:
                    if node_bit & union:
                        hit |= value_bit
                hits.append((sz, hit))
            for a in forbidden:
                for sz, hit in hits:
                    if (sz << k) <= n2i and alpha_ok(hit, a):
                        break
                else:
                    return k - 1
    return cap


def cached_norm0(c: SimpleCreature, tree: AmbientTree, params: GrowthSequences) -> int:
    """norm0 without validation, remembered in the tree's memo under (c, params).

    The caller validates c first.  norm0 itself stays uncached, so that
    criterion 1 compares its computation with the oracle, and so that a copy
    rebuilt from its source (the planted reduction bugs of the verification
    suite and of the benchmark's tests) neither reads nor writes a memo.
    """
    return tree.memoized(("norm0", c, params), norm0, c, tree, params, False)


@dataclass(frozen=True)
class NormRecord:
    norm0: int
    normstar: int
    normhalf: int
    norm1: int
    norm2: int
    norm: float


def normstar(c: SimpleCreature, params: GrowthSequences) -> int:
    """Cardinality norm: ceil-lg of n1[i] over the value-range size."""
    return log2ceil_ratio(params.n1[c.i], len(c.valrange))


def norms(
    cplus: Creature,
    tree: AmbientTree,
    params: GrowthSequences,
) -> NormRecord:
    """All six norm values of a creature; the caller validates it first."""
    c = cplus.simple
    n0 = cached_norm0(c, tree, params)
    ns = normstar(c, params)
    nh = min(n0, ns)
    return NormRecord(
        norm0=n0,
        normstar=ns,
        normhalf=nh,
        norm1=log2ceil(n0),
        norm2=log2ceil(nh),
        norm=NormShape.f(nh, cplus.k),
    )


def normhalf(c: SimpleCreature, tree: AmbientTree, params: GrowthSequences) -> int:
    return min(cached_norm0(c, tree, params), normstar(c, params))
