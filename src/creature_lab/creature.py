"""Simple creatures, creatures, and their norms.

A simple creature is (kind i, base function, value range); a creature adds a
counter k >= 1.  norm0 is the game norm: the largest level at which every
choice of forbidden values and branch tuple is beaten by some member of the
value range.  The computation quantifies over branch traces on the new points
only; the naive reference implementation lives in `oracle.oracle_norm0`.
"""

from __future__ import annotations

import itertools
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


def clause_d_holds(c: SimpleCreature) -> tuple[bool, str]:
    """Every new point of a member is contradicted or omitted by some member."""
    base_dom = c.base.domset()
    for eta1 in c.valrange:
        d1 = eta1.as_dict()
        for x in sorted(eta1.domset() - base_dom):
            ok = False
            for eta2 in c.valrange:
                d2 = eta2.as_dict()
                if x not in d2 or d2[x] != d1[x]:
                    ok = True
                    break
            if not ok:
                return False, f"member {eta1} point {x}"
    return True, ""


def validate_creature(
    c: SimpleCreature,
    params: GrowthSequences,
    tree: AmbientTree,
) -> ClauseReport:
    """Clause-by-clause validation; clause (d) may be implied by norm0 > 0.

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

    # (d): checked directly only when norm0 gives no shortcut
    if ok_c:
        if all(ch.ok for ch in checks) and cached_norm0(c, tree, params, validate=False) > 0:
            checks.append(ClauseCheck("(d)", True, "implied by norm0 > 0"))
        else:
            ok_d, wit_d = clause_d_holds(c)
            checks.append(ClauseCheck("(d)", ok_d, wit_d))
    return ClauseReport(tuple(checks))


def norm0(
    c: SimpleCreature,
    tree: AmbientTree,
    params: GrowthSequences,
    validate: bool = True,
) -> int:
    """The game norm, computed with the branch-trace reduction.

    Only traces of branches on the creature's new points and only values that
    actually occur on new points matter; both reductions are exercised against
    the naive oracle in the verification suite.

    One loop over k.  An instance at level k is a union of min(k, #traces)
    traces and a set of min(k, #values) forbidden values; a member wins it
    when its beta budget holds (|eta| * 2^k <= n2[i]) and it puts no forbidden
    value on a new point of the union.  The loop returns k - 1 at the first
    instance no member wins.  It ends by itself: once k exceeds both counts,
    the one instance left forbids every value on every relevant point, and
    only a member without new points -- the base -- can win it.  So a value
    range without its base stops there, and one with its base has a closed
    form: the largest k within the base's beta budget (every k for the empty
    base, whose budget never runs out).  Capped at n1[i].  Computed afresh on
    every call; `cached_norm0` remembers it in the tree's memo.
    """
    if validate:
        rep = validate_creature(c, params, tree)
        if not rep.ok:
            raise ValidationError(f"norm0 of invalid creature: {rep.failures()[0].clause}")
    i = c.i
    cap, n2i = params.n1[i], params.n2[i]
    base_dom = c.base.domset()
    # per-member new points with their values
    members = []
    for eta in c.valrange:
        news = tuple((x, v) for x, v in eta.pairs if x not in base_dom)
        members.append((len(eta), news))
    relevant = frozenset(x for _, news in members for x, _ in news)
    values = sorted({v for _, news in members for _, v in news})
    traces = sorted({frozenset(set(b) & relevant) for b in tree.branches()}, key=sorted)

    if not traces:
        # no branches at all: every instance is vacuous, so only the cap applies
        return cap
    if c.base in c.valrange:
        size = len(c.base)
        if size == 0:
            return cap
        return min(cap, log2floor_ratio(n2i, size)) if size <= n2i else 0

    def alpha_ok(news: tuple[tuple[int, int], ...], union: frozenset[int], a: frozenset[int]) -> bool:
        return all(v not in a for x, v in news if x in union)

    for k in range(1, cap + 1):
        t = min(k, len(traces))
        a_size = min(k, len(values))
        unions = {frozenset().union(*combo) for combo in itertools.combinations(traces, t)}
        for union in unions:
            for a_tuple in itertools.combinations(values, a_size):
                a = frozenset(a_tuple)
                if not any(
                    (sz << k) <= n2i and alpha_ok(news, union, a)
                    for sz, news in members
                ):
                    return k - 1
    return cap


def cached_norm0(
    c: SimpleCreature,
    tree: AmbientTree,
    params: GrowthSequences,
    validate: bool = True,
) -> int:
    """norm0, remembered in the tree's memo under (c, params).

    norm0 itself stays uncached, so that criterion 1 compares its computation
    with the oracle, and so that a copy rebuilt from its source (the planted
    reduction bugs of the verification suite and of the benchmark's tests)
    neither reads nor writes a memo.
    """
    if validate:
        rep = validate_creature(c, params, tree)
        if not rep.ok:
            raise ValidationError(f"norm0 of invalid creature: {rep.failures()[0].clause}")
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
    n0 = cached_norm0(c, tree, params, validate=False)
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
    return min(cached_norm0(c, tree, params, validate=False), normstar(c, params))
