"""Bounded-depth condition fragments and their graded strengthening order.

A fragment is a levelled tree of specialization functions with one root,
every internal node carrying the creature formed by its successors and a
counter label bounded by that creature's half-norm.  Strengthening is
witnessed by a projection; the graded orders freeze levels and demand norm
floors on changed creatures.  Leaves carry no creature: they are the
truncation horizon of the unbounded construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .creature import (
    ClauseCheck,
    ClauseReport,
    SimpleCreature,
    cached_norm0,
    normhalf,
    validate_creature,
)
from .errors import ConstructionError, DomainError, PreconditionError, ValidationError
from .ops import fill, rebase, shrink_to_norm
from .params import GrowthSequences, NormShape
from .specfn import SpecFn, is_spec, union_spec
from .tree_model import AmbientTree, initial_segment


@dataclass(frozen=True)
class Coverage:
    """Finitized branch-limit data: level k, ordinal alpha, exceptional set u."""

    k: int
    alpha: int
    u: frozenset[int]


class ConditionFragment:
    """Immutable levelled tree of SpecFns with counter labels."""

    __slots__ = (
        "fns",
        "parent",
        "klabel",
        "coverage",
        "_levels",
        "_level_of",
        "_children",
        "_internal",
        "_root",
    )

    def __init__(
        self,
        parent: dict[SpecFn, SpecFn | None],
        klabel: dict[SpecFn, int],
        coverage: Coverage | None = None,
    ):
        self.parent = dict(parent)
        self.klabel = dict(klabel)
        self.coverage = coverage
        roots = [fn for fn, par in parent.items() if par is None]
        if len(roots) != 1:
            raise ConstructionError(f"fragment must have exactly one root, got {len(roots)}")
        self._root = roots[0]
        level: dict[SpecFn, int] = {self._root: 0}
        children: dict[SpecFn, list[SpecFn]] = {fn: [] for fn in parent}
        for fn, par in parent.items():
            if par is not None:
                if par not in parent:
                    raise ConstructionError(f"parent of {fn} not a fragment node")
                children[par].append(fn)
        order = [self._root]
        seen = {self._root}
        idx = 0
        while idx < len(order):
            cur = order[idx]
            idx += 1
            for ch in children[cur]:
                level[ch] = level[cur] + 1
                if ch in seen:
                    raise ConstructionError("fragment parent links contain a cycle")
                seen.add(ch)
                order.append(ch)
        if len(seen) != len(parent):
            raise ConstructionError("fragment is not connected")
        self._children = {fn: tuple(sorted(chs, key=lambda f: f.pairs)) for fn, chs in children.items()}
        by_level: dict[int, list[SpecFn]] = {}
        for fn, lv in level.items():
            by_level.setdefault(lv, []).append(fn)
        self._levels = tuple(
            tuple(sorted(by_level[lv], key=lambda f: f.pairs)) for lv in range(max(by_level) + 1)
        )
        self._level_of = level
        self.fns = tuple(fn for lv in self._levels for fn in lv)
        self._internal = tuple(fn for fn in self.fns if self._children[fn])
        for fn in self.fns:
            if fn not in self.klabel:
                raise ConstructionError(f"missing klabel for {fn}")

    # -- basic accessors ---------------------------------------------------
    @property
    def root(self) -> SpecFn:
        return self._root

    @property
    def depth(self) -> int:
        return len(self._levels) - 1

    def levels(self) -> tuple[tuple[SpecFn, ...], ...]:
        return self._levels

    def level_nodes(self, lv: int) -> tuple[SpecFn, ...]:
        return self._levels[lv] if 0 <= lv < len(self._levels) else ()

    def level_of(self, fn: SpecFn) -> int:
        return self._level_of[fn]

    def children(self, fn: SpecFn) -> tuple[SpecFn, ...]:
        return self._children[fn]

    def leaves(self) -> tuple[SpecFn, ...]:
        return tuple(fn for fn in self.fns if not self._children[fn])

    def internal(self) -> tuple[SpecFn, ...]:
        return self._internal

    def __contains__(self, fn: SpecFn) -> bool:
        return fn in self.parent

    def maximal_branches(self) -> tuple[tuple[SpecFn, ...], ...]:
        out = []
        for leaf in self.leaves():
            path = [leaf]
            cur = leaf
            while self.parent[cur] is not None:
                cur = self.parent[cur]
                path.append(cur)
            out.append(tuple(reversed(path)))
        return tuple(sorted(out, key=lambda p: [f.pairs for f in p]))

    def cone_nodes(self, fn: SpecFn) -> list[SpecFn]:
        """Tree descendants of fn including fn."""
        out = [fn]
        stack = [fn]
        while stack:
            cur = stack.pop()
            for ch in self._children[cur]:
                out.append(ch)
                stack.append(ch)
        return out

    def __repr__(self) -> str:
        return f"ConditionFragment(depth={self.depth}, nodes={len(self.fns)})"


def kind_of(p: ConditionFragment, params: GrowthSequences) -> int:
    """i(p): the kind forced by the root's domain size."""
    return params.kind_for_dom_size(len(p.root))


def creature_at(p: ConditionFragment, eta: SpecFn, params: GrowthSequences) -> SimpleCreature:
    """The creature formed by eta and its successors; eta must be internal."""
    kids = p.children(eta)
    if not kids:
        raise DomainError(f"{eta} is a leaf; fragments carry no creature there")
    i = kind_of(p, params) + p.level_of(eta)
    return SimpleCreature.make(i, eta, kids)


def validate_condition(
    p: ConditionFragment,
    tree: AmbientTree,
    params: GrowthSequences,
) -> ClauseReport:
    """Clause-by-clause fragment validation (order clauses live in leq)."""
    checks: list[ClauseCheck] = []

    # (i) nodes are specialization functions over the ambient tree; the
    # verdict depends on (tree, fn) only, so subfragments share it
    bad = [fn for fn in p.fns if not tree.memoized(("is_spec", fn), is_spec, tree, fn)]
    checks.append(
        ClauseCheck("(i) spec functions", not bad, f"{bad[0]}" if bad else "")
    )

    # (ii)/(iii) tree shape is enforced by the constructor; check root level
    checks.append(ClauseCheck("(iii) unique root", p.level_of(p.root) == 0))

    try:
        ip = kind_of(p, params)
    except DomainError as e:
        checks.append(ClauseCheck("(iv) root kind", False, str(e)))
        return ClauseReport(tuple(checks))
    if ip + p.depth > params.imax:
        checks.append(
            ClauseCheck(
                "(iv) kinds in range",
                False,
                f"deepest kind {ip + p.depth} exceeds imax = {params.imax}",
            )
        )
        return ClauseReport(tuple(checks))

    # (iv) successors form valid creatures; klabels below the half-norm
    ok_iv, wit_iv = True, ""
    for eta in p.internal():
        lv = p.level_of(eta)
        kids = p.children(eta)
        expected = tuple(
            nu for nu in p.level_nodes(lv + 1) if nu.extends(eta)
        )
        if set(kids) != set(expected):
            ok_iv, wit_iv = False, f"successors of {eta} are not its level-{lv+1} extensions"
            break
        c = creature_at(p, eta, params)
        rep = validate_creature(c, params, tree)
        if not rep.ok:
            f = rep.failures()[0]
            ok_iv, wit_iv = False, f"creature at {eta}: clause {f.clause} {f.witness}"
            break
        if p.klabel[eta] > normhalf(c, tree, params):
            ok_iv, wit_iv = False, f"klabel({eta}) exceeds the half-norm"
            break
    checks.append(ClauseCheck("(iv) creatures and labels", ok_iv, wit_iv))

    # (v) closure under compatible unions, uniqueness of functions
    ok_v, wit_v = True, ""
    fnset = set(p.fns)
    if len(fnset) != len(p.fns):
        ok_v, wit_v = False, "duplicate function"
    else:
        for a, b in itertools.combinations(p.fns, 2):
            # the union depends on (tree, a, b) only, so subfragments share it
            u = tree.memoized(("union_spec", a, b), union_spec, tree, a, b)
            if isinstance(u, SpecFn) and u not in fnset:
                ok_v, wit_v = False, f"union of {a} and {b} missing"
                break
    checks.append(ClauseCheck("(v) closure", ok_v, wit_v))

    # level-size bound
    ok_sz, wit_sz = True, ""
    for lv, fns in enumerate(p.levels()):
        if not len(fns) < params.n1[ip + lv]:
            ok_sz, wit_sz = False, f"|level {lv}| = {len(fns)} not < n1[{ip + lv}]"
            break
    checks.append(ClauseCheck("level-size bound", ok_sz, wit_sz))

    # domain-size bound
    ok_dm, wit_dm = True, ""
    for lv, fns in enumerate(p.levels()):
        for fn in fns:
            if lv == 0 and ip == 0 and len(fn) == 0:
                continue
            j = ip + lv - 1
            if j < 0 or not len(fn) < params.n2[j]:
                ok_dm, wit_dm = False, f"|dom| = {len(fn)} at level {lv} not < n2[{j}]"
                break
        if not ok_dm:
            break
    checks.append(ClauseCheck("domain-size bound", ok_dm, wit_dm))

    if p.coverage is not None:
        cov = p.coverage
        seg = initial_segment(tree, cov.alpha)
        ok_cv, wit_cv = True, ""
        if cov.k > p.depth:
            ok_cv, wit_cv = False, f"coverage level {cov.k} beyond depth"
        elif not cov.u.isdisjoint(seg):
            ok_cv, wit_cv = False, "u meets the initial segment"
        else:
            for leaf in p.leaves():
                if leaf.domset() - cov.u != seg:
                    ok_cv, wit_cv = False, f"leaf {leaf} does not tile the segment"
                    break
        checks.append(ClauseCheck("(vi) coverage", ok_cv, wit_cv))

    return ClauseReport(tuple(checks))


# -- order -----------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    mapping: dict[SpecFn, SpecFn] = field(hash=False)
    shift: int

    def __call__(self, fn: SpecFn) -> SpecFn:
        return self.mapping[fn]

    def compose(self, outer: "Projection") -> "Projection":
        """self: q -> p, outer: r -> q; returns r -> p."""
        return Projection(
            mapping={fn: self.mapping[mid] for fn, mid in outer.mapping.items()},
            shift=self.shift + outer.shift,
        )


@dataclass(frozen=True)
class NotRelated:
    clause: str
    detail: str = ""


def leq(
    p: ConditionFragment,
    q: ConditionFragment,
    tree: AmbientTree,
    params: GrowthSequences,
) -> Projection | NotRelated:
    """Compute the canonical projection q -> p and verify the order clauses."""
    ip, iq = kind_of(p, params), kind_of(q, params)
    if ip > iq:
        return NotRelated("i(p) <= i(q)", f"i(p)={ip} > i(q)={iq}")
    shift = iq - ip

    # root: the inclusion-maximal element of p below rt(q)
    candidates = [fn for fn in p.fns if q.root.extends(fn)]
    if not candidates:
        return NotRelated("(a)", "no element of p is contained in rt(q)")
    maximal = [
        fn
        for fn in candidates
        if not any(other != fn and other.extends(fn) for other in candidates)
    ]
    maximal.sort(key=lambda f: f.pairs)
    root_img = maximal[0]
    if p.level_of(root_img) != shift:
        return NotRelated(
            "(b)", f"rt(q) projects to level {p.level_of(root_img)}, expected {shift}"
        )

    mapping: dict[SpecFn, SpecFn] = {q.root: root_img}
    for lv in range(q.depth):
        for eta in q.level_nodes(lv):
            img = mapping.get(eta)
            if img is None:
                continue
            img_kids = p.children(img)
            for nu in q.children(eta):
                cands = [tau for tau in img_kids if nu.extends(tau)]
                if not cands:
                    return NotRelated("(c)", f"no successor of {img} is contained in {nu}")
                best = [
                    tau
                    for tau in cands
                    if not any(o != tau and o.extends(tau) for o in cands)
                ]
                best.sort(key=lambda f: f.pairs)
                mapping[nu] = best[0]

    if len(mapping) != len(q.fns):
        return NotRelated("(a)", "projection does not cover dom(q)")

    # (d) labels grow
    for eta, img in mapping.items():
        if q.klabel[eta] < p.klabel[img]:
            return NotRelated("(d)", f"klabel dropped at {eta}")
    # (e) is by construction; (f): new domain parts avoid older p-domains
    for eta in q.fns:
        for nu in q.children(eta):
            tau = mapping[nu]
            if tau.domset() & eta.domset() != mapping[eta].domset():
                return NotRelated(
                    "(f)",
                    f"dom({tau}) ∩ dom({eta}) != dom({mapping[eta]})",
                )
    return Projection(mapping=mapping, shift=shift)


def leq_strict_f(
    p: ConditionFragment,
    q: ConditionFragment,
    pr: Projection,
) -> bool:
    """The strengthened (f): every p-extension of a projected image stays clear."""
    for eta in q.fns:
        img = pr(eta)
        for tau in p.fns:
            if tau != img and tau.extends(img):
                if tau.domset() & eta.domset() != img.domset():
                    return False
    return True


def fragments_agree_below(p: ConditionFragment, q: ConditionFragment, n: int) -> bool:
    """Levels <= n equal as labelled trees (nodes, edges, labels)."""
    for lv in range(n + 1):
        a, b = p.level_nodes(lv), q.level_nodes(lv)
        if a != b:
            return False
        for fn in a:
            if p.klabel[fn] != q.klabel[fn]:
                return False
            if p.parent[fn] != q.parent[fn]:
                return False
    return True


def leq_n(
    p: ConditionFragment,
    q: ConditionFragment,
    n: int,
    tree: AmbientTree,
    params: GrowthSequences,
) -> bool:
    """The graded order: frozen levels <= n, norm floor n on changed creatures."""
    if kind_of(p, params) != kind_of(q, params):
        return False
    pr = leq(p, q, tree, params)
    if isinstance(pr, NotRelated):
        return False
    if not fragments_agree_below(p, q, n):
        return False
    for eta in q.internal():
        nu = pr(eta)
        same = (
            eta == nu
            and p.children(nu)
            and set(q.children(eta)) == set(p.children(nu))
            and q.klabel[eta] == p.klabel[nu]
        )
        if same:
            continue
        cq = creature_at(q, eta, params)
        if not NormShape.norm_geq(normhalf(cq, tree, params), max(q.klabel[eta], 1), n):
            return False
    return True


def restrict(p: ConditionFragment, eta: SpecFn) -> ConditionFragment:
    """The cone above eta, re-rooted; klabels inherited."""
    if eta not in p:
        raise DomainError(f"{eta} not in the fragment")
    keep = [fn for fn in p.fns if fn.extends(eta)]
    keepset = set(keep)
    parent: dict[SpecFn, SpecFn | None] = {}
    for fn in keep:
        if fn == eta:
            parent[fn] = None
        else:
            par = p.parent[fn]
            if par not in keepset:
                raise ConstructionError(
                    f"cone above {eta} is not closed under parents at {fn}"
                )
            parent[fn] = par
    return ConditionFragment(
        parent=parent,
        klabel={fn: p.klabel[fn] for fn in keep},
        coverage=None,
    )


def fuse(
    qs: list[ConditionFragment],
    ns: list[int],
    tree: AmbientTree,
    params: GrowthSequences,
) -> ConditionFragment:
    """Band-splice a graded chain; the result dominates each link at its grade."""
    if not qs:
        raise PreconditionError("fuse needs at least one fragment")
    if len(ns) != len(qs) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise PreconditionError("ns must be strictly increasing, one per fragment")
    for idx in range(len(qs) - 1):
        if not leq_n(qs[idx], qs[idx + 1], ns[idx], tree, params):
            raise PreconditionError(f"chain broken at index {idx}: not <=_{ns[idx]}")
    # splice bands [n_{i-1}, n_i) from q_i, the tail from the last fragment
    parent: dict[SpecFn, SpecFn | None] = {}
    klabel: dict[SpecFn, int] = {}
    prev = 0
    pieces: list[tuple[ConditionFragment, int, int]] = []
    for q, bound in zip(qs, ns):
        pieces.append((q, prev, bound))
        prev = bound
    pieces.append((qs[-1], prev, qs[-1].depth + 1))
    for q, lo, hi in pieces:
        for lv in range(lo, min(hi, q.depth + 1)):
            for fn in q.level_nodes(lv):
                parent[fn] = q.parent[fn] if lv > 0 else None
                klabel[fn] = q.klabel[fn]
    fused = ConditionFragment(parent=parent, klabel=klabel, coverage=qs[-1].coverage)
    for q, n in zip(qs, ns):
        if not leq_n(q, fused, n, tree, params):
            raise ValidationError(f"fused fragment is not >=_{n} its chain link")
    return fused


@dataclass
class Classification:
    normal: bool
    smooth: bool
    weakly_smooth: bool
    alpha: int | None


def classify(
    p: ConditionFragment,
    tree: AmbientTree,
    params: GrowthSequences,
) -> Classification:
    """Normality (monotone norms) and smoothness from the coverage record."""
    if p.coverage is None:
        raise PreconditionError("classify requires coverage metadata")
    normal = True
    for branch in p.maximal_branches():
        prev: float | None = None
        for fn in branch:
            if not p.children(fn):
                continue
            c = creature_at(p, fn, params)
            val = NormShape.f(normhalf(c, tree, params), max(p.klabel[fn], 1))
            if prev is not None and val < prev:
                normal = False
                break
            prev = val
        if not normal:
            break
    weakly = p.coverage.k == 0
    smooth = weakly and not p.coverage.u
    alpha: int | None = None
    if smooth:
        alpha = p.coverage.alpha
        seg = initial_segment(tree, alpha)
        for leaf in p.leaves():
            if leaf.domset() != seg:
                raise ValidationError(
                    f"smooth fragment's leaf {leaf} does not tile levels below {alpha}"
                )
    return Classification(normal=normal, smooth=smooth, weakly_smooth=weakly, alpha=alpha)


def fronts_of(p: ConditionFragment) -> list[tuple[SpecFn, ...]]:
    """All fronts: antichains met by every maximal branch (small fragments only)."""
    nodes = list(p.fns)
    return [
        combo
        for r in range(1, len(nodes) + 1)
        for combo in itertools.combinations(nodes, r)
        if is_front(p, combo)
    ]


def is_front(p: ConditionFragment, front: list[SpecFn] | tuple[SpecFn, ...]) -> bool:
    s = set(front)
    if any(a != b and a.extends(b) for a in front for b in front):
        return False
    return all(any(fn in s for fn in br) for br in p.maximal_branches())


def amalgamate(
    p: ConditionFragment,
    front: list[SpecFn],
    qs: list[ConditionFragment],
    tree: AmbientTree,
    params: GrowthSequences,
) -> ConditionFragment:
    """Glue same-root strengthenings of the cones over a front back onto p.

    The result must be a condition above p; ValidationError otherwise.
    """
    if not is_front(p, front):
        raise PreconditionError("given nodes are not a front of p")
    if len(front) != len(qs):
        raise PreconditionError("one strengthening per front element required")
    for eta, q in zip(front, qs):
        if q.root != eta:
            raise PreconditionError(f"strengthening at {eta} must keep it as root")
        cone = restrict(p, eta)
        r = leq(cone, q, tree, params)
        if isinstance(r, NotRelated):
            raise PreconditionError(
                f"cone at {eta} is not below its strengthening: clause {r.clause}"
            )
    in_cones = set()
    for eta in front:
        for fn in restrict(p, eta).fns:
            if fn != eta:
                in_cones.add(fn)
    parent: dict[SpecFn, SpecFn | None] = {}
    klabel: dict[SpecFn, int] = {}
    for fn in p.fns:
        if fn in in_cones:
            continue
        parent[fn] = p.parent[fn]
        klabel[fn] = p.klabel[fn]
    for eta, q in zip(front, qs):
        for fn in q.fns:
            if fn == eta:
                klabel[fn] = q.klabel[fn]
                continue
            parent[fn] = q.parent[fn]
            klabel[fn] = q.klabel[fn]
    out = ConditionFragment(parent=parent, klabel=klabel, coverage=None)
    validate_condition(out, tree, params).require("amalgamate output invalid")
    if isinstance(leq(p, out, tree, params), NotRelated):
        raise ValidationError("amalgamate output is not above p")
    return out


def normalize(
    p: ConditionFragment,
    tree: AmbientTree,
    params: GrowthSequences,
) -> ConditionFragment:
    """Shrink every creature to the minimum game norm over its cone.

    Finite analog of min-norm leveling: after the pass, the creature at each
    kept node has norm0 equal to the cone minimum computed in p.
    """
    cone_min: dict[SpecFn, int] = {}

    def walk(fn: SpecFn) -> int:
        kids = p.children(fn)
        if not kids:
            return 10**9
        own = cached_norm0(creature_at(p, fn, params), tree, params)
        m = min([own] + [walk(ch) for ch in kids])
        cone_min[fn] = m
        return m

    walk(p.root)
    if any(v < 1 for v in cone_min.values()):
        raise PreconditionError("normalize requires cone-min norms >= 1")

    parent: dict[SpecFn, SpecFn | None] = {p.root: None}
    klabel: dict[SpecFn, int] = {p.root: p.klabel[p.root]}

    def build(fn: SpecFn) -> None:
        kids = p.children(fn)
        if not kids:
            return
        c = creature_at(p, fn, params)
        target = cone_min[fn]
        shrunk = shrink_to_norm(c, target, tree, params).creature
        for ch in shrunk.valrange:
            parent[ch] = fn
            klabel[ch] = min(p.klabel[ch], target)
            build(ch)

    build(p.root)
    return ConditionFragment(parent=parent, klabel=klabel, coverage=p.coverage)


def smoothen(
    p: ConditionFragment,
    alpha: int,
    m: int,
    tree: AmbientTree,
    params: GrowthSequences,
) -> ConditionFragment:
    """Extend leaf domains to tile the initial segment below alpha.

    Missing ambient nodes are filled into a level's creatures and pushed down
    by rebasing every deeper creature onto the extended bases; levels <= m
    stay frozen so the result dominates p at grade m.  Fails explicitly when
    the norm budget cannot absorb the missing nodes.
    """
    seg = initial_segment(tree, alpha)
    for leaf in p.leaves():
        extra = leaf.domset() - seg
        if extra:
            raise PreconditionError(
                f"leaf {leaf} reaches outside the target segment: {sorted(extra)}"
            )
    missing_per_leaf = {leaf: seg - leaf.domset() for leaf in p.leaves()}
    if all(not v for v in missing_per_leaf.values()):
        out = ConditionFragment(
            parent=dict(p.parent),
            klabel=dict(p.klabel),
            coverage=Coverage(k=0, alpha=alpha, u=frozenset()),
        )
        validate_condition(out, tree, params).require("smooth target invalid")
        return out

    if p.depth < 1:
        raise PreconditionError("cannot absorb missing nodes: fragment has no creatures")

    # one fill level: the deepest internal level > m whose creatures can pay
    fill_level = None
    blocking = ""
    for lv in range(max(m, 0), p.depth):
        ok = True
        for eta in p.level_nodes(lv):
            if not p.children(eta):
                continue
            c = creature_at(p, eta, params)
            n0 = cached_norm0(c, tree, params)
            need = len(
                set().union(*(missing_per_leaf[l] for l in _leaves_under(p, eta)))
            )
            if n0 < need + 1:
                ok = False
                blocking = f"norm0 = {n0} at level {lv} cannot absorb {need} nodes"
                break
        if ok:
            fill_level = lv
            break
    if fill_level is None:
        raise PreconditionError(f"no level has the norm budget: {blocking}")

    parent: dict[SpecFn, SpecFn | None] = {}
    klabel: dict[SpecFn, int] = {}
    for lv in range(fill_level + 1):
        for fn in p.level_nodes(lv):
            parent[fn] = p.parent[fn]
            klabel[fn] = p.klabel[fn]

    def graft(eta: SpecFn, old_eta: SpecFn) -> None:
        """Rebuild the cone over old_eta with every function unioned into eta."""
        kids = p.children(old_eta)
        if not kids:
            return
        c = creature_at(p, old_eta, params)
        reb = rebase(c, eta, tree, params).creature
        mapping_back = {}
        for nu in reb.valrange:
            # find the original member this union came from
            origs = [o for o in kids if nu.extends(o)]
            origs.sort(key=lambda f: len(f), reverse=True)
            mapping_back[nu] = origs[0]
        for nu in reb.valrange:
            parent[nu] = eta
            klabel[nu] = p.klabel[mapping_back[nu]]
            graft(nu, mapping_back[nu])

    for eta in p.level_nodes(fill_level):
        kids = p.children(eta)
        if not kids:
            raise PreconditionError(f"fill level has a leaf {eta}; deepen the fragment")
        need = sorted(set().union(*(missing_per_leaf[l] for l in _leaves_under(p, eta))))
        c = creature_at(p, eta, params)
        if need:
            filled = fill(c, need, tree, params).creature
        else:
            filled = c
        for nu in filled.valrange:
            anchors = [o for o in kids if nu.extends(o)]
            anchors.sort(key=lambda f: len(f), reverse=True)
            if not anchors:
                raise ValidationError("filled member lost its anchor")
            old = anchors[0]
            parent[nu] = eta
            klabel[nu] = p.klabel[old]
            graft(nu, old)

    out = ConditionFragment(
        parent=parent, klabel=klabel, coverage=Coverage(k=0, alpha=alpha, u=frozenset())
    )
    validate_condition(out, tree, params).require("smoothen output invalid")
    if not leq_n(p, out, m, tree, params):
        raise ValidationError("smoothen output does not dominate the input at grade m")
    return out


def _leaves_under(p: ConditionFragment, eta: SpecFn) -> list[SpecFn]:
    return [fn for fn in p.cone_nodes(eta) if not p.children(fn)]
