"""Partial specialization functions and their combinatorics.

A specialization function assigns naturals to tree nodes so that comparable
nodes never share a value.  This module enumerates them, unions them with
incompatibility witnesses, decides isomorphism over a base, and extracts
finite delta systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import DomainError
from .tree_model import AmbientTree


@dataclass(frozen=True)
class SpecFn:
    """A finite partial map node -> value; `bound` is metadata (values < bound)."""

    pairs: tuple[tuple[int, int], ...]
    bound: int = field(default=0, compare=False)

    @staticmethod
    def make(mapping: dict[int, int] | None = None, bound: int = 0) -> "SpecFn":
        items = tuple(sorted((mapping or {}).items()))
        return SpecFn(pairs=items, bound=bound)

    def dom(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.pairs)

    def domset(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.pairs)

    def get(self, x: int) -> int:
        for node, v in self.pairs:
            if node == x:
                return v
        raise KeyError(x)

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, x: int) -> bool:
        return any(node == x for node, _ in self.pairs)

    def extends(self, other: "SpecFn") -> bool:
        """True when self is a superfunction of other."""
        mine = dict(self.pairs)
        return all(mine.get(x) == v for x, v in other.pairs)

    def __repr__(self) -> str:
        body = ",".join(f"{x}:{v}" for x, v in self.pairs)
        return "{" + body + "}"


EMPTY_FN = SpecFn.make({})


def is_spec(tree: AmbientTree, fn: SpecFn, bound: int | None = None) -> bool:
    """Comparable nodes get distinct values; all values below the bound."""
    pairs = fn.pairs
    for x, _ in pairs:
        if x not in tree:
            return False
    if bound is not None and any(v >= bound or v < 0 for _, v in pairs):
        return False
    for (x, vx), (y, vy) in itertools.combinations(pairs, 2):
        if vx == vy and tree.comparable(x, y):
            return False
    return True


def enumerate_spec(tree: AmbientTree, u: frozenset[int] | set[int], n: int) -> list[SpecFn]:
    """All total functions u -> [0, n) giving comparable nodes distinct values.

    Deterministic: nodes are processed in sorted order, values counted up, so
    the output is lexicographic in the value vectors.
    """
    nodes = sorted(u)
    for x in nodes:
        if x not in tree:
            raise DomainError(f"node {x} not in tree")
    if n < 0:
        raise DomainError("n must be >= 0")
    out: list[SpecFn] = []
    assignment: dict[int, int] = {}

    def backtrack(idx: int) -> None:
        if idx == len(nodes):
            out.append(SpecFn.make(dict(assignment), bound=n))
            return
        x = nodes[idx]
        forbidden = {assignment[y] for y in assignment if tree.comparable(x, y)}
        for v in range(n):
            if v in forbidden:
                continue
            assignment[x] = v
            backtrack(idx + 1)
            del assignment[x]

    backtrack(0)
    return out


@dataclass(frozen=True)
class Incompatible:
    """Marker for a failed union; `witness` names the offending node(s)."""

    reason: str
    witness: tuple[int, ...]


def union_spec(tree: AmbientTree, eta: SpecFn, nu: SpecFn) -> SpecFn | Incompatible:
    """eta ∪ nu when it is a specialization function, else a witness marker."""
    merged = dict(eta.pairs)
    for x, v in nu.pairs:
        if x in merged and merged[x] != v:
            return Incompatible(reason="not a function", witness=(x,))
        merged[x] = v
    items = sorted(merged.items())
    for (x, vx), (y, vy) in itertools.combinations(items, 2):
        # a node outside the tree is comparable to none (is_spec rejects it)
        if vx == vy and x in tree and y in tree and tree.comparable(x, y):
            return Incompatible(reason="comparable nodes share a value", witness=(x, y))
    return SpecFn.make(merged, bound=max(eta.bound, nu.bound))


def isomorphic_over(
    tree: AmbientTree,
    eta0: SpecFn,
    eta1: SpecFn,
    base: frozenset[int] | set[int],
) -> tuple[bool, dict[int, int] | None]:
    """Order-isomorphism of eta0 onto eta1 fixing `base` pointwise.

    Searches injections f with f identity on base, f[dom eta0] = dom eta1,
    eta0(x) = eta1(f(x)), and x < y iff f(x) < f(y) on dom(eta0) ∪ base.
    Returns (found, witness_map).
    """
    base = frozenset(base)
    d0 = eta0.as_dict()
    d1 = eta1.as_dict()
    # base points inside the domains must match identically
    for x in sorted(base):
        in0, in1 = x in d0, x in d1
        if in0 != in1:
            return False, None
        if in0 and d0[x] != d1[x]:
            return False, None
    free0 = sorted(set(d0) - base)
    free1 = sorted(set(d1) - base)
    if len(free0) != len(free1):
        return False, None

    fixed = sorted(base)

    def order_ok(f: dict[int, int]) -> bool:
        pts = list(f.items())
        for (x, fx), (y, fy) in itertools.combinations(pts, 2):
            if tree.less(x, y) != tree.less(fx, fy):
                return False
            if tree.less(y, x) != tree.less(fy, fx):
                return False
        return True

    for perm in itertools.permutations(free1):
        if any(d0[x] != d1[y] for x, y in zip(free0, perm)):
            continue
        f = {x: x for x in fixed}
        f.update(dict(zip(free0, perm)))
        if order_ok(f):
            return True, f
    return False, None


def delta_system(
    family: list[frozenset[int] | set[int]],
    tree: AmbientTree,
) -> tuple[frozenset[int], list[int]]:
    """Greedy extraction of a delta system with incomparable off-root parts.

    Returns (root, indices) with pairwise intersections equal to the root and
    off-root elements of distinct members pairwise incomparable.  Best-effort:
    the subfamily has size >= 1.
    """
    sets = [frozenset(s) for s in family]
    if not sets:
        return frozenset(), []

    def off_root_ok(a: frozenset[int], b: frozenset[int], root: frozenset[int]) -> bool:
        for x in a - root:
            for y in b - root:
                if tree.comparable(x, y):
                    return False
        return True

    candidates: list[frozenset[int]] = [frozenset()]
    for a, b in itertools.combinations(sets, 2):
        inter = a & b
        if inter not in candidates:
            candidates.append(inter)
    # larger candidate roots first (identical families should report their core),
    # deterministic tie-break by sorted contents
    candidates.sort(key=lambda s: (-len(s), sorted(s)))

    best_root: frozenset[int] = frozenset()
    best_members: list[int] = [0]
    for root in candidates:
        chosen: list[int] = []
        for idx, s in enumerate(sets):
            if not root <= s:
                continue
            if all(
                sets[j] & s == root and off_root_ok(sets[j], s, root) for j in chosen
            ):
                chosen.append(idx)
        if len(chosen) > len(best_members):
            best_root, best_members = root, chosen
    return best_root, best_members
