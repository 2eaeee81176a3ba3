"""Partial specialization functions and their combinatorics.

A specialization function assigns naturals to tree nodes so that comparable
nodes never share a value.  This module enumerates them, unions them with
incompatibility witnesses, and extracts finite delta systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import DomainError
from .tree_model import AmbientTree


@dataclass(frozen=True, slots=True)
class SpecFn:
    """A finite partial map node -> value; `bound` is metadata (values < bound).

    The hash, the pair set and the domain set are computed once, at
    construction: dict and set lookups, `extends` and `domset` rebuild
    nothing.  Equality compares `pairs` only.
    """

    pairs: tuple[tuple[int, int], ...]
    bound: int = field(default=0, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _pairset: frozenset[tuple[int, int]] = field(init=False, repr=False, compare=False)
    _domset: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.pairs))
        object.__setattr__(self, "_pairset", frozenset(self.pairs))
        object.__setattr__(self, "_domset", frozenset(x for x, _ in self.pairs))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def make(mapping: dict[int, int] | None = None, bound: int = 0) -> "SpecFn":
        items = tuple(sorted((mapping or {}).items()))
        return SpecFn(pairs=items, bound=bound)

    def dom(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.pairs)

    def domset(self) -> frozenset[int]:
        return self._domset

    def pairset(self) -> frozenset[tuple[int, int]]:
        return self._pairset

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, x: int) -> bool:
        return x in self._domset

    def extends(self, other: "SpecFn") -> bool:
        """True when self is a superfunction of other."""
        return self._pairset >= other._pairset

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
