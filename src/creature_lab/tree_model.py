"""Finite ambient forests with interval-encoded levels.

A node x sits at level x // width, so level alpha occupies the interval
[width*alpha, width*alpha + width).  Multiple level-0 roots are allowed; a
branch is a maximal chain from a root to a leaf.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .errors import ConstructionError

# entries one tree's memo holds before it is emptied and refilled
MEMO_LIMIT = 1024
_MISSING = object()


class AmbientTree:
    """Immutable rooted forest with precomputed ancestor and branch data.

    The tree also owns a bounded memo of values derived from it (game norms
    and creature validations); it dies with the tree.
    """

    __slots__ = ("width", "nodes", "parent", "_children", "_ancestors", "_branches", "_memo")

    def __init__(self, width: int, parent: dict[int, int], nodes: Iterable[int]):
        self.width = width
        self.nodes = tuple(sorted(set(nodes)))
        self.parent = dict(parent)
        children: dict[int, list[int]] = {x: [] for x in self.nodes}
        for child, par in sorted(self.parent.items()):
            children[par].append(child)
        self._children = {x: tuple(sorted(cs)) for x, cs in children.items()}
        anc: dict[int, frozenset[int]] = {}
        for x in self.nodes:
            chain = []
            y = x
            while y in self.parent:
                y = self.parent[y]
                chain.append(y)
            anc[x] = frozenset(chain)
        self._ancestors = anc
        self._branches: tuple[tuple[int, ...], ...] | None = None
        self._memo: dict = {}

    def level(self, x: int) -> int:
        return x // self.width

    @property
    def height(self) -> int:
        if not self.nodes:
            return 0
        return max(self.level(x) for x in self.nodes) + 1

    def children(self, x: int) -> tuple[int, ...]:
        return self._children[x]

    def roots(self) -> tuple[int, ...]:
        return tuple(x for x in self.nodes if x not in self.parent)

    def ancestors(self, x: int) -> frozenset[int]:
        return self._ancestors[x]

    def less(self, x: int, y: int) -> bool:
        """Strict tree order: x is a proper ancestor of y."""
        return x in self._ancestors[y]

    def comparable(self, x: int, y: int) -> bool:
        """x and y lie on a common chain (includes x == y)."""
        return x == y or x in self._ancestors[y] or y in self._ancestors[x]

    def branches(self) -> tuple[tuple[int, ...], ...]:
        """All maximal chains root-to-leaf, lexicographic by node sequence."""
        if self._branches is None:
            out = []
            for root in self.roots():
                stack = [(root, (root,))]
                while stack:
                    x, path = stack.pop()
                    kids = self._children[x]
                    if not kids:
                        out.append(path)
                    else:
                        for c in reversed(kids):
                            stack.append((c, path + (c,)))
            self._branches = tuple(sorted(out))
        return self._branches

    def memoized(self, key, compute, *args):
        """compute(*args), remembered under `key` (a hashable value, never an id).

        The memo holds at most MEMO_LIMIT entries and is emptied when full.
        Callers must treat a remembered value as read-only.
        """
        memo = self._memo
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = compute(*args)
            if len(memo) >= MEMO_LIMIT:
                memo.clear()
            memo[key] = value
        return value

    def __contains__(self, x: int) -> bool:
        return x in self._ancestors

    def __repr__(self) -> str:
        return f"AmbientTree(width={self.width}, nodes={len(self.nodes)})"


def build_tree(
    width: int,
    edges: Sequence[tuple[int, int]],
    nodes: Iterable[int] = (),
) -> AmbientTree:
    """Validate (parent, child) edges against the level encoding and build.

    `nodes` adds isolated nodes (roots without children or orphan checks run
    on them too).
    """
    if width <= 0:
        raise ConstructionError("width must be positive")
    parent: dict[int, int] = {}
    all_nodes = set(nodes)
    for par, child in edges:
        all_nodes.add(par)
        all_nodes.add(child)
        if child in parent and parent[child] != par:
            raise ConstructionError(f"node {child} has multiple parents")
        if child // width != par // width + 1:
            raise ConstructionError(
                f"edge ({par}, {child}) violates the level interval rule: "
                f"child level {child // width} is not parent level {par // width} + 1"
            )
        parent[child] = par
    for x in all_nodes:
        if x < 0:
            raise ConstructionError(f"negative node {x}")
        if x // width > 0 and x not in parent:
            raise ConstructionError(f"node {x} at level {x // width} has no parent")
    return AmbientTree(width, parent, all_nodes)


def branches_of(tree: AmbientTree) -> list[frozenset[int]]:
    """Branches as node sets, in the deterministic sequence order."""
    return [frozenset(b) for b in tree.branches()]


def initial_segment(tree: AmbientTree, alpha: int) -> frozenset[int]:
    """All nodes of level < alpha."""
    return frozenset(x for x in tree.nodes if tree.level(x) < alpha)


def random_tree(width: int, height: int, seed: int, root_count: int = 1) -> AmbientTree:
    """Deterministic random forest; every level interval is respected."""
    rng = random.Random(seed)
    if root_count > width:
        raise ConstructionError("more roots than the level-0 interval holds")
    roots = sorted(rng.sample(range(width), root_count))
    edges: list[tuple[int, int]] = []
    current = list(roots)
    for lvl in range(1, height):
        slots = list(range(width * lvl, width * lvl + width))
        rng.shuffle(slots)
        nxt = []
        for slot in slots:
            if not current or rng.random() < 0.3:
                continue
            par = rng.choice(current)
            edges.append((par, slot))
            nxt.append(slot)
        if not nxt:
            break
        current = nxt
    return build_tree(width, edges, nodes=roots)
