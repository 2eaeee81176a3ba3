"""Deliberately naive reference implementation of the game norm.

Quantifies over every forbidden-value set a inside [0, n3[i]), every ordered
branch tuple and every member, with no trace or value reduction.  Only the
representation is compact: value sets and forbidden sets are int bitmasks.
Exponential; guarded by a work budget (CREATURE_LAB_BUDGET, default 10^8
elementary steps).
"""

from __future__ import annotations

import functools
import itertools
import math
import os

from .creature import SimpleCreature, validate_creature
from .errors import BudgetError, UsageError, ValidationError
from .params import GrowthSequences
from .tree_model import AmbientTree

DEFAULT_BUDGET = 10**8
# the forbidden-set masks of one (n3, k) are kept as a table when there are at
# most this many (under 1 MB each, 16 tables at most); larger families are
# streamed anew for every branch tuple
A_MASK_TABLE_LIMIT = 1 << 14


def work_budget() -> int:
    """CREATURE_LAB_BUDGET, or the default when unset; malformed values raise."""
    raw = os.environ.get("CREATURE_LAB_BUDGET", "")
    if not raw:
        return DEFAULT_BUDGET
    malformed = f"CREATURE_LAB_BUDGET must be a non-negative integer, got {raw!r}"
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(malformed) from None
    if value < 0:
        raise UsageError(malformed)
    return value


def _instance_cost(branch_count: int, n3: int, k: int, val_size: int) -> int:
    a_count = sum(math.comb(n3, j) for j in range(k + 1))
    return max(branch_count, 1) ** k * a_count * val_size


def _value_bits(values) -> int:
    bits = 0
    for v in values:
        bits |= 1 << v
    return bits


def _a_masks(n3: int, k: int):
    """Every a inside [0, n3) with |a| <= k as a bitmask, by size then lexicographically."""
    bits = [1 << v for v in range(n3)]
    for size in range(k + 1):
        for a in itertools.combinations(bits, size):
            yield sum(a)


@functools.lru_cache(maxsize=16)
def _a_mask_table(n3: int, k: int) -> tuple[int, ...]:
    return tuple(_a_masks(n3, k))


def oracle_norm0(
    c: SimpleCreature,
    tree: AmbientTree,
    params: GrowthSequences,
    budget: int | None = None,
    validate: bool = True,
) -> int:
    """Reference norm0: full quantification, same n1[i] cap convention."""
    if validate:
        rep = validate_creature(c, params, tree)
        if not rep.ok:
            raise ValidationError(f"oracle_norm0 of invalid creature: {rep.failures()[0].clause}")
    if budget is None:
        budget = work_budget()
    i = c.i
    n1i, n2i, n3i = params.n1[i], params.n2[i], params.n3[i]
    cap = n1i
    base_dom = c.base.domset()
    branches = [frozenset(b) for b in tree.branches()]
    if not branches:
        return cap
    # per branch, per member: the value bits the member puts on the branch's
    # new points; a trace union's bits are the OR over its branches (two
    # points may share a value, so the bits are ORed, never added)
    branch_bits = [
        [
            _value_bits(v for x, v in eta.pairs if x in b and x not in base_dom)
            for eta in c.valrange
        ]
        for b in branches
    ]

    def feasible(k: int) -> bool:
        a_count = sum(math.comb(n3i, j) for j in range(k + 1))
        cost = _instance_cost(len(branches), n3i, k, len(c.valrange))
        if cost > budget:
            raise BudgetError(
                f"oracle instance too large at k={k}: {cost} > budget {budget}"
            )
        live = [j for j, eta in enumerate(c.valrange) if (len(eta) << k) <= n2i]
        a_masks = _a_mask_table(n3i, k) if a_count <= A_MASK_TABLE_LIMIT else None
        for combo in itertools.product(branch_bits, repeat=k):
            member_bits = [0] * len(live)
            for bits in combo:
                for slot, j in enumerate(live):
                    member_bits[slot] |= bits[j]
            for a in a_masks if a_masks is not None else _a_masks(n3i, k):
                for m in member_bits:
                    if not m & a:
                        break
                else:
                    return False
        return True

    best = 0
    for k in range(1, cap + 1):
        if not feasible(k):
            return best
        best = k
    return best
