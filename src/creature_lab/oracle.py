"""Deliberately naive reference implementation of the game norm.

Quantifies over every forbidden-value set a inside [0, n3[i]), every ordered
branch tuple and every member, with no trace or value reduction.  Only the
representation is compact.  The branches are read from `tree.branches()`
here, apart from the node masks that `norm0` uses.  Each branch becomes one
int: member j's field, n3[i] bits from bit j * n3[i], holds the value bits
the member puts on the branch's new points (values >= n3[i] meet no
forbidden set and are dropped).  An ordered branch tuple's fields are the OR
of its branches' ints, the first k - 1 of them kept as a prefix while the
last runs.  Forbidden sets are value masks too.  Over every ordered branch
tuple, the forbidden-set quantifier is checked as "OR of the live members'
avoider sets equals the whole family": bit j of a member's avoider set says
that the j-th forbidden set misses its values, so an instance is lost
exactly when some forbidden set is hit by every live member.  Each (n3, k)
has one plain dict from a member's field value to its avoider set, filled on
first use; these tables hold at most AVOIDER_LIMIT entries in all and are
emptied when full.  Families too large for a table are still checked one set
at a time.  Exponential; guarded by a work budget (CREATURE_LAB_BUDGET,
default 10^8 elementary steps).
"""

from __future__ import annotations

import functools
import itertools
import math
import os

from .creature import SimpleCreature, validate_creature
from .errors import BudgetError, UsageError
from .params import GrowthSequences
from .tree_model import AmbientTree

DEFAULT_BUDGET = 10**8
# the forbidden-set masks of one (n3, k) are kept, with its avoider table, when
# there are at most this many (under 1 MB each, 16 tables at most); larger
# families are streamed anew for every branch tuple
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


@functools.lru_cache(maxsize=256)
def _a_count(n3: int, k: int) -> int:
    """How many a inside [0, n3) have |a| <= k."""
    return sum(math.comb(n3, j) for j in range(k + 1))


def _a_masks(n3: int, k: int):
    """Every a inside [0, n3) with |a| <= k as a bitmask, by size then lexicographically."""
    bits = [1 << v for v in range(n3)]
    for size in range(k + 1):
        for a in itertools.combinations(bits, size):
            yield sum(a)


# per (n3, k): a plain dict from a member's field value m to its avoider set,
# filled on first use and keyed by ints only.  The tables (16 at most) hold at
# most AVOIDER_LIMIT entries in all, each of at most A_MASK_TABLE_LIMIT bits
# (2 KiB), so about 1 MiB; when they are full, every table is emptied.
AVOIDER_LIMIT = 512
_avoider_tables: dict[tuple[int, int], _Avoiders] = {}


class _Avoiders(dict):
    """m -> bit j set when the j-th forbidden set of _a_masks(n3, k) misses m."""

    def __init__(self, n3: int, k: int) -> None:
        self.family = tuple(_a_masks(n3, k))

    def __missing__(self, m: int) -> int:
        bits = 0
        for j, a in enumerate(self.family):
            if not a & m:
                bits |= 1 << j
        if sum(map(len, _avoider_tables.values())) >= AVOIDER_LIMIT:
            for table in _avoider_tables.values():
                table.clear()
        self[m] = bits
        return bits


def _avoider_table(n3: int, k: int) -> _Avoiders:
    table = _avoider_tables.get((n3, k))
    if table is None:
        if len(_avoider_tables) >= 16:
            _avoider_tables.clear()
        table = _avoider_tables[n3, k] = _Avoiders(n3, k)
    return table


def oracle_norm0(
    c: SimpleCreature,
    tree: AmbientTree,
    params: GrowthSequences,
    budget: int | None = None,
    validate: bool = True,
) -> int:
    """Reference norm0: full quantification, same n1[i] cap convention."""
    if validate:
        validate_creature(c, params, tree).require("oracle_norm0 of invalid creature")
    if budget is None:
        budget = work_budget()
    i = c.i
    n1i, n2i, n3i = params.n1[i], params.n2[i], params.n3[i]
    cap = n1i
    base_dom = c.base.domset()
    branches = tree.branches()
    if not branches:
        return cap
    # per branch: one int of packed member fields (see the module docstring)
    sizes = [len(eta.pairs) for eta in c.valrange]
    # node -> OR of the value bits, each in its member's field, of its new points
    node_bits: dict[int, int] = {}
    for j, eta in enumerate(c.valrange):
        for x, v in eta.pairs:
            if x not in base_dom and v < n3i:
                node_bits[x] = node_bits.get(x, 0) | (1 << v) << (j * n3i)
    packed_branches = []
    for b in branches:
        packed = 0
        for x in b:
            packed |= node_bits.get(x, 0)
        packed_branches.append(packed)

    def feasible(k: int) -> bool:
        a_count = _a_count(n3i, k)
        field = (1 << n3i) - 1
        cost = len(branches) ** k * a_count * len(sizes)
        if cost > budget:
            raise BudgetError(
                f"oracle instance too large at k={k}: {cost} > budget {budget}"
            )
        shifts = [j * n3i for j, sz in enumerate(sizes) if (sz << k) <= n2i]
        avoiders = _avoider_table(n3i, k) if a_count <= A_MASK_TABLE_LIMIT else None
        full = (1 << a_count) - 1
        # every ordered k-tuple: the OR of its first k - 1 branches, kept while
        # the last branch runs over all branches
        for head in itertools.product(packed_branches, repeat=k - 1):
            prefix = 0
            for packed in head:
                prefix |= packed
            for last in packed_branches:
                fields = prefix | last
                if avoiders is not None:
                    # some forbidden set is hit by every live member exactly
                    # when the live members' avoider sets do not cover the family
                    won = 0
                    for shift in shifts:
                        won |= avoiders[fields >> shift & field]
                    if won != full:
                        return False
                    continue
                member_bits = [fields >> shift & field for shift in shifts]
                for a in _a_masks(n3i, k):
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
