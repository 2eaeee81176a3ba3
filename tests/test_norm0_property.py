"""norm0 against the naive oracle on drawn forests, growth sequences and creatures.

Criterion 1 sweeps three fixed forests; here hypothesis draws the forest too:
at most 10 nodes of width 3, so that forests with more branches and with new
points deeper down reach both of norm0's reductions.  The run is
deterministic (`derandomize=True`) and writes no example database.  Drawn
instances the oracle cannot finish within its budget are counted and
reported, never dropped silently.  On the same forests, the oracle's streamed
forbidden sets are checked against its tables, and `is_spec` and `union_spec`
against their definitions.
"""

import itertools
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, Phase, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import creature_lab.oracle as oracle_mod  # noqa: E402
from creature_lab.creature import SimpleCreature, norm0, validate_creature  # noqa: E402
from creature_lab.errors import BudgetError  # noqa: E402
from creature_lab.oracle import oracle_norm0  # noqa: E402
from creature_lab.params import make_growth  # noqa: E402
from creature_lab.specfn import EMPTY_FN, Incompatible, SpecFn, is_spec, union_spec  # noqa: E402
from creature_lab.tree_model import build_tree  # noqa: E402

from test_acceptance import NORM0_MUTATIONS, _mutant_norm0  # noqa: E402

WIDTH, MAX_NODES = 3, 10
MAX_EXAMPLES = 400
# the oracle's work budget per drawn instance
BUDGET = 2 * 10**5
# drawn forests for is_spec and union_spec, and the maps drawn on each
SPEC_EXAMPLES, MAPS = 100, 6


@st.composite
def forests(draw):
    """A forest from `build_tree`: level-0 roots, then each node of the next
    level is absent or the child of a node one level up."""
    roots = draw(st.lists(st.integers(0, WIDTH - 1), min_size=1, max_size=WIDTH, unique=True))
    edges, above, level = [], sorted(roots), 0
    while above and len(roots) + len(edges) < MAX_NODES:
        level += 1
        below = []
        for slot in range(WIDTH * level, WIDTH * (level + 1)):
            if len(roots) + len(edges) < MAX_NODES and draw(st.booleans()):
                edges.append((draw(st.sampled_from(above)), slot))
                below.append(slot)
        above = below
    return build_tree(WIDTH, edges, nodes=roots)


@st.composite
def instances(draw):
    """(tree, growth sequences, valid kind-0 creature of 2 to 4 members)."""
    tree = draw(forests())
    n1 = draw(st.integers(3, 6))
    n2 = draw(st.integers(n1, 24))
    n3 = draw(st.integers(2, 6))
    g = make_growth(0, ((n1,), (n2,), (n3,)))
    members = []
    for _ in range(draw(st.integers(2, min(4, n1 - 1)))):
        points = {}
        for _ in range(draw(st.integers(1, min(3, n2 - 1)))):
            points[draw(st.sampled_from(tree.nodes))] = draw(st.integers(0, n3 - 1))
        members.append(SpecFn.make(points, bound=n3))
    c = SimpleCreature.make(0, EMPTY_FN, members)
    assume(validate_creature(c, g, tree).ok)
    return tree, g, c


def _compare(norm_fn, tally, phases=tuple(Phase)):
    """Run norm_fn against the oracle over the drawn instances; `tally`
    counts the instances compared and those over the oracle's budget."""

    @settings(
        derandomize=True,
        database=None,
        max_examples=MAX_EXAMPLES,
        deadline=None,
        phases=phases,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(instances())
    def check(instance):
        tree, g, c = instance
        try:
            expected = oracle_norm0(c, tree, g, budget=BUDGET, validate=False)
        except BudgetError:
            tally["over_budget"] += 1
            return
        tally["compared"] += 1
        assert norm_fn(c, tree, g, validate=False) == expected, f"{c} on {tree.branches()} with {g}"

    check()


def test_norm0_equals_the_oracle_on_drawn_forests():
    tally = {"compared": 0, "over_budget": 0}
    _compare(norm0, tally)
    report = f"{tally['compared']} instances equal the oracle, {tally['over_budget']} over its budget of {BUDGET}"
    print(f"norm0 property: {report}")
    assert tally["compared"] >= MAX_EXAMPLES * 9 // 10, report
    assert tally["over_budget"] <= MAX_EXAMPLES // 20, report


@pytest.mark.parametrize("original, mutated", NORM0_MUTATIONS, ids=["beta-filter", "branch-trace"])
def test_drawn_forests_catch_a_broken_reduction(original, mutated):
    tally = {"compared": 0, "over_budget": 0}
    with pytest.raises(AssertionError, match=r"^SimpleCreature\("):
        _compare(_mutant_norm0(original, mutated), tally, phases=(Phase.generate,))


def _oracle_or_over_budget(c, tree, g):
    try:
        return oracle_norm0(c, tree, g, budget=BUDGET, validate=False)
    except BudgetError:
        return "over budget"


@settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(instances())
def test_streamed_masks_match_the_tables_on_drawn_forests(instance):
    # drawn instances have n3 <= 6, so only the table path runs unless the
    # table limit is lowered: at 0 every forbidden set is streamed
    tree, g, c = instance
    tabled = _oracle_or_over_budget(c, tree, g)
    with mock.patch.object(oracle_mod, "A_MASK_TABLE_LIMIT", 0):
        assert _oracle_or_over_budget(c, tree, g) == tabled


def _comparable(tree, x, y):
    """x and y lie on one chain, found by walking parents up from each."""

    def chain(z):
        out = {z}
        while z in tree.parent:
            z = tree.parent[z]
            out.add(z)
        return out

    return x in chain(y) or y in chain(x)


@st.composite
def maps_on_forests(draw, outside):
    """(forest, maps of up to 5 nodes to small values, bound or None); with
    `outside`, nodes may lie outside the forest and values below 0.  Each
    forest carries several maps, so that drawing forests costs less."""
    tree = draw(forests())
    nodes = st.sampled_from(tree.nodes)
    if outside:
        nodes = nodes | st.integers(0, WIDTH * MAX_NODES)
    values = st.integers(-1 if outside else 0, 4)
    pairs = st.lists(st.tuples(nodes, values), max_size=5)
    maps = [dict(draw(pairs)) for _ in range(MAPS)]
    return tree, maps, draw(st.none() | st.integers(0, 5))


@settings(derandomize=True, database=None, max_examples=SPEC_EXAMPLES, deadline=None)
@given(maps_on_forests(outside=True))
def test_is_spec_is_its_definition(case):
    # every node in the forest, every value in [0, bound) when a bound is
    # given, and no two comparable nodes with one value
    tree, maps, bound = case
    for mapping in maps:
        expected = (
            all(x in tree.nodes for x in mapping)
            and (bound is None or all(0 <= v < bound for v in mapping.values()))
            and not any(
                vx == vy and _comparable(tree, x, y)
                for (x, vx), (y, vy) in itertools.combinations(mapping.items(), 2)
            )
        )
        assert is_spec(tree, SpecFn.make(mapping), bound=bound) == expected, mapping


@settings(derandomize=True, database=None, max_examples=SPEC_EXAMPLES, deadline=None)
@given(maps_on_forests(outside=False))
def test_union_spec_is_its_definition(case):
    # the merged map when it is a function and a specialization function;
    # otherwise an Incompatible naming a clashing node, or else a comparable
    # pair with one value
    tree, maps, bound = case
    for eta, nu in zip(maps, maps[1:]):
        result = union_spec(tree, SpecFn.make(eta, bound=bound or 0), SpecFn.make(nu))
        clashes = {(x,) for x in eta.keys() & nu.keys() if eta[x] != nu[x]}
        merged = {**eta, **nu}
        if not clashes and is_spec(tree, SpecFn.make(merged)):
            assert result == SpecFn.make(merged) and result.bound == (bound or 0), (eta, nu)
            continue
        assert isinstance(result, Incompatible), (eta, nu)
        if clashes:
            assert result.witness in clashes, (eta, nu)
        else:
            x, y = result.witness
            assert x != y and merged[x] == merged[y] and _comparable(tree, x, y), (eta, nu)
