"""Depth-3 fragment coverage: windows, projections, decision."""

import random

import pytest

from creature_lab.creature import norm0
from creature_lab.forcing import (
    Projection,
    creature_at,
    kind_of,
    leq,
    leq_n,
    restrict,
    validate_condition,
)
from creature_lab.generators import depth3_fragment, profile, random_labeling, wide_tree
from creature_lab.homogenize import LeafLabeling, _cone_labels, decide
from creature_lab.params import default_shape


@pytest.fixture
def ctx():
    return wide_tree(6, 3), profile("cond3"), default_shape()


@pytest.fixture
def frag(ctx):
    tree, params, _ = ctx
    return depth3_fragment(tree, params)


def test_depth3_valid(ctx, frag):
    tree, params, _ = ctx
    assert frag.depth == 3
    assert validate_condition(frag, tree, params).ok
    # domain sizes climb through the kind windows
    sizes = [len(frag.level_nodes(lv)[0]) for lv in range(4)]
    assert sizes == [0, 1, 4, 10]


def test_depth3_restrict_all_internal_levels(ctx, frag):
    tree, params, _ = ctx
    for lv in (1, 2):
        eta = frag.level_nodes(lv)[0]
        cone = restrict(frag, eta)
        assert kind_of(cone, params) == lv
        pr = leq(frag, cone, tree, params)
        assert isinstance(pr, Projection) and pr.shift == lv


def test_depth3_norm_profile(ctx, frag):
    tree, params, _ = ctx
    floors = {0: 1, 1: 1, 2: 2}
    for lv, floor in floors.items():
        for eta in frag.level_nodes(lv):
            c = creature_at(frag, eta, params)
            assert norm0(c, tree, params, validate=False) >= floor


def test_depth3_decide_verified(ctx, frag):
    tree, params, shape = ctx
    rng = random.Random(12)
    outcomes = {"found": 0, "not-found": 0}
    for _ in range(8):
        lab = LeafLabeling(random_labeling(rng, frag, values=2))
        res = decide(frag, lab, 0, tree, params, shape, max_level=2)
        if res.found:
            outcomes["found"] += 1
            assert leq_n(frag, res.fragment, 0, tree, params)
            assert all(
                len(_cone_labels(res.fragment, fn, lab)) == 1
                for fn in res.fragment.level_nodes(res.level)
            )
        else:
            outcomes["not-found"] += 1
            assert res.exhaustive
    assert outcomes["found"] > 0
