"""Regenerate the shipped fixture corpus (deterministic)."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from creature_lab import fixtures as fx
from creature_lab.creature import Creature, SimpleCreature
from creature_lab.generators import (
    chain_antichain_tree,
    depth2_fragment,
    diagonal_creature,
    profile,
    smooth_target_fragment,
    two_level_tree,
)
from creature_lab.params import make_growth
from creature_lab.specfn import SpecFn

OUT = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def creatures_fixture() -> dict:
    tree = chain_antichain_tree()
    params = make_growth(0, ((9,), (16,), (12,)))
    doc = fx.empty_document(tree=fx.tree_to_fixture(tree), params=fx.params_to_fixture(params))
    creatures = []
    # the two-branch value creature of the game-norm walkthrough
    base = SpecFn.make({})
    walkthrough = [SpecFn.make({3: 0}), SpecFn.make({3: 1}), SpecFn.make({4: 0}), SpecFn.make({4: 1})]
    creatures.append(Creature(SimpleCreature.make(0, base, walkthrough), 1))
    # the diagonal family over the sibling antichain
    for members in (2, 3, 4, 5):
        creatures.append(
            Creature(diagonal_creature(0, base, [3, 4], members, 1, params, tree), 1)
        )
    doc["creatures"] = [fx.creature_to_fixture(c) for c in creatures]
    return doc


def condition_fixture() -> dict:
    tree = two_level_tree()
    params = profile("cond2")
    p = depth2_fragment(tree, params, branching=(3, 3))
    smooth = smooth_target_fragment(tree, params, alpha=2)
    doc = fx.empty_document(tree=fx.tree_to_fixture(tree), params=fx.params_to_fixture(params))
    doc["conditions"] = [fx.condition_to_fixture(p), fx.condition_to_fixture(smooth)]
    values = {leaf: j % 2 for j, leaf in enumerate(p.leaves())}
    doc["labelings"] = [fx.labeling_to_fixture(p, values)]
    return doc


def main() -> None:
    OUT.mkdir(exist_ok=True)
    fx.save_document(str(OUT / "creatures.json"), creatures_fixture())
    fx.save_document(str(OUT / "conditions.json"), condition_fixture())
    print("wrote", OUT / "creatures.json")
    print("wrote", OUT / "conditions.json")


if __name__ == "__main__":
    main()
