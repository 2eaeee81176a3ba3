"""Canonical JSON fixtures.

Top-level keys: params, tree, specfns, creatures, conditions, labelings.
Canonical form sorts object keys and all node/assignment lists, so
parse-then-emit is the identity on canonical documents and every
implementation produces identical bytes.

Schema:
  params     {"imax": N, "n1": [...], "n2": [...], "n3": [...]}
  tree       {"width": W, "edges": [[parent, child], ...], "nodes": [...]}
  specfns    [{"assignments": [[node, value], ...], "bound": N}, ...]
  creatures  [{"i": N, "base": ASSIGN, "valrange": [ASSIGN, ...], "k": N}, ...]
  conditions [{"depth": D, "nodes": [{"fn": ASSIGN, "level": L,
               "parent": idx|null, "klabel": N}, ...],
               "coverage": {"k": N, "alpha": N, "u": [...]} | null}, ...]
  labelings  [{"condition": idx, "values": [[leaf-node-idx, value], ...]}, ...]

Malformed input raises ConstructionError naming the bad field.
"""

from __future__ import annotations

import json
from typing import Any

from .creature import Creature, SimpleCreature
from .errors import ConstructionError
from .forcing import ConditionFragment, Coverage
from .params import GrowthSequences, make_growth
from .specfn import SpecFn
from .tree_model import AmbientTree, build_tree


def canonical_dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


_REQUIRED = object()


def _field(doc: Any, key: str, where: str, convert=None, default: Any = _REQUIRED) -> Any:
    """doc[key] of a JSON object, checked by `convert`; errors name the field."""
    if type(doc) is not dict:
        raise ConstructionError(f"{where} must be a JSON object")
    if key not in doc:
        if default is _REQUIRED:
            raise ConstructionError(f"{where}: missing field {key!r}")
        return default
    return doc[key] if convert is None else convert(doc[key], (where, key))


def _malformed(label: tuple[str, str], what: str) -> ConstructionError:
    where, key = label
    return ConstructionError(f"{where}: field {key!r} must be {what}")


def _int(value: Any, label: tuple[str, str]) -> int:
    if type(value) is not int:
        raise _malformed(label, f"an integer, got {value!r}")
    return value


def _list(value: Any, label: tuple[str, str]) -> list:
    if type(value) is not list:
        raise _malformed(label, "a list")
    return value


def _int_list(value: Any, label: tuple[str, str]) -> list[int]:
    if not all(type(v) is int for v in _list(value, label)):
        raise _malformed(label, "a list of integers")
    return value


def _pairs(value: Any, label: tuple[str, str]) -> list[list[int]]:
    """A list of integer pairs: assignments [node, value] or edges [parent, child]."""
    if not all(
        type(pair) is list and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int
        for pair in _list(value, label)
    ):
        raise _malformed(label, "a list of integer pairs")
    return value


def _pair_lists(value: Any, label: tuple[str, str]) -> list[list[list[int]]]:
    return [_pairs(v, label) for v in _list(value, label)]


def specfn_to_fixture(fn: SpecFn) -> dict:
    return {"assignments": [list(p) for p in fn.pairs], "bound": fn.bound}


def specfn_from_fixture(doc: dict) -> SpecFn:
    pairs = _field(doc, "assignments", "specfn", _pairs)
    return SpecFn.make(dict(pairs), bound=_field(doc, "bound", "specfn", _int, default=0))


def params_to_fixture(g: GrowthSequences) -> dict:
    return {"imax": g.imax, "n1": list(g.n1), "n2": list(g.n2), "n3": list(g.n3)}


def params_from_fixture(doc: dict) -> GrowthSequences:
    seqs = tuple(_field(doc, key, "params", _int_list) for key in ("n1", "n2", "n3"))
    return make_growth(_field(doc, "imax", "params", _int), seqs)


def tree_to_fixture(t: AmbientTree) -> dict:
    edges = sorted([par, child] for child, par in t.parent.items())
    return {"width": t.width, "edges": edges, "nodes": list(t.nodes)}


def tree_from_fixture(doc: dict) -> AmbientTree:
    return build_tree(
        _field(doc, "width", "tree", _int),
        _field(doc, "edges", "tree", _pairs),
        nodes=_field(doc, "nodes", "tree", _int_list, default=[]),
    )


def creature_to_fixture(c: Creature | SimpleCreature) -> dict:
    k = c.k if isinstance(c, Creature) else 1
    simple = c.simple if isinstance(c, Creature) else c
    return {
        "i": simple.i,
        "base": specfn_to_fixture(simple.base)["assignments"],
        "valrange": sorted(
            specfn_to_fixture(fn)["assignments"] for fn in simple.valrange
        ),
        "k": k,
    }


def creature_from_fixture(doc: dict) -> Creature:
    base = SpecFn.make(dict(_field(doc, "base", "creature", _pairs)))
    vr = [SpecFn.make(dict(mem)) for mem in _field(doc, "valrange", "creature", _pair_lists)]
    return Creature(
        SimpleCreature.make(_field(doc, "i", "creature", _int), base, vr),
        k=_field(doc, "k", "creature", _int, default=1),
    )


def condition_to_fixture(p: ConditionFragment) -> dict:
    order = list(p.fns)  # level-major, canonical within levels
    index = {fn: j for j, fn in enumerate(order)}
    nodes = []
    for fn in order:
        par = p.parent[fn]
        nodes.append(
            {
                "fn": [list(pair) for pair in fn.pairs],
                "level": p.level_of(fn),
                "parent": index[par] if par is not None else None,
                "klabel": p.klabel[fn],
            }
        )
    cov = None
    if p.coverage is not None:
        cov = {"k": p.coverage.k, "alpha": p.coverage.alpha, "u": sorted(p.coverage.u)}
    return {"depth": p.depth, "nodes": nodes, "coverage": cov}


def condition_from_fixture(doc: dict) -> ConditionFragment:
    nodes = _field(doc, "nodes", "condition", _list)
    fns = [SpecFn.make(dict(_field(node, "fn", "condition node", _pairs))) for node in nodes]
    parent: dict[SpecFn, SpecFn | None] = {}
    klabel: dict[SpecFn, int] = {}
    for fn, node in zip(fns, nodes):
        par = _field(node, "parent", "condition node")
        if par is not None and (type(par) is not int or not 0 <= par < len(fns)):
            raise _malformed(("condition node", "parent"), f"null or a node index below {len(fns)}")
        parent[fn] = fns[par] if par is not None else None
        klabel[fn] = _field(node, "klabel", "condition node", _int)
    cov = None
    if doc.get("coverage"):
        c = doc["coverage"]
        cov = Coverage(
            k=_field(c, "k", "coverage", _int),
            alpha=_field(c, "alpha", "coverage", _int),
            u=frozenset(_field(c, "u", "coverage", _int_list)),
        )
    return ConditionFragment(parent=parent, klabel=klabel, coverage=cov)


def labeling_to_fixture(p: ConditionFragment, values: dict[SpecFn, int]) -> dict:
    """A labelling of the document's first condition, `p`."""
    index = {fn: j for j, fn in enumerate(p.fns)}
    return {
        "condition": 0,
        "values": sorted([index[leaf], v] for leaf, v in values.items()),
    }


def labeling_from_fixture(doc: dict, p: ConditionFragment) -> dict[SpecFn, int]:
    order = list(p.fns)
    values = _field(doc, "values", "labeling", _pairs)
    if not all(0 <= j < len(order) for j, _ in values):
        raise _malformed(("labeling", "values"), f"pairs [node index below {len(order)}, value]")
    return {order[j]: v for j, v in values}


def empty_document() -> dict:
    return {
        "params": None,
        "tree": None,
        "specfns": [],
        "creatures": [],
        "conditions": [],
        "labelings": [],
    }


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConstructionError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConstructionError("fixture document must be a JSON object")
    base = empty_document()
    base.update(doc)
    for key in ("specfns", "creatures", "conditions", "labelings"):
        _list(base[key], ("document", key))
    return base


def save_document(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(doc))
