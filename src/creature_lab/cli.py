"""Command-line interface: fixture plumbing and suite running.

Output on stdout is machine-readable canonical JSON and byte-identical for
identical (argv, fixture) inputs regardless of --jobs; diagnostics go to
stderr.  Exit codes: 0 ok, 1 domain/check failure, 2 budget exceeded,
64 usage.
"""

from __future__ import annotations

import argparse
import sys

from . import fixtures as fx
from . import verify
from .creature import Creature, norms, validate_creature
from .errors import (
    BudgetError,
    ConstructionError,
    DomainError,
    PreconditionError,
    UsageError,
    ValidationError,
)
from .forcing import NotRelated, leq, validate_condition
from .generators import PROFILES, profile as named_profile
from .homogenize import LeafLabeling, decide, purify
from .ops import bigness_split, fill, glue, halve, rebase, shrink_to_norm
from .oracle import work_budget
from .params import default_shape, make_growth
from .specfn import enumerate_spec
from .tree_model import random_tree

USAGE_EXIT = 64
FAIL_EXIT = 1
BUDGET_EXIT = 2


def _emit(doc) -> None:
    sys.stdout.write(fx.canonical_dumps(doc))


def _load_params(doc: dict):
    if doc.get("params"):
        return fx.params_from_fixture(doc["params"])
    return make_growth(2)


def _entry(doc: dict, key: str, index: int) -> dict:
    """doc[key][index]; an index past the end is a domain error naming it."""
    items = doc[key]
    if not 0 <= index < len(items):
        raise DomainError(f"index {index} is out of range: {key!r} has {len(items)} entries")
    return items[index]


def _condition(doc: dict, tree, params, flag: str = ""):
    """The document's first fragment, which must be a condition.

    `flag` names the option the document came from when a command reads two.
    """
    p = fx.condition_from_fixture(_entry(doc, "conditions", 0))
    where = f"{flag}: " if flag else ""
    validate_condition(p, tree, params).require(f"{where}conditions[0] is not a condition")
    return p


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _growth_from_flag(flag: str):
    if flag == "default":
        return make_growth(2)
    if flag.startswith("file:"):
        doc = fx.load_document(flag[5:])
        return fx.params_from_fixture(doc["params"])
    if flag in PROFILES:
        return named_profile(flag)
    raise DomainError(f"unknown growth profile {flag!r}")


def cmd_gen_tree(args) -> int:
    tree = random_tree(args.width, args.height, args.seed, root_count=args.roots)
    doc = fx.empty_document()
    doc["tree"] = fx.tree_to_fixture(tree)
    _emit(doc)
    return 0


def cmd_gen_params(args) -> int:
    g = _growth_from_flag(args.growth)
    doc = fx.empty_document()
    doc["params"] = fx.params_to_fixture(g)
    _emit(doc)
    return 0


def cmd_enum_spec(args) -> int:
    doc = fx.load_document(args.infile)
    tree = fx.tree_from_fixture(doc["tree"])
    u = frozenset(args.nodes)
    fns = enumerate_spec(tree, u, args.bound)
    out = fx.empty_document()
    out["tree"] = doc["tree"]
    out["specfns"] = [fx.specfn_to_fixture(fn) for fn in fns]
    _emit(out)
    return 0


def cmd_norm(args) -> int:
    doc = fx.load_document(args.infile)
    tree = fx.tree_from_fixture(doc["tree"])
    params = _load_params(doc)
    report = []
    for cdoc in doc["creatures"]:
        cplus = fx.creature_from_fixture(cdoc)
        rep = validate_creature(cplus.simple, params, tree)
        if not rep.ok:
            report.append({"valid": False, "clause": rep.failures()[0].clause})
            continue
        rec = norms(cplus, tree, params)
        report.append(
            {
                "valid": True,
                "norm0": rec.norm0,
                "normstar": rec.normstar,
                "normhalf": rec.normhalf,
                "norm1": rec.norm1,
                "norm2": rec.norm2,
                "norm": rec.norm,
            }
        )
    _emit({"norms": report})
    return 0


def cmd_apply_op(args) -> int:
    doc = fx.load_document(args.infile)
    tree = fx.tree_from_fixture(doc["tree"])
    params = _load_params(doc)
    cplus = fx.creature_from_fixture(_entry(doc, "creatures", args.index))
    c = cplus.simple
    out = fx.empty_document()
    out["tree"] = doc["tree"]
    out["params"] = doc["params"]
    meta: dict = {"op": args.op}
    if args.op == "glue":
        exts = {}
        for j, eta in enumerate(c.valrange):
            for k in range(args.kstar):
                exts[(eta, k)] = eta
        res = glue(c, exts, args.kstar, tree, params)
        result = Creature(res.creature, cplus.k)
        meta["bound"] = res.bound
    elif args.op == "fill":
        res = fill(c, args.nodes, tree, params)
        result = Creature(res.creature, cplus.k)
        meta["bound"] = res.bound
    elif args.op == "rebase":
        etastar = fx.specfn_from_fixture(doc["specfns"][0]) if doc["specfns"] else c.base
        res = rebase(c, etastar, tree, params)
        result = Creature(res.creature, cplus.k)
        meta["bound"] = res.bound
    elif args.op == "shrink":
        res = shrink_to_norm(c, args.k, tree, params)
        result = Creature(res.creature, cplus.k)
        meta["bound"] = res.bound
    elif args.op == "split":
        half = len(c.valrange) // 2 or 1
        res = bigness_split(cplus, (list(c.valrange[:half]), list(c.valrange[half:])), tree, params)
        result = res.creature if isinstance(res.creature, Creature) else Creature(res.creature, cplus.k)
        meta["side"] = res.side
    elif args.op == "halve":
        res = halve(cplus, tree, params)
        result = res.creature
        meta["repaired"] = res.repaired
        meta["kprime"] = res.kprime
    else:
        raise DomainError(f"unknown op {args.op!r}")
    out["creatures"] = [fx.creature_to_fixture(result)]
    if args.out:
        fx.save_document(args.out, out)
    _emit({"result": meta, "creature": fx.creature_to_fixture(result)})
    return 0


def cmd_check_condition(args) -> int:
    doc = fx.load_document(args.infile)
    tree = fx.tree_from_fixture(doc["tree"])
    params = _load_params(doc)
    results = []
    ok_all = True
    for cdoc in doc["conditions"]:
        p = fx.condition_from_fixture(cdoc)
        rep = validate_condition(p, tree, params)
        ok_all = ok_all and rep.ok
        results.append(
            {
                "ok": rep.ok,
                "checks": [
                    {"clause": ch.clause, "ok": ch.ok, "witness": ch.witness}
                    for ch in rep.checks
                ],
            }
        )
    _emit({"conditions": results})
    return 0 if ok_all else FAIL_EXIT


def cmd_check_leq(args) -> int:
    pdoc = fx.load_document(args.p)
    qdoc = fx.load_document(args.q)
    tree = fx.tree_from_fixture(pdoc["tree"])
    params = _load_params(pdoc)
    p = _condition(pdoc, tree, params, "--p")
    q = _condition(qdoc, tree, params, "--q")
    res = leq(p, q, tree, params)
    if isinstance(res, NotRelated):
        _emit({"leq": "no", "clause": res.clause, "detail": res.detail})
        return FAIL_EXIT
    identity = all(a == b for a, b in res.mapping.items())
    _emit({"leq": "yes", "shift": res.shift, "identity": identity})
    return 0


def cmd_purify(args) -> int:
    doc = fx.load_document(args.p)
    tree = fx.tree_from_fixture(doc["tree"])
    params = _load_params(doc)
    p = _condition(doc, tree, params)
    order = list(p.fns)
    bad = [j for j in args.x if not 0 <= j < len(order)]
    if bad:
        raise DomainError(f"--x index {bad[0]} is out of range: the fragment has {len(order)} nodes")
    xset = frozenset(order[j] for j in args.x)
    res = purify(p, xset, args.kstar, tree, params)
    out = fx.empty_document()
    out["tree"] = doc["tree"]
    out["params"] = doc["params"]
    out["conditions"] = [fx.condition_to_fixture(res.fragment)]
    if args.out:
        fx.save_document(args.out, out)
    _emit(
        {
            "front": len(res.front),
            "alternatives": sorted(res.alternatives.values()),
            "condition": fx.condition_to_fixture(res.fragment),
        }
    )
    return 0


def cmd_decide(args) -> int:
    doc = fx.load_document(args.p)
    tree = fx.tree_from_fixture(doc["tree"])
    params = _load_params(doc)
    p = _condition(doc, tree, params)
    ldoc = fx.load_document(args.label) if args.label else doc
    if not ldoc["labelings"]:
        raise DomainError("no labeling in the fixture")
    values = fx.labeling_from_fixture(ldoc["labelings"][0], p)
    res = decide(
        p, LeafLabeling(values), args.m, tree, params, default_shape(), max_level=args.max_level
    )
    if not res.found:
        _emit({"decide": "not-found", "exhaustive": res.exhaustive, "searched": res.searched})
        return FAIL_EXIT
    order = list(res.fragment.fns)
    table = sorted([order.index(fn), v] for fn, v in res.table.items())
    _emit(
        {
            "decide": "found",
            "level": res.level,
            "table": table,
            "condition": fx.condition_to_fixture(res.fragment),
        }
    )
    return 0


def cmd_propcheck(args) -> int:
    report = verify.run_suite(args.suite, args.count, args.seed, jobs=args.jobs)
    _emit(report)
    if report["status"] == "budget":
        return BUDGET_EXIT
    return 0 if report["status"] == "pass" else FAIL_EXIT


def cmd_report(args) -> int:
    doc = fx.load_document(args.infile)
    lines = []
    if "suite" in doc:
        lines.append(
            f"suite {doc['suite']}: {doc['status']} "
            f"({doc['premise_hits']}/{doc['instances']} premise hits, "
            f"{doc['failures']} failures)"
        )
        for key, val in sorted(doc.get("stats", {}).items()):
            lines.append(f"  {key}: {val}")
    else:
        for key in ("params", "tree"):
            if doc.get(key):
                lines.append(f"{key}: present")
        for key in ("specfns", "creatures", "conditions", "labelings"):
            if doc.get(key):
                lines.append(f"{key}: {len(doc[key])}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="creature-lab", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen-tree", help="emit a random ambient forest fixture")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--roots", type=int, default=1)
    p.set_defaults(fn=cmd_gen_tree)

    p = sub.add_parser("gen-params", help="emit a growth-sequence fixture")
    p.add_argument("--growth", default="default", help="default | profile name | file:PATH")
    p.set_defaults(fn=cmd_gen_params)

    p = sub.add_parser("enum-spec", help="enumerate specialization functions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--nodes", type=int, nargs="+", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(fn=cmd_enum_spec)

    p = sub.add_parser("norm", help="print the six norms of each creature")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("apply-op", help="apply a creature operation")
    p.add_argument("--op", required=True, choices=["glue", "fill", "rebase", "shrink", "split", "halve"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--kstar", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--nodes", type=int, nargs="*", default=[])
    p.set_defaults(fn=cmd_apply_op)

    p = sub.add_parser("check-condition", help="validate condition fragments")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_check_condition)

    p = sub.add_parser("check-leq", help="compute the projection between two fragments")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(fn=cmd_check_leq)

    p = sub.add_parser("purify", help="restrict a fragment against an upward-closed set")
    p.add_argument("--p", required=True)
    p.add_argument("--x", type=int, nargs="*", default=[], help="node indices into the fragment")
    p.add_argument("--kstar", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_purify)

    p = sub.add_parser("decide", help="find a level of label-constant cones")
    p.add_argument("--p", required=True)
    p.add_argument("--label", default=None)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--max-level", type=int, default=None)
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("propcheck", help="run a property suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_propcheck)

    p = sub.add_parser("report", help="summarize a fixture or suite report")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE_EXIT if e.code not in (0, None) else 0
    try:
        work_budget()
        return args.fn(args)
    except UsageError as e:
        print(f"usage: {e}", file=sys.stderr)
        return USAGE_EXIT
    except BudgetError as e:
        print(f"budget: {e}", file=sys.stderr)
        return BUDGET_EXIT
    except (ValidationError, PreconditionError, DomainError, ConstructionError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())
