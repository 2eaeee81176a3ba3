"""The three benchmark workloads: norm-sweep, decide and cli.

A workload is built from a loaded program (see `load_program`) and a seed.
`round(r)` returns the r-th round of operations; rounds are deterministic in
(seed, r), and every round of a workload has the same make-up, so a run that
attempts whole rounds fails the same share of operations whatever its length.

Each `Op` holds the call that is timed and a check that judges its output
against a computation made apart from the program's answer: the naive oracle,
a closed form, or a property read off the output itself.  A check returns None
when the output is right and a short reason otherwise.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import os
import random
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
OUT = Path(__file__).resolve().parent / ".out"
DOCS = OUT / f"docs-{os.getpid()}"
FIXDIR = REPO / "fixtures"

MODULES = (
    "params", "tree_model", "specfn", "creature", "oracle", "ops",
    "forcing", "homogenize", "generators", "fixtures",
)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    # a known fault of the program: the operation fails until it is mended
    known_fault: bool = False


def load_program(with_cli: bool = False) -> SimpleNamespace:
    """Import the program afresh: every creature_lab module is dropped first."""
    for name in [n for n in sys.modules if n == "creature_lab" or n.startswith("creature_lab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    prog = SimpleNamespace()
    for name in MODULES + (("cli",) if with_cli else ()):
        setattr(prog, name, importlib.import_module("creature_lab." + name))
    return prog


def round_rng(seed: int, r: int, salt: int) -> random.Random:
    return random.Random((seed * 1_000_003 + r) * 16 + salt)


# -- closed forms, computed apart from the program ---------------------------


def beta_cap(dom_size: int, n1: int, n2: int) -> int:
    """Largest k <= n1 with dom_size * 2^k <= n2."""
    k = 0
    while k < n1 and (dom_size << (k + 1)) <= n2:
        k += 1
    return k


def diagonal_norm0(members: int, dom_size: int, n1: int, n2: int) -> int:
    """norm0 of a diagonal creature: members agree on one antichain of new
    nodes and differ in value there, so a forbidden set of size k kills at
    most k of them; the beta clause caps k by the member domain size."""
    return min(members - 1, beta_cap(dom_size, n1, n2))


def ceil_lg_ratio(num: int, den: int) -> int:
    """Smallest m >= 0 with den * 2^m >= num."""
    m = 0
    while (den << m) < num:
        m += 1
    return m


def ceil_lg(x: int) -> int:
    return 0 if x <= 1 else (x - 1).bit_length()


def canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def comparable(parent: dict[int, int], x: int, y: int) -> bool:
    def ancestors(z):
        out = set()
        while z in parent:
            z = parent[z]
            out.add(z)
        return out

    return x == y or x in ancestors(y) or y in ancestors(x)


# -- norm-sweep --------------------------------------------------------------

# criterion 1's forests: (edges, isolated nodes, width, window, value bound)
SWEEP_FORESTS = [
    (2, [(0, 2), (0, 3)], [], (0, 2, 3), 4),
    (3, [(0, 3), (0, 4), (3, 6), (3, 7), (1, 5), (5, 8)], [2], (0, 3, 5), 3),
    (3, [(0, 3), (1, 4), (1, 5), (4, 7)], [2], (1, 4, 2), 3),
]
# single-kind profiles for diagonal creatures, all within the oracle's budget
DIAGONAL_PROFILES = [((5,), (6,), (8,)), ((7,), (12,), (10,)), ((9,), (16,), (12,))]
RANDOM_PROFILE = ((9,), (16,), (12,))


class NormSweep:
    """One operation: norm0 and then oracle_norm0 on one creature.

    A round holds 3 window-pool creatures (one per forest), 6 random
    creatures and 3 diagonal creatures (one per profile), so the median
    operation is a random draw.
    """

    name = "norm-sweep"
    trace_rounds = 250

    def __init__(self, prog: SimpleNamespace, seed: int):
        self.p = prog
        self.seed = seed
        specfn, tm, params = prog.specfn, prog.tree_model, prog.params
        self.windows = []
        for width, edges, nodes, window, bound in SWEEP_FORESTS:
            tree = tm.build_tree(width, edges, nodes=nodes)
            pool = []
            for r in (1, 2):
                for dom in itertools.combinations(window, r):
                    for vals in itertools.product(range(bound), repeat=r):
                        fn = specfn.SpecFn.make(dict(zip(dom, vals)), bound=8)
                        if specfn.is_spec(tree, fn, bound=8):
                            pool.append(fn)
            self.windows.append((tree, pool))
        self.g_window = params.make_growth(0, DIAGONAL_PROFILES[0])
        self.tree = self.windows[1][0]
        self.g_random = params.make_growth(0, RANDOM_PROFILE)
        rng = random.Random(seed)
        antichains = [
            list(ac)
            for size in (1, 2, 3)
            for ac in itertools.combinations(self.tree.nodes, size)
            if all(not self.tree.comparable(a, b) for a, b in itertools.combinations(ac, 2))
        ]
        # per profile, the creatures grouped by (antichain size, members),
        # which set their cost; each group is shuffled by the seed
        self.diagonals = []
        for prof in DIAGONAL_PROFILES:
            g = params.make_growth(0, prof)
            n1, n3 = g.n1[0], g.n3[0]
            groups = []
            for size in (1, 2, 3):
                for members in range(2, n1):
                    group = [
                        (ac, members, band)
                        for ac in antichains if len(ac) == size
                        for band in range(n3 - members + 1)
                    ]
                    rng.shuffle(group)
                    groups.append(group)
            self.diagonals.append((g, groups))

    def round(self, r: int) -> list[Op]:
        p = self.p
        rng = round_rng(self.seed, r, 1)
        ops = []
        for tree, pool in self.windows:
            while True:
                c = p.creature.SimpleCreature.make(0, p.specfn.EMPTY_FN, rng.sample(pool, rng.randint(1, 4)))
                if p.creature.clause_d_holds(c)[0]:
                    break
            ops.append(self._op("window", c, tree, self.g_window, None))
        for _ in range(6):
            c = None
            while c is None:
                c = p.generators.random_creature(rng, self.tree, self.g_random, max_members=4, value_bound=8)
            ops.append(self._op("random", c, self.tree, self.g_random, None))
        for g, groups in self.diagonals:
            # round r takes group r mod #groups, so that every stretch of
            # rounds holds the groups in the same proportions, whatever the
            # seed and however many rounds a run completes
            group = groups[r % len(groups)]
            ac, members, band = group[(r // len(groups)) % len(group)]
            c = p.generators.diagonal_creature(0, p.specfn.EMPTY_FN, ac, members, band, g, self.tree)
            expected = diagonal_norm0(members, len(ac), g.n1[0], g.n2[0])
            ops.append(self._op("diagonal", c, self.tree, g, expected))
        return ops

    def _op(self, kind, c, tree, g, expected) -> Op:
        p = self.p

        def call():
            return (
                p.creature.norm0(c, tree, g, validate=False),
                p.oracle.oracle_norm0(c, tree, g, validate=False),
            )

        def check(out):
            fast, naive = out
            if fast != naive:
                return f"norm0 {fast} != oracle {naive} on {c}"
            if expected is not None and fast != expected:
                return f"diagonal creature norm {fast} != closed form {expected} on {c}"
            return None

        return Op(kind, call, check)


# -- decide ------------------------------------------------------------------


class Decide:
    """One operation: one homogenize.decide call on a canonical fragment.

    Fragments: depth2_fragment over two_level_tree (cond2) with branchings
    (2,3), (3,3), (3,4), and depth3_fragment over wide_tree(6, 3) (cond3).
    A round holds 11 operations: a planted labelling on each of the four
    fragments (m = 0, cutoff = depth - 1; must be found), a separating
    labelling at m = 1 on each depth-2 fragment, and separating labellings at
    m = 0 on (2,3) once and on (3,3) three times (cutoff 1; must be
    not-found, by exhaustive search).  The median falls in the planted-(3,4)
    group and the tail in the (3,3), m = 0 group.
    """

    name = "decide"
    trace_rounds = 5

    def __init__(self, prog: SimpleNamespace, seed: int):
        self.p = prog
        self.seed = seed
        gen = prog.generators
        self.shape = prog.params.default_shape()
        t2, g2 = gen.two_level_tree(), gen.profile("cond2")
        self.frags = {
            "2x3": (gen.depth2_fragment(t2, g2, branching=(2, 3)), t2, g2),
            "3x3": (gen.depth2_fragment(t2, g2, branching=(3, 3)), t2, g2),
            "3x4": (gen.depth2_fragment(t2, g2, branching=(3, 4)), t2, g2),
        }
        t3, g3 = gen.wide_tree(6, 3), gen.profile("cond3")
        self.frags["2x2x3"] = (gen.depth3_fragment(t3, g3), t3, g3)

    MIX = [
        ("planted", "2x3", 0), ("planted", "3x3", 0), ("planted", "3x4", 0), ("planted", "2x2x3", 0),
        ("separating", "2x3", 1), ("separating", "3x3", 1), ("separating", "3x4", 1),
        ("separating", "2x3", 0), ("separating", "3x3", 0), ("separating", "3x3", 0),
        ("separating", "3x3", 0),
    ]

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r, 2)
        ops = []
        for family, key, m in self.MIX:
            frag, tree, g = self.frags[key]
            labels = planted(frag, rng) if family == "planted" else separating(frag, rng)
            ops.append(self._op(f"{family}-{key}-m{m}", family, frag, tree, g, labels, m, frag.depth - 1))
        return ops

    def _op(self, kind, family, p, tree, g, labels, m, cutoff) -> Op:
        prog = self.p

        def call():
            return prog.homogenize.decide(
                p, prog.homogenize.LeafLabeling(labels), m, tree, g, self.shape, max_level=cutoff
            )

        def check(res):
            if family == "separating":
                if res.found:
                    return "found on a separating labelling"
                if not res.exhaustive:
                    return "not-found without the exhaustive certificate"
                return None
            if not res.found:
                return "not-found on a planted labelling"
            return check_found(p, res, labels, m, cutoff, g)

        return Op(kind, call, check)


def fragment_shape(parent: dict) -> tuple[Any, dict, dict]:
    """Root, children and levels of a fragment, from its parent map alone."""
    root = next(fn for fn, par in parent.items() if par is None)
    children: dict = {fn: [] for fn in parent}
    for fn, par in parent.items():
        if par is not None:
            children[par].append(fn)
    level = {root: 0}
    stack = [root]
    while stack:
        cur = stack.pop()
        for ch in children[cur]:
            level[ch] = level[cur] + 1
            stack.append(ch)
    return root, children, level


def cone_leaves(children: dict, fn) -> list:
    out, stack = [], [fn]
    while stack:
        cur = stack.pop()
        if children[cur]:
            stack.extend(children[cur])
        else:
            out.append(cur)
    return out


def check_found(p, res, labels: dict, m: int, cutoff: int, g) -> str | None:
    """A found verdict, checked from the parent maps and labels alone."""
    q = res.fragment
    p_root, p_children, p_level = fragment_shape(p.parent)
    q_root, q_children, q_level = fragment_shape(q.parent)
    if q_root != p_root:
        return "q has another root than p"
    for fn, par in q.parent.items():
        if fn not in p.parent or p.parent[fn] != par:
            return f"q is not a subfragment of p at {fn}"
    for lv in range(m + 1):
        mine = {fn for fn, l in q_level.items() if l == lv}
        theirs = {fn for fn, l in p_level.items() if l == lv}
        if mine != theirs or any(q.klabel[fn] != p.klabel[fn] for fn in mine):
            return f"level {lv} <= m changed"
    if res.level is None or res.level > cutoff:
        return f"answered level {res.level} above the cutoff {cutoff}"
    at_level = {fn for fn, l in q_level.items() if l == res.level}
    if set(res.table) != at_level:
        return "the table does not cover the answered level"
    for fn in at_level:
        seen = {labels[leaf] for leaf in cone_leaves(q_children, fn)}
        if seen != {res.table[fn]}:
            return f"cone at {fn} carries {sorted(seen)}, table says {res.table[fn]}"
    for fn, kids in q_children.items():
        if not kids:
            continue
        if set(kids) == set(p_children[fn]) and q.klabel[fn] == p.klabel[fn]:
            continue
        if len(kids) < 2:
            return f"changed creature at {fn} has {len(kids)} member"
        i = q_level[fn]  # canonical fragments are rooted at the empty function
        size = len(kids[0])
        n0 = diagonal_norm0(len(kids), size, g.n1[i], g.n2[i])
        half = min(n0, ceil_lg_ratio(g.n1[i], len(kids)))
        if half < q.klabel[fn]:
            return f"changed creature at {fn}: half-norm {half} < counter {q.klabel[fn]}"
    return None


def last_internal(p) -> list:
    return list(p.level_nodes(p.depth - 1))


def planted(p, rng: random.Random, values: int = 3) -> dict:
    """Every node on the last internal level has >= 2 leaves sharing a label
    and at least one leaf with another label."""
    labels = {}
    for fn in last_internal(p):
        leaves = list(p.children(fn))
        v = rng.randrange(values)
        shared = set(rng.sample(leaves, rng.randint(2, len(leaves) - 1)))
        for leaf in leaves:
            labels[leaf] = v if leaf in shared else rng.choice([x for x in range(values) if x != v])
    return labels


def separating(p, rng: random.Random) -> dict:
    """Every node on the last internal level gives its leaves distinct labels."""
    labels = {}
    for fn in last_internal(p):
        leaves = list(p.children(fn))
        for leaf, v in zip(leaves, rng.sample(range(len(leaves) + 1), len(leaves))):
            labels[leaf] = v
    return labels


# -- cli ---------------------------------------------------------------------

OPS_PARAMS = ((33,), (40,), (12,))
# antichains of the chain/antichain forest that leave node 2 free for fill
OPS_ANTICHAINS = [[3, 4], [3, 4, 5], [4, 5], [6, 7, 8], [4, 5, 6, 7]]
GROWTH_NAMES = ["default", "sweep", "ops", "cond2", "cond3"]


def growth_violation(doc: dict) -> str | None:
    imax, n1, n2, n3 = doc["imax"], doc["n1"], doc["n2"], doc["n3"]
    if not all(len(s) == imax + 1 and all(v > 0 for v in s) for s in (n1, n2, n3)):
        return "sequence lengths or signs"
    for i in range(imax + 1):
        if not i * n1[i] < n3[i]:
            return f"i*n1[{i}] < n3[{i}]"
        if not n1[i] <= n2[i]:
            return f"n1[{i}] <= n2[{i}]"
    for i in range(imax):
        if not n2[i] < n1[i + 1]:
            return f"n2[{i}] < n1[{i + 1}]"
        if not n1[i] * n1[i] <= n1[i + 1]:
            return f"n1[{i}]^2 <= n1[{i + 1}]"
    return None


class Cli:
    """One operation: one `cli.main(argv)` call, stdout and stderr captured.

    The calls run in this process: one process per operation spread by 20 %
    between runs on a 2-core machine (README.md).  A round holds 20 calls:
    all 11 subcommands, all six apply-op ops, and the three malformed-input
    operations, which fail until their faults are mended.  An exception that
    escapes `cli.main` is what the command line shows as a traceback.
    """

    name = "cli"
    trace_rounds = 20

    def __init__(self, prog: SimpleNamespace, seed: int, docs: Path):
        self.p = prog
        self.seed = seed
        self.docs = docs
        self.oracle_memo: dict = {}
        fx, gen = prog.fixtures, prog.generators
        if docs.exists():
            shutil.rmtree(docs)
        docs.mkdir(parents=True)
        rng = random.Random(seed)
        self.corpus = json.loads((FIXDIR / "creatures.json").read_text())
        self.conditions_doc = json.loads((FIXDIR / "conditions.json").read_text())
        tree = gen.chain_antichain_tree()

        # norm: documents of 5 seeded random creatures each; apply-op: one
        # diagonal creature per antichain, on which all six ops succeed.
        # Round r uses document r % 5 of each kind, so that every run averages
        # over all of them.
        g = prog.params.make_growth(0, RANDOM_PROFILE)
        g_ops = prog.params.make_growth(0, OPS_PARAMS)
        self.norms_docs, self.ops_docs = [], []
        for j, antichain in enumerate(OPS_ANTICHAINS):
            creatures = []
            while len(creatures) < 5:
                c = gen.random_creature(rng, tree, g, max_members=4, value_bound=8)
                if c is not None:
                    creatures.append(prog.creature.Creature(c, k=rng.randint(1, 2)))
            self.norms_docs.append({
                "params": fx.params_to_fixture(g), "tree": fx.tree_to_fixture(tree),
                "creatures": [fx.creature_to_fixture(c) for c in creatures],
            })
            self._write(f"norms-{j}.json", self.norms_docs[-1])
            c = gen.diagonal_creature(0, prog.specfn.EMPTY_FN, antichain, 4, rng.randint(0, 8), g_ops, tree)
            self.ops_docs.append({
                "params": fx.params_to_fixture(g_ops), "tree": fx.tree_to_fixture(tree),
                "creatures": [fx.creature_to_fixture(prog.creature.Creature(c, k=1))],
            })
            self._write(f"ops-{j}.json", self.ops_docs[-1])

        # check-leq, purify, decide: a depth-2 fragment with a planted labelling;
        # X is the cone of one of the three level-1 nodes, so purify keeps the
        # other two
        t2, g2 = gen.two_level_tree(), gen.profile("cond2")
        frag = gen.depth2_fragment(t2, g2, branching=(3, 3))
        self.frag = frag
        order = list(frag.fns)
        labels = planted(frag, rng)
        self.frag_labels = labels
        self.frag_doc = {
            "params": fx.params_to_fixture(g2), "tree": fx.tree_to_fixture(t2),
            "conditions": [fx.condition_to_fixture(frag)],
            "labelings": [{"condition": 0, "values": sorted([order.index(l), v] for l, v in labels.items())}],
        }
        self._write("fragment.json", self.frag_doc)
        first = frag.level_nodes(1)[0]
        self.purify_x = sorted(order.index(fn) for fn in [first, *frag.children(first)])

        # the three malformed inputs
        self._write("no-edges.json", {"tree": {"width": 3}})
        (docs / "not-json.json").write_text("creatures: none\n")

        # expected norms of both norm documents, from the oracle
        self.expected_norms = {"corpus": self._expected_norms(self.corpus)}
        for j, doc in enumerate(self.norms_docs):
            self.expected_norms[f"norms-{j}"] = self._expected_norms(doc)

    def _write(self, name: str, doc: dict) -> None:
        (self.docs / name).write_text(canonical(doc))

    def _oracle(self, cdoc: dict, doc: dict) -> int:
        """oracle_norm0 of a creature of a document, memoized."""
        key = (canonical(cdoc), canonical(doc["params"]), canonical(doc["tree"]))
        if key not in self.oracle_memo:
            fx = self.p.fixtures
            c = fx.creature_from_fixture(cdoc).simple
            tree, g = fx.tree_from_fixture(doc["tree"]), fx.params_from_fixture(doc["params"])
            self.oracle_memo[key] = self.p.oracle.oracle_norm0(c, tree, g, validate=False)
        return self.oracle_memo[key]

    def _expected_norms(self, doc: dict) -> list[dict]:
        n1 = doc["params"]["n1"]
        out = []
        for cdoc in doc["creatures"]:
            n0 = self._oracle(cdoc, doc)
            ns = ceil_lg_ratio(n1[cdoc["i"]], len(cdoc["valrange"]))
            nh = min(n0, ns)
            k = cdoc["k"]
            out.append({
                "valid": True, "norm0": n0, "normstar": ns, "normhalf": nh,
                "norm1": ceil_lg(n0), "norm2": ceil_lg(nh),
                "norm": math.log2(nh / k) if nh > k else 0.0,
            })
        return out

    def _run(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.p.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def _op(self, kind, argv, check, known_fault=False) -> Op:
        return Op(kind, lambda: self._run(argv), lambda out: cli_check(out, check), known_fault)

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r, 3)
        d = self.docs
        corpus = str(FIXDIR / "creatures.json")
        j = r % len(OPS_ANTICHAINS)
        ops_doc = self.ops_docs[j]
        frag = str(d / "fragment.json")
        width, height, tseed = rng.randint(2, 5), rng.randint(2, 5), rng.randrange(10**6)
        growth = GROWTH_NAMES[r % len(GROWTH_NAMES)]
        ops = [
            self._op("gen-tree", ["gen-tree", "--width", str(width), "--height", str(height), "--seed", str(tseed)],
                     lambda doc: self._check_tree(doc, width)),
            self._op("gen-params", ["gen-params", "--growth", growth],
                     lambda doc: growth_violation(doc["params"])),
            self._op("enum-spec", ["enum-spec", "--in", corpus, "--nodes", "3", "4", "6", "--bound", "3"],
                     self._check_enum),
            self._op("norm", ["norm", "--in", corpus],
                     lambda doc: self._check_norms(doc, "corpus")),
            self._op("norm", ["norm", "--in", str(d / f"norms-{j}.json")],
                     lambda doc: self._check_norms(doc, f"norms-{j}")),
        ]
        for op in ("glue", "fill", "rebase", "shrink", "split", "halve"):
            extra = {"fill": ["--nodes", "2"], "shrink": ["--k", "1"], "glue": ["--kstar", "2"]}.get(op, [])
            ops.append(self._op(f"apply-op-{op}", ["apply-op", "--op", op, "--in", str(d / f"ops-{j}.json"), *extra],
                                lambda doc, op=op: self._check_apply(op, doc, ops_doc)))
        ops += [
            self._op("check-condition", ["check-condition", "--in", str(FIXDIR / "conditions.json")],
                     self._check_conditions),
            self._op("check-leq", ["check-leq", "--p", frag, "--q", frag],
                     lambda doc: None if doc == {"leq": "yes", "shift": 0, "identity": True}
                     else f"check-leq of a fragment against itself gave {doc}"),
            self._op("purify", ["purify", "--p", frag, "--x", *map(str, self.purify_x), "--kstar", "0"],
                     self._check_purify),
            self._op("decide", ["decide", "--p", frag, "--m", "0", "--max-level", "1"], self._check_decide),
            self._op("propcheck",
                     ["propcheck", "--suite", "growth", "--count", "20", "--seed", str(rng.randrange(10**6))],
                     lambda doc: None if doc["status"] == "pass" and doc["failures"] == 0
                     else f"propcheck status {doc['status']}"),
            Op("report", lambda: self._run(["report", "--in", corpus]), self._check_report),
            self._op("malformed-tree", ["norm", "--in", str(d / "no-edges.json")], "edges", known_fault=True),
            self._op("malformed-json", ["norm", "--in", str(d / "not-json.json")], "json", known_fault=True),
            self._op("malformed-index", ["apply-op", "--op", "halve", "--in", corpus, "--index", "5"], "index",
                     known_fault=True),
        ]
        return ops

    # -- checks ---------------------------------------------------------------

    def _check_tree(self, doc: dict, width: int) -> str | None:
        t = doc["tree"]
        if t["width"] != width:
            return "width changed"
        parent = {}
        for par, child in t["edges"]:
            if child // width != par // width + 1:
                return f"edge ({par}, {child}) breaks the level rule"
            if child in parent:
                return f"node {child} has two parents"
            parent[child] = par
        nodes = set(t["nodes"]) | set(parent) | set(parent.values())
        for x in nodes:
            if x // width > 0 and x not in parent:
                return f"node {x} above level 0 has no parent"
        return None

    def _check_enum(self, doc: dict) -> str | None:
        parent = {child: par for par, child in self.corpus["tree"]["edges"]}
        nodes = (3, 4, 6)
        want = set()
        for vals in itertools.product(range(3), repeat=3):
            if all(not (vals[a] == vals[b] and comparable(parent, nodes[a], nodes[b]))
                   for a, b in itertools.combinations(range(3), 2)):
                want.add(tuple(zip(nodes, vals)))
        got = [tuple(tuple(p) for p in fn["assignments"]) for fn in doc["specfns"]]
        if len(got) != len(set(got)) or set(got) != want:
            return f"{len(got)} functions, {len(want)} expected"
        return None

    def _check_norms(self, doc: dict, which: str) -> str | None:
        want = self.expected_norms[which]
        got = doc["norms"]
        if len(got) != len(want):
            return "wrong number of norm records"
        for j, (a, b) in enumerate(zip(got, want)):
            if set(a) != set(b) or any(a[k] != b[k] for k in b if k != "norm") or abs(a["norm"] - b["norm"]) > 1e-9:
                return f"creature {j}: {a} != oracle-derived {b}"
        return None

    def _check_apply(self, op: str, doc: dict, ops_doc: dict) -> str | None:
        src = ops_doc["creatures"][0]
        res, meta = doc["creature"], doc["result"]
        members = {canonical(m) for m in res["valrange"]}
        orig = {canonical(m) for m in src["valrange"]}
        n0 = self._oracle(res, ops_doc)
        if op in ("glue", "fill", "rebase"):
            if n0 < meta["bound"]:
                return f"{op}: oracle norm0 {n0} below the promised bound {meta['bound']}"
            if op == "fill" and not all(2 in dict(map(tuple, m)) for m in res["valrange"]):
                return "fill: a member misses node 2"
        elif op == "shrink":
            if n0 != 1 or not members <= orig:
                return f"shrink: norm0 {n0}, not a sub-range with norm 1"
        elif op == "split":
            vr = sorted(src["valrange"])
            half = len(vr) // 2
            sides = [vr[:half], vr[half:]]
            norms = [self._oracle(dict(src, valrange=s), ops_doc) for s in sides]
            side = 1 if norms[0] >= norms[1] else 2
            if meta["side"] != side or sorted(res["valrange"]) != sides[side - 1]:
                return f"split kept side {meta['side']}, oracle norms {norms}"
        elif op == "halve":
            n1 = ops_doc["params"]["n1"][0]
            nh = min(self._oracle(src, ops_doc), ceil_lg_ratio(n1, len(src["valrange"])))
            want = min(2 * src["k"], nh - 1)
            if meta["kprime"] != want or res["k"] != want or members != orig:
                return f"halve gave k' = {meta['kprime']}, expected {want}"
        return None

    def _check_conditions(self, doc: dict) -> str | None:
        results = doc["conditions"]
        if len(results) != len(self.conditions_doc["conditions"]):
            return "wrong number of condition reports"
        parent = {child: par for par, child in self.conditions_doc["tree"]["edges"]}
        for rep, cond in zip(results, self.conditions_doc["conditions"]):
            if rep["ok"] != all(ch["ok"] for ch in rep["checks"]):
                return "ok disagrees with its clauses"
            spec = all(
                not (va == vb and comparable(parent, xa, xb))
                for node in cond["nodes"]
                for (xa, va), (xb, vb) in itertools.combinations(node["fn"], 2)
            )
            clause = next(ch for ch in rep["checks"] if ch["clause"].startswith("(i)"))
            if clause["ok"] != spec:
                return f"clause (i) says {clause['ok']}, recomputed {spec}"
            if not rep["ok"]:
                return "a shipped condition reported invalid"
        return None

    def _fragment_nodes(self, cdoc: dict) -> dict:
        """Fragment node -> (parent node, klabel), nodes as assignment tuples."""
        fns = [tuple(map(tuple, node["fn"])) for node in cdoc["nodes"]]
        return {
            fn: (fns[node["parent"]] if node["parent"] is not None else None, node["klabel"])
            for fn, node in zip(fns, cdoc["nodes"])
        }

    def _subfragment_violation(self, cdoc: dict) -> str | None:
        p = self._fragment_nodes(self.frag_doc["conditions"][0])
        q = self._fragment_nodes(cdoc)
        for fn, (par, _) in q.items():
            if fn not in p or p[fn][0] != par:
                return f"{fn} is not a node of p under the same parent"
        return None

    def _check_purify(self, doc: dict) -> str | None:
        bad = self._subfragment_violation(doc["condition"])
        if bad:
            return "purify: " + bad
        if len(doc["alternatives"]) != doc["front"] or not set(doc["alternatives"]) <= {"inside", "disjoint"}:
            return "purify: alternatives do not match the front"
        order = list(self.frag.fns)
        xset = {tuple(order[j].pairs) for j in self.purify_x}
        q = self._fragment_nodes(doc["condition"])
        parent = {fn: par for fn, (par, _) in q.items()}
        _, children, level = fragment_shape(parent)
        for lv in range(max(level.values()) + 1):
            front = [fn for fn, l in level.items() if l == lv]
            if len(front) == doc["front"] and all(
                len({leaf in xset for leaf in cone_leaves(children, fn)}) == 1 for fn in front
            ):
                return None
        return "purify: no level of the output has cones inside or disjoint from X"

    def _check_decide(self, doc: dict) -> str | None:
        if doc.get("decide") != "found":
            return f"decide gave {doc.get('decide')} on a planted labelling"
        bad = self._subfragment_violation(doc["condition"])
        if bad:
            return "decide: " + bad
        if doc["level"] > 1:
            return f"decide answered level {doc['level']} above the cutoff"
        labels = {tuple(leaf.pairs): v for leaf, v in self.frag_labels.items()}
        q = self._fragment_nodes(doc["condition"])
        order = list(q)
        parent = {fn: par for fn, (par, _) in q.items()}
        _, children, level = fragment_shape(parent)
        table = {order[j]: v for j, v in doc["table"]}
        if set(table) != {fn for fn, l in level.items() if l == doc["level"]}:
            return "decide: the table does not cover the answered level"
        for fn, v in table.items():
            seen = {labels[leaf] for leaf in cone_leaves(children, fn)}
            if seen != {v}:
                return f"decide: cone at {fn} carries {sorted(seen)}, table says {v}"
        return None

    def _check_report(self, out: tuple[int, str, str]) -> str | None:
        code, stdout, _ = out
        want = [f"{key}: present" for key in ("params", "tree") if self.corpus.get(key)]
        want += [f"{key}: {len(self.corpus[key])}" for key in ("specfns", "creatures", "conditions", "labelings")
                 if self.corpus.get(key)]
        if code != 0 or stdout != "\n".join(want) + "\n":
            return f"report gave {stdout!r}"
        return None


def cli_check(out: tuple[int, str, str], check) -> str | None:
    """Exit code, canonical JSON, then the op's own check.

    A string `check` marks a malformed-input operation: it must exit 1 with
    no traceback and name the bad field or index (the string) on stderr.
    """
    code, stdout, stderr = out
    if isinstance(check, str):
        if code != 1 or "Traceback" in stderr or check not in stderr.lower():
            return f"malformed input: exit {code}, stderr {stderr.strip().splitlines()[-1:]}"
        return None
    if code != 0:
        return f"exit {code}: {stderr.strip()[-300:]}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if canonical(doc) != stdout:
        return "stdout is not canonical JSON"
    return check(doc)


WORKLOADS = {"norm-sweep": NormSweep, "decide": Decide, "cli": Cli}


def build(name: str, seed: int, prog: SimpleNamespace | None = None) -> Any:
    """Set the workload up on `prog`, or on the program loaded afresh."""
    if prog is None:
        prog = load_program(with_cli=name == "cli")
    if name == "cli":
        return Cli(prog, seed, DOCS)
    return WORKLOADS[name](prog, seed)
