"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Two
criteria check claims in their provable form, because the literal form is
false at desk scale; the analysis is in the README.  Criterion 5 checks
bigness with floor-log norms and prints the ceiling-log gaps (a norm0 of 3
splits into two halves of norm0 1).  Criterion 6 asserts the halving
recovery property wherever some counter meets it together with the
drop-by-one bound (for the lg shape: iff normhalf <= 2k + 1), and certifies
and counts the samples where none does.
"""

import inspect
import itertools
import json
import pathlib
import random
import subprocess
import sys
import time

import pytest

from creature_lab import fixtures as fx
from creature_lab import verify
from creature_lab.creature import (
    Creature,
    SimpleCreature,
    clause_d_holds,
    norm0,
    normhalf,
    norms,
    normstar,
)
from creature_lab.generators import diagonal_creature, random_creature
from creature_lab.ops import bigness_split, halve
from creature_lab.oracle import oracle_norm0
from creature_lab.params import default_shape, log2ceil, make_growth
from creature_lab.specfn import EMPTY_FN, SpecFn, is_spec
from creature_lab.tree_model import build_tree

FIXDIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def _line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} — {detail}")


# -- criterion 1: oracle equivalence ----------------------------------------

SWEEP_FORESTS = [
    # (tree, exhaustive domain window, value bound for the window)
    (build_tree(2, [(0, 2), (0, 3)]), (0, 2, 3), 4),
    (build_tree(3, [(0, 3), (0, 4), (3, 6), (3, 7), (1, 5), (5, 8)], nodes=[2]), (0, 3, 5), 3),
    (build_tree(3, [(0, 3), (1, 4), (1, 5), (4, 7)], nodes=[2]), (1, 4, 2), 3),
]


def _sweep_pool(tree, window, bound):
    pool = []
    for r in (1, 2):
        for nodes in itertools.combinations(window, r):
            for vals in itertools.product(range(bound), repeat=r):
                fn = SpecFn.make(dict(zip(nodes, vals)), bound=8)
                if is_spec(tree, fn, bound=8):
                    pool.append(fn)
    return pool


def _oracle_mismatches(norm_fn, pool_limit=None, random_count=10_000):
    """Criterion 1's comparison of `norm_fn` with the oracle.

    Returns (exhaustive count, random count, mismatching creatures).  The
    exhaustive phase runs over the first `pool_limit` functions of each
    window pool (all of them by default); the random phase draws at the full
    forest and value bound 8 from seed 2024.
    """
    mismatches = []
    g = make_growth(0, ((5,), (6,), (8,)))
    checked = 0
    for tree, window, bound in SWEEP_FORESTS:
        assert len(tree.nodes) <= 10 and tree.width <= 3
        pool = _sweep_pool(tree, window, bound)[:pool_limit]
        for size in range(1, 5):
            for combo in itertools.combinations(pool, size):
                c = SimpleCreature.make(0, EMPTY_FN, combo)
                if not clause_d_holds(c)[0]:
                    continue
                checked += 1
                if norm_fn(c, tree, g, validate=False) != oracle_norm0(c, tree, g, validate=False):
                    mismatches.append(c)
    rng = random.Random(2024)
    tree = SWEEP_FORESTS[1][0]
    gr = make_growth(0, ((9,), (16,), (12,)))
    done = 0
    while done < random_count:
        c = random_creature(rng, tree, gr, max_members=4, value_bound=8)
        if c is None:
            continue
        if norm_fn(c, tree, gr, validate=False) != oracle_norm0(c, tree, gr, validate=False):
            mismatches.append(c)
        done += 1
    return checked, done, mismatches


def test_criterion_1_oracle_equivalence():
    """Exhaustive sweep (documented scope) plus 10^4 random instances.

    Scope of "all valid creatures": per forest, every valrange of size <= 4
    drawn from the full pool of specialization functions on a fixed 3-node
    window with domains of size <= 2 (value bounds 3-4); exhaustively.  The
    literal class over whole forests at value bound 8 is ~10^12 creatures.
    """
    start = time.time()
    checked, done, mismatches = _oracle_mismatches(norm0)
    assert not mismatches, f"mismatch on {mismatches[0]}"
    elapsed = time.time() - start
    ok = elapsed <= 120
    _line(1, ok, f"{checked} exhaustive + {done} random creatures equal the oracle in {elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeds 120s"


def _mutant_norm0(original: str, mutated: str):
    """norm0 rebuilt from its source with one reduction step broken."""
    import creature_lab.creature as creature_mod

    src = inspect.getsource(creature_mod.norm0)
    assert src.count(original) == 1, f"mutation site {original!r} not found in norm0"
    namespace = dict(vars(creature_mod))
    exec(src.replace(original, mutated), namespace)
    return namespace["norm0"]


@pytest.mark.parametrize(
    "original, mutated",
    [
        # the beta filter on member domain sizes is dropped
        ("(sz << k) <= n2i and alpha_ok", "alpha_ok"),
        # the last branch trace is dropped
        ("for b in tree.branches()}, key=sorted)", "for b in tree.branches()}, key=sorted)[:-1]"),
    ],
    ids=["beta-filter", "branch-trace"],
)
def test_criterion_1_oracle_catches_reduction_bug(original, mutated):
    """The criterion-1 comparison still tells a broken norm0 from the oracle."""
    mutant = _mutant_norm0(original, mutated)
    checked, done, mismatches = _oracle_mismatches(mutant, pool_limit=12, random_count=200)
    assert checked > 0 and done == 200
    assert mismatches, f"mutation {original!r} -> {mutated!r} went unnoticed"


# -- criteria 2-4: construction bounds ---------------------------------------


def _suite_criterion(num, suite, count, seed, min_hits, limit_s, detail_extra=""):
    start = time.time()
    rep = verify.run_suite(suite, count, seed)
    elapsed = time.time() - start
    ok = rep["status"] == "pass" and rep["premise_hits"] >= min_hits and elapsed <= limit_s
    _line(
        num,
        ok,
        f"{suite}: {rep['premise_hits']} premise-satisfying instances, "
        f"{rep['failures']} failures in {elapsed:.1f}s{detail_extra}",
    )
    assert rep["status"] == "pass", rep["first_failure"]
    assert rep["premise_hits"] >= min_hits
    assert elapsed <= limit_s
    return rep


def test_criterion_2_glue_bound():
    _suite_criterion(2, "glue", 1400, 42, 1000, 60)


def test_criterion_3_fill_bound():
    _suite_criterion(3, "fill", 1100, 43, 1000, 300)


def test_criterion_4_rebase_bound():
    _suite_criterion(4, "rebase", 1000, 44, 1000, 300)


# -- criterion 5: bigness over the fixture corpus ----------------------------


def _corpus_creatures():
    doc = fx.load_document(str(FIXDIR / "creatures.json"))
    tree = fx.tree_from_fixture(doc["tree"])
    params = fx.params_from_fixture(doc["params"])
    return tree, params, [fx.creature_from_fixture(c) for c in doc["creatures"]]


def _floorlog(x: int) -> int:
    return x.bit_length() - 1 if x > 0 else 0


def test_criterion_5_bigness_exhaustive():
    """Bigness in its provable form, over every bipartition of the corpus.

    The side `bigness_split` keeps must hold at least half of norm0 and of
    normhalf (rounded down), so the floor-log norm1 and norm2 and the shape
    norm at counters 1 and 2 drop by at most one unit.  The ceiling-log
    reading of norm1/norm2 is false at norm0 = 2^m + 1 (norm 3 splits into
    two halves of norm 1); its gaps are counted and printed, not gated on.
    """
    tree, params, corpus = _corpus_creatures()
    shape = default_shape()
    violations = []
    ceiling_gaps = 0
    for cplus in corpus:
        c = cplus.simple
        if len(c.valrange) < 2 or len(c.valrange) > 6:
            continue
        rec = norms(cplus, tree, params)
        for mask in range(1, 2 ** len(c.valrange) - 1, 2):
            side1 = [m for j, m in enumerate(c.valrange) if mask >> j & 1]
            side2 = [m for j, m in enumerate(c.valrange) if not mask >> j & 1]
            c1 = SimpleCreature.make(c.i, c.base, side1)
            c2 = SimpleCreature.make(c.i, c.base, side2)
            n01 = norm0(c1, tree, params, validate=False)
            n02 = norm0(c2, tree, params, validate=False)
            nh1 = min(n01, normstar(c1, params))
            nh2 = min(n02, normstar(c2, params))
            split = bigness_split(c, (side1, side2), tree, params)
            n0_kept, nh_kept = (n01, nh1) if split.side == 1 else (n02, nh2)
            if n0_kept < rec.norm0 // 2:
                violations.append(("norm0", c, mask))
            if nh_kept < rec.normhalf // 2:
                violations.append(("normhalf", c, mask))
            if _floorlog(n0_kept) < _floorlog(rec.norm0) - 1:
                violations.append(("norm1", c, mask))
            if _floorlog(nh_kept) < _floorlog(rec.normhalf) - 1:
                violations.append(("norm2", c, mask))
            for kl in (1, 2):
                if shape.f(nh_kept, kl) < int(shape.f(rec.normhalf, kl)) - 1:
                    violations.append(("norm", c, mask))
            # the ceiling-log reading: one side keeps every level below the top
            for k in range(log2ceil(rec.norm0)):
                ceiling_gaps += not (log2ceil(n01) >= k or log2ceil(n02) >= k)
            for k in range(log2ceil(rec.normhalf)):
                ceiling_gaps += not (log2ceil(nh1) >= k or log2ceil(nh2) >= k)
    ok = not violations
    _line(
        5,
        ok,
        f"exhaustive bipartitions over {len(corpus)} corpus creatures: "
        f"{len(violations)} violations of the provable form, "
        f"{ceiling_gaps} ceiling-log gaps (not gated)"
        + (f"; first: {violations[0][0]} split of {violations[0][1]}" if violations else ""),
    )
    assert ok, f"bigness drop-by-one fails on the kept side: {violations[0]}"


# -- criterion 6: halving properties -----------------------------------------


def test_criterion_6_halving_properties():
    """(1) the simple part is kept; (2) the norm drops by at most one unit;
    (3) recovery: every half norm n' > k' with positive norm at k' gives
    back the original norm at k.

    For the lg shape (2) holds iff k' <= 2k and (3) iff k' >= normhalf - 1,
    so the two meet iff normhalf <= 2k + 1.  (3) is asserted on every sample
    where an exhaustive scan of the counters in (k, normhalf) finds one that
    meets (2) and (3) together; the other samples are certified to have none
    and counted.
    """
    tree = build_tree(3, [(0, 3), (0, 4), (3, 6), (3, 7), (1, 5), (5, 8)], nodes=[2])
    params = make_growth(0, ((8193,), (16384,), (8200,)))
    shape = default_shape()

    def drop_ok(nh, k, kp):
        return shape.norm_geq_shifted(nh, kp, nh, k, 1)

    def recovers(nh, k, kp):
        return all(
            shape.norm_geq_shifted(np_, k, nh, k, 0)
            for np_ in range(kp + 1, nh + 3)
            if shape.norm_pos(np_, kp)
        )

    rng = random.Random(606)
    sampled = 0
    repairs = 0
    infeasible = 0
    p3_failures = []
    while sampled < 1000:
        members = rng.randint(4, 12)
        sl = rng.choice([[3], [4], [3, 4], [6, 7]])
        c = diagonal_creature(0, EMPTY_FN, sl, members, rng.randint(0, 9), params, tree)
        nh = normhalf(c, tree, params)
        k = rng.randint(1, max(1, nh - 2))
        if not shape.norm_geq(nh, k, 1) or nh - k < 2:
            continue
        sampled += 1
        res = halve(Creature(c, k), tree, params)
        kp = res.creature.k
        assert res.creature.simple == c, "property (1): simple part changed"
        assert k < kp < nh and drop_ok(nh, k, kp), "property (2): norm dropped by more than 1"
        repairs += int(res.repaired)
        if not any(drop_ok(nh, k, cand) and recovers(nh, k, cand) for cand in range(k + 1, nh)):
            infeasible += 1
        elif not recovers(nh, k, kp):
            p3_failures.append((nh, k, kp))
    ok = not p3_failures
    _line(
        6,
        ok,
        f"1000 samples: (1) ok, (2) ok with {repairs} sqrt-witness repairs, "
        f"(3) fails on {len(p3_failures)} of {1000 - infeasible} satisfiable samples; "
        f"{infeasible} certified to have no counter meeting (2) and (3)"
        + (f"; first (normhalf, k, k') = {p3_failures[0]}" if p3_failures else ""),
    )
    assert ok, (
        f"halving recovery property (3) fails on {len(p3_failures)} samples where "
        f"some counter meets (2) and (3); first (normhalf, k, k') = {p3_failures[0]}"
    )


# -- criterion 7: the order battery ------------------------------------------


def test_criterion_7_order_battery():
    start = time.time()
    leq_rep = verify.run_suite("leq", 1100, 45)
    battery_rep = verify.run_suite("claim2.8", 400, 46)
    shrink_rep = verify.run_suite("shrink", 500, 47)
    elapsed = time.time() - start
    hits = leq_rep["premise_hits"] + battery_rep["premise_hits"] + shrink_rep["premise_hits"]
    ok = (
        leq_rep["status"] == "pass"
        and battery_rep["status"] == "pass"
        and shrink_rep["status"] == "pass"
        and hits >= 1000
    )
    _line(7, ok, f"(1)-(7),(8),(11) over {hits} pairs/instances in {elapsed:.1f}s")
    for rep in (leq_rep, battery_rep, shrink_rep):
        assert rep["status"] == "pass", rep["first_failure"]
    assert hits >= 1000


def test_criterion_8_fusion():
    _suite_criterion(8, "fusion", 300, 48, 300, 300)


def test_criterion_9_smoothen():
    _suite_criterion(9, "smoothen", 170, 49, 100, 300)


def test_criterion_10_purify():
    _suite_criterion(10, "purify", 130, 50, 100, 300)


def test_criterion_11_decide():
    start = time.time()
    rep = verify.run_suite("decide", 110, 51)
    elapsed = time.time() - start
    ok = rep["status"] == "pass" and rep["premise_hits"] >= 100 and elapsed <= 300
    _line(
        11,
        ok,
        f"{rep['premise_hits']} labellings ({rep['stats'].get('found', 0)} decided, "
        f"rest certified not-found) in {elapsed:.1f}s",
    )
    assert rep["status"] == "pass", rep["first_failure"]
    assert rep["premise_hits"] >= 100
    assert elapsed <= 300


# -- criterion 12: CLI determinism -------------------------------------------


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "creature_lab", *args], capture_output=True
    ).stdout


def test_criterion_12_cli_determinism():
    pairs = [
        ("gen-tree", "--width", "4", "--height", "3", "--seed", "77"),
        ("gen-params", "--growth", "cond2"),
        ("norm", "--in", str(FIXDIR / "creatures.json")),
        ("check-condition", "--in", str(FIXDIR / "conditions.json")),
        ("propcheck", "--suite", "norm-oracle", "--count", "30", "--seed", "5"),
    ]
    ok = True
    for argv in pairs:
        if _cli(*argv) != _cli(*argv):
            ok = False
            break
    jobs1 = _cli("propcheck", "--suite", "shrink", "--count", "16", "--seed", "9", "--jobs", "1")
    jobs3 = _cli("propcheck", "--suite", "shrink", "--count", "16", "--seed", "9", "--jobs", "3")
    ok = ok and jobs1 == jobs3
    _line(12, ok, "byte-identical output across repeated runs and --jobs settings")
    assert ok
