"""creature-lab benchmark: closed-loop workloads timed end to end.

Usage (from the root of a checkout):

    python3 bench/run.py --workload norm-sweep|decide|cli --seed N --seconds S --trace 0|1

--trace 0 times one workload with one caller for S seconds of whole rounds
and prints the end-to-end metrics, in thread CPU time scaled to a reference
host speed (speed.py).  --trace 1 runs a fixed number of rounds
of every workload, first untraced and then traced, and prints the per-layer
metrics (see README.md).  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

SETUP_REPEATS = 11
# speed kernel samples for host.speed_kernel_ms in a traced run
TRACE_SPEED_SAMPLES = 400
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
# the tail percentile of each workload: the highest ladder step with at least
# ten samples beyond it in a run of today's program, fixed so that run-to-run
# changes in the sample count do not move the tail to another step
TAIL_PERCENTILE = {"norm-sweep": 99.9, "decide": 90.0, "cli": 99.0}
WORKLOAD_NAMES = ("norm-sweep", "decide", "cli")

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# per workload: traced function -> its metrics; see README.md for what each
# should move
LAYERS = {
    "norm-sweep": [
        ("creature.norm0", ("calls", "self_ms", "distinct_share")),
        ("creature.validate_creature", ("calls", "self_ms")),
        ("oracle.oracle_norm0", ("calls", "self_ms")),
        ("generators.random_creature", ("self_ms",)),
    ],
    "decide": [
        ("creature.norm0", ("calls", "self_ms", "distinct_share")),
        ("creature.validate_creature", ("calls", "self_ms")),
        ("specfn.is_spec", ("calls", "self_ms")),
        ("specfn.union_spec", ("calls", "self_ms")),
        ("forcing.validate_condition", ("calls", "self_ms", "distinct_share")),
        ("forcing.leq", ("calls", "self_ms")),
        ("forcing.leq_n", ("calls", "self_ms")),
        ("homogenize.purify", ("calls", "self_ms")),
        ("homogenize.halve_below", ("calls", "self_ms")),
        ("homogenize.decide", ("self_ms", "subfragments")),
        ("generators.depth2_fragment", ("self_ms",)),
        ("generators.depth3_fragment", ("self_ms",)),
    ],
    "cli": [
        ("fixtures.load_document", ("self_ms",)),
        ("fixtures.canonical_dumps", ("self_ms",)),
        # decide never reaches ops.halve on the canonical fragments (see README)
        ("ops.halve", ("calls", "self_ms")),
        # argument parsing: main builds the parser on every call
        ("cli.main", ("self_ms",)),
    ] + [
        (f"cli.cmd_{sub}", ("self_ms",))
        for sub in (
            "gen_tree", "gen_params", "enum_spec", "norm", "apply_op", "check_condition",
            "check_leq", "purify", "decide", "propcheck", "report",
        )
    ],
}
# the same functions are traced on every workload
TRACED = sorted({function for layer in LAYERS.values() for function, _ in layer})
UNITS = {
    "calls": ("count", "lower"),
    "self_ms": ("ms", "lower"),
    "distinct_share": ("ratio", "higher"),
    "subfragments": ("count", "lower"),
}
IMPORTS = ["creature_lab", "creature_lab.cli", "creature_lab.verify"]


def layer_name(workload: str, function: str, metric: str) -> str:
    if function.startswith("cli.cmd_"):
        function = "cli." + function[len("cli.cmd_"):].replace("_", "-")
    return f"{workload}.{function}.{metric}"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for workload in WORKLOAD_NAMES:
        for function, metrics in LAYERS[workload]:
            for metric in metrics:
                out.append((layer_name(workload, function, metric), *UNITS[metric]))
        out.append((f"{workload}.trace_overhead", "%", "lower"))
    out += [(f"import_ms.{m}", "ms", "lower") for m in IMPORTS]
    # the host's speed during the traced run: self times are not scaled
    out.append(("host.speed_kernel_ms", "ms", "lower"))
    return out


def tail(latencies: list[float], highest: float = TAIL_LADDER[0]) -> tuple[float, float]:
    """The highest ladder percentile up to `highest` with at least ten
    samples beyond it (nearest rank), and its value."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if p <= highest and n - rank >= 10:
            return p, xs[rank - 1]
    return 50.0, statistics.median(xs)


class Tally:
    """Operations attempted and failed, latencies, and unexpected failures."""

    def __init__(self):
        # compact, so that the benchmark's own memory barely grows with the
        # number of operations a run completes
        self.latencies_ms = array("d")
        self.failed = 0
        self.unexpected: list[str] = []

    def run(self, ops, tracer=None, speed=None) -> None:
        for op in ops:
            if tracer is not None:
                tracer.op_depth += 1
            start = time.thread_time()
            try:
                out, error = op.call(), None
            except Exception as exc:  # an exception is a failed operation
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.thread_time() - start
            self.latencies_ms.append(elapsed * 1e3)
            if tracer is not None:
                tracer.op_depth -= 1
            if speed is not None:
                speed.after(elapsed)
            reason = error or op.check(out)
            if reason is not None:
                self.failed += 1
                if not op.known_fault:
                    self.unexpected.append(f"{op.kind}: {reason}")

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ms) / 1e3


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_setup(workloads, name: str, seed: int) -> float:
    start = time.process_time()
    workloads.build(name, seed)
    return time.process_time() - start


def timed(workloads, speed_mod, name: str, seed: int, seconds: int) -> dict:
    """Whole rounds for `seconds` of wall time, with SETUP_REPEATS set-ups:
    the first from process start, the others spread evenly over the run and
    discarded, since the host's speed drifts over seconds and set-ups made
    back to back all meet the same drift.  Times are thread CPU time
    (process CPU time for set-up), scaled by the speed kernel's mean over
    the run."""
    w = workloads.build(name, seed)
    setups = [time.process_time()]
    speed = speed_mod.Speed()
    tally = Tally()
    rounds = 0
    begin = time.perf_counter()
    while rounds == 0 or time.perf_counter() - begin < seconds:
        if len(setups) < SETUP_REPEATS and time.perf_counter() - begin >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(timed_setup(workloads, name, seed))
        tally.run(w.round(rounds), speed=speed)
        rounds += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(workloads, name, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = speed.scale()
    p, tail_ms = tail(tally.latencies_ms, TAIL_PERCENTILE[name])
    print(
        f"{name}: {rounds} rounds, {tally.attempted} operations, tail = p{p:g}, "
        f"setups {[round(s, 4) for s in setups]}, speed kernel {speed.kernel_ms():.4f} ms "
        f"over {len(speed.samples)} samples (scale {scale:.4f})",
        file=sys.stderr,
    )
    return {
        "tally": tally,
        "metrics": {
            "setup_s": metric(statistics.median(setups) * scale, "s"),
            "ops_per_s": metric(tally.attempted / (tally.busy_s * scale), "1/s"),
            "latency_p50_ms": metric(statistics.median(tally.latencies_ms) * scale, "ms"),
            "latency_tail_ms": metric(tail_ms * scale, "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }


def trace_workload(workloads, tracing, name: str, seed: int, rounds: int):
    """Set-up and `rounds` rounds traced; each round's operations also run
    untraced, before or after the traced run by turns, for the overhead.

    Returns (untraced tally, traced tally, tracer).
    """
    prog = workloads.load_program(with_cli=name == "cli")
    tracer = tracing.Tracer(TRACED)
    plain, tally = Tally(), Tally()
    with tracer:
        w = workloads.build(name, seed, prog=prog)
    for r in range(rounds):
        with tracer:
            ops = w.round(r)
        for traced_turn in ((True, False) if r % 2 else (False, True)):
            if traced_turn:
                with tracer:
                    tally.run(ops, tracer)
            else:
                plain.run(ops)
    return plain, tally, tracer


def traced(workloads, tracing, speed_mod, seed: int) -> dict:
    tallies = {}
    metrics = {}
    for name in WORKLOAD_NAMES:
        rounds = workloads.WORKLOADS[name].trace_rounds
        plain, tally, tracer = trace_workload(workloads, tracing, name, seed, rounds)
        tally.unexpected += plain.unexpected
        tallies[name] = tally
        summary = tracer.summary()
        for function, names in LAYERS[name]:
            for m in names:
                metrics[layer_name(name, function, m)] = metric(summary[function][m], UNITS[m][0])
        metrics[f"{name}.trace_overhead"] = metric((tally.busy_s / plain.busy_s - 1) * 100, "%")
        tracer.write(workloads.OUT / f"trace-{name}-{seed}.tsv.gz")
        print(f"{name}: traced {tally.attempted} operations, {len(tracer.fn)} spans", file=sys.stderr)
    for module, ms in tracing.import_times(workloads.SRC, IMPORTS).items():
        metrics[f"import_ms.{module}"] = metric(ms, "ms")
    speed = speed_mod.Speed()
    for _ in range(TRACE_SPEED_SAMPLES):
        speed.sample()
    metrics["host.speed_kernel_ms"] = metric(speed.kernel_ms(), "ms")
    return {"tallies": tallies, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (REPO / "src" / "creature_lab" / "__init__.py").is_file():
        print(f"error: the program's source is missing under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import speed
    import tracing
    import workloads

    try:
        if args.trace:
            res = traced(workloads, tracing, speed, args.seed)
            tally = res["tallies"][args.workload]
            unexpected = [u for t in res["tallies"].values() for u in t.unexpected]
        else:
            res = timed(workloads, speed, args.workload, args.seed, args.seconds)
            tally = res["tally"]
            unexpected = tally.unexpected
    finally:
        shutil.rmtree(workloads.DOCS, ignore_errors=True)
    for line in unexpected[:10]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
