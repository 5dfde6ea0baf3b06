"""Benchmark of ropcheck on two workloads, with an opt-in traced run.

Run from the repository root:

    python3 bench/run.py --workload exact --seed 1 --seconds 45 --trace 0

Workloads (see NOTES.md for why each exists):

    exact   characterize on expanded read-once formulas (n = 5, 6, 7) and on
            q_5, q_6 and read-many variants (n = 5, 6, 7)
    local   read_once_test and property_test on oracles (n = 6, 7, 8), and
            is_locally_rop(q_10 over GF(5), a) on drawn assignments

One caller, closed loop, one process.  The timed loop runs whole passes over
the workload's pool until at least --seconds have elapsed, 5 passes and 100
operations are done; every output is checked against a reference label that
does not use the decider.

Operation times are reported in reference units (ref): an operation's wall
time over the time of a fixed pure-Python kernel, run just before each
operation, on the operations around it.  The host this was built on runs all
code up to about 2x slower for minutes at a time; the ratio cancels that, while
any change to the program still moves it.  An instance's cost is its median
over the passes; the throughput (per 1000 ref) and the latency percentiles
are taken over those.  Wall-clock figures are on the info line.  Set-up time
is the median of 9 set-ups in fresh interpreters, spread between the passes,
in seconds.  The last
stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it describes
the inputs and gives deterministic work counts.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the program's layers are wrapped
from outside and the metrics are per-layer totals of set-up plus one pass.
The exit status is 0 only when every output agreed with its reference.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_OPS = 100       # operations per run, at the least
MIN_PASSES = 5      # each instance's latency is its median over at least 5 passes
SETUP_REPS = 9      # set-up is repeated and its median reported
SETUP_REPS_FIRST = 3  # of them before the first pass; one follows each pass
MAX_LOOP_S = 120.0  # no new pass starts after this, so a run ends within 180 s


def import_program():
    """Import ropcheck from this checkout's src/, never from anywhere else."""
    if not (SRC / "ropcheck" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ropcheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ropcheck
    if Path(ropcheck.__file__).resolve().parent != SRC / "ropcheck":
        raise ImportError(f"ropcheck imported from {ropcheck.__file__}, not {SRC}")


def _reference_operands():
    rng = random.Random("ropbench/reference")
    return [{tuple(rng.randrange(3) for _ in range(6)): 1 + rng.randrange(1008)
             for _ in range(24)} for _ in range(2)]


REF_A, REF_B = _reference_operands()
REF_WINDOW = 9      # an operation's host speed: median reference time of the 19 around it


def reference_kernel() -> dict:
    """A fixed piece of pure-Python work, timed next to every operation.

    It multiplies two fixed sparse polynomials held as dicts, the same
    instruction mix as the program's own MPoly arithmetic, but it is the
    benchmark's code, so no change to the program changes its cost.  It takes
    about 0.6 ms on a quiet 2-core x86 VM.
    """
    out = {}
    items = list(REF_B.items())
    for m1, c1 in REF_A.items():
        for m2, c2 in items:
            m = tuple(x + y for x, y in zip(m1, m2))
            c = c1 * c2 % 1009
            c0 = out.get(m)
            out[m] = c if c0 is None else (c0 + c) % 1009
    return out


class Run:
    """What the timed loop saw, operation by operation, and the failures."""

    def __init__(self, pool_size: int):
        self.pool_size = pool_size
        self.records = []   # (instance index, latency s, reference kernel s), in run order
        self.passes = 0
        self.pass_s = []
        self.elapsed = 0.0
        self.failed = 0
        self.failures = []
        self.counts = {}
        self.grid_points = 0
        self.rot_queries = 0

    @property
    def attempted(self) -> int:
        return len(self.records)

    def _per_instance(self, values) -> list:
        out = [[] for _ in range(self.pool_size)]
        for (index, _, _), v in zip(self.records, values):
            out[index].append(v)
        return out

    def latencies(self) -> list:
        """Each instance's wall-clock latencies, one per pass."""
        return self._per_instance([lat for _, lat, _ in self.records])

    def costs(self) -> list:
        """Each instance's latencies in reference units, one per pass.

        An operation's cost is its latency over the median reference-kernel
        time of the operations around it, so a stretch in which the host runs
        all code slower scales both and cancels.
        """
        refs = [ref for _, _, ref in self.records]
        local = [statistics.median(refs[max(0, k - REF_WINDOW):k + REF_WINDOW + 1])
                 for k in range(len(refs))]
        return self._per_instance([lat / r for (_, lat, _), r in zip(self.records, local)])


def typical(per_instance) -> list:
    """Each instance's median over the passes of the run."""
    return [statistics.median(v) for v in per_instance]


def run_passes(workloads, pool, seconds, min_passes, min_ops, tracer=None,
               between=None) -> Run:
    """Whole passes over pool.ops until seconds, min_passes and min_ops are reached.

    between, if given, is called after every pass but the last; its time is
    not part of the run's elapsed time.
    """
    run = Run(len(pool.ops))
    clock = time.perf_counter
    while True:
        start = clock()
        for index, op in enumerate(pool.ops):
            if tracer is not None:
                before = tracer.counts["mpoly.interpolate_grid.points"]
            r0 = clock()
            reference_kernel()
            t0 = clock()
            try:
                out = op.call() if tracer is None else tracer.run(run.attempted, op.call)
                err = None
            except Exception:
                out, err = None, traceback.format_exc(limit=4)
            run.records.append((index, clock() - t0, t0 - r0))
            if err is None:
                err = workloads.check(op, out)
            if err is not None:
                run.failed += 1
                run.failures.append(f"{op.name}: {err}")
                continue
            if run.passes == 0:
                for key, v in workloads.counts(op, out).items():
                    run.counts[key] = run.counts.get(key, 0) + v
            if tracer is not None and op.kind == "read_once_test":
                run.grid_points += tracer.counts["mpoly.interpolate_grid.points"] - before
                run.rot_queries += out.queries
        run.passes += 1
        run.pass_s.append(clock() - start)
        run.elapsed += run.pass_s[-1]
        if run.elapsed >= MAX_LOOP_S or (run.elapsed >= seconds and run.passes >= min_passes
                                         and run.attempted >= min_ops):
            return run
        if between is not None:
            between()


def describe(workloads, pool, run: Run) -> dict:
    """Input description and deterministic counts (untimed)."""
    info = {
        "workload": pool.workload,
        "seed": pool.seed,
        "fields": list(pool.fields),
        "arity_mix": {},
        "pool_ops": len(pool.ops),
        "total_terms": sum(op.terms() for op in pool.ops),
        "passes": run.passes,
        "pass_seconds": [round(t, 3) for t in run.pass_s],
        "ops": run.attempted,
        "loop_ops_per_s": run.attempted / run.elapsed,
        "latency_samples": len(pool.ops),
        "wall": wall_clock(run),
        "reference_kernel_ms": 1e3 * statistics.median(ref for _, _, ref in run.records),
        "pass1_counts": run.counts,
        "reference_labels": {},
    }
    mix, labels = info["arity_mix"], info["reference_labels"]
    for op in pool.ops:
        mix[str(op.n)] = mix.get(str(op.n), 0) + 1
        labels[op.expect] = labels.get(op.expect, 0) + 1
    if pool.workload == "exact":
        info["q_n_median_latency_ms"] = {op.name: round(1e3 * t, 3)
                                         for op, t in zip(pool.ops, typical(run.latencies()))
                                         if op.name.startswith("q_")}
    return info


def quantile(values, q: int) -> float:
    """The q-th percentile of values (q in 1..99)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def wall_clock(run: Run) -> dict:
    """The same figures as end_to_end, in wall-clock time (info line only)."""
    lat = typical(run.latencies())
    return {"throughput_ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_p90_ms": 1e3 * quantile(lat, 90)}


def end_to_end(run: Run, setup_s: float) -> dict:
    """Operation costs in reference units; set-up and memory as measured."""
    costs = typical(run.costs())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_per_kref": (1e3 * len(costs) / sum(costs), "1/kref"),
        "latency_p50_ref": (statistics.median(costs), "ref"),
        "latency_p90_ref": (quantile(costs, 90), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


WITNESS_SIZES = (0, 2, 3, 4)


def per_layer(tracer, setup, run: Run, plain: Run) -> dict:
    """Per-layer totals of set-up plus one average pass of the traced loop."""
    calls, self_s, total_s, counts = tracer.snapshot()
    s_calls, s_self, s_total, s_counts = setup

    def one(table, base, key):
        return base.get(key, 0) + (table.get(key, 0) - base.get(key, 0)) / run.passes

    c = lambda key: one(calls, s_calls, key)
    own = lambda key: one(self_s, s_self, key)
    tot = lambda key: one(total_s, s_total, key)
    cnt = lambda key: one(counts, s_counts, key)
    rc = run.counts
    ratio = lambda a, b: a / b if b else 0.0

    m = {
        "mpoly.mul.calls": (c("mpoly.mul"), "count"),
        "mpoly.mul.self_s": (own("mpoly.mul"), "s"),
        "mpoly.restrict_many.calls": (c("mpoly.restrict_many"), "count"),
        "mpoly.restrict_many.self_s": (own("mpoly.restrict_many"), "s"),
        "mpoly.partial.calls": (c("mpoly.partial"), "count"),
        "mpoly.partial.self_s": (own("mpoly.partial") + own("mpoly.partial2"), "s"),
        "mpoly.interpolate_grid.calls": (c("mpoly.interpolate_grid"), "count"),
        "mpoly.interpolate_grid.self_s": (own("mpoly.interpolate_grid"), "s"),
        "mpoly.eval_batch.points": (cnt("mpoly.eval_batch.points"), "count"),
        "mpoly.eval_raw.calls": (cnt("mpoly.eval_raw.calls"), "count"),
        "rof.query_many.calls": (c("rof.query_many"), "count"),
        "rof.query_many.points": (cnt("rof.query_many.points"), "count"),
        "rof.query_many.self_s": (own("rof.query_many"), "s"),
        "rof.eval_batch.self_s": (own("rof.eval_batch"), "s"),
        "ff.coerce.calls": (cnt("ff.coerce.calls"), "count"),
        "rof.expand.self_s": (own("rof.expand"), "s"),
    }
    for k in WITNESS_SIZES:
        name = f"decomp.witness_is_zero.J{k}"
        m[name + ".calls"] = (c(name), "count")
        m[name + ".total_s"] = (tot(name), "s")
    m.update({
        "decomp.decompose.calls": (c("decomp.decompose"), "count"),
        "decomp.decompose.self_s": (own("decomp.decompose"), "s"),
        "decomp.commutator.calls": (c("decomp.commutator"), "count"),
        "decomp.commutator.total_s": (tot("decomp.commutator"), "s"),
        "decomp.find_nonzero_point.calls": (c("decomp.find_nonzero_point"), "count"),
        "decomp.trivariate_is_rop.calls": (c("decomp.trivariate_is_rop"), "count"),
        "decomp.trivariate_is_rop.self_s": (own("decomp.trivariate_is_rop"), "s"),
        "charax.certificate.total_s": (tot("charax.certificate"), "s"),
        "charax.goodness_check.calls": (c("charax.goodness_check"), "count"),
        "charax.goodness_check.self_s": (own("charax.goodness_check"), "s"),
        "charax.certified_ratio": (ratio(rc.get("certified", 0), rc.get("attempts", 0)), "ratio"),
        "charax.is_locally_rop.calls": (c("charax.is_locally_rop"), "count"),
        "charax.is_locally_rop.self_s": (own("charax.is_locally_rop"), "s"),
        "charax.is_locally_rop.triples": (cnt("charax.is_locally_rop.triples"), "count"),
        "testers.read_once_test.total_s": (tot("testers.read_once_test"), "s"),
        "testers.property_test.total_s": (tot("testers.property_test"), "s"),
        "testers.queries": (rc.get("queries", 0), "count"),
        "testers.cache_hit_ratio": (1.0 - ratio(run.rot_queries, run.grid_points)
                                    if run.grid_points else 0.0, "ratio"),
        "testers.readmany_reject_ratio": (ratio(rc.get("readmany_rejects", 0),
                                                rc.get("readmany_calls", 0)), "ratio"),
        "hardcases.q_n.total_s": (tot("hardcases.q_n"), "s"),
        "trace.throughput_ratio": (sum(typical(plain.costs())) / sum(typical(run.costs())),
                                   "ratio"),
    })
    return m


def self_time_table(tracer, setup, run: Run) -> dict:
    """Every traced name: calls, self and total seconds per pass, share of self time."""
    calls, self_s, total_s, _ = tracer.snapshot()
    s_calls, s_self, s_total, _ = setup
    per_pass = lambda table, base, key: (table[key] - base.get(key, 0)) / run.passes
    busy = per_pass(total_s, s_total, "op")
    rows = {}
    for name in sorted(self_s, key=lambda k: -(self_s[k] - s_self.get(k, 0))):
        own = per_pass(self_s, s_self, name)
        rows[name] = {"calls": per_pass(calls, s_calls, name), "self_s": round(own, 6),
                      "total_s": round(per_pass(total_s, s_total, name), 6),
                      "self_share": round(own / busy, 4) if busy else 0.0}
    return rows


def result_line(run: Run, metrics: dict) -> str:
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# One set-up, timed in a fresh interpreter: importing the program and
# generating the workload's inputs, up to the first timed operation.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def setup_once(name: str, seed: int) -> float:
    """One set-up, in its own child process."""
    child = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), name, str(seed)],
        capture_output=True, text=True, check=True, timeout=60)
    return float(child.stdout)


def measure(workloads, name, seed, seconds):
    """Untraced run: the timed loop, with the set-ups spread over the run.

    Import time moves with the host's state over tens of seconds, so one
    set-up runs between passes instead of all of them in one burst.
    """
    times = [setup_once(name, seed) for _ in range(SETUP_REPS_FIRST)]

    def one_more():
        if len(times) < SETUP_REPS:
            times.append(setup_once(name, seed))

    pool = workloads.build(name, seed)
    run = run_passes(workloads, pool, seconds, MIN_PASSES, MIN_OPS, between=one_more)
    while len(times) < SETUP_REPS:
        one_more()
    return pool, run, end_to_end(run, statistics.median(times))


def measure_traced(workloads, name, seed, seconds):
    """Traced run, then two untraced passes of the same pool for the overhead."""
    import tracer as tracing
    tracer = tracing.install(tracing.Tracer())
    try:
        tracer.op = "setup"
        pool = workloads.build(name, seed)
        tracer.fold()
        setup = tracer.snapshot()
        run = run_passes(workloads, pool, seconds, 1, 1, tracer)
    finally:
        tracer.uninstall()
    plain = run_passes(workloads, workloads.build(name, seed), 0.0, 2, 1)
    table = self_time_table(tracer, setup, run)
    return pool, run, per_layer(tracer, setup, run, plain), table, tracer.span_count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    if args.trace:
        pool, run, metrics, table, spans = measure_traced(
            workloads, args.workload, args.seed, args.seconds)
        info = describe(workloads, pool, run)
        info.update(spans=spans, self_time_per_pass=table)
    else:
        pool, run, metrics = measure(workloads, args.workload, args.seed, args.seconds)
        info = describe(workloads, pool, run)
    for line in run.failures[:20]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(result_line(run, metrics))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
