"""Hard instance families and locality experiments.

The polynomial family prod(x_i - 1) + prod(x_i) is never read-once for
n >= 3, yet over GF(2) every assignment makes all trivariate restrictions
read-once, so local tests cannot distinguish it.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

from .charax import is_locally_rop
from .errors import EXHAUSTIVE_LIMIT, InvalidParams, TooFewVariables, guard_scale
from .ff import FieldCtx
from .mpoly import MPoly

SWEEP_CSV_HEADER = "p,n,samples,good_fraction,stderr"


def q_n(n: int, ctx: FieldCtx) -> MPoly:
    """prod_{i<=n} (x_i - 1) + prod_{i<=n} x_i, fully expanded.

    Its 2^n terms must fit the desk-scale limit, so n <= 20; larger n raises
    ScaleGuardExceeded before any product is formed.
    """
    if n < 1:
        raise InvalidParams(f"need n >= 1, got {n}")
    guard_scale(2 ** n, "terms of q_n")
    shifted = MPoly.constant(ctx, n, 1)
    straight = MPoly.constant(ctx, n, 1)
    for i in range(n):
        shifted = shifted * MPoly.affine(ctx, n, i, 1, -1)
        straight = straight * MPoly.variable(ctx, n, i)
    return shifted + straight


@dataclass(frozen=True)
class SweepRow:
    p: int
    n: int
    samples: int
    good_fraction: float
    stderr: float

    def to_csv_row(self) -> str:
        return (f"{self.p},{self.n},{self.samples},"
                f"{self.good_fraction:.6f},{self.stderr:.6f}")


def range_sum(fn, head: tuple, total: int, threads: int) -> int:
    """Sum of fn(head + (lo, hi)) over contiguous ranges covering [0, total).

    One range per worker process; the worker count is clamped to
    min(threads, cpu count, total), and one worker runs in this process.
    threads below 1 raises InvalidParams.
    """
    if threads < 1:
        raise InvalidParams(f"need threads >= 1, got {threads}")
    workers = max(1, min(threads, os.cpu_count() or 1, total))
    base, extra = divmod(total, workers)
    jobs = []
    lo = 0
    for t in range(workers):
        hi = lo + base + (1 if t < extra else 0)
        jobs.append(head + (lo, hi))
        lo = hi
    if workers == 1:
        return fn(jobs[0])
    # imported here so that importing the package does not load the
    # process-pool machinery, which most callers never use; spawned workers
    # do not inherit the state of this process, threads included
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return sum(pool.map(fn, jobs))


def sweep_cases(p: int, width: int, seed, lo: int, hi: int):
    """The cases k in [lo, hi) of a sweep over vectors of width residues
    mod p, as tuples in order of k.

    With seed None (an exhaustive sweep), case k is k's base-p digits;
    otherwise it is drawn from its own stream, seeded by (seed, k).  Either
    way a case depends only on (seed, k), so a sweep's result is the same
    however its range is cut among workers.
    """
    for k in range(lo, hi):
        if seed is None:
            yield tuple(k // p ** t % p for t in range(width))
        else:
            rng = random.Random(f"{seed}/{k}")
            yield tuple(rng.randrange(p) for _ in range(width))


def _local_rop_count(job) -> int:
    """How many of the assignments k in [lo, hi) (sweep_cases) are locally
    read-once."""
    P, seed, lo, hi = job
    return sum(1 for a in sweep_cases(P.ctx.p, P.arity, seed, lo, hi)
               if is_locally_rop(P, a)[0])


def local_rop_fraction(P: MPoly, samples: int, seed,
                       threads: int = 1) -> SweepRow:
    """Fraction of assignments at which every trivariate restriction is
    read-once; exhaustive when the whole domain fits the desk-scale limit,
    Monte-Carlo with a binomial standard error otherwise.

    Each assignment depends only on (seed, its index), so the result is the
    same for every worker count `threads`.  A random.Random seed is
    replaced by one integer drawn from it.  A sweep of more triple
    restrictions (assignments times C(n, 3)) than the desk-scale limit raises
    ScaleGuardExceeded before any worker starts.
    """
    if isinstance(seed, random.Random):
        seed = seed.getrandbits(64)
    n = P.arity
    if n < 4:
        raise TooFewVariables(f"locality sweeps need arity >= 4, got {n}")
    p = P.ctx.p
    exhaustive = p ** n <= EXHAUSTIVE_LIMIT
    if exhaustive:
        samples = p ** n
    elif samples < 1:
        raise InvalidParams(f"need at least one sample, got {samples}")
    guard_scale(samples * math.comb(n, 3), "triple restrictions in the sweep")
    good = range_sum(_local_rop_count, (P, None if exhaustive else seed), samples, threads)
    frac = good / samples
    if exhaustive:
        return SweepRow(p, n, samples, frac, 0.0)
    return SweepRow(p, n, samples, frac, math.sqrt(frac * (1.0 - frac) / samples))
