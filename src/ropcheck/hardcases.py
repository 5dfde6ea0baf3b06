"""Hard instance families and locality experiments.

The polynomial family prod(x_i - 1) + prod(x_i) is never read-once for
n >= 3, yet over GF(2) every assignment makes all trivariate restrictions
read-once, so local tests cannot distinguish it.  The Boolean pair
(AND of all) OR (AND of all negations), and its monotone variant, play the
same role for {AND, OR} formulas: read-many, but every single-variable
restriction is read-once.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Tuple

from .charax import is_locally_rop
from .errors import (EXHAUSTIVE_LIMIT, InvalidParams, TooFewVariables, TooManyVariables,
                     guard_scale)
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


def _local_rop_count(job) -> int:
    """How many of the assignments k in [lo, hi) are locally read-once.

    Exhaustive sweeps take assignment k to be k's base-p digits; sampled
    sweeps draw it from its own stream, seeded by (seed, k).
    """
    P, seed, exhaustive, lo, hi = job
    p, n = P.ctx.p, P.arity
    good = 0
    for k in range(lo, hi):
        if exhaustive:
            a = tuple(k // p ** t % p for t in range(n))
        else:
            rng = random.Random(f"{seed}/{k}")
            a = tuple(rng.randrange(p) for _ in range(n))
        if is_locally_rop(P, a)[0]:
            good += 1
    return good


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
    good = range_sum(_local_rop_count, (P, seed, exhaustive), samples, threads)
    frac = good / samples
    if exhaustive:
        return SweepRow(p, n, samples, frac, 0.0)
    return SweepRow(p, n, samples, frac, math.sqrt(frac * (1.0 - frac) / samples))


# ---- Boolean counterparts ----

@dataclass(frozen=True)
class BoolFn:
    """Truth table over n bits; index bit i carries the value of x_i."""
    n: int
    table: Tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != 1 << self.n:
            raise InvalidParams(
                f"table length {len(self.table)} != 2**{self.n}")
        if any(v not in (0, 1) for v in self.table):
            raise InvalidParams("table entries must be 0/1")

    def evaluate(self, bits) -> int:
        if len(bits) != self.n:
            raise InvalidParams(f"need {self.n} bits, got {len(bits)}")
        idx = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise InvalidParams(f"bit {i} is {b!r}, not 0/1")
            idx |= b << i
        return self.table[idx]

    def restrict(self, i: int, bit: int) -> "BoolFn":
        """Fix x_i := bit; remaining variables close ranks (slot i removed)."""
        if not 0 <= i < self.n:
            raise InvalidParams(f"variable {i} outside arity {self.n}")
        if bit not in (0, 1):
            raise InvalidParams(f"bit must be 0/1, got {bit!r}")
        m = self.n - 1
        low = (1 << i) - 1
        out = []
        for idx in range(1 << m):
            full = (idx & low) | (bit << i) | ((idx & ~low) << 1)
            out.append(self.table[full])
        return BoolFn(m, tuple(out))

    def depends_on(self, i: int) -> bool:
        step = 1 << i
        return any(self.table[idx] != self.table[idx | step]
                   for idx in range(1 << self.n) if not idx & step)

    def support(self) -> Tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.depends_on(i))


def boolean_f(n: int) -> BoolFn:
    """1 exactly on the all-ones and all-zeros inputs."""
    if n < 2:
        raise InvalidParams(f"need n >= 2, got {n}")
    full = (1 << n) - 1
    return BoolFn(n, tuple(1 if idx in (0, full) else 0 for idx in range(1 << n)))


def boolean_g(n: int) -> BoolFn:
    """(y AND (x_1 OR ... OR x_n)) OR (x_1 AND ... AND x_n); y is the last slot."""
    if n < 2:
        raise InvalidParams(f"need n >= 2, got {n}")
    full = (1 << n) - 1
    out = []
    for idx in range(1 << (n + 1)):
        xs = idx & full
        y = idx >> n & 1
        out.append(1 if (y and xs) or xs == full else 0)
    return BoolFn(n + 1, tuple(out))


def _project(table: Tuple[int, ...], m: int) -> Tuple[Tuple[int, ...], int]:
    """Drop dead variables; returns (table2, m2) over the live ones."""
    live = []
    for i in range(m):
        step = 1 << i
        if any(table[idx] != table[idx | step]
               for idx in range(1 << m) if not idx & step):
            live.append(i)
    m2 = len(live)
    out = []
    for idx2 in range(1 << m2):
        idx = 0
        for t, i in enumerate(live):
            if idx2 >> t & 1:
                idx |= 1 << i
        out.append(table[idx])
    return tuple(out), m2


def _split_tables(table, m, mask, op):
    """Candidate factors of table = g OP h across the bipartition (mask, rest).

    AND factors are recovered by OR-projection onto each side, OR factors by
    AND-projection; returns (g, h, reconstruction matches) with g on the
    mask side.
    """
    s_bits = [i for i in range(m) if mask >> i & 1]
    t_bits = [i for i in range(m) if not mask >> i & 1]

    def project(idx, bits):
        return sum(1 << t for t, i in enumerate(bits) if idx >> i & 1)

    pairs = [(project(idx, s_bits), project(idx, t_bits)) for idx in range(1 << m)]
    agg = max if op == "and" else min
    g = [None] * (1 << len(s_bits))
    h = [None] * (1 << len(t_bits))
    for (ia, ib), v in zip(pairs, table):
        g[ia] = v if g[ia] is None else agg(g[ia], v)
        h[ib] = v if h[ib] is None else agg(h[ib], v)
    for (ia, ib), v in zip(pairs, table):
        combined = (g[ia] & h[ib]) if op == "and" else (g[ia] | h[ib])
        if combined != v:
            return None
    return tuple(g), tuple(h)


def boolean_is_read_once(f: BoolFn) -> bool:
    """Is f a formula over {AND, OR} with distinct (possibly negated) leaves?

    Recursive bipartition search: constants and single live variables are
    read-once; otherwise f must factor as g AND h or g OR h across some
    bipartition of its live variables with both factors read-once.
    """
    if f.n > 10:
        raise TooManyVariables(f"truth-table search is limited to 10 variables")
    memo: dict = {}

    def rec(table: Tuple[int, ...], m: int) -> bool:
        table, m = _project(table, m)
        if m <= 1:
            return True
        key = table
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = False
        for mask in range(1, 1 << m, 2):       # var 0 stays on the g side
            if mask == (1 << m) - 1:
                continue
            for op in ("and", "or"):
                split = _split_tables(table, m, mask, op)
                if split is None:
                    continue
                g, h = split
                if rec(g, bin(mask).count("1")) and rec(h, m - bin(mask).count("1")):
                    out = True
                    break
            if out:
                break
        memo[key] = out
        return out

    return rec(f.table, f.n)
