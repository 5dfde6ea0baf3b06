"""Black-box read-once testers over counting oracles.

Two algorithms:

* read_once_test: one random base point, then for every 3-subset I of the
  coordinates a (d+1)^3 interpolation grid along I; rejects on a
  non-multilinear or non-read-once trivariate restriction.  One-sided:
  read-once oracles always pass.
* property_test_once / property_test: three base points aligned per
  coordinate give 27-point grids; the wrapper repeats the once-tester
  enough times for the distance parameter.

tau_estimate measures the aligned-triple statistic: the fraction of random
axis triples whose univariate interpolant is not affine.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .decomp import trivariate_is_rop
from .errors import (
    ArityMismatch,
    DegreeTooSmall,
    FieldTooSmall,
    InvalidParams,
    TooFewVariables,
    guard_scale,
)
from .mpoly import interpolate_grid
from .rof import Oracle

YES = "YES"
NO = "NO"
NOT_MULTILINEAR = "NOT_MULTILINEAR"
NOT_ROP = "NOT_ROP"


@dataclass(frozen=True)
class TestReport:
    verdict: str
    failing_I: Optional[Tuple[int, ...]]
    failure_kind: Optional[str]
    queries: int
    seed: Optional[int]
    repeats: int

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "failing_I": [t + 1 for t in self.failing_I] if self.failing_I else None,
            "failure_kind": self.failure_kind,
            "queries": self.queries,
            "seed": self.seed,
            "repeats": self.repeats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


@dataclass(frozen=True)
class AlignedTriple:
    base: Tuple[int, ...]
    coordinate: int
    values: Tuple[int, int, int]


@dataclass(frozen=True)
class TauEstimate:
    fraction: float
    stderr: float
    samples: int


def _rng_and_seed(rng) -> Tuple[random.Random, Optional[int]]:
    if isinstance(rng, int):
        return random.Random(rng), rng
    return rng, None


def _require_coordinates(oracle: Oracle, n: int):
    if n != oracle.arity:
        raise ArityMismatch(f"n={n} but the oracle has arity {oracle.arity}")
    if n < 1:
        raise TooFewVariables(f"the testers need at least one coordinate, got n={n}")


def _subsets(n: int):
    """3-subsets in lex order; below 3 coordinates, one grid over all of them.

    The literal subset family is empty for n < 3, which would accept any
    oracle; testing the full coordinate set instead keeps the multilinearity
    check meaningful there.
    """
    if n >= 3:
        return itertools.combinations(range(n), 3)
    return [tuple(range(n))]


def _grid_values(oracle: Oracle, grid, base, I, store) -> list:
    """Oracle values on the grid's rows, through the store when there is one.

    Another subset's grid shares a point with this one only if one of the
    point's I-coordinates equals the base point's, so only such points are
    stored and looked up; every other point is queried exactly once.
    """
    if store is None:
        return oracle.query_many(grid)
    rows = np.flatnonzero((grid[:, I] == [base[i] for i in I]).any(axis=1))
    keys = list(map(tuple, grid[rows].tolist()))
    hit = np.zeros(len(grid), dtype=bool)
    hit[rows] = [key in store for key in keys]
    vals = np.empty(len(grid), dtype=object)
    vals[~hit] = oracle.query_many(grid[~hit])
    vals[hit] = [store[key] for key, h in zip(keys, hit[rows]) if h]
    store.update(zip(keys, vals[rows].tolist()))
    return vals.tolist()


def _grid_check(oracle: Oracle, base, I, axes, store):
    """Query the grid over I, interpolate, and classify the restriction.

    The grid is the base point with the I columns running over the axes, in
    itertools.product(*axes) order.
    """
    grid = np.empty([len(axis) for axis in axes] + [len(base)], dtype=np.int64)
    grid[:] = base
    for slot, column in zip(I, np.meshgrid(*axes, indexing="ij", sparse=True)):
        grid[..., slot] = column
    grid = grid.reshape(-1, len(base))
    Q = interpolate_grid(oracle.ctx, axes, _grid_values(oracle, grid, base, I, store))
    if not Q.is_multilinear():
        return NOT_MULTILINEAR
    if not trivariate_is_rop(Q):
        return NOT_ROP
    return None


def _scan_subsets(oracle: Oracle, n: int, base, axes_of, store, seed) -> TestReport:
    """Grid-check every subset I on axes_of(I); NO at the first failing one."""
    start = oracle.query_count
    for I in _subsets(n):
        kind = _grid_check(oracle, base, I, axes_of(I), store)
        if kind is not None:
            return TestReport(NO, I, kind, oracle.query_count - start, seed, 1)
    return TestReport(YES, None, None, oracle.query_count - start, seed, 1)


def read_once_test(oracle: Oracle, n: int, d: int, epsilon: float = 0.25,
                   rng=0, cache: bool = True) -> TestReport:
    """One-sided black-box read-once test for degree-at-most-d oracles.

    Soundness degrades with the field size; callers wanting the 1-epsilon
    rejection guarantee need p >= max(1.5 n^4, d) / epsilon (see
    recommended_field_size).  Queries: C(n,3) * (d+1)^3 with caching off.
    """
    _require_coordinates(oracle, n)
    guard_scale(math.comb(n, 3), "3-subsets to scan")
    if d < 1:
        raise DegreeTooSmall(f"degree bound must be >= 1, got {d}")
    p = oracle.ctx.p
    if p < d + 1:
        raise FieldTooSmall(f"interpolation on {d + 1} nodes needs p >= {d + 1}")
    guard_scale((d + 1) ** min(n, 3), "grid points per subset")
    if not 0 < epsilon < 1:
        raise InvalidParams(f"epsilon must be in (0, 1), got {epsilon}")
    rng, seed = _rng_and_seed(rng)
    base = [rng.randrange(p) for _ in range(n)]
    axis = list(range(d + 1))
    return _scan_subsets(oracle, n, base, lambda I: [axis] * len(I),
                         {} if cache else None, seed)


def recommended_field_size(n: int, d: int, epsilon: float) -> float:
    """Field-size threshold for the read_once_test soundness guarantee."""
    return max(1.5 * n**4, d) / epsilon


def _distinct_residues(p: int, rng) -> Tuple[int, int, int]:
    """Three pairwise distinct residues mod p, by rejection."""
    x = rng.randrange(p)
    y = rng.randrange(p)
    while y == x:
        y = rng.randrange(p)
    z = rng.randrange(p)
    while z == x or z == y:
        z = rng.randrange(p)
    return x, y, z


def property_test_once(oracle: Oracle, n: int, rng=0) -> TestReport:
    """One round of the 27-point property test.

    Each coordinate gets three distinct values; the first ones form the base
    point and the three of each coordinate in I form its axis.
    """
    _require_coordinates(oracle, n)
    guard_scale(math.comb(n, 3), "3-subsets to scan")
    p = oracle.ctx.p
    if p < 3:
        raise FieldTooSmall("aligned triples need p >= 3")
    rng, seed = _rng_and_seed(rng)
    triples = [_distinct_residues(p, rng) for _ in range(n)]
    base = [t[0] for t in triples]
    return _scan_subsets(oracle, n, base, lambda I: [triples[i] for i in I], None, seed)


def property_test(oracle: Oracle, n: int, delta: float, rng=0) -> TestReport:
    """Repeat property_test_once ceil(3 / (delta + n^-4)) times.

    NO as soon as any round rejects; the repeat count R is recorded in the
    report either way.  The R * C(n,3) grids of a run must stay within the
    scale guard, checked before the first query.
    """
    _require_coordinates(oracle, n)
    if not 0 < delta <= 1:
        raise InvalidParams(f"delta must be in (0, 1], got {delta}")
    R = math.ceil(3 / (delta + float(n) ** -4))
    guard_scale(R * math.comb(n, 3), "3-subset grids over all rounds")
    rng, seed = _rng_and_seed(rng)
    start = oracle.query_count
    for _ in range(R):
        rep = property_test_once(oracle, n, rng)
        if rep.verdict == NO:
            return TestReport(NO, rep.failing_I, rep.failure_kind,
                              oracle.query_count - start, seed, R)
    return TestReport(YES, None, None, oracle.query_count - start, seed, R)


def draw_aligned_triple(ctx, n: int, rng, coordinate: Optional[int] = None) -> AlignedTriple:
    """Random base point, random (or forced) coordinate, 3 distinct axis values."""
    p = ctx.p
    if p < 3:
        raise FieldTooSmall("aligned triples need p >= 3")
    if n < 1:
        raise TooFewVariables(f"aligned triples need at least one coordinate, got n={n}")
    base = tuple(rng.randrange(p) for _ in range(n))
    i = rng.randrange(n) if coordinate is None else coordinate
    if not 0 <= i < n:
        raise ArityMismatch(f"coordinate {i} outside arity {n}")
    return AlignedTriple(base, i, _distinct_residues(p, rng))


def tau_estimate(oracle: Oracle, n: int, samples: int, rng=0,
                 coordinate: Optional[int] = None) -> TauEstimate:
    """Fraction of random aligned triples whose axis interpolant is not affine.

    The quadratic Newton coefficient (the second divided difference) of the
    three queried values is nonzero exactly when the interpolant has degree
    2, so the per-sample test is exact.
    """
    _require_coordinates(oracle, n)
    if samples < 1:
        raise InvalidParams(f"need at least one sample, got {samples}")
    ctx = oracle.ctx
    p = ctx.p
    if p < 3:
        raise FieldTooSmall("aligned triples need p >= 3")
    rng, _ = _rng_and_seed(rng)
    hits = 0
    for _ in range(samples):
        trip = draw_aligned_triple(ctx, n, rng, coordinate)
        x0, x1, x2 = trip.values
        pts = []
        for v in trip.values:
            pt = list(trip.base)
            pt[trip.coordinate] = v
            pts.append(tuple(pt))
        f0, f1, f2 = oracle.query_many(pts)
        d01 = (f1 - f0) * ctx.inv_raw(x1 - x0) % p
        d12 = (f2 - f1) * ctx.inv_raw(x2 - x1) % p
        if (d12 - d01) * ctx.inv_raw(x2 - x0) % p:
            hits += 1
    frac = hits / samples
    stderr = math.sqrt(frac * (1.0 - frac) / samples)
    return TauEstimate(frac, stderr, samples)
