"""Black-box read-once testers over counting oracles.

Two algorithms:

* read_once_test: one random base point, then for every 3-subset I of the
  coordinates a (d+1)^3 interpolation grid along I; rejects on a
  non-multilinear or non-read-once trivariate restriction.  One-sided:
  read-once oracles always pass.
* property_test_once / property_test: three base points aligned per
  coordinate give 27-point grids; the wrapper repeats the round enough
  times for the distance parameter.

Both scan their grids in lexicographic subset order (round by round for
property_test) and query and decide them in doubling batches of 1, 2, 4,
... grids, up to _BATCH_POINTS points: one oracle call, one stacked
interpolation and one vectorized closed-form decision per batch.  A batch
stays in int64 arrays from grid to verdict: its points are built in the
column layout the oracle's plan reads, Oracle._query_array answers them
as an int64 array of residues (no list in between, no second % p), and
the interpolation reads that array.  YES reports count the same queries as
a one-grid-at-a-time scan.  A NO report counts every point of the batches
it queried, fewer than about twice the points up to the failing grid, plus
one batch.

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

from .decomp import _trivariate_rop
from .errors import (
    ArityMismatch,
    DegreeTooSmall,
    FieldTooSmall,
    InvalidParams,
    TooFewVariables,
    guard_scale,
)
from .mpoly import _NUMPY_P_LIMIT, _basis_matrices, _interpolate_stack
from .rof import Oracle

YES = "YES"
NO = "NO"
NOT_MULTILINEAR = "NOT_MULTILINEAR"
NOT_ROP = "NOT_ROP"

# Points per batch of grids.  It bounds a batch's memory; a batch holds at
# least one grid, so a larger grid (125^3 points at degree 124) runs alone.
_BATCH_POINTS = 4096


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


def _grid_points(batch, n: int):
    """The batch's grids as one (N, n) int64 array of points, and which of
    them another grid of the scan can also hold.

    Each grid is its base point with the I columns running over its axes, in
    itertools.product(*axes) order, and the grids follow each other.  The
    array is the transpose of an (n, N) one, so each slot's column is
    contiguous, as the oracle's plan reads it.  shared has the batch's grid
    shape (k, L_1, ..., L_m).  Two grids share a point only if it agrees
    with the common base point on their symmetric difference, so one of the
    point's I-coordinates equals the base point's.
    """
    k = len(batch)
    dims = tuple(len(axis) for axis in batch[0][2])
    bases = np.array([base for base, _, _ in batch], dtype=np.int64)
    pts = np.empty((n, k) + dims, dtype=np.int64)
    pts[...] = bases.T.reshape((n, k) + (1,) * len(dims))
    shared = np.zeros((k,) + dims, dtype=bool)
    rows = np.arange(k)
    for t, L in enumerate(dims):
        slots = np.array([I[t] for _, I, _ in batch])
        column = np.array([axes[t] for _, _, axes in batch], dtype=np.int64)
        shape = [k] + [1] * len(dims)
        shape[t + 1] = L
        column = column.reshape(shape)
        pts[slots, rows] = column
        shared |= column == bases[rows, slots].reshape([k] + [1] * len(dims))
    return pts.reshape(n, -1).T, shared


def _stored_values(oracle: Oracle, points, shared, store) -> np.ndarray:
    """Oracle values at the rows of points, through the store on shared rows.

    Only shared rows are stored and looked up: each distinct one is queried
    once per scan, however many grids or batches hold it, and every other
    row is queried once.  Unshared rows go to the oracle as they are, and
    only shared ones are made unique and turned into keys.  One oracle call
    answers the batch.
    """
    if not shared.any():
        return oracle._query_array(points)
    own = np.flatnonzero(~shared)
    rows = np.flatnonzero(shared)
    uniq, first, inverse = np.unique(points[rows], axis=0, return_index=True,
                                     return_inverse=True)
    keys = list(map(tuple, uniq.tolist()))
    new = np.array([key not in store for key in keys], dtype=bool)
    answers = oracle._query_array(points[np.concatenate([own, rows[first[new]]])])
    values = np.empty(len(points), dtype=np.int64)
    values[own] = answers[:len(own)]
    known = np.empty(len(uniq), dtype=np.int64)
    known[new] = answers[len(own):]
    known[~new] = [store[key] for key in itertools.compress(keys, ~new)]
    store.update(zip(itertools.compress(keys, new), answers[len(own):].tolist()))
    values[rows] = known[inverse.reshape(-1)]
    return values


def _check_batch(oracle: Oracle, batch, store, basis=None):
    """Query the batch's grids, interpolate them and classify each restriction.

    Returns (I, kind) of the first failing grid in batch order, or None: a
    restriction fails when it is not multilinear, or when its 8 multilinear
    coefficients are not read-once.  The points and the oracle's answers
    stay int64 arrays.  basis, when given, is the Lagrange basis of an axis
    that every axis of every grid shares; otherwise the bases of the
    batch's distinct node tuples are built at once.
    """
    p, n = oracle.ctx.p, oracle.arity
    k = len(batch)
    points, shared = _grid_points(batch, n)
    dims = shared.shape[1:]
    if store is None:
        values = oracle._query_array(points)
    else:
        values = _stored_values(oracle, points, shared.reshape(-1), store)
    # free the points before the transform: a degree-124 grid holds 2 M rows
    del points
    if basis is None:
        distinct = {}
        which = [distinct.setdefault(tuple(nodes), len(distinct))
                 for _, _, axes in batch for nodes in axes]
        stack = _basis_matrices(p, list(distinct))[np.array(which).reshape(k, len(dims))]
        bases = [stack[:, t] for t in range(len(dims))]
    else:
        bases = [basis] * len(dims)
    C = _interpolate_stack(p, bases, values.reshape((k,) + dims))
    lin = C[(slice(None),) + (slice(0, 2),) * len(dims)].reshape(k, -1)
    failing = np.count_nonzero(C.reshape(k, -1), axis=1) > np.count_nonzero(lin, axis=1)
    nonml = failing.copy()
    # in fewer than 3 slots every multilinear polynomial is read-once
    if len(dims) == 3:
        if p >= _NUMPY_P_LIMIT:
            lin = lin.astype(object)
        # column e1*4 + e2*2 + e3 holds the coefficient of x^e, so slot t of
        # the grid is bit 4 >> t
        failing |= ~_trivariate_rop(lin.T, 4, 2, 1, p)
    if not failing.any():
        return None
    g = int(np.argmax(failing))
    return batch[g][1], NOT_MULTILINEAR if nonml[g] else NOT_ROP


def _scan(oracle: Oracle, grids, store, seed, repeats, basis=None) -> TestReport:
    """Query and decide grids in doubling batches; NO at the first failing one.

    grids yields (base, I, axes) in scan order, every grid of one shape.
    Batches hold 1, 2, 4, ... grids, up to _BATCH_POINTS points unless one
    grid alone is larger, so each oracle call and numpy step covers many
    small grids while a scan that fails early queries fewer than about twice
    the grids a one-at-a-time scan would.  store, when given, keeps the
    values of points that another grid can hold across batches.  basis,
    when given, is the Lagrange basis of the one axis all grids share.
    """
    start = oracle.query_count
    grids = iter(grids)
    size, limit = 1, None
    while True:
        batch = list(itertools.islice(grids, size))
        if not batch:
            return TestReport(YES, None, None, oracle.query_count - start, seed, repeats)
        if limit is None:
            limit = max(1, _BATCH_POINTS // math.prod(map(len, batch[0][2])))
        failure = _check_batch(oracle, batch, store, basis)
        if failure is not None:
            return TestReport(NO, *failure, oracle.query_count - start, seed, repeats)
        size = min(2 * size, limit)


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
    axis = tuple(range(d + 1))
    # every grid shares the axis 0..d, so the scan builds its basis once
    return _scan(oracle, ((base, I, [axis] * len(I)) for I in _subsets(n)),
                 {} if cache else None, seed, 1, _basis_matrices(p, [axis])[0])


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


def _round_grids(n: int, p: int, rng):
    """The grids of one property round, its triples drawn at the first grid.

    Each coordinate gets three distinct values; the first ones form the base
    point and the three of each coordinate in I form its axis.
    """
    triples = [_distinct_residues(p, rng) for _ in range(n)]
    base = [t[0] for t in triples]
    for I in _subsets(n):
        yield base, I, [triples[i] for i in I]


def property_test_once(oracle: Oracle, n: int, rng=0) -> TestReport:
    """One round of the 27-point property test."""
    _require_coordinates(oracle, n)
    guard_scale(math.comb(n, 3), "3-subsets to scan")
    p = oracle.ctx.p
    if p < 3:
        raise FieldTooSmall("aligned triples need p >= 3")
    rng, seed = _rng_and_seed(rng)
    return _scan(oracle, _round_grids(n, p, rng), None, seed, 1)


def property_test(oracle: Oracle, n: int, delta: float, rng=0) -> TestReport:
    """Repeat the property round ceil(3 / (delta + n^-4)) times.

    NO as soon as any round rejects; the repeat count R is recorded in the
    report either way.  The R * C(n,3) grids of a run must stay within the
    scale guard, checked before the first query.  Batches of grids run
    across rounds, and a round's triples are drawn when the scan reaches
    it, so on NO a caller's random.Random may have drawn later rounds'.
    """
    _require_coordinates(oracle, n)
    if not 0 < delta <= 1:
        raise InvalidParams(f"delta must be in (0, 1], got {delta}")
    R = math.ceil(3 / (delta + float(n) ** -4))
    guard_scale(R * math.comb(n, 3), "3-subset grids over all rounds")
    p = oracle.ctx.p
    if p < 3:
        raise FieldTooSmall("aligned triples need p >= 3")
    rng, seed = _rng_and_seed(rng)
    rounds = itertools.chain.from_iterable(_round_grids(n, p, rng) for _ in range(R))
    return _scan(oracle, rounds, None, seed, R)


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
