"""Black-box read-once testers over counting oracles.

Two algorithms:

* read_once_test: one random base point, then for every 3-subset I of the
  coordinates a (d+1)^3 interpolation grid along I; rejects on a
  non-multilinear or non-read-once trivariate restriction.  One-sided:
  read-once oracles always pass.
* property_test_once / property_test: three base points aligned per
  coordinate give 27-point grids; the wrapper repeats the round enough
  times for the distance parameter.

A grid is decided from a difference table per axis, an integer matrix with
entries in [0, p) that needs no modular inverse, in place of the
Lagrange interpolant: the table is an invertible upper-triangular matrix
times the Lagrange basis, which changes neither whether the restriction is
multilinear nor whether it is read-once (see _check_batch).  read_once_test
shares the forward differences of the nodes 0..d (_forward_differences),
and each property round's tables are built from its node rows by a few
array operations when the round is drawn (_difference_tables).

A scan is held as arrays: rounds of a base point, per-slot node rows and
their tables (one round of nodes 0..d for read_once_test), and one
lexicographic 3-subset table, so grid q is round q // C(n,3) on subset
q % C(n,3).  Grids are queried and decided in doubling batches of 1, 2, 4,
... grids, up to _BATCH_POINTS points: a batch's points and tables are
gathered from those arrays by fancy indexing and stay int64 arrays through
one oracle call (Oracle._query_array), one stacked transform (float64 BLAS
matmuls with one final reduction mod p wherever that is exact, see
mpoly._interpolate_stack) and one vectorized closed-form decision.  YES
reports count the same queries as a one-grid-at-a-time scan.  A NO report
counts every point of the batches it queried, fewer than about twice the
points up to the failing grid, plus one batch.

tau_estimate measures the aligned-triple statistic: the fraction of random
axis triples whose univariate interpolant is not affine.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .decomp import _triples, _trivariate_rop
from .errors import (
    ArityMismatch,
    DegreeTooSmall,
    FieldTooSmall,
    InvalidParams,
    TooFewVariables,
    guard_scale,
)
from .mpoly import _NUMPY_P_LIMIT, _interpolate_stack, _table_dtype
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


def _grid_points(base, axes, I, marked: bool):
    """The batch's grids as one (N, n) int64 array of points and, when
    marked, which of them another grid of the scan can also hold (else None).

    Grid g is base[g] (k, n) with slot I[g, t] (I is (k, m)) running over
    axes[g, t] (axes is (k, m, L)), in itertools.product order, and the
    grids follow each other.  The array is the transpose of an (n, N) one,
    so each slot's column is contiguous, as the oracle's plan reads it.
    Two grids share a point only if it agrees with the common base point on
    their symmetric difference, so one of the point's I-coordinates equals
    the base point's.  So the mask is built, with the batch's grid shape
    (k, L, ..., L), only when some grid's axis holds its base point's
    coordinate; otherwise no point of the batch is shared and it is None.
    """
    (k, n), (m, L) = base.shape, axes.shape[1:]
    pts = np.empty((n, k) + (L,) * m, dtype=np.int64)
    pts[...] = base.T.reshape((n, k) + (1,) * m)
    rows = np.arange(k)
    on_base = (axes == base[rows[:, None], I][:, :, None]) if marked else None
    shared = np.zeros((k,) + (L,) * m, dtype=bool) if marked and on_base.any() else None
    for t in range(m):
        shape = [k] + [1] * m
        shape[t + 1] = L
        pts[I[:, t], rows] = axes[:, t].reshape(shape)
        if shared is not None:
            shared |= on_base[:, t].reshape(shape)
    return pts.reshape(n, -1).T, shared


def _stored_values(oracle: Oracle, points, shared, store) -> np.ndarray:
    """Oracle values at the rows of points, through the store on shared rows.

    Only shared rows are stored and looked up: each distinct one is queried
    once per scan, however many grids or batches hold it, and every other
    row is queried once.  Unshared rows go to the oracle as they are, and
    only shared ones are made unique and turned into keys.  One oracle call
    answers the batch.
    """
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


def _check_batch(oracle: Oracle, base, axes, I, tables, store):
    """Query the batch's grids, transform them and classify each restriction.

    The grids are base, axes and I as in _grid_points, and tables[t] is the
    difference table of axis t, one (L, L) matrix or a (k, L, L) stack with
    entries in [0, p), in _table_dtype(p, L).  Returns (I, kind) of the
    first failing grid in batch order, or None: a restriction fails when it
    is not multilinear, or when it is multilinear and not read-once.  The
    points and the oracle's answers stay int64 arrays.

    The tables decide as the grid's Lagrange interpolant would.  Each table
    is N*B, with B the Lagrange basis of the axis's nodes and N
    upper-triangular with a nonzero diagonal (k! for forward differences, a
    product of node gaps for 3 nodes), so the transformed grid T is the
    interpolant's coefficient tensor with N applied along each axis.
    Because N and its inverse are upper-triangular, T has a nonzero entry
    with some index >= 2 exactly when the interpolant has such a
    coefficient, that is, is not multilinear.  Where it is multilinear,
    N's leading 2x2 block is [[1, x0], [0, x1 - x0]] for the first two
    nodes x0, x1, which maps f0 + f1*x to f0 + f1*x0 + f1*(x1 - x0)*u, the
    same polynomial in u = (x - x0)/(x1 - x0).  So T[:2, :2, :2] holds the
    interpolant's coefficients after an invertible affine change of each
    coordinate, and since a read-once formula's leaves are alpha*x + beta,
    that is read-once exactly when the interpolant is.  For the nodes 0..d
    the block is the identity and the corner is the interpolant's own
    coefficients.
    """
    p, k = oracle.ctx.p, len(base)
    points, shared = _grid_points(base, axes, I, store is not None)
    dims = (axes.shape[2],) * I.shape[1]
    if shared is None:
        values = oracle._query_array(points)
    else:
        values = _stored_values(oracle, points, shared.reshape(-1), store)
    # free the points before the transform: a degree-124 grid holds 2 M rows
    del points
    C = _interpolate_stack(p, tables, values.reshape((k,) + dims))
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
    return tuple(I[g].tolist()), NOT_MULTILINEAR if nonml[g] else NOT_ROP


def _scan(oracle: Oracle, n: int, draw, repeats: int, store, seed, table=None) -> TestReport:
    """Query and decide a scan's grids in doubling batches; NO at the first
    failing one.

    The scan runs `repeats` rounds, each a base point (n,) and per-slot node
    rows (n, L); draw(k) returns the next k rounds as (k, n) and (k, n, L)
    arrays when the scan reaches their first grids.  Grid q is round q // G
    on row q % G of _triples(n), the G = C(n,3) slot triples; below 3 slots
    a round is one grid over all of them, since the empty triple family
    would accept any oracle.  Batches hold 1, 2, 4, ... grids, up to
    _BATCH_POINTS points unless one grid alone is larger, so each oracle
    call and numpy step covers many small grids while a scan that fails
    early queries fewer than about twice the grids a one-at-a-time scan
    would.  store, when given, keeps the values of points that another grid
    can hold across batches.  table, when given, is the difference table of
    the one node row all slots share; otherwise each round's (n, 3, 3)
    tables are built once, when it is drawn (_difference_tables).
    """
    subsets = _triples(n) if n >= 3 else np.arange(n).reshape(1, n)
    G, m = subsets.shape
    start, q, size = oracle.query_count, 0, 1
    # base points, node rows and tables of the drawn rounds from round `first` on
    held, first = None, 0
    while q < repeats * G:
        r, s = np.divmod(np.arange(q, min(q + size, repeats * G)), G)
        more = int(r[-1]) + 1 - first - (0 if held is None else len(held[0]))
        if more > 0:
            new = draw(more)
            if table is None:
                new += (_difference_tables(oracle.ctx.p, new[1]),)
            # a later batch reaches no round before this batch's first
            held = new if held is None else [np.concatenate([a[r[0] - first:], b])
                                             for a, b in zip(held, new)]
            first = int(r[0])
        r, I = r - first, subsets[s]
        if table is None:
            stack = held[2][r[:, None], I]
            tables = [stack[:, t] for t in range(m)]
        else:
            tables = [table] * m
        failure = _check_batch(oracle, held[0][r], held[1][r[:, None], I], I, tables, store)
        if failure is not None:
            return TestReport(NO, *failure, oracle.query_count - start, seed, repeats)
        q += len(r)
        size = min(2 * size, max(1, _BATCH_POINTS // held[1].shape[2] ** m))
    return TestReport(YES, None, None, oracle.query_count - start, seed, repeats)


def _difference_tables(p: int, nodes) -> np.ndarray:
    """The difference tables of 3-node rows, as a (..., 3, 3) array.

    nodes is a (..., 3) int64 array of residues, three distinct ones in each
    row (x0, x1, x2), whose table has the rows (1, 0, 0), (-1, 1, 0) and
    (x2 - x1, x0 - x2, x1 - x0), mod p.  So samples f at the nodes go to
    f(x0), f(x1) - f(x0) and (x1 - x0)(x2 - x1)(x2 - x0) times their second
    divided difference, which vanishes exactly on affine samples.  The
    tables have _table_dtype's dtype.
    """
    dtype = _table_dtype(p, 3)
    table = np.empty(nodes.shape + (3,), dtype=dtype)
    table[..., :2, :] = np.array([[1, 0, 0], [p - 1, 1, 0]], dtype=dtype)
    table[..., 2, :] = (nodes[..., [2, 0, 1]] - nodes[..., [1, 2, 0]]) % p
    return table


@functools.lru_cache(maxsize=64)
def _forward_differences(p: int, d: int) -> np.ndarray:
    """The forward-difference table of the nodes 0..d mod p, whose entry
    (k, j) is (-1)**(k - j) * C(k, j): row k takes samples at 0..d to
    their k-th forward difference at 0.  Built once per (p, d), in
    _table_dtype's dtype, and read-only, since every call shares it."""
    # (-1)**(k + j), an int where j > k, has the sign of (-1)**(k - j)
    rows = [[(-1) ** (k + j) * math.comb(k, j) % p for j in range(d + 1)]
            for k in range(d + 1)]
    table = np.array(rows, dtype=object).astype(_table_dtype(p, d + 1))
    table.flags.writeable = False
    return table


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
    base = np.array([[rng.randrange(p) for _ in range(n)]], dtype=np.int64)
    axis = np.arange(d + 1)
    # Grids on subsets I != I' share only points that hold the base point's
    # coordinates off I and off I'.  On a slot of I - I', such a point holds
    # both its base coordinate and an axis value, so that coordinate lies
    # on the axis 0..d, and so does one on a slot of I' - I: with fewer than
    # two base coordinates on the axis no point is shared, and the store
    # would only cost time
    store = {} if cache and np.count_nonzero(base <= d) >= 2 else None
    # every slot shares the nodes 0..d, so the scan reads one table
    return _scan(oracle, n, lambda k: (base, np.tile(axis, (1, n, 1))), 1,
                 store, seed, _forward_differences(p, d))


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


def _property_rounds(n: int, p: int, rng):
    """draw for _scan: k property rounds, each coordinate's three distinct
    values drawn in turn; the first ones form the base point."""
    def draw(k):
        nodes = np.array([_distinct_residues(p, rng) for _ in range(k * n)],
                         dtype=np.int64).reshape(k, n, 3)
        return nodes[:, :, 0], nodes
    return draw


def property_test_once(oracle: Oracle, n: int, rng=0) -> TestReport:
    """One round of the 27-point property test."""
    _require_coordinates(oracle, n)
    guard_scale(math.comb(n, 3), "3-subsets to scan")
    p = oracle.ctx.p
    if p < 3:
        raise FieldTooSmall("aligned triples need p >= 3")
    rng, seed = _rng_and_seed(rng)
    return _scan(oracle, n, _property_rounds(n, p, rng), 1, None, seed)


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
    return _scan(oracle, n, _property_rounds(n, p, rng), R, None, seed)


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


# samples tau_estimate draws and answers in one oracle call
_TAU_CHUNK = 1 << 12


def tau_estimate(oracle: Oracle, n: int, samples: int, rng=0,
                 coordinate: Optional[int] = None) -> TauEstimate:
    """Fraction of random aligned triples whose axis interpolant is not affine.

    The third row of the nodes' difference table (_difference_tables),
    (x2 - x1)*f0 + (x0 - x2)*f1 + (x1 - x0)*f2, is the second divided
    difference of the three queried values times a nonzero factor, so it
    is nonzero exactly when the interpolant has degree 2: the per-sample
    test is exact and needs no inverse.  Samples are drawn and answered in
    chunks of _TAU_CHUNK, one oracle call and one array step each, so
    memory stays bounded whatever the sample count.
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
    for lo in range(0, samples, _TAU_CHUNK):
        size = min(_TAU_CHUNK, samples - lo)
        # each sample's base point, coordinate and three values, drawn in
        # turn
        draws = np.empty((size, n + 4), dtype=np.int64)
        for row in draws:
            trip = draw_aligned_triple(ctx, n, rng, coordinate)
            row[:] = trip.base + (trip.coordinate,) + trip.values
        # the chunk's points as the (n, 3 * size) columns the oracle's plan
        # reads, answered in one oracle call
        values, pts = draws[:, n + 1:], np.repeat(draws[:, :n].T, 3, axis=1)
        pts[np.repeat(draws[:, n], 3), np.arange(3 * size)] = values.ravel()
        # each sample's second difference, up to a nonzero factor
        second = _difference_tables(p, values)[:, 2]
        answers = oracle._query_array(pts.T).reshape(size, 3).astype(second.dtype)
        hits += int(np.count_nonzero((second * answers).sum(axis=1) % p))
    frac = hits / samples
    stderr = math.sqrt(frac * (1.0 - frac) / samples)
    return TauEstimate(frac, stderr, samples)
