"""Black-box testers: one-sidedness, rejection, query accounting, determinism."""

import hashlib
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from ropcheck import errors, testers
from ropcheck.decomp import trivariate_is_rop
from ropcheck.errors import (
    ArityMismatch,
    DegreeTooSmall,
    FieldTooSmall,
    InvalidParams,
    ScaleGuardExceeded,
    TooFewVariables,
)
from ropcheck.ff import FieldCtx
from ropcheck.hardcases import q_n
from ropcheck.mpoly import (
    MPoly,
    _interpolate_stack,
    interpolate_grid,
    parse_terms,
    random_multilinear,
)
from ropcheck.reference import brute_force_is_rop
from ropcheck.rof import Oracle, as_oracle, corrupt_oracle, random_rof
from ropcheck.testers import (
    NO,
    NOT_MULTILINEAR,
    NOT_ROP,
    YES,
    _difference_tables,
    _forward_differences,
    draw_aligned_triple,
    property_test,
    property_test_once,
    read_once_test,
    recommended_field_size,
    tau_estimate,
)

GF1009 = FieldCtx(1009)
E2 = parse_terms(GF1009, 3, "x1*x2 + x2*x3 + x1*x3")
NULLARY = as_oracle(parse_terms(GF1009, 0, "7"))


class Queried(Exception):
    pass


def refuse(pts):
    raise Queried


def test_one_sided_on_read_once_formulas():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(3, 7)
        F = random_rof(GF1009, n, rng)
        rep = read_once_test(as_oracle(F), n, n, 0.25, rng.randrange(1 << 30))
        assert rep.verdict == YES
        assert rep.failing_I is None and rep.failure_kind is None


def test_small_arity_oracles_accepted():
    P = parse_terms(GF1009, 2, "x1*x2 + 7")
    assert read_once_test(as_oracle(P), 2, 2, 0.25, 0).verdict == YES
    C = parse_terms(GF1009, 1, "5*x1")
    assert read_once_test(as_oracle(C), 1, 1, 0.25, 0).verdict == YES


def test_rejects_non_multilinear_every_seed():
    P = parse_terms(GF1009, 3, "x1^2")
    for seed in range(200):
        rep = read_once_test(as_oracle(P), 3, 2, 0.25, seed)
        assert rep.verdict == NO
        assert rep.failure_kind == NOT_MULTILINEAR
        assert rep.failing_I == (0, 1, 2)


def test_rejects_non_rop_trivariate():
    rep = read_once_test(as_oracle(E2), 3, 3, 0.25, 0)
    assert rep.verdict == NO
    assert rep.failure_kind == NOT_ROP
    assert rep.failing_I == (0, 1, 2)


def test_rejection_certifies_read_many():
    # For a multilinear oracle the interpolated restriction is exact, so NO
    # is a proof; YES on a read-once polynomial is the one-sided guarantee.
    rng = random.Random(31)
    for _ in range(30):
        n = 4
        if rng.random() < 0.5:
            P = random_rof(GF1009, n, rng).expand()
        else:
            P = random_multilinear(GF1009, n, rng)
        rep = read_once_test(as_oracle(P), n, n, 0.25, rng.randrange(1 << 30))
        if brute_force_is_rop(P):
            assert rep.verdict == YES
        elif rep.verdict == NO:
            assert rep.failure_kind in (NOT_MULTILINEAR, NOT_ROP)
            assert not brute_force_is_rop(P)


def _pascal_rows(L):
    """Rows 0..L-1 of Pascal's triangle, each padded with zeros to length L."""
    rows = [[1] + [0] * (L - 1)]
    for _ in range(L - 1):
        rows.append([1] + [a + b for a, b in zip(rows[-1], rows[-1][1:])])
    return rows


def test_forward_differences_are_built_once_and_read_only():
    # read_once_test's table of the nodes 0..d depends only on (p, d)
    p = 1009
    table = _forward_differences(p, 8)
    assert _forward_differences(p, 8) is table
    assert table.tolist() == [[(-1) ** (k - j) * c % p for j, c in enumerate(row)]
                              for k, row in enumerate(_pascal_rows(9))]
    # row k of the table takes samples at 0..8 to their k-th difference at 0
    rng = random.Random(8)
    samples = [rng.randrange(p) for _ in range(9)]
    differences, row = [], samples
    while row:
        differences.append(row[0])
        row = [(b - a) % p for a, b in zip(row, row[1:])]
    assert [int(v) for v in table.astype(np.int64) @ samples % p] == differences
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0
    assert _forward_differences(p, 7) is not table


def test_query_count_exact_without_cache():
    F = random_rof(GF1009, 5, 4)
    rep = read_once_test(as_oracle(F), 5, 3, 0.25, 1, cache=False)
    assert rep.verdict == YES
    assert rep.queries == math.comb(5, 3) * 4**3
    cached = read_once_test(as_oracle(F), 5, 3, 0.25, 1, cache=True)
    assert cached.queries <= rep.queries


def _grid_union(n, d, base):
    """Every point on some subset's grid, as Python tuples."""
    union = set()
    for I in itertools.combinations(range(n), 3):
        for combo in itertools.product(range(d + 1), repeat=3):
            pt = list(base)
            for slot, v in zip(I, combo):
                pt[slot] = v
            union.add(tuple(pt))
    return union


def _assert_cache_queries_the_grid_union_once():
    d = 4
    hits = 0
    for p in (7, 11, 13):
        ctx = FieldCtx(p)
        for n in range(3, 7):
            for seed in range(3):
                F = random_rof(ctx, n, random.Random(p * n + seed))
                rep = read_once_test(as_oracle(F), n, d, 0.25, seed)
                assert rep.verdict == YES
                rng = random.Random(seed)
                union = _grid_union(n, d, [rng.randrange(p) for _ in range(n)])
                assert rep.queries == len(union)
                hits += rep.queries < math.comb(n, 3) * (d + 1) ** 3
    assert hits > 0


def test_cache_queries_each_point_of_the_grid_union_once():
    # 125-point grids: batches of 1, 2, 4, 8 and 5 grids at n = 6, so the
    # store carries shared points across batches and np.unique within them
    _assert_cache_queries_the_grid_union_once()


def test_cache_queries_the_grid_union_once_in_one_grid_batches(monkeypatch):
    monkeypatch.setattr(testers, "_BATCH_POINTS", 1)
    _assert_cache_queries_the_grid_union_once()


def _batch_args(p, base, axis, subsets):
    """_check_batch's arrays for grids on base over the axis 0..d in every
    slot of each subset, with its one forward-difference table over GF(p)."""
    I = np.array(subsets).reshape(-1, 3)
    k = len(I)
    return (np.tile(base, (k, 1)), np.tile(axis, (k, 3, 1)), I,
            [_forward_differences(p, len(axis) - 1)] * 3)


def test_cache_stores_only_points_another_grid_can_hold():
    p, n, d = 7, 6, 4
    orc = as_oracle(random_rof(FieldCtx(p), n, 8))
    base = [3, 0, 5, 1, 6, 2]
    axis = list(range(d + 1))
    store = {}
    for I in itertools.combinations(range(n), 3):
        before = set(store)
        assert testers._check_batch(orc, *_batch_args(p, base, axis, [I]), store) is None
        new = set(store) - before
        assert all(any(pt[i] == base[i] for i in I) for pt in new)
    assert store
    assert orc.query_count == len(_grid_union(n, d, base))
    # one batch of every subset stores the same points and values, and
    # queries each of them once
    batched = {}
    orc = as_oracle(random_rof(FieldCtx(p), n, 8))
    grids = _batch_args(p, base, axis, list(itertools.combinations(range(n), 3)))
    assert testers._check_batch(orc, *grids, batched) is None
    assert batched == store
    assert orc.query_count == len(_grid_union(n, d, base))


def _base_point(p, n, seed):
    """read_once_test's base point at a seed."""
    rng = random.Random(seed)
    return [rng.randrange(p) for _ in range(n)]


def test_no_store_with_fewer_than_two_base_coordinates_on_the_axis(monkeypatch):
    # two grids share a point only where at least two base coordinates lie
    # on the axis 0..d, so with one the scan runs without the store and
    # queries every point of every grid; with two, the store saves queries
    p, n, d = 101, 8, 8
    F = random_rof(FieldCtx(p), n, 5)
    calls = []
    stored_values = testers._stored_values
    monkeypatch.setattr(testers, "_stored_values",
                        lambda *a: calls.append(1) or stored_values(*a))
    for on_axis in (1, 2):
        seed = next(s for s in itertools.count()
                    if sum(v <= d for v in _base_point(p, n, s)) == on_axis)
        calls.clear()
        rep = read_once_test(as_oracle(F), n, d, 0.25, seed)
        assert rep.verdict == YES
        if on_axis == 1:
            assert not calls
            assert rep.queries == math.comb(n, 3) * (d + 1) ** 3
        else:
            assert calls
            assert rep.queries == len(_grid_union(n, d, _base_point(p, n, seed)))
            assert rep.queries < math.comb(n, 3) * (d + 1) ** 3


def _sequential_scan(oracle, grids, store):
    """The one-grid-at-a-time scan: (failing I, kind) or None, and queries.

    Each grid is queried on its own, interpolated with interpolate_grid and
    decided with trivariate_is_rop; store, when given, caches every point.
    """
    start = oracle.query_count
    for base, I, axes in grids:
        pts = []
        for combo in itertools.product(*axes):
            pt = list(base)
            for slot, v in zip(I, combo):
                pt[slot] = v
            pts.append(tuple(pt))
        if store is None:
            vals = oracle.query_many(pts)
        else:
            fresh = [pt for pt in dict.fromkeys(pts) if pt not in store]
            store.update(zip(fresh, oracle.query_many(fresh)))
            vals = [store[pt] for pt in pts]
        Q = interpolate_grid(oracle.ctx, axes, vals)
        if not Q.is_multilinear():
            return (I, NOT_MULTILINEAR), oracle.query_count - start
        if not trivariate_is_rop(Q):
            return (I, NOT_ROP), oracle.query_count - start
    return None, oracle.query_count - start


def _lex_subsets(n):
    return list(itertools.combinations(range(n), 3)) if n >= 3 else [tuple(range(n))]


def _sequential_read_once_test(oracle, n, d, seed, cache):
    rng = random.Random(seed)
    base = [rng.randrange(oracle.ctx.p) for _ in range(n)]
    axis = list(range(d + 1))
    grids = [(base, I, [axis] * len(I)) for I in _lex_subsets(n)]
    return _sequential_scan(oracle, grids, {} if cache else None)


def _sequential_property_test(oracle, n, rounds, rng):
    p = oracle.ctx.p
    start = oracle.query_count
    for _ in range(rounds):
        triples = [testers._distinct_residues(p, rng) for _ in range(n)]
        base = [t[0] for t in triples]
        grids = [(base, I, [triples[i] for i in I]) for I in _lex_subsets(n)]
        failure, _ = _sequential_scan(oracle, grids, None)
        if failure is not None:
            return failure, oracle.query_count - start
    return None, oracle.query_count - start


def _comparison_oracles(ctx, n, rng):
    """Formula, multilinear, q_n, non-multilinear and corrupted oracles."""
    F = random_rof(ctx, n, rng)
    square = random_rof(ctx, n, rng).expand() + MPoly(ctx, n, {((rng.randrange(n), 2),): 1})
    return [as_oracle(F), as_oracle(random_multilinear(ctx, n, rng)), as_oracle(q_n(n, ctx)),
            as_oracle(square), corrupt_oracle(as_oracle(F), 0.05, rng.randrange(1 << 30))]


def _assert_matches_sequential(rep, want, grid_points):
    """Same verdict and failing subset; YES queries equal, NO queries from
    the sequential count up to below twice it plus one batch."""
    failure, sequential = want
    if failure is None:
        assert (rep.verdict, rep.failing_I, rep.failure_kind) == (YES, None, None)
        assert rep.queries == sequential
    else:
        assert (rep.verdict, rep.failing_I, rep.failure_kind) == (NO,) + failure
        batch = max(testers._BATCH_POINTS, grid_points)
        assert sequential <= rep.queries < 2 * sequential + batch


@pytest.mark.parametrize("p", [3, 5, 7, 101, 1009, 2**31 - 1])
def test_batched_scans_match_the_sequential_scan(p):
    ctx = FieldCtx(p)
    rng = random.Random(p)
    outcomes = set()
    for n in range(1, 9):
        d = min(max(n, 2), 4, p - 1)
        R = math.ceil(3 / (0.5 + float(n) ** -4))
        for orc in _comparison_oracles(ctx, n, rng):
            seed = rng.randrange(1 << 30)
            for cache in (True, False):
                rep = read_once_test(orc, n, d, 0.25, seed, cache=cache)
                assert (rep.seed, rep.repeats) == (seed, 1)
                want = _sequential_read_once_test(orc, n, d, seed, cache)
                _assert_matches_sequential(rep, want, (d + 1) ** min(n, 3))
                outcomes.add((rep.verdict, rep.failure_kind))
            rep = property_test(orc, n, 0.5, seed)
            assert (rep.seed, rep.repeats) == (seed, R)
            _assert_matches_sequential(
                rep, _sequential_property_test(orc, n, R, random.Random(seed)), 27)
            rep = property_test_once(orc, n, seed)
            assert (rep.seed, rep.repeats) == (seed, 1)
            _assert_matches_sequential(
                rep, _sequential_property_test(orc, n, 1, random.Random(seed)), 27)
            outcomes.add((rep.verdict, rep.failure_kind))
            # a caller's generator gives the same report without a seed and,
            # on YES, is left in the sequential scan's state
            mine, theirs = random.Random(seed), random.Random(seed)
            rep = property_test(orc, n, 0.5, mine)
            assert (rep.seed, rep.repeats) == (None, R)
            _assert_matches_sequential(rep, _sequential_property_test(orc, n, R, theirs), 27)
            if rep.verdict == YES:
                assert mine.getstate() == theirs.getstate()
    assert {(YES, None), (NO, NOT_MULTILINEAR), (NO, NOT_ROP)} <= outcomes


@pytest.mark.parametrize("p", [7, 1009, 2**31 - 1])
def test_corrupted_oracle_scans_match_the_sequential_scan(p):
    # a corrupted oracle flips some of its base's residues in its batch
    # callable; every report matches the one-grid-at-a-time scan
    ctx = FieldCtx(p)
    rng = random.Random(p + 1)
    verdicts = set()
    for n in (3, 5, 7):
        d = min(n, p - 1)
        R = math.ceil(3 / (0.5 + float(n) ** -4))
        for delta in (0.0, 0.002, 0.05):
            F, key = random_rof(ctx, n, rng), rng.randrange(1 << 30)
            make = lambda: corrupt_oracle(as_oracle(F), delta, key)
            seed = rng.randrange(1 << 30)
            for cache in (True, False):
                orc = make()
                rep = read_once_test(orc, n, d, 0.25, seed, cache=cache)
                assert (rep.seed, rep.repeats) == (seed, 1)
                want = _sequential_read_once_test(make(), n, d, seed, cache)
                _assert_matches_sequential(rep, want, (d + 1) ** 3)
                assert orc.query_count == rep.queries
                verdicts.add(rep.verdict)
            orc = make()
            rep = property_test(orc, n, 0.5, seed)
            assert (rep.seed, rep.repeats) == (seed, R)
            _assert_matches_sequential(
                rep, _sequential_property_test(make(), n, R, random.Random(seed)), 27)
            assert orc.query_count == rep.queries
            verdicts.add(rep.verdict)
    assert verdicts == {YES, NO}


def _grid_oracles(ctx, L, rng):
    """Trivariate oracles for grids of L nodes an axis: a formula, its
    expansion plus a power of one slot below L, a random multilinear
    polynomial and random values, drawn at each point's first query."""
    F = random_rof(ctx, 3, rng)
    power = MPoly(ctx, 3, {((rng.randrange(3), max(1, rng.randrange(L))),): 1})
    drawn = {}

    def value(pt):
        if pt not in drawn:
            drawn[pt] = rng.randrange(ctx.p)
        return drawn[pt]
    return [as_oracle(P) for P in (F, F.expand() + power, random_multilinear(ctx, 3, rng))] + \
        [Oracle(ctx, 3, value)]


@pytest.mark.parametrize("p", [3, 5, 7, 1009, 31635403, 2**31 - 1, 2**61 - 1])
def test_difference_tables_decide_as_the_lagrange_interpolant(p):
    # forward differences of 2, 3 and up to 13 nodes and 3-node tables of
    # drawn nodes, in float64, int64 (13 nodes over GF(31635403)) and
    # Python ints (from GF(2**31 - 1) on); each grid alone, then k at once
    ctx = FieldCtx(p)
    rng = random.Random(p)
    k, I = 4, np.tile([0, 1, 2], (4, 1))
    outcomes = set()
    for L in sorted({2, 3, min(p, 13)}):
        grids = [(np.tile(np.arange(L), (k, 3, 1)),
                  np.broadcast_to(_forward_differences(p, L - 1), (k, 3, L, L)))]
        if L == 3:
            drawn = np.array([[rng.sample(range(p), 3) for _ in range(3)] for _ in range(k)],
                             dtype=np.int64)
            grids.append((drawn, _difference_tables(p, drawn)))
        for axes, stack in grids:
            for _ in range(3):
                for orc in _grid_oracles(ctx, L, rng):
                    base = np.array([[rng.randrange(p) for _ in range(3)]] * k, dtype=np.int64)
                    # interpolate_grid and trivariate_is_rop decide each grid
                    want = [_sequential_scan(orc, [(base[g].tolist(), (0, 1, 2), axes[g].tolist())],
                                             None)[0] for g in range(k)]
                    for g in range(k):
                        tables = [stack[g:g + 1, t] for t in range(3)]
                        assert testers._check_batch(orc, base[g:g + 1], axes[g:g + 1], I[:1],
                                                    tables, None) == want[g]
                    first = next((w for w in want if w is not None), None)
                    assert testers._check_batch(orc, base, axes, I,
                                                [stack[:, t] for t in range(3)], None) == first
                    outcomes.update(w and w[1] for w in want)
    assert outcomes == {None, NOT_MULTILINEAR, NOT_ROP}


def _transform_reference(p, tables, values):
    """values (L, L, L) with tables[t] applied along axis t, in Python ints."""
    T = np.array(values, dtype=object)
    for t, M in enumerate(tables):
        M = np.array([[int(v) for v in row] for row in M.tolist()], dtype=object)
        T = np.moveaxis(np.tensordot(M, T, axes=([1], [t])), 0, t) % p
    return T.tolist()


# primes on both sides of each dtype threshold of an L-node table, which is
# float64 while L * (p - 1)**2 < 2**53 and int64 while it is below 2**62
_TABLE_THRESHOLDS = {3: (54794149, 54794197, 1239850223, 1239850277),
                     9: (31635403, 31635431, 715827883, 715827947)}


@pytest.mark.parametrize("L, p", [(L, p) for L, ps in _TABLE_THRESHOLDS.items() for p in ps])
def test_difference_tables_are_exact_on_both_sides_of_each_threshold(L, p):
    # 3 nodes: property_test's tables of drawn nodes; 9 nodes: the forward
    # differences of 0..8
    rng = random.Random(p)
    k = 3
    bound = L * (p - 1) ** 2
    dtype = np.float64 if bound < 2**53 else np.int64 if bound < 2**62 else object
    if L == 3:
        nodes = np.array([[rng.sample(range(p), 3) for _ in range(3)] for _ in range(k)],
                         dtype=np.int64)
        stack = _difference_tables(p, nodes)
        assert stack.shape == (k, 3, 3, 3)
        tables = [stack[:, t] for t in range(3)]
        per_grid = [[stack[g, t] for t in range(3)] for g in range(k)]
    else:
        tables = [_forward_differences(p, L - 1)] * 3
        per_grid = [tables] * k
    assert all(T.dtype == dtype for T in tables)
    # samples near p - 1 push the entries toward their bound
    values = [[rng.choice((p - 1, p - 2, rng.randrange(p))) for _ in range(L**3)]
              for _ in range(k)]
    got = _interpolate_stack(p, tables, np.array(values, dtype=np.int64).reshape(k, L, L, L))
    assert got.dtype == (object if dtype is object else np.int64)
    for g in range(k):
        want = _transform_reference(p, per_grid[g], np.reshape(values[g], (L, L, L)))
        assert got[g].tolist() == want


# fields on both sides of each interpolation threshold: no reduction before
# the last (5, 11, 1009), one more on degree-8 grids (1877), one before each
# step below degree 8 and int64 bases at degree 8 (31635431), and Python-int
# bases (2**31 - 1)
_PINNED_FIELDS = (5, 11, 1009, 1877, 31635431, 2**31 - 1)
# sha256 of the reports below, one to_json() line each
_PINNED_REPORTS = "425c60cec35008d28208f9faa5ef4ad7d703678bfe80ee7528b5c2199c5ba2bf"


def _pinned_oracles():
    """(oracle, n, degree bound) for 109 seeded oracles: per field and arity
    n = 3..8 a formula, another formula's expansion and a read-many variant
    (q_n, a random multilinear polynomial or an expansion plus a square),
    then one corrupted formula."""
    rng = random.Random(24)
    for p in _PINNED_FIELDS:
        ctx = FieldCtx(p)
        for n in range(3, 9):
            d = min(n, p - 1) if p < 2**30 else 2
            yield as_oracle(random_rof(ctx, n, rng)), n, d
            yield as_oracle(random_rof(ctx, n, rng).expand()), n, d
            if n % 3 == 0:
                variant = q_n(n, ctx)
            elif n % 3 == 1:
                variant = random_multilinear(ctx, n, rng)
            else:
                variant = (random_rof(ctx, n, rng).expand()
                           + MPoly(ctx, n, {((rng.randrange(n), 2),): 1}))
            yield as_oracle(variant), n, d
    F = random_rof(GF1009, 7, rng)
    yield corrupt_oracle(as_oracle(F), 0.01, rng.randrange(1 << 30)), 7, 7


def test_tester_reports_match_pinned_digest():
    # read_once_test with the point store on and off and property_test, on
    # every pinned oracle; the digest was computed when each batch was
    # interpolated in int64 with a reduction after every step
    digest, outcomes = hashlib.sha256(), set()
    for k, (orc, n, d) in enumerate(_pinned_oracles()):
        reports = [read_once_test(orc, n, d, 0.25, k, cache=cache) for cache in (True, False)]
        reports.append(property_test(orc, n, 0.5, k))
        for rep in reports:
            digest.update(rep.to_json().encode() + b"\n")
            outcomes.add((rep.verdict, rep.failure_kind))
    assert k == 108
    assert outcomes == {(YES, None), (NO, NOT_MULTILINEAR), (NO, NOT_ROP)}
    assert digest.hexdigest() == _PINNED_REPORTS


def test_property_test_leaves_the_generator_as_the_sequential_scan_on_yes():
    # a YES run draws every round's triples once, in order, whatever batches
    # its grids ran in, so a caller's generator ends where the one-round-at-
    # a-time scan leaves it
    for p, n, delta in ((1009, 8, 0.5), (5, 6, 0.2), (7, 3, 0.1), (101, 2, 0.5), (3, 1, 1.0)):
        F = random_rof(FieldCtx(p), n, p + n)
        R = math.ceil(3 / (delta + float(n) ** -4))
        for seed in range(3):
            mine, theirs = random.Random(seed), random.Random(seed)
            rep = property_test(as_oracle(F), n, delta, mine)
            want = _sequential_property_test(as_oracle(F), n, R, theirs)
            assert rep.verdict == YES
            _assert_matches_sequential(rep, want, 27)
            assert mine.getstate() == theirs.getstate()


def test_no_in_a_batch_that_spans_two_rounds_matches_the_sequential_scan():
    # q_10 over GF(5): 120 grids a round and batches of 1, 2, ..., 64, 128
    # grids, so grids 127..254 form one batch across rounds 1 and 2.  Round
    # 1's subset {x1, x3, x4} fails at seed 2 and {x1, x7, x10} at seed 3,
    # so the batch has drawn round 2 as well: the caller's generator is one
    # round past the sequential scan's
    orc = as_oracle(q_n(10, FieldCtx(5)))
    for seed, I in ((2, (0, 2, 3)), (3, (0, 6, 9))):
        mine, theirs = random.Random(seed), random.Random(seed)
        rep = property_test(orc, 10, 0.1, mine)
        want = _sequential_property_test(orc, 10, rep.repeats, theirs)
        _assert_matches_sequential(rep, want, 27)
        assert (rep.failing_I, rep.failure_kind, rep.queries) == (I, NOT_ROP, 255 * 27)
        # the failing grid, the last the sequential scan queried, is in round 1
        assert want[1] // 27 - 1 == 120 + _lex_subsets(10).index(I)
        for _ in range(10):
            testers._distinct_residues(5, theirs)
        assert mine.getstate() == theirs.getstate()


def test_no_report_json_holds_python_ints():
    orc = as_oracle(q_n(10, FieldCtx(5)))
    for rep in (property_test(orc, 10, 0.1, 3), read_once_test(orc, 10, 1, 0.25, 3),
                property_test_once(as_oracle(E2), 3, 5)):
        assert rep.verdict == NO
        assert all(type(t) is int for t in rep.failing_I)
        assert json.loads(rep.to_json())["failing_I"] == [t + 1 for t in rep.failing_I]
    assert json.loads(read_once_test(orc, 10, 1, 0.25, 3).to_json()) == {
        "verdict": NO, "failing_I": [1, 4, 9], "failure_kind": NOT_ROP, "queries": 232,
        "seed": 3, "repeats": 1}


def test_parameter_validation():
    orc = as_oracle(random_rof(GF1009, 4, 0))
    with pytest.raises(ArityMismatch):
        read_once_test(orc, 5, 3)
    with pytest.raises(DegreeTooSmall):
        read_once_test(orc, 4, 0)
    with pytest.raises(InvalidParams):
        read_once_test(orc, 4, 4, epsilon=0.0)
    small = as_oracle(random_rof(FieldCtx(5), 4, 0))
    with pytest.raises(FieldTooSmall):
        read_once_test(small, 4, 5)
    for d in (0, 1):
        with pytest.raises(TooFewVariables):
            read_once_test(NULLARY, 0, d)


def test_subset_scan_scale_guard():
    # C(229,3) = 1,975,354 subsets pass the 2,000,000 limit and the scan
    # reaches its first grid query; C(230,3) = 2,001,460 do not
    for n in (229, 230, 100000):
        orc = Oracle(GF1009, n, refuse, refuse)
        want = Queried if n == 229 else ScaleGuardExceeded
        with pytest.raises(want):
            read_once_test(orc, n, 2)
    # property_test runs R = ceil(3 / (delta + n^-4)) rounds of C(n,3) grids:
    # 6 * C(126,3) = 1,953,000 pass at delta = 0.5 and 6 * C(127,3) =
    # 2,000,250 do not; 30 rounds at delta = 0.1 allow n <= 74, and about
    # 3n^4 rounds as delta -> 0 allow n <= 9
    for n, delta in ((126, 0.5), (127, 0.5), (100000, 0.5), (74, 0.1), (75, 0.1),
                     (9, 1e-9), (10, 1e-9)):
        orc = Oracle(GF1009, n, refuse, refuse)
        want = Queried if n in (126, 74, 9) else ScaleGuardExceeded
        with pytest.raises(want):
            property_test(orc, n, delta)
    # tau_estimate scans no subsets and takes no guard
    assert tau_estimate(Oracle(GF1009, 230, lambda pt: 0), 230, 5).fraction == 0.0


def test_grid_scale_guard(monkeypatch):
    # with the limit at 27, a 3^3 grid reaches its first query and a 4^3
    # grid is refused before any point is built
    monkeypatch.setattr(errors, "EXHAUSTIVE_LIMIT", 27)
    orc = Oracle(GF1009, 3, refuse, refuse)
    with pytest.raises(Queried):
        read_once_test(orc, 3, 2)
    with pytest.raises(ScaleGuardExceeded, match="grid points per subset"):
        read_once_test(orc, 3, 3)


def test_recommended_field_size():
    assert recommended_field_size(6, 6, 0.25) == 1.5 * 6**4 / 0.25
    assert recommended_field_size(2, 40, 0.5) == 80.0


def test_report_json_is_deterministic():
    F = random_rof(GF1009, 5, 9)
    a = read_once_test(as_oracle(F), 5, 5, 0.25, 123).to_json()
    b = read_once_test(as_oracle(F), 5, 5, 0.25, 123).to_json()
    assert a == b
    d = read_once_test(as_oracle(E2), 3, 3, 0.25, 7).to_json_dict()
    assert d["failing_I"] == [1, 2, 3]
    assert d["seed"] == 7


def test_property_once_accepts_formulas():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(3, 6)
        F = random_rof(GF1009, n, rng)
        rep = property_test_once(as_oracle(F), n, rng.randrange(1 << 30))
        assert rep.verdict == YES
        assert rep.queries == math.comb(n, 3) * 27


def test_property_once_rejects_exact_counterexamples():
    rep = property_test_once(as_oracle(parse_terms(GF1009, 3, "x1^2")), 3, 5)
    assert rep.verdict == NO and rep.failure_kind == NOT_MULTILINEAR
    rep = property_test_once(as_oracle(E2), 3, 5)
    assert rep.verdict == NO and rep.failure_kind == NOT_ROP


def test_property_repeat_budget():
    F = random_rof(GF1009, 4, 3)
    rep = property_test(as_oracle(F), 4, 0.5, 11)
    assert rep.verdict == YES
    assert rep.repeats == math.ceil(3 / (0.5 + 4.0**-4))
    assert rep.queries == rep.repeats * math.comb(4, 3) * 27
    one = property_test(as_oracle(F), 4, 1.0, 11)
    assert one.repeats == math.ceil(3 / (1.0 + 4.0**-4))


def test_property_rejects_hard_case_and_records_round_budget():
    rep = property_test(as_oracle(E2), 3, 0.5, 2)
    assert rep.verdict == NO
    assert rep.repeats == math.ceil(3 / (0.5 + 3.0**-4))
    assert rep.failing_I == (0, 1, 2)


def test_property_parameter_validation():
    orc = as_oracle(random_rof(GF1009, 4, 0))
    with pytest.raises(InvalidParams):
        property_test(orc, 4, 0.0)
    with pytest.raises(InvalidParams):
        property_test(orc, 4, 1.5)
    with pytest.raises(FieldTooSmall):
        property_test_once(as_oracle(random_rof(FieldCtx(2), 4, 0)), 4)
    with pytest.raises(TooFewVariables):
        property_test(NULLARY, 0, 0.5)
    with pytest.raises(TooFewVariables):
        property_test_once(NULLARY, 0)


def test_aligned_triple_shape():
    rng = random.Random(7)
    for _ in range(100):
        trip = draw_aligned_triple(GF1009, 5, rng)
        assert len(set(trip.values)) == 3
        assert 0 <= trip.coordinate < 5
    forced = draw_aligned_triple(GF1009, 5, rng, coordinate=2)
    assert forced.coordinate == 2
    trip3 = draw_aligned_triple(FieldCtx(3), 2, rng)
    assert sorted(trip3.values) == [0, 1, 2]
    with pytest.raises(FieldTooSmall):
        draw_aligned_triple(FieldCtx(2), 2, rng)
    with pytest.raises(TooFewVariables):
        draw_aligned_triple(GF1009, 0, rng)


def test_tau_zero_on_multilinear():
    est = tau_estimate(as_oracle(random_rof(GF1009, 5, 21)), 5, 300, 4)
    assert est.fraction == 0.0 and est.stderr == 0.0
    assert est.samples == 300


def test_tau_one_on_forced_square_coordinate():
    P = parse_terms(GF1009, 3, "x1^2")
    est = tau_estimate(as_oracle(P), 3, 200, 9, coordinate=0)
    assert est.fraction == 1.0


def test_tau_positive_on_corrupted_oracle():
    # Measured rate for delta=0.3 corruption sits near 0.62; the 0.4 cut
    # is more than five binomial sigmas below that at 500 samples.
    F = random_rof(GF1009, 5, 2)
    orc = corrupt_oracle(as_oracle(F), 0.3, 2)
    est = tau_estimate(orc, 5, 500, 2)
    assert est.fraction > 0.4
    assert 0.0 < est.stderr < 0.05


def _sequential_tau(oracle, n, samples, rng, coordinate=None):
    """tau_estimate's fraction with one oracle call per sample, each decided
    by interpolating the sample's three values."""
    hits = 0
    for _ in range(samples):
        trip = draw_aligned_triple(oracle.ctx, n, rng, coordinate)
        pts = []
        for v in trip.values:
            pt = list(trip.base)
            pt[trip.coordinate] = v
            pts.append(pt)
        Q = interpolate_grid(oracle.ctx, [trip.values], oracle.query_many(pts))
        hits += not Q.is_multilinear()
    return hits / samples


@pytest.mark.parametrize("p", [1009, 2**31 - 1])
def test_tau_matches_the_per_sample_estimate(p):
    ctx = FieldCtx(p)
    rng = random.Random(p)
    fractions = set()
    for n in (1, 4, 8):
        F = random_rof(ctx, n, rng)
        square = F.expand() + MPoly(ctx, n, {((rng.randrange(n), 2),): 1})
        key = rng.randrange(1 << 30)
        for make in (lambda: as_oracle(F), lambda: as_oracle(square),
                     lambda: corrupt_oracle(as_oracle(F), 0.2, key)):
            for samples, seed, coordinate in ((1, 0, None), (400, 5, None), (200, 6, n - 1)):
                orc, ref = make(), make()
                est = tau_estimate(orc, n, samples, seed, coordinate)
                want = _sequential_tau(ref, n, samples, random.Random(seed), coordinate)
                assert (est.fraction, est.samples) == (want, samples)
                assert est.stderr == math.sqrt(want * (1.0 - want) / samples)
                assert orc.query_count == ref.query_count == 3 * samples
                fractions.add(want)
    assert 0.0 in fractions and any(0.0 < f < 1.0 for f in fractions)


def test_tau_chunks_match_one_oracle_call(monkeypatch):
    # chunks of 7 samples, three and a part, give the fraction, stderr and
    # query count of one oracle call over every sample
    F = random_rof(GF1009, 6, 7).expand()
    square = F + MPoly(GF1009, 6, {((3, 2),): 1})
    samples = 3 * 7 + 5
    fractions = set()
    for seed, coordinate in ((11, None), (12, None), (13, 3)):
        monkeypatch.setattr(testers, "_TAU_CHUNK", 7)
        chunked = as_oracle(square)
        est = tau_estimate(chunked, 6, samples, seed, coordinate)
        monkeypatch.setattr(testers, "_TAU_CHUNK", samples)
        whole = as_oracle(square)
        assert tau_estimate(whole, 6, samples, seed, coordinate) == est
        assert chunked.query_count == whole.query_count == 3 * samples
        fractions.add(est.fraction)
    assert 1.0 in fractions and any(0.0 < f < 1.0 for f in fractions)


def test_tau_memory_is_bounded_by_its_chunks():
    # four chunks at n = 8: one oracle call over every sample peaked at
    # about 9 MB traced
    orc = as_oracle(random_rof(GF1009, 8, 7))
    tracemalloc.start()
    try:
        tau_estimate(orc, 8, 4 * testers._TAU_CHUNK, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orc.query_count == 12 * testers._TAU_CHUNK
    assert peak < 5 * 2**20, peak


def test_tau_validation():
    orc = as_oracle(random_rof(GF1009, 4, 0))
    with pytest.raises(InvalidParams):
        tau_estimate(orc, 4, 0)
    with pytest.raises(ArityMismatch):
        tau_estimate(orc, 5, 10)
    with pytest.raises(TooFewVariables):
        tau_estimate(NULLARY, 0, 10)


def test_hard_case_rejection_rate_small_sample():
    # The full 200-run rate lives in the acceptance suite; keep a light
    # version here so regressions surface fast.
    Q6 = q_n(6, FieldCtx(11677))
    noes = sum(
        read_once_test(as_oracle(Q6), 6, 6, 0.25, seed).verdict == NO
        for seed in range(25))
    assert noes >= 15
