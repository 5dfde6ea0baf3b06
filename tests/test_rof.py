"""Formula layer: evaluation, expansion, random generation, oracles."""

import math
import random

import numpy as np
import pytest

from ropcheck import errors
from ropcheck.errors import (
    ArityMismatch,
    InvalidParams,
    ParseError,
    ReadOnceViolation,
    ScaleGuardExceeded,
)
from ropcheck.ff import FieldCtx
from ropcheck.mpoly import parse_terms
from ropcheck.reference import brute_force_is_rop
from ropcheck.rof import (
    Const,
    Gate,
    Leaf,
    Oracle,
    Rof,
    _catalan,
    as_oracle,
    corrupt_oracle,
    random_rof,
)
from test_mpoly import EXACT_MODULI, CheckedInt, _ref_eval, _ref_from, extreme_points

GF101 = FieldCtx(101)


def _example():
    # ((x1 + 1) * (x2 + 1)) + x3
    prod = Gate("*", Leaf(0, 1, 1), Leaf(1, 1, 1))
    return Rof(GF101, 3, Gate("+", prod, Leaf(2, 1, 0)))


def test_expand_scale_guard_counts_terms(monkeypatch):
    # bounds: a leaf 1 or 2 terms, a constant 0 or 1, + the sum, * the product
    monkeypatch.setattr(errors, "EXHAUSTIVE_LIMIT", 8)
    cube = Gate("*", Gate("*", Leaf(0, 1, 1), Leaf(1, 1, 1)), Leaf(2, 1, 1))
    for root in (Gate("*", cube, Leaf(3, 1, 0)), Gate("+", cube, Const(0))):
        assert len(Rof(GF101, 4, root).expand().terms) == 8
    # the + bound is not tight: cube + 1 still has 8 terms
    for root in (Gate("*", cube, Leaf(3, 1, 1)), Gate("+", cube, Const(1))):
        with pytest.raises(ScaleGuardExceeded):
            Rof(GF101, 4, root).expand()


def test_expand_known_formula():
    F = _example()
    assert F.expand() == parse_terms(GF101, 3, "x1*x2 + x1 + x2 + x3 + 1")
    assert F.variables() == frozenset({0, 1, 2})


def test_eval_known_values():
    F = _example()
    assert int(F.eval((2, 3, 4))) == 16
    assert F.eval_raw((100, 0, 0)) == 0


def test_eval_matches_expansion():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 7)
        F = random_rof(GF101, n, rng)
        P = F.expand()
        for _ in range(5):
            pt = tuple(rng.randrange(101) for _ in range(n))
            assert F.eval_raw(pt) == P.eval_raw(pt)


def test_eval_batch_matches_eval():
    rng = random.Random(9)
    # 1_073_741_789 is the largest prime below 2**30, the int64 path's limit
    for ctx in (GF101, FieldCtx(2**61 - 1), FieldCtx(1_073_741_789)):
        F = random_rof(ctx, 6, rng)
        pts = [tuple(rng.randrange(ctx.p) for _ in range(6)) for _ in range(40)]
        assert F.eval_batch(pts) == [F.eval_raw(pt) for pt in pts]
    # a formula of constants alone still answers every point
    K = Rof(GF101, 3, Gate("*", Const(3), Gate("+", Const(5), Const(100))))
    assert K.eval_batch([(t, 0, 1) for t in range(8)]) == [12] * 8


def _chain(op, leaves):
    """A right-deep chain of one gate over the leaves."""
    node = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        node = Gate(op, leaf, node)
    return node


@pytest.mark.parametrize("p", EXACT_MODULI)
def test_eval_matches_expanded_reference(p):
    # values of F at lists, arrays and one point at a time equal its
    # expansion evaluated term by term; below 2**30 no intermediate reaches
    # 2**62, with every slope, shift and point entry as large as it can be
    ctx = FieldCtx(p)
    rng = random.Random(p)
    q = p - 1
    formulas = [random_rof(ctx, n, rng) for n in (1, 4, 8, 8, 12)]
    formulas += [
        Rof(ctx, 4, Gate("*", Gate("+", Leaf(0, q, q), Leaf(1, q, q)),
                         Gate("*", Leaf(2, q, q), Gate("+", Leaf(3, q, q), Const(q))))),
        Rof(ctx, 12, _chain("*", [Leaf(v, q, q) for v in range(12)])),
        Rof(ctx, 300, _chain("+", [Leaf(v, q, q) for v in range(300)])),
        Rof(ctx, 200, _chain("+", [Gate("*", Leaf(v, q, q), Leaf(v + 1, q, q))
                                   for v in range(0, 200, 2)])),
        Rof(ctx, 3, Gate("*", Const(3), Gate("+", Const(5), Const(q)))),
    ]
    for F in formulas:
        ref = _ref_from(F.expand())
        pts = extreme_points(F.arity, p, rng)
        want = [_ref_eval(ref, pt, p) for pt in pts]
        assert [F.eval_raw(pt) for pt in pts] == want
        assert F.eval_batch(pts) == want
        assert F.eval_batch(np.array(pts, dtype=np.int64)) == want
        if p < 2**30:
            assert [F.eval_raw([CheckedInt(v) for v in pt]) for pt in pts] == want


@pytest.mark.parametrize("count", [7, 8])
def test_eval_batch_reduces_entries_beyond_int64(count):
    F = _example()
    want = F.eval((10**20 % 101, 1, 2**64 % 101))
    assert F.eval_batch([(10**20, 1, 2**64)] * count) == [want] * count


def test_read_once_violation():
    dup = Gate("+", Leaf(0, 1, 0), Leaf(0, 2, 0))
    with pytest.raises(ReadOnceViolation):
        Rof(GF101, 2, dup)


def test_leaf_validation():
    with pytest.raises(InvalidParams):
        Rof(GF101, 2, Leaf(0, 0, 5))
    with pytest.raises(InvalidParams):
        Rof(GF101, 2, Gate("-", Leaf(0, 1, 0), Leaf(1, 1, 0)))
    with pytest.raises(ArityMismatch):
        Rof(GF101, 1, Leaf(3, 1, 0))


def test_expansion_is_multilinear_and_read_once():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 6)
        F = random_rof(GF101, n, rng)
        P = F.expand()
        assert P.is_multilinear()
        assert brute_force_is_rop(P)


def test_catalan_numbers_are_computed_once(monkeypatch):
    # the tree-shape sampler asks for the same Catalan numbers over and
    # over; each is computed once, from one binomial coefficient
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda a, b: calls.append(1) or comb(a, b))
    _catalan.cache_clear()
    try:
        random_rof(FieldCtx(1009), 300, 1)
    finally:
        _catalan.cache_clear()
    assert 0 < len(calls) <= 300


def test_random_rof_determinism_and_vars():
    A = random_rof(GF101, 8, 42)
    B = random_rof(GF101, 8, 42)
    assert A.serialize() == B.serialize()
    C = random_rof(GF101, 8, 43)
    assert A.serialize() != C.serialize()
    D = random_rof(GF101, 8, 5, vars_used=3)
    assert len(D.variables()) == 3


def test_serialize_round_trip():
    rng = random.Random(33)
    for _ in range(60):
        F = random_rof(GF101, rng.randint(1, 7), rng)
        G = Rof.parse(F.to_text())
        assert G.serialize() == F.serialize()
        assert G.root == F.root


def test_serialize_known_shape():
    F = _example()
    assert F.serialize() == "(+ (* (leaf 1 1 1) (leaf 2 1 1)) (leaf 3 1 0))"
    G = Rof(GF101, 1, Const(9))
    assert G.serialize() == "(const 9)"


def test_unreduced_leaf_values_batch_evaluate():
    # Leaf and constant values are reduced mod p at construction, so the
    # int64 batch path cannot overflow on them.
    F = Rof(GF101, 2, Gate("+", Leaf(0, 10**20, -3), Const(10**30)))
    pts = [(t, 0) for t in range(8)]
    assert F.eval_batch(pts) == [F.eval_raw(pt) for pt in pts]
    assert F.serialize() == f"(+ (leaf 1 {10**20 % 101} 98) (const {10**30 % 101}))"
    G = Rof(GF101, 1, Leaf(0, 10**20, 0))
    assert G.eval_batch([(t,) for t in range(8)]) == [10**20 * t % 101 for t in range(8)]


def test_parse_errors():
    for body in ("(leaf 0 1 0)", "(leaf 1 1)", "(+ (leaf 1 1 0))",
                 "(? (leaf 1 1 0) (leaf 2 1 0))", "(leaf 1 1 0", "()",
                 "(leaf 4 1 0)"):
        with pytest.raises((ParseError, ReadOnceViolation, InvalidParams, ArityMismatch)):
            Rof.parse(f"field p=101 n=3\n{body}\n")


def test_as_oracle_counts_queries():
    F = _example()
    orc = as_oracle(F)
    assert orc.arity == 3 and orc.ctx == GF101
    assert orc.query((2, 3, 4)) == 16
    assert orc.query_many([(0, 0, 0), (1, 1, 1)]) == [1, 5]
    assert orc.query_count == 3
    with pytest.raises(ArityMismatch):
        orc.query((1, 2))


@pytest.mark.parametrize("p", [101, 2**31 - 1, 2**61 - 1])
def test_query_many_array_matches_point_list(p):
    ctx = FieldCtx(p)
    rng = random.Random(p % 1000)
    n = 4
    rows = [[rng.randrange(-p, 2 * p) if rng.random() < 0.3 else rng.randrange(p)
             for _ in range(n)] for _ in range(40)]
    array = np.array(rows, dtype=np.int64)
    F = random_rof(ctx, n, rng)
    P = F.expand() * F.expand()   # degree 2 per slot: big products at large p
    for obj in (F, P):
        for make in (as_oracle, lambda o: corrupt_oracle(as_oracle(o), 0.5, 9)):
            a, b = make(obj), make(obj)
            want = a.query_many([tuple(r) for r in rows])
            assert b.query_many(array) == want
            assert a.query_count == b.query_count == 40
            # fewer than 8 points take the point-by-point path
            assert b.query_many(array[:3]) == want[:3]
            assert all(type(v) is int and 0 <= v < p for v in want)
        assert as_oracle(obj).query_many(array) == [obj.eval_raw([v % p for v in r])
                                                    for r in rows]


def test_query_many_array_validation():
    orc = as_oracle(_example())
    for bad in (np.zeros((2, 2), dtype=np.int64), np.zeros((2, 4), dtype=np.int64),
                np.zeros(3, dtype=np.int64)):
        with pytest.raises(ArityMismatch):
            orc.query_many(bad)
    with pytest.raises(InvalidParams):
        orc.query_many(np.zeros((2, 3)))
    assert orc.query_count == 0
    # a plain oracle's point function sees tuples of ints, as for a list
    seen = []
    plain = Oracle(GF101, 2, lambda pt: seen.append(pt) or 0)
    plain.query_many(np.array([[1, 2], [3, 104]]))
    assert seen == [(1, 2), (3, 3)] and all(type(v) is int for pt in seen for v in pt)
    # above 2**30 a batch function gets Python ints, whose products stay exact
    p = 2**61 - 1
    batches = []
    big = Oracle(FieldCtx(p), 2, None, lambda pts: batches.append(pts) or [0] * len(pts))
    big.query_many(np.array([[p - 1, -1]] * 8, dtype=np.int64))
    assert batches == [[(p - 1, p - 1)] * 8]


def _array_path_oracles(ctx, n, rng):
    """Polynomial, formula, corrupted and plain oracles, each built twice."""
    F = random_rof(ctx, n, rng.randrange(1 << 30))
    P = F.expand() * random_rof(ctx, n, rng.randrange(1 << 30)).expand()
    key = rng.randrange(1 << 30)
    plain = lambda pt: (pt[0] * pt[1] + 3 * pt[-1] ** 2 + ctx.p - 1)
    return [(lambda: as_oracle(P)), (lambda: as_oracle(F)),
            (lambda: corrupt_oracle(as_oracle(F), 0.3, key)),
            (lambda: Oracle(ctx, n, plain))]


@pytest.mark.parametrize("p", [5, 1009, 1_073_741_789, 2**61 - 1])
def test_query_array_matches_query_many(p):
    ctx = FieldCtx(p)
    rng = random.Random(p % 997)
    n = 4
    limit = min(3 * p, 2**63 - 1)
    rows = [[rng.randrange(-limit, limit) if rng.random() < 0.3 else rng.randrange(p)
             for _ in range(n)] for _ in range(40)]
    array = np.array(rows, dtype=np.int64)
    for make in _array_path_oracles(ctx, n, rng):
        a, b = make(), make()
        cases = (array, array[:3], rows, rows[:5], array[:0])
        for pts in cases:
            got = a._query_array(pts)
            assert got.dtype == np.int64 and got.ndim == 1
            assert got.tolist() == b.query_many(pts)
            assert a.query_count == b.query_count
        assert a.query_count == sum(map(len, cases))
        assert all(0 <= v < p for v in a._query_array(array).tolist())


def test_query_array_passes_int64_residues_uncopied():
    # an int64 array already in [0, p) reaches the batch as it is; one with
    # entries outside is reduced once, and the caller's copy stays unchanged
    seen = []
    orc = Oracle(GF101, 2, None, lambda pts: seen.append(pts) or [7] * len(pts))
    inside = np.array([[0, 100], [3, 4]], dtype=np.int64)
    assert orc._query_array(inside).tolist() == [7, 7]
    assert seen[-1] is inside
    outside = np.array([[-1, 101], [3, 205]], dtype=np.int64)
    orc._query_array(outside)
    assert seen[-1].tolist() == [[100, 0], [3, 3]]
    assert outside.tolist() == [[-1, 101], [3, 205]]
    # a batch's answers outside [0, p) come back as residues
    wide = Oracle(GF101, 1, None, lambda pts: [-1, 2**70, 5][:len(pts)])
    assert wide.query_many([(0,), (1,), (2,)]) == [100, 2**70 % 101, 5]


def test_as_oracle_accepts_poly():
    P = parse_terms(GF101, 2, "x1*x2 + 3")
    orc = as_oracle(P)
    assert orc.query((2, 5)) == 13


def test_corrupt_oracle_rates():
    base = as_oracle(parse_terms(GF101, 3, "x1 + x2 + x3"))
    rng = random.Random(3)
    pts = [tuple(rng.randrange(101) for _ in range(3)) for _ in range(10_000)]

    same = as_oracle(parse_terms(GF101, 3, "x1 + x2 + x3"))
    zero = corrupt_oracle(same, 0.0, rng)
    assert all(zero.query(pt) == base.query(pt) for pt in pts[:500])

    flipped = corrupt_oracle(as_oracle(parse_terms(GF101, 3, "x1 + x2 + x3")), 1.0, rng)
    assert all(flipped.query(pt) != base.query(pt) for pt in pts[:500])

    # delta=0.3: binomial sd over 1e4 points is ~0.0046, so a 4.4-sigma
    # band of +/-0.02 fails a correct implementation with prob ~1e-5.
    part = corrupt_oracle(as_oracle(parse_terms(GF101, 3, "x1 + x2 + x3")), 0.3, rng)
    diff = sum(1 for pt in pts if part.query(pt) != base.query(pt))
    assert abs(diff / len(pts) - 0.3) < 0.02


def test_corrupt_oracle_is_deterministic_per_seed():
    mk = lambda: as_oracle(parse_terms(GF101, 2, "x1*x2"))
    a = corrupt_oracle(mk(), 0.5, 77)
    b = corrupt_oracle(mk(), 0.5, 77)
    c = corrupt_oracle(mk(), 0.5, 78)
    pts = [(i, j) for i in range(20) for j in range(20)]
    va, vb, vc = [[o.query(pt) for pt in pts] for o in (a, b, c)]
    assert va == vb
    assert va != vc


def test_oracle_direct_construction():
    orc = Oracle(GF101, 2, lambda pt: (pt[0] * pt[1]) % 101)
    assert orc.query((7, 8)) == 56
    assert orc.query_count == 1
