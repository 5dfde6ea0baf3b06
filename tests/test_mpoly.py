"""Sparse polynomial layer: arithmetic, calculus, text format, interpolation."""

import itertools
import random

import numpy as np
import pytest

from ropcheck.errors import (
    ArityMismatch,
    DuplicateNode,
    EmptySampleSet,
    IncompleteGrid,
    InvalidParams,
    NotMultilinearInVar,
    OutOfRange,
    ParseError,
    SameVariable,
)
from ropcheck.ff import FieldCtx
from ropcheck.hardcases import q_n
from ropcheck.mpoly import (
    _CHILD,
    _CHILD_ACC,
    _MOD,
    _MUL,
    _PROD,
    _PROD_ACC,
    _REDUCE,
    MPoly,
    _basis_matrices,
    _code_products,
    _compile_poly,
    _decode_all,
    _encode,
    _interpolate_stack,
    _residues,
    interpolate_grid,
    parse_header,
    parse_poly_file,
    parse_terms,
    random_multilinear,
)
from ropcheck.rof import random_rof

GF101 = FieldCtx(101)
GF5 = FieldCtx(5)
GF2 = FieldCtx(2)


# ---- independent reference implementation ----
# Dense exponent vectors keyed by full-length tuples; shares no code with
# the sparse representation under test.

def _ref_from(P):
    out = {}
    for mono, c in P.terms.items():
        e = [0] * P.arity
        for var, exp in mono:
            e[var] = exp
        out[tuple(e)] = c
    return out


def _ref_add(a, b, p):
    out = dict(a)
    for e, c in b.items():
        v = (out.get(e, 0) + c) % p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _ref_mul(a, b, p):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = (out.get(e, 0) + c1 * c2) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _ref_eval(a, point, p):
    total = 0
    for e, c in a.items():
        v = c
        for x, k in zip(point, e):
            v = v * pow(x, k, p) % p
        total = (total + v) % p
    return total


def _random_poly(ctx, arity, rng, terms=6, max_exp=2):
    out = MPoly.zero(ctx, arity)
    for _ in range(terms):
        mono = tuple((v, rng.randint(1, max_exp))
                     for v in sorted(rng.sample(range(arity), rng.randint(0, arity))))
        out = out + MPoly(ctx, arity, {mono: rng.randrange(1, ctx.p)})
    return out


def test_known_evaluation():
    P = parse_terms(GF101, 2, "x1*x2 + 3")
    assert int(P.evaluate((2, 5))) == 13


def test_constructors():
    z = MPoly.zero(GF101, 3)
    assert z.is_zero() and z.arity == 3
    c = MPoly.constant(GF101, 3, 7)
    assert int(c.evaluate((0, 0, 0))) == 7
    x2 = MPoly.variable(GF101, 3, 1)
    assert int(x2.evaluate((5, 9, 2))) == 9
    a = MPoly.affine(GF101, 3, 2, 4, 6)
    assert int(a.evaluate((0, 0, 10))) == 46
    assert a.variables() == frozenset({2})


def test_ring_ops_against_reference():
    rng = random.Random(31)
    for _ in range(150):
        ctx = random.Random(rng.random()).choice([GF5, GF101])
        n = rng.randint(1, 4)
        P = _random_poly(ctx, n, rng)
        Q = _random_poly(ctx, n, rng)
        rp, rq = _ref_from(P), _ref_from(Q)
        assert _ref_from(P + Q) == _ref_add(rp, rq, ctx.p)
        assert _ref_from(P * Q) == _ref_mul(rp, rq, ctx.p)
        assert _ref_from(P - Q) == _ref_add(rp, {e: -c % ctx.p for e, c in rq.items()}, ctx.p)
        assert (P + Q) - Q == P
        pt = tuple(rng.randrange(ctx.p) for _ in range(n))
        assert P.eval_raw(pt) == _ref_eval(rp, pt, ctx.p)


def _merge_mono(m1, m2):
    """Product of two sorted (variable, exponent) tuples by a merge."""
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        (v1, e1), (v2, e2) = m1[i], m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return tuple(out + list(m1[i:]) + list(m2[j:]))


def _merge_mul(P, Q):
    """Term dict of P * Q by merging monomial tuples, zeros dropped last."""
    p = P.ctx.p
    out = {}
    for m1, c1 in P.terms.items():
        for m2, c2 in Q.terms.items():
            m = _merge_mono(m1, m2)
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


@pytest.mark.parametrize("p", [2, 3, 5, 1009, 2**31 - 1, 2**61 - 1])
def test_coded_product_matches_merge_reference(p):
    # equal term dicts, key order included, for arity 0..8, zero operands and
    # exponents up to 10**19, whose monomial codes run past 63 bits
    ctx = FieldCtx(p)
    rng = random.Random(p)

    def random_poly(n, top):
        return MPoly(ctx, n, {tuple((v, rng.randint(1, top)) for v in range(n)
                                    if rng.random() < 0.5): rng.randrange(p)
                              for _ in range(rng.randint(0, 12))})

    wide = 0
    for n in range(9):
        zero = MPoly.zero(ctx, n)
        for top in (1, 3, 2**20, 10**19):
            for _ in range(6):
                P, Q = random_poly(n, top), random_poly(n, top)
                for A, B in ((P, Q), (Q, P), (P, P), (P, zero), (zero, Q)):
                    want = _merge_mul(A, B)
                    assert list((A * B).terms.items()) == list(want.items())
                    wide += any(e >= 2**63 for m in want for _, e in m)
    assert wide > 0


@pytest.mark.parametrize("p", [2, 1009, 2**61 - 1])
def test_disjoint_product_matches_coded_path(p):
    # operands on disjoint slots skip the monomial codes; the terms must
    # match the coded product's, values and insertion order, on interleaved
    # and separated slots, constants, zero operands and higher exponents
    ctx = FieldCtx(p)
    rng = random.Random(p)

    def random_poly(n, slots, top):
        return MPoly(ctx, n, {tuple((v, rng.randint(1, top)) for v in slots
                                    if rng.random() < 0.6): rng.randrange(p)
                              for _ in range(rng.randint(0, 10))})

    def coded(A, B):
        top = max((e for f in (A, B) for mono in f.terms for _, e in mono), default=0)
        w = top.bit_length() + 1
        out = _code_products(p, (1, _encode(A.terms, w), _encode(B.terms, w)))
        return list(zip(_decode_all(out, w), out.values()))

    merged = 0
    for n in range(1, 10):
        for top in (1, 1, 5):
            for _ in range(8):
                slots = list(range(n))
                rng.shuffle(slots)
                cut = rng.randint(0, n)
                if rng.random() < 0.3:
                    slots.sort()
                A = random_poly(n, sorted(slots[:cut]), top)
                B = random_poly(n, sorted(slots[cut:]), top)
                assert A.variables().isdisjoint(B.variables())
                for X, Y in ((A, B), (B, A), (A, MPoly.zero(ctx, n)),
                             (MPoly.constant(ctx, n, 3), B)):
                    assert list((X * Y).terms.items()) == coded(X, Y)
                merged += any(m1 and m2 and m1[0][0] < m2[-1][0] and m2[0][0] < m1[-1][0]
                              for m1 in A.terms for m2 in B.terms)
    assert merged > 0


def test_eval_batch_matches_pointwise():
    rng = random.Random(7)
    big = FieldCtx(1_073_741_789)           # the largest prime below 2**30
    for ctx in (GF5, GF101, FieldCtx(2**61 - 1), big):
        P = _random_poly(ctx, 4, rng, terms=8)
        pts = [tuple(rng.randrange(ctx.p) for _ in range(4)) for _ in range(50)]
        assert P.eval_batch(pts) == [P.eval_raw(pt) for pt in pts]
    # the int64 batch path at its largest modulus, on cubes of the largest
    # residues: every product must stay below 2**63
    q = big.p - 1
    P = parse_terms(big, 3, f"{q}*x1^3*x2 + x2^3*x3^3 + {q}*x3^2 + 5")
    pts = [(q - t, q, t) for t in range(9)]
    assert P.eval_batch(pts) == [P.eval_raw(pt) for pt in pts]
    # a huge exponent costs its bit length, not its value
    P = parse_terms(big, 2, "x1^1000000007 + 3*x2^3")
    pts = [(q - t, t) for t in range(8)]
    expected = [(pow(a, 1000000007, big.p) + 3 * b**3) % big.p for a, b in pts]
    assert P.eval_batch(pts) == expected
    assert [P.eval_raw(pt) for pt in pts] == expected
    # polynomials that do not depend on the point still answer every point
    assert MPoly.constant(GF101, 2, 7).eval_batch([(t, t) for t in range(9)]) == [7] * 9
    assert MPoly.zero(GF101, 2).eval_batch([(t, 1) for t in range(8)]) == [0] * 8


# the moduli of the exactness tests: small, mid, the largest prime below the
# int64 path's limit 2**30, and the largest supported modulus
EXACT_MODULI = [5, 101, 1_073_741_789, 2**61 - 1]


class CheckedInt(int):
    """An int whose sums, products and residues must stay in [0, 2**62).

    Evaluating at CheckedInt entries runs a plan on Python ints and checks
    every intermediate value its steps compute, as the int64 path would
    hold them.
    """

    def _checked(self, value):
        assert 0 <= value < 2**62, value
        return CheckedInt(value)

    def __add__(self, other):
        return self._checked(int(self) + int(other))

    def __mul__(self, other):
        return self._checked(int(self) * int(other))

    def __mod__(self, other):
        return self._checked(int(self) % int(other))

    __radd__ = __add__
    __rmul__ = __mul__


def extreme_points(n, p, rng, count=9):
    """count points of arity n: all p - 1 (the largest residues), all 1, and
    random nonzero residues; 9 points take the batch path below 2**30."""
    pts = [(p - 1,) * n, (1,) * n]
    pts += [tuple(rng.randrange(1, p) for _ in range(n)) for _ in range(count - 2)]
    return pts


def assert_matches_reference(P, pts):
    """Pointwise and batch values, from lists and from arrays, equal the
    per-term reference; below 2**30 no intermediate reaches 2**62."""
    p = P.ctx.p
    ref = _ref_from(P)
    want = [_ref_eval(ref, pt, p) for pt in pts]
    assert [P.eval_raw(pt) for pt in pts] == want
    assert P.eval_batch(pts) == want
    assert P.eval_batch(np.array(pts, dtype=np.int64)) == want
    if p < 2**30:
        assert [P.eval_raw([CheckedInt(v) for v in pt]) for pt in pts] == want


@pytest.mark.parametrize("p", EXACT_MODULI)
def test_eval_matches_reference_on_wide_sums(p):
    # 300 linear children of the root with coefficient p - 1: at 1_073_741_789
    # four of their products already pass 2**62, so the sum is reduced in the
    # middle; at 101 the whole sum stays far below it and nothing is reduced
    ctx = FieldCtx(p)
    P = MPoly(ctx, 300, {((v, 1),): p - 1 - v % (p - 1) for v in range(300)} | {(): p - 1})
    assert_matches_reference(P, extreme_points(300, p, random.Random(p)))
    steps = [op for op, *_ in P._plan.code]
    assert steps.count(_PROD) + steps.count(_PROD_ACC) == 300
    reductions = steps.count(_MOD) + sum(f.count(_REDUCE) for op, _, f, _ in P._plan.code
                                         if op in (_PROD, _PROD_ACC))
    if p == 1_073_741_789:
        assert _PROD_ACC in steps[steps.index(_MOD):] and reductions <= 300 // 3 + 1
    if p in (5, 101):
        assert reductions == 0


@pytest.mark.parametrize("p", EXACT_MODULI)
def test_eval_matches_reference_on_a_long_monomial(p):
    # one monomial over 3000 slots, deeper than the interpreter's recursion
    # limit: compiling and evaluating it must not recurse per variable
    ctx = FieldCtx(p)
    P = MPoly(ctx, 3000, {tuple((v, 1) for v in range(3000)): 3})
    assert_matches_reference(P, extreme_points(3000, p, random.Random(p)))


@pytest.mark.parametrize("p", EXACT_MODULI)
def test_eval_matches_reference_on_powers_and_constants(p):
    ctx = FieldCtx(p)
    rng = random.Random(p)
    pts = extreme_points(2, p, rng)
    assert_matches_reference(parse_terms(ctx, 2, "x1^1000000007 + 3*x2^3"), pts)
    assert_matches_reference(parse_terms(ctx, 2, f"{p - 1}*x1^5*x2^2 + x1^5 + x2^2"), pts)
    assert_matches_reference(MPoly.constant(ctx, 2, p - 1), pts)
    assert_matches_reference(MPoly.zero(ctx, 2), pts)
    assert_matches_reference(MPoly.constant(ctx, 0, 7), [()] * 9)


def _products(plan) -> int:
    """The products a plan computes: a factor of a _PROD step, a _CHILD
    step or a _MUL of two registers."""
    products = 0
    for op, _, f, _ in plan.code:
        if op in (_PROD, _PROD_ACC):
            products += len(f) - f.count(_REDUCE)
        products += op in (_CHILD, _CHILD_ACC, _MUL)
    return products


@pytest.mark.parametrize("p", EXACT_MODULI)
def test_eval_matches_reference_on_dense_multilinear(p):
    ctx = FieldCtx(p)
    rng = random.Random(p)
    P = random_multilinear(ctx, 10, rng)
    assert_matches_reference(P, extreme_points(10, p, rng))
    # q_10 splits neither into pieces nor into factors, so it is one core:
    # one product per distinct monomial prefix, and its 2**10 - 1 nonempty
    # monomials are their own prefixes
    core = q_n(10, ctx)
    assert_matches_reference(core, extreme_points(10, p, rng))
    assert _products(core._plan) == 2**10 - 1
    # every coefficient p - 1: (p - 1) * prod(1 + x_v), a product of 10
    # affine leaves
    full = MPoly(ctx, 10, {tuple((v, 1) for v in range(10) if mask >> v & 1): p - 1
                           for mask in range(1 << 10)})
    assert_matches_reference(full, extreme_points(10, p, rng))
    assert _products(full._plan) <= 2 * 10


# the moduli of the split-tree tests: GF(2) and GF(3), where the fixed
# proposal points are few, the exactness moduli and 2**31 - 1, the first
# that the proposals hold in object arrays
SPLIT_MODULI = [2, 3, 5, 101, 1009, 2**31 - 1, 2**61 - 1]


def _embedded_rof(ctx, n, slots, rng):
    """The expansion of a random formula on the given slots of arity n."""
    return random_rof(ctx, len(slots), rng).expand().embed(n, dict(enumerate(slots)))


def _variants(ctx, n, rng):
    """G*H + c and G + H, as the benchmark's read-many variants build them:
    G a shifted q_k on k >= 3 slots, H a read-once expansion on the rest."""
    k = rng.randint(3, n - 1)
    slots = sorted(rng.sample(range(n), k))
    low = high = MPoly.constant(ctx, n, 1)
    for s in slots:
        a, b = rng.randrange(1, ctx.p), rng.randrange(ctx.p)
        low = low * MPoly.affine(ctx, n, s, a, b - 1)
        high = high * MPoly.affine(ctx, n, s, a, b)
    G = low + high
    H = _embedded_rof(ctx, n, [s for s in range(n) if s not in slots], rng)
    return [G * H + MPoly.constant(ctx, n, rng.randrange(ctx.p)), G + H]


@pytest.mark.parametrize("p", SPLIT_MODULI)
def test_split_plans_match_reference(p):
    ctx = FieldCtx(p)
    rng = random.Random(p + 1)
    polys = []
    for n in range(3, 11):
        polys += [random_rof(ctx, n, rng).expand(), random_rof(ctx, n, rng).expand(),
                  _embedded_rof(ctx, n + 2, rng.sample(range(n + 2), n), rng)]
    for n in (5, 6, 7, 8):
        polys += _variants(ctx, n, rng)
    polys += [q_n(n, ctx) for n in (3, 5, 8)]
    polys += [random_multilinear(ctx, 6, rng),
              _random_poly(ctx, 4, rng, terms=12, max_exp=3),
              parse_terms(ctx, 3, "x1^2*x2 + x1*x2*x3 + 1"),
              MPoly.constant(ctx, 4, p - 1), MPoly.zero(ctx, 4)]
    for P in polys:
        assert_matches_reference(P, extreme_points(P.arity, p, rng))
    assert_matches_reference(MPoly.constant(ctx, 0, 1), [()] * 9)
    assert_matches_reference(MPoly.zero(ctx, 0), [()] * 9)


def _leaf_product(ctx, n, rng):
    """The expansion of a product of n affine leaves, each with a constant."""
    P = MPoly.constant(ctx, n, 1)
    for v in range(n):
        P = P * MPoly.affine(ctx, n, v, rng.randrange(1, ctx.p), rng.randrange(1, ctx.p))
    return P


@pytest.mark.parametrize("p", [2, 3, 5, 1009])
def test_leaf_product_compiles_to_linear_steps(p):
    # 4,096 terms, against one Horner product per term; over GF(2) and GF(3)
    # every point with nonzero coordinates may be a root of the cofactors,
    # and the 0/1 point of each slot still proposes the split
    rng = random.Random(12)
    P = _leaf_product(FieldCtx(p), 12, rng)
    assert len(P.terms) == 2**12
    assert_matches_reference(P, extreme_points(12, p, rng))
    assert len(P._plan.code) < 4 * 12


def test_plans_compile_deterministically():
    rng = random.Random(4)
    ctx = FieldCtx(101)
    polys = [random_rof(ctx, 9, rng).expand(), _leaf_product(ctx, 8, rng),
             q_n(6, ctx)] + _variants(ctx, 8, rng)
    for P in polys:
        assert _compile_poly(P).code == _compile_poly(P).code


@pytest.mark.parametrize("count", [7, 8])
def test_eval_batch_reduces_entries_beyond_int64(count):
    # 7 points are evaluated one by one, 8 as int64 columns: entries past
    # int64 must be reduced as Python ints before the cast
    P = parse_terms(GF101, 2, "x1^2*x2 + 3*x1 + x2")
    ref = _ref_from(P)
    mixed = [(10**20, 1), (-(10**30), 2**63), (2**64 + 5, -1)] * 3
    for pts in ([(10**20, 1)] * count, mixed[:count]):
        want = [_ref_eval(ref, [v % 101 for v in pt], 101) for pt in pts]
        assert P.eval_batch(pts) == want


def test_formal_vs_functional_zero_gf2():
    P = parse_terms(GF2, 1, "x1^2 + x1")
    assert not P.is_zero()
    assert all(P.eval_raw((v,)) == 0 for v in (0, 1))


def test_is_zero_matches_grid_for_low_degree():
    # Individual degree <= 2, so values on {0,1,2}^3 determine the polynomial.
    rng = random.Random(13)
    grid = list(itertools.product(range(3), repeat=3))
    for _ in range(500):
        P = _random_poly(GF5, 3, rng, terms=rng.randint(0, 5), max_exp=2)
        vanishes = all(P.eval_raw(pt) == 0 for pt in grid)
        assert P.is_zero() == vanishes


def test_degrees_and_variables():
    P = parse_terms(GF101, 4, "2*x1*x3^2 + x2 + 5")
    assert P.variables() == frozenset({0, 1, 2})
    assert not P.is_multilinear()
    assert parse_terms(GF101, 2, "x1*x2 + x2").is_multilinear()


def test_partial_known_values():
    # Q3 = (x1-1)(x2-1)(x3-1) + x1*x2*x3 expanded by hand.
    Q3 = parse_terms(
        GF101, 3,
        "2*x1*x2*x3 - x1*x2 - x1*x3 - x2*x3 + x1 + x2 + x3 - 1")
    d1 = parse_terms(GF101, 3, "2*x2*x3 - x2 - x3 + 1")
    d12 = parse_terms(GF101, 3, "2*x3 - 1")
    assert Q3.partial(0) == d1
    assert Q3.partial2(0, 1) == d12
    assert Q3.partial2(1, 0) == d12


def test_partial_is_difference_of_restrictions():
    rng = random.Random(41)
    for _ in range(60):
        P = random_multilinear(GF101, 4, rng)
        i = rng.randrange(4)
        assert P.partial(i) == P.restrict(i, 1) - P.restrict(i, 0)


def test_partial_requires_multilinearity_in_that_variable():
    P = parse_terms(GF101, 2, "x1^2 + x2")
    with pytest.raises(NotMultilinearInVar):
        P.partial(0)
    assert P.partial(1) == MPoly.constant(GF101, 2, 1)
    with pytest.raises(SameVariable):
        P.partial2(1, 1)


def test_partial_memo_repeats_and_never_caches_errors():
    rng = random.Random(43)
    P = random_multilinear(GF101, 4, rng)
    for i in range(4):
        first = P.partial(i)
        assert P.partial(i) == first
        assert P.partial(i) == P.restrict(i, 1) - P.restrict(i, 0)
        # a fresh copy with no memo computes the same partial
        assert MPoly(GF101, 4, P.terms).partial(i) == first
    # the memo of one polynomial does not leak into another
    Q = P + MPoly.variable(GF101, 4, 0)
    assert Q.partial(0) == P.partial(0) + MPoly.constant(GF101, 4, 1)
    assert P.partial2(0, 1) == P.partial(0).partial(1) == P.partial2(1, 0)

    R = parse_terms(GF101, 3, "x1^2*x2 + x3")
    for _ in range(3):
        with pytest.raises(NotMultilinearInVar):
            R.partial(0)
    assert R.partial(2) == MPoly.constant(GF101, 3, 1)
    with pytest.raises(NotMultilinearInVar):
        R.partial(0)
    for bad in (3, -1, 3):
        with pytest.raises(ArityMismatch):
            R.partial(bad)


def test_restrict_keeps_arity():
    P = parse_terms(GF101, 3, "x1*x2 + x3")
    R = P.restrict(0, 2)
    assert R.arity == 3
    assert R == parse_terms(GF101, 3, "2*x2 + x3")
    assert R.variables() == frozenset({1, 2})
    RM = P.restrict_many((0, 2), (4, 0, 9))
    assert RM == parse_terms(GF101, 3, "4*x2 + 9")


def test_scale_and_leading_coefficient():
    P = parse_terms(GF101, 2, "5*x1 + 3")
    assert P.leading_coefficient() == 5
    assert P.scale(2) == parse_terms(GF101, 2, "10*x1 + 6")
    Q = parse_terms(GF101, 3, "x1*x2 + 7*x3")
    assert Q.leading_coefficient() == 1


def test_embed_relabels_variables():
    P = parse_terms(GF101, 2, "x1*x2 + 4*x1")
    E = P.embed(5, {0: 3, 1: 0})
    assert E.arity == 5
    rng = random.Random(3)
    for _ in range(30):
        pt = tuple(rng.randrange(101) for _ in range(5))
        assert E.eval_raw(pt) == P.eval_raw((pt[3], pt[0]))


def test_embed_collision_adds_exponents():
    P = parse_terms(GF101, 2, "x1*x2")
    E = P.embed(3, {0: 1, 1: 1})
    assert E == parse_terms(GF101, 3, "x2^2")


def test_equality_and_hash():
    P = parse_terms(GF5, 2, "x1 + 4")
    Q = parse_terms(GF5, 2, "x1 - 1")
    assert P == Q and hash(P) == hash(Q)
    assert P != parse_terms(GF5, 2, "x1 + 3")
    assert P != parse_terms(FieldCtx(7), 2, "x1 + 4")


def test_serialize_format():
    P = parse_terms(GF101, 3, "x3 + 2*x1*x2^2 + 1")
    assert P.serialize_terms() == "2*x1*x2^2 + x3 + 1"
    assert MPoly.zero(GF101, 3).serialize_terms() == "0"
    assert P.to_text() == "field p=101 n=3\n2*x1*x2^2 + x3 + 1\n"


def test_text_round_trip_random():
    rng = random.Random(59)
    for _ in range(100):
        ctx = [GF2, GF5, GF101][rng.randrange(3)]
        P = _random_poly(ctx, rng.randint(1, 4), rng, terms=rng.randint(0, 6))
        Q = parse_poly_file(P.to_text())
        assert Q == P and Q.ctx == P.ctx and Q.arity == P.arity


def test_parse_accepts_whitespace_and_comments():
    text = "# instance\n\nfield p=101 n=3\n\n  x1*x2 - x3 + 100  \n"
    P = parse_poly_file(text)
    assert P == parse_terms(GF101, 3, "x1*x2 + 100*x3 + 100")


def test_parse_header_errors():
    assert parse_header("field p=7 n=2") == (7, 2)
    for bad in ("field p=7", "p=7 n=2", "field p=x n=2", "field p=7 n=-1"):
        with pytest.raises(ParseError):
            parse_header(bad)
    with pytest.raises(ParseError):
        parse_poly_file("field p=91 n=2\nx1\n")


def test_parse_term_errors():
    for bad in ("x0", "x3", "y1", "x1^0", "2**x1", "x1 x2", "3*"):
        with pytest.raises(ParseError):
            parse_terms(GF101, 2, bad)
    with pytest.raises(ParseError):
        parse_poly_file("field p=101 n=2\n")


def test_interpolation_round_trip():
    # (field, fewest nodes per axis, most nodes per axis).  The two large
    # fields with 4-5 nodes exceed the int64 bound of interpolate_grid, so
    # they cover its arithmetic on Python ints.
    fields = [(GF5, 1, 3), (GF101, 1, 3),
              (FieldCtx(2**30 + 3), 4, 5), (FieldCtx(2**61 - 1), 4, 5)]
    rng = random.Random(71)
    for _ in range(400):
        ctx, lo, hi = fields[rng.randrange(len(fields))]
        k = rng.randint(1, 3)
        degs = [rng.randint(lo - 1, hi - 1) for _ in range(k)]
        P = MPoly.zero(ctx, k)
        for _ in range(4):
            mono = tuple((v, rng.randint(1, degs[v]))
                         for v in range(k) if degs[v] and rng.random() < 0.7)
            P = P + MPoly(ctx, k, {mono: rng.randrange(ctx.p)})
        axes = [random.Random(rng.random()).sample(range(ctx.p), degs[v] + 1)
                for v in range(k)]
        values = [P.eval_raw(pt) for pt in itertools.product(*axes)]
        assert interpolate_grid(ctx, axes, values) == P
        # unreduced representatives, as a list or as an array, give the same
        shifted = [v - 3 * ctx.p for v in values]
        assert interpolate_grid(ctx, axes, shifted) == P
        assert interpolate_grid(ctx, axes, np.array(shifted, dtype=np.int64)) == P


def _lagrange_basis(p, xs):
    """M[t][k] = coefficient of X^t in the Lagrange basis polynomial of node
    k, by expanding prod_{j != k} (X - x_j) one factor at a time."""
    m = len(xs)
    M = [[0] * m for _ in range(m)]
    for k in range(m):
        num = [1]
        for j in range(m):
            if j != k:
                num = [((num[t - 1] if t else 0) - xs[j] * (num[t] if t < len(num) else 0)) % p
                       for t in range(len(num) + 1)]
        denom = 1
        for j in range(m):
            if j != k:
                denom = denom * (xs[k] - xs[j]) % p
        for t in range(m):
            M[t][k] = num[t] * pow(denom, p - 2, p) % p
    return M


@pytest.mark.parametrize("p", [3, 5, 1009, 2**30 - 35, 2**31 - 1, 2**61 - 1])
def test_basis_matrices_match_lagrange_expansion(p):
    # one call builds the bases of many node tuples; each must equal the
    # one-tuple expansion, with float64 entries only where a row times a
    # column of residues stays below 2**53, and int64 ones only where it
    # stays below 2**62
    rng = random.Random(p)
    for L in range(1, min(p, 9) + 1):
        nodes = [rng.sample(range(p), L) if p < 10**6 else
                 [rng.randrange(p) for _ in range(L)] for _ in range(6)]
        nodes = [xs for xs in nodes if len(set(xs)) == L]
        M = _basis_matrices(p, np.array(nodes, dtype=np.int64))
        assert M.shape == (len(nodes), L, L)
        bound = L * (p - 1) ** 2
        assert M.dtype == (np.float64 if bound < 2**53 else
                           np.int64 if bound < 2**62 else object)
        for xs, got in zip(nodes, M.tolist()):
            assert got == _lagrange_basis(p, xs)


def _reference_coefficients(p, axes, values):
    """The interpolant's coefficient grid, in Python ints: each axis's
    _lagrange_basis applied in turn to the samples, in product order."""
    dims = [len(xs) for xs in axes]
    cells = list(itertools.product(*map(range, dims)))
    C = dict(zip(cells, values))
    for t, xs in enumerate(axes):
        M = _lagrange_basis(p, xs)
        C = {e: sum(M[e[t]][r] * C[e[:t] + (r,) + e[t + 1:]] for r in range(dims[t])) % p
             for e in cells}
    return [C[e] for e in cells]


# (p, reductions mod p before a step): three axes of 9 nodes.  Float64
# bases bound a step's entries by L * (p - 1) times the last bound, from
# p - 1 for residues, and reduce before a step that could reach 2**53: not
# at 1873, before the third step at 1877, and before the second and third
# at 31635403.  At 31635431 the bases are int64 and at 2**31 - 1 and
# 2**61 - 1 Python ints; those reduce after every step and call no fmod
@pytest.mark.parametrize("p, reductions", [(1873, 0), (1877, 1), (31635403, 2),
                                           (31635431, 0), (2**31 - 1, 0), (2**61 - 1, 0)])
def test_interpolate_stack_is_exact_on_both_sides_of_each_threshold(p, reductions, monkeypatch):
    rng = random.Random(p)
    L, k = 9, 3
    bound = L * (p - 1) ** 2
    dtype = np.float64 if bound < 2**53 else np.int64 if bound < 2**62 else object
    fmod, calls = np.fmod, []
    monkeypatch.setattr(np, "fmod", lambda *a: calls.append(a[1]) or fmod(*a))
    # samples near p - 1 push the entries toward their bound
    values = [[rng.choice((p - 1, p - 2, rng.randrange(p))) for _ in range(L**3)]
              for _ in range(k)]
    C = np.array(values, dtype=np.int64).reshape(k, L, L, L)
    shared = [rng.sample(range(p), L) for _ in range(3)]
    own = [[rng.sample(range(p), L) for _ in range(3)] for _ in range(k)]
    stack = _basis_matrices(p, np.array(own, dtype=np.int64).reshape(3 * k, L))
    for axes, bases in (([shared] * k, [_basis_matrices(p, [xs])[0] for xs in shared]),
                        (own, [stack.reshape(k, 3, L, L)[:, t] for t in range(3)])):
        assert all(M.dtype == dtype for M in bases)
        calls.clear()
        got = _interpolate_stack(p, bases, C)
        assert calls == [p] * reductions
        assert got.dtype == (object if dtype is object else np.int64)
        assert got.shape == (k, L, L, L)
        for g in range(k):
            assert got[g].ravel().tolist() == _reference_coefficients(p, axes[g], values[g])


def test_interpolation_mixes_float_and_int64_axes():
    # at p = 31635403 a basis of 9 nodes is float64 and one of 10 is int64
    # (10 * (p - 1)**2 passes 2**53), so the grid's steps switch between
    # float64 and int64 entries both ways
    ctx = FieldCtx(31635403)
    rng = random.Random(5)
    lengths = (9, 10, 9)
    assert [_basis_matrices(ctx.p, [range(L)])[0].dtype for L in lengths] == \
        [np.float64, np.int64, np.float64]
    for _ in range(3):
        axes = [rng.sample(range(ctx.p), L) for L in lengths]
        values = [rng.randrange(ctx.p) for _ in range(9 * 10 * 9)]
        P = interpolate_grid(ctx, axes, values)
        coefficients = _reference_coefficients(ctx.p, axes, values)
        cells = itertools.product(*(range(L) for L in lengths))
        want = {tuple((t, e) for t, e in enumerate(cell) if e): c
                for cell, c in zip(cells, coefficients) if c}
        assert P.terms == want


def test_interpolation_reduces_samples_beyond_int64():
    # 2**63 + 1 = 91 and 2**64 + 5 = 84 mod 101; a float64 conversion of the
    # first read 12*x1 + 90
    assert interpolate_grid(GF101, [[0, 1]], [2**63 + 1, 1]) == parse_terms(GF101, 1, "11*x1 + 91")
    assert interpolate_grid(GF101, [[0, 1]], [1, 2**64 + 5]) == parse_terms(GF101, 1, "83*x1 + 1")
    for values in ([2**63 + 1, -(2**64) - 5], np.array([2**63 + 1, 2**64 + 5], dtype=object),
                   np.array([2**63 + 1, 2**64 - 1], dtype=np.uint64)):
        got = _residues(values, 101)
        assert got.dtype == np.int64
        assert got.tolist() == [int(v) % 101 for v in values]


def test_residues_hand_back_int64_residues_uncopied():
    a = np.array([[0, 100], [5, 7]], dtype=np.int64)
    assert _residues(a, 101) is a
    assert np.shares_memory(_residues(a.T, 101), a)
    b = np.array([[-1, 101], [5, 2**62]], dtype=np.int64)
    got = _residues(b, 101)
    assert got.tolist() == [[100, 0], [5, 2**62 % 101]]
    assert b.tolist() == [[-1, 101], [5, 2**62]]
    assert _residues([], 101).shape == (0,)


def test_interpolation_errors():
    axes = [(0, 1), (0, 1)]
    full = [1] * 4
    for wrong in (full[:3], full + [1], []):
        with pytest.raises(IncompleteGrid):
            interpolate_grid(GF101, axes, wrong)
    with pytest.raises(DuplicateNode):
        interpolate_grid(GF101, [(0, 0), (0, 1)], full)
    with pytest.raises(DuplicateNode):
        interpolate_grid(GF101, [(0, 101), (0, 1)], full)
    with pytest.raises(EmptySampleSet):
        interpolate_grid(GF101, [(), (0, 1)], [])
    for k in (0, 4):
        with pytest.raises(InvalidParams):
            interpolate_grid(GF101, [(0, 1)] * k, full)


def test_random_multilinear_shape():
    rng = random.Random(97)
    P = random_multilinear(GF101, 5, rng)
    assert P.arity == 5 and P.is_multilinear()
    with pytest.raises(OutOfRange):
        random_multilinear(GF101, 17, rng)
