"""Structure layer: commutators, split tests, witnesses, gate graphs."""

import itertools
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from ropcheck import decomp, structure
from ropcheck.charax import certificate_multiplicands, characterize
from ropcheck.decomp import (
    _PROBES,
    _slot_vanishes,
    _subsets,
    _taylor_table,
    _TaylorPlan,
    _trivariate_rop,
    trivariate_is_rop,
    witness_is_zero,
)
from ropcheck.errors import (
    ArityMismatch,
    Error,
    IndexOverlap,
    InvalidParams,
    NotDecomposable,
    NotMultilinear,
    NotSeparableAlongCut,
    SameVariable,
    TooManyVariables,
    VariableNotPresent,
)
from ropcheck.ff import FieldCtx
from ropcheck.hardcases import q_n
from ropcheck.mpoly import MPoly, _coded_cofactors, parse_terms, random_multilinear
from ropcheck.reference import (
    GateGraph,
    additive_split,
    brute_force_is_rop,
    commutator,
    decomp_witness,
    decompose,
    find_nonzero_point,
    gate_graph,
    is_additively_separable,
    multiplicative_split,
)
from ropcheck.rof import random_rof

GF1009 = FieldCtx(1009)
GF101 = FieldCtx(101)
GF5 = FieldCtx(5)
GF3 = FieldCtx(3)
GF2 = FieldCtx(2)

E2 = parse_terms(GF101, 3, "x1*x2 + x2*x3 + x1*x3")


def test_commutator_known_values():
    P = parse_terms(GF101, 3, "x1*x2 + x3")
    assert commutator(P, 0, 1) == parse_terms(GF101, 3, "x3")
    assert commutator(E2, 0, 1) == parse_terms(GF101, 3, "100*x3^2")
    assert commutator(P, 0, 1) == commutator(P, 1, 0)
    # against the defining product form, on random multilinear inputs
    rng = random.Random(29)
    for ctx in (GF2, GF3, GF5, GF101):
        for n in range(2, 7):
            for _ in range(2):
                Q = random_multilinear(ctx, n, rng)
                for i, j in itertools.permutations(range(n), 2):
                    ref = Q * Q.partial2(i, j) - Q.partial(i) * Q.partial(j)
                    assert commutator(Q, i, j) == ref


def test_commutator_errors():
    P = parse_terms(GF101, 2, "x1*x2")
    with pytest.raises(SameVariable):
        commutator(P, 1, 1)
    with pytest.raises(NotMultilinear):
        commutator(parse_terms(GF101, 2, "x1^2*x2"), 0, 1)


def test_find_nonzero_point():
    P = parse_terms(GF5, 3, "x1*x2*x3 + 4*x2 + 3*x3")
    w = find_nonzero_point(P)
    assert P.eval_raw(w) != 0
    assert find_nonzero_point(parse_terms(GF2, 2, "x1*x2")) == (1, 1)
    with pytest.raises(InvalidParams):
        find_nonzero_point(MPoly.zero(GF5, 2))
    with pytest.raises(NotMultilinear):
        find_nonzero_point(parse_terms(GF5, 2, "x1^2 + 4*x1"))


def test_find_nonzero_point_single_nonzero_point():
    # x1*...*x20 over GF(2) is nonzero at the all-ones point only.
    P = parse_terms(GF2, 20, "*".join(f"x{t}" for t in range(1, 21)))
    assert find_nonzero_point(P) == (1,) * 20
    r = decompose(P, 0, 1)
    assert r.decomposable and not r.degenerate and int(r.c) == 0


def test_decompose_with_constant():
    P = parse_terms(GF101, 2, "x1*x2 + 5")
    r = decompose(P, 0, 1)
    assert r.decomposable and not r.degenerate and int(r.c) == 5

    # (x1+2)(x2+3) + 7
    Q = parse_terms(GF101, 2, "x1*x2 + 3*x1 + 2*x2 + 13")
    r = decompose(Q, 0, 1)
    assert r.decomposable and int(r.c) == 7


def test_decompose_negative_and_degenerate():
    r = decompose(parse_terms(GF101, 3, "x1*x2 + x3"), 0, 1)
    assert not r.decomposable and not r.degenerate and r.c is None
    r = decompose(parse_terms(GF101, 2, "x1 + x2"), 0, 1)
    assert not r.decomposable and r.degenerate


def test_decompose_errors():
    P = parse_terms(GF101, 3, "x1*x2 + x3")
    with pytest.raises(SameVariable):
        decompose(P, 2, 2)
    with pytest.raises(VariableNotPresent):
        decompose(parse_terms(GF101, 3, "x1*x2"), 0, 2)


def test_decompose_matches_brute_force_enumeration():
    # Oracle: over GF(5) with 2 live variables, try every constant c and
    # check whether P - c factors with x1, x2 apart, by scanning products
    # of affine pairs; compare against the algebraic test.
    rng = random.Random(101)
    for _ in range(120):
        P = random_multilinear(GF5, 2, rng)
        if P.partial2(0, 1).is_zero():
            continue
        found = False
        for c in range(5):
            p1 = P - MPoly.constant(GF5, 2, c)
            for a1, b1, a2, b2 in itertools.product(range(5), repeat=4):
                if a1 == 0 or a2 == 0:
                    continue
                h = MPoly.affine(GF5, 2, 0, a1, b1)
                g = MPoly.affine(GF5, 2, 1, a2, b2)
                if h * g == p1:
                    found = True
                    break
            if found:
                break
        assert decompose(P, 0, 1).decomposable == found


def test_witness_value_known():
    W = decomp_witness(E2, 0, 1)
    assert W.value.arity == 6
    expected = parse_terms(GF101, 6, "x6^2 + 100*x3^2")
    assert W.value == expected


def test_witness_shared_glues_slots():
    W = decomp_witness(E2, 0, 1, shared={2})
    assert W.value.is_zero()
    with pytest.raises(IndexOverlap):
        decomp_witness(E2, 0, 1, shared={0})
    with pytest.raises(IndexOverlap):
        decomp_witness(E2, 0, 1, shared={5})


def test_witness_is_zero_rejects_slots_outside_the_arity():
    # a pair slot outside [0, n) is the library's ArityMismatch, as it is
    # for P.partial, not a lookup error from the pair tables
    for i, j in ((0, 3), (3, 0), (0, -1), (-1, 2)):
        with pytest.raises(ArityMismatch) as info:
            witness_is_zero(E2, i, j)
        assert isinstance(info.value, Error)
        with pytest.raises(ArityMismatch):
            witness_is_zero(E2, i, j, shared={1})


def test_witness_restriction_identity():
    # Restricting a coordinate before building the witness equals gluing
    # that coordinate and restricting the shared slot afterwards.
    rng = random.Random(19)
    for _ in range(40):
        P = random_multilinear(GF101, 4, rng)
        i, j, k = random.Random(rng.random()).sample(range(4), 3)
        alpha = rng.randrange(101)
        left = decomp_witness(P.restrict(k, alpha), i, j).value
        right = decomp_witness(P, i, j, shared={k}).value.restrict(k, alpha)
        assert left == right


def _witness_cases(ctx, n, rng):
    """(P, i, j, J) for q_n, read-once expansions and random multilinear
    polynomials of arity n, one random pair each, every glue set J."""
    polys = [q_n(n, ctx), random_rof(ctx, n, rng).expand(),
             random_rof(ctx, n, rng).expand(), random_multilinear(ctx, n, rng)]
    for P in polys:
        i, j = rng.sample(range(n), 2)
        rest = [t for t in range(n) if t not in (i, j)]
        for size in range(len(rest) + 1):
            for J in itertools.combinations(rest, size):
                yield P, i, j, frozenset(J)


def test_witness_is_zero_matches_materialized():
    rng = random.Random(67)
    for ctx in (GF3, GF5, GF101):
        for n in range(3, 7):
            for P, i, j, J in _witness_cases(ctx, n, rng):
                want = decomp_witness(P, i, j, J).value.is_zero()
                assert witness_is_zero(P, i, j, J) == want


def test_witness_is_zero_small_field_path():
    rng = random.Random(3)
    for n in range(3, 7):
        for P, i, j, J in _witness_cases(GF2, n, rng):
            want = decomp_witness(P, i, j, J).value.is_zero()
            assert witness_is_zero(P, i, j, J) == want


def _probe_points(n, p):
    """The two witness probe points: point t reads _PROBES[t] from entry 0,
    cyclically, reduced mod p."""
    return [[probe[k % len(probe)] % p for k in range(n)] for probe in _PROBES]


def _probe_readings(P):
    """Whether each split column's witness vanishes in its free variable at
    each probe point (decomp._witness_vanishes), as a (splits, 2) array,
    once _probe_witnesses is checked to read a column live iff it does not
    vanish at both points."""
    lay = decomp._pair_layout(P.arity)
    plan = decomp._taylor_plan(P)
    table = plan.table([list(column) for column in zip(*_probe_points(P.arity, P.ctx.p))])
    vanishes = decomp._witness_vanishes(table, lay.left, lay.right, P.ctx.p)
    assert vanishes.shape == (len(lay.columns), 2)
    assert (decomp._probe_witnesses(P, plan, lay) == ~vanishes.all(axis=-1)).all()
    return vanishes


def _free_witness(P, i, j, m, x):
    """The materialized witness of (i, j) glued on rest - {m} with x set into
    its x-block: a polynomial in y_m (slot n + m) alone."""
    n = P.arity
    W = decomp_witness(P, i, j, frozenset(range(n)) - {i, j, m}).value
    free = W.restrict_many(range(n), list(x) + [0] * n)
    assert free.variables() <= {n + m}
    return free


def _certificate_glue_sets(n):
    """(i, j, J, m) for every pair, J = {} with m = None and J = rest - {m}."""
    for i, j in itertools.combinations(range(n), 2):
        rest = frozenset(range(n)) - {i, j}
        yield i, j, frozenset(), None
        for m in sorted(rest):
            yield i, j, rest - {m}, m


@pytest.mark.parametrize("p", [3, 5, 101])
def test_probe_value_from_tables_matches_materialized_witness(p):
    # the probes read P's Taylor tables at both fixed points; the
    # materialized witness on 2n slots, with the point set into its x-block,
    # is a polynomial in y_m, which vanishes exactly where the probe reads so
    ctx = FieldCtx(p)
    rng = random.Random(p + 41)
    zero_coordinates = 0
    outcomes = set()
    for n in range(3, 7):
        points = _probe_points(n, p)
        zero_coordinates += sum(x.count(0) for x in points)
        columns = decomp._pair_layout(n).columns
        polys = [q_n(n, ctx), random_rof(ctx, n, rng).expand(),
                 random_rof(ctx, n, rng).expand(), random_multilinear(ctx, n, rng)]
        for P in polys:
            vanishes = _probe_readings(P)
            for (i, j, m), column in columns.items():
                want = [_free_witness(P, i, j, m, x).is_zero() for x in points]
                assert vanishes[column].tolist() == want, (n, i, j, m)
                outcomes.update(want)
    assert outcomes == {True, False}
    if p == 3:
        # probe coordinates that are 0 take the tables' zero-slot branch
        assert zero_coordinates > 0


def test_probe_memo_belongs_to_its_polynomial():
    rng = random.Random(13)
    n = 5
    for ctx in (GF3, GF101):
        points = _probe_points(n, ctx.p)
        columns = decomp._pair_layout(n).columns
        P = random_rof(ctx, n, rng).expand()
        Q = random_multilinear(ctx, n, rng)
        cases = list(_certificate_glue_sets(n))
        tags = [witness_is_zero(P, i, j, J) for i, j, J, _ in cases]
        # Q has P's arity, so the same probe points, but tables of its own
        vanishes = _probe_readings(Q)
        for (i, j, m), column in columns.items():
            assert vanishes[column].tolist() == [_free_witness(Q, i, j, m, x).is_zero()
                                                 for x in points]
        assert Q._probe is not P._probe
        copy = MPoly(ctx, n, dict(P.terms))
        assert copy._probe is None
        assert [witness_is_zero(copy, i, j, J) for i, j, J, _ in cases] == tags
        assert tags == [decomp_witness(P, i, j, J).value.is_zero()
                        for i, j, J, _ in cases]
    # a polynomial that is not multilinear raises on every call, memo or not
    S = parse_terms(GF101, 3, "x1^2*x2 + x3")
    for _ in range(2):
        with pytest.raises(NotMultilinear):
            witness_is_zero(S, 0, 1)


def test_probe_misses_on_q10_are_decided_exactly():
    # a probe that read the witness's value at a second point, y_m read
    # from entry n + m of _PROBES[0], read 0 on two certificate glue sets of
    # q_10 over GF(1009).  Read as polynomials in y_m, both witnesses are
    # live at the first probe point already, and the exact slot test,
    # called directly, must find W != 0 as well
    P = q_n(10, FieldCtx(1009))
    columns = decomp._pair_layout(10).columns
    vanishes = _probe_readings(P)
    x = _probe_points(10, 1009)[0]
    rng = random.Random(10)
    for i, j, m in ((4, 6, 0), (5, 7, 4)):
        J = frozenset(range(10)) - {i, j, m}
        free = _free_witness(P, i, j, m, x)
        y = [0] * 10 + [0] * m + [_PROBES[0][10 + m] % 1009] + [0] * (9 - m)
        assert free.eval_raw(y) == 0 and not free.is_zero()
        assert not vanishes[columns[i, j, m], 0]
        assert not witness_is_zero(P, i, j, J)
        assert not _slot_vanishes(_coded_cofactors(P, (i, j, m)), 1 << i, 1 << j, 1 << m, 1009)
        # W != 0 at a second point pair, through D = P*S - d_iP*d_jP
        S, Pi, Pj = P.partial(i).partial(j), P.partial(i), P.partial(j)

        def D(pt):
            return P.eval_raw(pt) * S.eval_raw(pt) - Pi.eval_raw(pt) * Pj.eval_raw(pt)

        x2 = [rng.randrange(1009) for _ in range(10)]
        y2 = list(x2)
        y2[m] = rng.randrange(1009)
        assert (D(x2) * S.eval_raw(y2) - S.eval_raw(x2) * D(y2)) % 1009


def _taylor_input(ctx, kind, n):
    """The Taylor-table builder's inputs past n = 8."""
    rng = random.Random(f"taylor/{ctx.p}/{kind}/{n}")
    if kind == "monomial":
        # one full-degree monomial plus 1: every |T| <= 3 entry is live
        return MPoly(ctx, n, {tuple((v, 1) for v in range(n)): rng.randrange(1, ctx.p),
                              (): 1})
    if kind == "sparse":
        # 40 monomials of degree n/2 that share little structure
        return MPoly(ctx, n, {tuple((v, 1) for v in sorted(rng.sample(range(n), n // 2))):
                              rng.randrange(1, ctx.p) for _ in range(40)})
    return random_rof(ctx, n, rng).expand()


@pytest.mark.parametrize("p", [2, 3, 1009, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("kind, n", [("monomial", 20), ("monomial", 30), ("monomial", 46),
                                     ("sparse", 20), ("sparse", 46), ("rof", 20)])
def test_taylor_table_matches_partial_chains_past_n8(p, kind, n):
    # every entry d_T P(a), |T| <= 3, of P's Taylor plan against chains of
    # P.partial evaluated at a term by term; the reference never reads the
    # table, and compiles no evaluation plan for its many fresh partials
    ctx = FieldCtx(p)
    P = _taylor_input(ctx, kind, n)
    rng = random.Random(p * n)
    points = []
    for zeros in (0, 1, 3, 4, n):
        # nonzero coordinates as residues or shifted by multiples of p; zero
        # coordinates as 0 or as a nonzero multiple of p
        a = [rng.randrange(1, p) + p * rng.choice((0, 0, -1, 2)) for _ in range(n)]
        for k in rng.sample(range(n), zeros):
            a[k] = p * rng.choice((0, -1, 3))
        points.append(a)
    assert any(v != 0 and v % p == 0 for a in points for v in a)
    tables = [_taylor_table(P, [v % p for v in a]).tolist() for a in points]
    rows = _subsets(n).rows
    assert all(len(table) == len(rows) for table in tables)
    for k in range(4):
        for T in itertools.combinations(range(n), k):
            D = P
            for v in T:
                D = D.partial(v)
            row = rows[sum(1 << v for v in T)]
            for a, table in zip(points, tables):
                value = sum(c * math.prod(pow(a[v], e, p) for v, e in mono)
                            for mono, c in D.terms.items()) % p
                assert table[row] == value, (T, a)


@pytest.mark.parametrize("p", [2, 5, 1009, 2**61 - 1])
def test_taylor_tables_of_k_columns_match_k_single_tables(p):
    # an (n, K) evaluation is K single evaluations side by side, on columns
    # with 0, 1, 3, 4 and n zero coordinates, in one array
    ctx = FieldCtx(p)
    rng = random.Random(p + 3)
    for n in (4, 7, 9):
        for P in (q_n(n, ctx), random_rof(ctx, n, rng).expand(),
                  random_multilinear(ctx, n, rng), MPoly.constant(ctx, n, 1),
                  MPoly.zero(ctx, n)):
            columns = []
            for zeros in (0, 1, 3, 4, n):
                a = [rng.randrange(1, p) for _ in range(n)]
                for k in rng.sample(range(n), zeros):
                    a[k] = 0
                columns.append(a)
            singles = [_taylor_table(P, a).tolist() for a in columns]
            stacked = _taylor_table(P, np.array(columns, dtype=object).T.tolist())
            assert stacked.shape == (_subsets(n).size, len(columns))
            assert stacked.T.tolist() == singles
            # every column alone, as an (n, 1) array, reads the same
            for a, single in zip(columns, singles):
                assert _taylor_table(P, [[v] for v in a])[:, 0].tolist() == single


def _affine_product(ctx, n, rng):
    """The full product of n affine leaves a_k*x_k + b_k, all 2^n terms."""
    P = MPoly.constant(ctx, n, 1)
    for k in range(n):
        P = P * MPoly.affine(ctx, n, k, rng.randrange(1, ctx.p), rng.randrange(1, ctx.p))
    return P


@pytest.mark.parametrize("p", [2, 3, 1009])
def test_coded_zero_tests_match_materialized_witness_on_dense_inputs(p):
    # decompose and the slot test run on coded cofactors and never build D;
    # the materialized witness builds D through MPoly products.  The slot
    # test is called directly, since the probe refutes most read-many glue
    # sets before witness_is_zero reaches it.
    ctx = FieldCtx(p)
    rng = random.Random(p + 8)
    outcomes = set()
    for n in range(3, 9):
        polys = [q_n(n, ctx), _affine_product(ctx, n, rng)]
        polys += [max((random_rof(ctx, n, rng).expand() for _ in range(4)),
                      key=lambda P: len(P.terms)) for _ in range(2)]
        if n >= 4:
            # x1*x2 + x1*x3 + x2*x3 plus a formula in the other slots: for
            # the pair (0, 1) along 2, A1*D0 == A0*D1 but D2 != 0
            tail = random_rof(ctx, n - 3, rng).expand()
            polys.append(parse_terms(ctx, n, "x1*x2 + x1*x3 + x2*x3")
                         + tail.embed(n, {t: t + 3 for t in range(n - 3)}))
        for P in polys:
            pairs = [(i, j) for i, j in itertools.combinations(range(n), 2)
                     if not P.partial2(i, j).is_zero()]
            if n > 6:
                pairs = [(0, 1)] * ((0, 1) in pairs) + rng.sample(pairs, min(3, len(pairs)))
            for i, j in pairs:
                r = decompose(P, i, j)
                assert r.decomposable == decomp_witness(P, i, j).value.is_zero()
                if r.decomposable:
                    assert commutator(P, i, j) == P.partial2(i, j).scale(r.c)
                rest = frozenset(range(n)) - {i, j}
                for m in rest:
                    want = decomp_witness(P, i, j, rest - {m}).value.is_zero()
                    c = _coded_cofactors(P, (i, j, m))
                    assert _slot_vanishes(c, 1 << i, 1 << j, 1 << m, p) == want
                    assert witness_is_zero(P, i, j, rest - {m}) == want
                    outcomes.add((r.decomposable, want))
    assert outcomes >= {(True, True), (False, True), (False, False)}


def _split_product(ctx, n, rng):
    """h*g + c with h on slots 0..k-1 and g on slots k..n-1."""
    k = rng.randint(1, n - 1)
    h = random_multilinear(ctx, k, rng).embed(n, {t: t for t in range(k)})
    g = random_multilinear(ctx, n - k, rng).embed(n, {t: k + t for t in range(n - k)})
    return h * g + MPoly.constant(ctx, n, rng.randrange(ctx.p))


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_glue_set_reduces_to_its_unglued_slots(p):
    # oracle only: with S != 0, W_J == 0 iff W_{rest - {m}} == 0 for every
    # slot m that J leaves unglued
    ctx = FieldCtx(p)
    rng = random.Random(p + 7)
    outcomes = set()
    for n in range(4, 7):
        polys = [q_n(n, ctx), random_rof(ctx, n, rng).expand(),
                 random_multilinear(ctx, n, rng), _split_product(ctx, n, rng)]
        for P in polys:
            pairs = [(i, j) for i, j in itertools.combinations(range(n), 2)
                     if not P.partial2(i, j).is_zero()]
            for i, j in rng.sample(pairs, min(2, len(pairs))):
                rest = frozenset(range(n)) - {i, j}
                slot_zero = {m: decomp_witness(P, i, j, rest - {m}).value.is_zero()
                             for m in rest}
                for size in range(len(rest) - 1):
                    for J in itertools.combinations(sorted(rest), size):
                        want = decomp_witness(P, i, j, J).value.is_zero()
                        assert want == all(slot_zero[m] for m in rest - set(J))
                        outcomes.add(want)
    assert outcomes == {True, False}


def _materialized_tags(P):
    """The certificate's zero tags from materialized polynomials: the
    partials, and each witness by decomp_witness on 2n slots, which builds
    the commutator through MPoly products."""
    n = P.arity
    pairs = list(itertools.combinations(range(n), 2))
    tags = [P.partial(t).is_zero() for t in range(n)]
    tags += [P.partial2(i, j).is_zero() for i, j in pairs]
    for i, j in pairs:
        rest = frozenset(range(n)) - {i, j}
        tags += [decomp_witness(P, i, j, rest - {m}).value.is_zero() for m in sorted(rest)]
    return tags


def _rof_on(ctx, n, lo, k, rng, vars_used=None):
    """The expansion of a random read-once formula in k slots, placed on the
    slots lo..lo+k-1 of n."""
    F = random_rof(ctx, k, rng, vars_used).expand()
    return F.embed(n, {t: lo + t for t in range(k)})


def _nested(ctx, n, rng):
    """(F1 + F2)*F3 + F4 on four runs of slots, each F_k read-once."""
    cuts = [0] + sorted(rng.sample(range(1, n), 3)) + [n]
    F1, F2, F3, F4 = (_rof_on(ctx, n, lo, hi - lo, rng) for lo, hi in zip(cuts, cuts[1:]))
    return (F1 + F2) * F3 + F4


def _piece_with_absent_slot(ctx, n, rng):
    """F1 + F2*F3 on three runs of slots, F1's run holding a slot that no
    monomial holds."""
    a, b = sorted(rng.sample(range(2, n), 2))
    return (_rof_on(ctx, n, 0, a, rng, vars_used=a - 1)
            + _rof_on(ctx, n, a, b - a, rng) * _rof_on(ctx, n, b, n - b, rng))


@pytest.mark.parametrize("p", [2, 3, 5, 1009, 2**31 - 1])
def test_certificate_tags_match_materialized_witnesses(p, monkeypatch):
    # every certificate tag, decided in bulk (probes, the structural proof
    # over additive pieces and verified factor blocks, exact tests), against
    # the materialized partials and witnesses; p = 2**31 - 1 runs the probes
    # on object arrays.  Over GF(3) some candidate blocks fail their
    # rank-one check, and their tags fall back to the exact tests.
    ctx = FieldCtx(p)
    rng = random.Random(p + 5)
    checks = []
    factor = structure._Structure.factor

    def counted_factor(self, *args):
        out = factor(self, *args)
        checks.append(out is not None)
        return out

    monkeypatch.setattr(structure._Structure, "factor", counted_factor)
    for n in range(3, 7):
        absent = random_rof(ctx, n - 1, rng).expand().embed(n, {t: t + (t > 0)
                                                                for t in range(n - 1)})
        polys = [q_n(n, ctx), random_rof(ctx, n, rng).expand(),
                 random_rof(ctx, n, rng).expand(), random_multilinear(ctx, n, rng),
                 random_multilinear(ctx, n, rng), _split_product(ctx, n, rng),
                 _affine_product(ctx, n, rng), absent,
                 MPoly.constant(ctx, n, rng.randrange(1, p)), MPoly.zero(ctx, n)]
        if n >= 4:
            polys += [_nested(ctx, n, rng), _nested(ctx, n, rng),
                      _piece_with_absent_slot(ctx, n, rng)]
        for P in polys:
            tags = [m.identically_zero for m in certificate_multiplicands(P)]
            assert tags == _materialized_tags(P), P
    assert any(checks)
    if p == 3:
        assert not all(checks)


def test_product_of_affine_leaves_needs_no_commutator(monkeypatch):
    # the expansion of 7 affine leaves under * gates, all, every other or
    # none of them with a constant term: every pair splits it, and one
    # verified factorization over its 7 one-slot blocks proves all 21
    # pairs, so no slot test sums a commutator
    def no_commutator(*args):
        raise AssertionError("a commutator was summed")

    monkeypatch.setattr(decomp, "_slot_vanishes", no_commutator)
    ctx, rng = FieldCtx(1009), random.Random(3)
    for shifted in (range(7), range(0, 7, 2), ()):
        P = MPoly.constant(ctx, 7, 1)
        for k in range(7):
            P = P * MPoly.affine(ctx, 7, k, rng.randrange(1, 1009),
                                 rng.randrange(1, 1009) if k in shifted else 0)
        assert len(P.terms) == 2 ** len(shifted)
        ms = certificate_multiplicands(P)
        assert [m.identically_zero for m in ms if m.kind != "witness"] == [False] * 28
        assert all(m.identically_zero for m in ms if m.kind == "witness")


@pytest.mark.parametrize("n, seed", [(11, 0), (12, 3), (20, 1)])
def test_read_once_expansions_run_no_exact_test(n, seed, monkeypatch):
    # the expansions of the n = 11, 12 and 20 formulas that CI checks (202,
    # 441 and 870 terms): the probes prove every live tag and the
    # structural proof every zero one, so no exact test runs
    def no_exact_test(*args):
        raise AssertionError("an exact test ran")

    monkeypatch.setattr(decomp, "_slot_vanishes", no_exact_test)
    assert characterize(random_rof(GF1009, n, seed).expand(), 0).verdict == "ROP"


def test_hard_family_reaches_no_rank_one_check(monkeypatch):
    # q_10 .. q_14 propose no factorization at any level, so the structural
    # proof codes none of their terms
    def no_check(*args):
        raise AssertionError("a rank-one check ran")

    monkeypatch.setattr(structure._Structure, "factor", no_check)
    for n in range(10, 15):
        assert certificate_multiplicands(q_n(n, GF1009))


def _force_exact_tests(monkeypatch):
    """Leave every tag of a pair that shares a monomial to the exact tests:
    the probes read no witness live and the structural proof proves
    nothing.  Returns the list of (pair, slot) that each slot test appends
    to."""
    probe = decomp._probe_witnesses
    tested = []
    slot_vanishes = decomp._slot_vanishes

    def counted(c, x, y, z, p):
        tested.append(((x.bit_length() - 1, y.bit_length() - 1), z.bit_length() - 1))
        return slot_vanishes(c, x, y, z, p)

    monkeypatch.setattr(decomp, "_probe_witnesses",
                        lambda *args: np.zeros_like(probe(*args)))
    monkeypatch.setattr(decomp, "_Structure", lambda *args: None)
    monkeypatch.setattr(decomp, "_slot_vanishes", counted)
    return tested


@pytest.mark.parametrize("p", [2, 3, 1009])
def test_unglued_witness_is_decided_over_every_slot(p, monkeypatch):
    # J = {} is the conjunction of the witnesses glued on rest - {m}: W == 0
    # iff every one of them vanishes.  With the bulk steps forced to decide
    # nothing, every tag comes from the exact slot tests, all run while the
    # tags are built: each tag, J = {} and each J = rest - {m}, against the
    # materialized witness, and no witness_is_zero call runs a slot test
    ctx = FieldCtx(p)
    rng = random.Random(p + 21)
    tested = _force_exact_tests(monkeypatch)
    outcomes = set()
    for n in range(3, 6):
        polys = [q_n(n, ctx), random_rof(ctx, n, rng).expand(),
                 random_multilinear(ctx, n, rng), _split_product(ctx, n, rng),
                 _affine_product(ctx, n, rng)]
        if n >= 4:
            polys.append(_nested(ctx, n, rng))
        for P in polys:
            rest = frozenset(range(n))
            want = {(i, j, J): decomp_witness(P, i, j, J).value.is_zero()
                    for i, j in itertools.combinations(range(n), 2)
                    for J in [frozenset()] + [rest - {i, j, m} for m in rest - {i, j}]}
            decomp._witness_tags(P)
            built = len(tested)
            for (i, j, J), zero in want.items():
                assert witness_is_zero(P, i, j, J) == zero, (P, i, j, J)
                outcomes.add((len(J), zero))
            assert len(tested) == built
    assert tested
    assert {zero for k, zero in outcomes if k == 0} == {True, False}
    assert {zero for k, zero in outcomes if k} == {True, False}


def test_live_slot_probe_settles_the_unglued_witness(monkeypatch):
    # for the pair (x1, x2) of x1*x2 + x3 + x4, D/S = x3 + x4 depends on x3
    # and x4, and the probes read both slots' witnesses live: J = {} is
    # settled with no exact test.  With the probes forced to read nothing
    # live, the build tests each slot once, and J = {} is read from those
    # outcomes
    P = parse_terms(GF1009, 4, "x1*x2 + x3 + x4")
    calls = []
    slot_vanishes = decomp._slot_vanishes

    def counted(*args):
        calls.append(args)
        return slot_vanishes(*args)

    with monkeypatch.context() as m:
        m.setattr(decomp, "_slot_vanishes", counted)
        assert decomp._witness_tags(P).zero[0] == 0b0011
        assert not witness_is_zero(P, 0, 1)
    assert not calls
    assert not decomp_witness(P, 0, 1).value.is_zero()

    tested = _force_exact_tests(monkeypatch)
    Q = parse_terms(GF1009, 4, "x1*x2 + x3 + x4")
    assert decomp._witness_tags(Q).zero[0] == 0b0011
    assert [t for t in tested if t[0] == (0, 1)] == [((0, 1), 2), ((0, 1), 3)]
    built = len(tested)
    assert not witness_is_zero(Q, 0, 1)
    assert len(tested) == built


def test_exact_slot_tests_run_once_on_each_open_tag_in_increasing_order(monkeypatch):
    # for the pair (x1, x2) of x1*x2*x3 + x4 + x5, D/S = x4 + x5 is free of
    # x3 and depends on x4 and x5.  With the bulk steps forced to decide
    # nothing, the build tests slots x3 (zero), x4 and x5 (live) of the
    # pair, once each and in increasing order, and every witness of the
    # pair is read from those outcomes with no further test
    tested = _force_exact_tests(monkeypatch)
    P = parse_terms(GF1009, 5, "x1*x2*x3 + x4 + x5")
    tags = decomp._witness_tags(P)
    assert [m for pair, m in tested if pair == (0, 1)] == [2, 3, 4]
    assert tags.zero[0] == 0b00111
    built = len(tested)
    assert not witness_is_zero(P, 0, 1)
    assert not witness_is_zero(P, 0, 1, {2, 4})
    assert witness_is_zero(P, 0, 1, {3, 4})
    assert len(tested) == built


def test_witness_examples():
    # x1*x2 + x3 admits no split h*g + c for the pair (0, 1): the witness
    # materializes to x3 - y3.
    P = parse_terms(GF101, 3, "x1*x2 + x3")
    assert not witness_is_zero(P, 0, 1)
    assert witness_is_zero(parse_terms(GF101, 3, "x1*x2 + 5"), 0, 1)
    assert not witness_is_zero(E2, 0, 1)
    assert witness_is_zero(E2, 0, 1, shared={2})


def test_gate_graph_structure():
    P = parse_terms(GF101, 3, "x1*x2 + x2*x3")
    G = gate_graph(P)
    assert G.vertices == frozenset({0, 1, 2})
    assert G.edges == frozenset({(0, 1), (1, 2)})
    assert G.is_connected()
    H = G.without_vertex(1)
    assert H.vertices == frozenset({0, 2})
    assert H.edges == frozenset()
    assert [sorted(c) for c in H.components()] == [[0], [2]]


def test_gate_graph_ignores_dead_variables():
    P = parse_terms(GF101, 4, "x1*x2 + 7")
    G = gate_graph(P)
    assert G.vertices == frozenset({0, 1})
    assert G.edges == frozenset({(0, 1)})


@pytest.mark.parametrize("ctx", [GF2, GF3, GF1009], ids=lambda ctx: f"GF{ctx.p}")
def test_gate_graph_edges_are_the_nonzero_mixed_partials(ctx):
    # the gate graph reads its edges from the monomials; against the
    # definition, an edge wherever dd_ab P != 0
    rng = random.Random(ctx.p + 7)
    edges = 0
    for n in range(2, 8):
        polys = [q_n(n, ctx), random_rof(ctx, n, rng).expand(),
                 random_rof(ctx, n, rng, max(1, n - 2)).expand()]
        polys += [random_multilinear(ctx, n, rng) for _ in range(3)]
        for P in polys:
            want = {(a, b) for a, b in itertools.combinations(range(n), 2)
                    if not P.partial2(a, b).is_zero()}
            G = gate_graph(P)
            assert G.edges == want, (P, sorted(G.edges), sorted(want))
            assert G.vertices == P.variables()
            edges += len(want)
    assert edges


def test_additive_separability():
    assert is_additively_separable(parse_terms(GF101, 3, "x1*x2 + x3"))
    assert not is_additively_separable(parse_terms(GF101, 3, "x1*x2 + x2*x3"))
    assert not is_additively_separable(parse_terms(GF101, 2, "x1*x2"))


def test_additive_split_values():
    P = parse_terms(GF101, 3, "x1*x2 + x3 + 5")
    P1, P2 = additive_split(P, {0, 1})
    assert P1 == parse_terms(GF101, 3, "x1*x2 + 5")
    assert P2 == parse_terms(GF101, 3, "x3")
    assert P1 + P2 == P
    with pytest.raises(NotSeparableAlongCut):
        additive_split(parse_terms(GF101, 3, "x1*x2 + x2*x3"), {0})
    with pytest.raises(InvalidParams):
        additive_split(P, set())


def test_multiplicative_split_two_factors():
    # (x1 + 2*x2) * (x3 + 1) + 4
    P = parse_terms(GF101, 4, "x1*x3 + x1 + 2*x2*x3 + 2*x2 + 4")
    h, g, c = multiplicative_split(P, 0, 2)
    assert int(c) == 4
    assert h.variables() == frozenset({0, 1})
    assert g.variables() == frozenset({2})
    assert h.leading_coefficient() == 1
    assert h * g + MPoly.constant(GF101, 4, int(c)) == P


def test_multiplicative_split_groups_j_factor():
    P = parse_terms(GF101, 3, "x1*x2*x3")
    h, g, c = multiplicative_split(P, 0, 1)
    assert int(c) == 0
    assert h.variables() == frozenset({0, 2})
    assert g.variables() == frozenset({1})
    assert h * g == P


def test_multiplicative_split_not_decomposable():
    with pytest.raises(NotDecomposable):
        multiplicative_split(parse_terms(GF101, 3, "x1*x2 + x3"), 0, 1)


def test_multiplicative_split_random_round_trip():
    rng = random.Random(43)
    for _ in range(60):
        nh = rng.randint(1, 3)
        ng = rng.randint(1, 3)
        n = nh + ng
        h = random_rof(GF101, n, rng.randrange(1 << 30), vars_used=nh)
        # Re-draw until the two factor variable sets are disjoint and full.
        hv = h.variables()
        gv = frozenset(range(n)) - hv
        if len(hv) != nh:
            continue
        g_formula = random_rof(GF101, n, rng.randrange(1 << 30), vars_used=ng)
        if g_formula.variables() != gv:
            continue
        c = rng.randrange(101)
        P = h.expand() * g_formula.expand() + MPoly.constant(GF101, n, c)
        if not P.is_multilinear():
            continue
        i = min(hv)
        j = min(gv)
        if P.partial2(i, j).is_zero():
            continue
        hh, gg, cc = multiplicative_split(P, i, j)
        assert int(cc) == c
        assert hh * gg + MPoly.constant(GF101, n, c) == P
        # The split follows irreducible factors, so when the constructed
        # g side factors further its spare factors may land in h; what is
        # guaranteed is a partition with i and j apart.
        assert i in hh.variables() and j in gg.variables()
        assert hh.variables().isdisjoint(gg.variables())
        assert hh.variables() | gg.variables() == frozenset(range(n))


@pytest.mark.parametrize("p", [2, 5, 1009])
def test_multiplicative_split_scales_by_the_value_at_the_nonzero_point(p):
    # s, Pp's value at find_nonzero_point(Pp), is read as a coefficient; the
    # factors must be those of evaluating Pp there
    ctx = FieldCtx(p)
    rng = random.Random(p)
    checked = 0
    for _ in range(80):
        n = rng.randint(2, 6)
        slots = rng.sample(range(n), n)
        cut = rng.randint(1, n - 1)
        left, right = sorted(slots[:cut]), sorted(slots[cut:])
        h0 = random_multilinear(ctx, len(left), rng).embed(n, left)
        g0 = random_multilinear(ctx, len(right), rng).embed(n, right)
        c0 = rng.randrange(p)
        P = h0 * g0 + MPoly.constant(ctx, n, c0)
        i, j = rng.choice(left), rng.choice(right)
        if not {i, j} <= P.variables() or not decompose(P, i, j).decomposable:
            continue
        h, g, c = multiplicative_split(P, i, j)
        Pp = P - MPoly.constant(ctx, n, c)
        w = find_nonzero_point(Pp)
        s = sum(coef * all(w[v] for v, _ in m) for m, coef in Pp.terms.items()) % p
        assert s == Pp.evaluate(w) != 0
        h_raw = Pp.restrict_many(sorted(g.variables()), w)
        g_raw = Pp.restrict_many(sorted(h.variables()), w)
        lc = h_raw.leading_coefficient()
        assert h == h_raw.scale(ctx.inv_raw(lc))
        assert g == g_raw.scale(lc * ctx.inv_raw(s) % p)
        assert c == decompose(P, i, j).c
        assert h * g + MPoly.constant(ctx, n, c) == P
        checked += 1
    assert checked >= 30


def test_trivariate_examples():
    assert trivariate_is_rop(parse_terms(GF101, 3, "x1*x2 + x3"))
    assert trivariate_is_rop(parse_terms(GF101, 3, "x1*x2 + x1 + 5"))
    assert not trivariate_is_rop(E2)
    assert not trivariate_is_rop(q_n(3, GF101))
    with pytest.raises(TooManyVariables):
        trivariate_is_rop(random_multilinear(GF101, 4, random.Random(1)))


def test_trivariate_matches_brute_force_random():
    rng = random.Random(83)
    agree = 0
    for _ in range(300):
        P = random_multilinear(GF5, 3, rng)
        assert trivariate_is_rop(P) == brute_force_is_rop(P)
        agree += 1
    assert agree == 300


def test_closed_form_on_int64_columns_below_2_30():
    # the testers decide a batch's restrictions as int64 coefficient columns;
    # just below 2**30 a pair split's D terms reach 2**61 and must be reduced
    # before the last products
    ctx = FieldCtx(2**30 - 35)
    rng = random.Random(89)
    monos = [tuple((v, 1) for v in range(3) if mask >> v & 1) for mask in range(8)]
    vectors = []
    for _ in range(300):
        terms = random_rof(ctx, 3, rng).expand().terms
        c = [terms.get(m, 0) for m in monos]
        vectors.append(c)
        near = list(c)
        near[rng.randrange(8)] = rng.randrange(ctx.p)
        vectors.append(near)
        vectors.append([rng.randrange(ctx.p) for _ in range(8)])
    want = [trivariate_is_rop(MPoly(ctx, 3, dict(zip(monos, c)))) for c in vectors]
    got = _trivariate_rop(np.array(vectors, dtype=np.int64).T, 1, 2, 4, ctx.p)
    assert got.tolist() == want
    assert all(want[::3]) and not all(want)


@pytest.mark.parametrize("slots", [(1, 2, 4), (4, 2, 1)])
@pytest.mark.parametrize("p", [3, 1009, 2**30 - 35, 2**61 - 1])
def test_stacked_closed_form_matches_the_scalar_form(p, slots):
    # an array's three pair splits run on one stack of their factors; the
    # scalar form runs _pair_split three times on Python ints.  int64
    # columns hold residues below 2**30, object columns any residues
    ctx = FieldCtx(p)
    rng = random.Random(p + slots[0])
    monos = [tuple((v, 1) for v in range(3) if mask >> v & 1) for mask in range(8)]
    vectors = []
    for _ in range(200):
        terms = random_rof(ctx, 3, rng).expand().terms
        c = [terms.get(m, 0) for m in monos]
        near = list(c)
        near[rng.randrange(8)] = rng.randrange(p)
        sparse = [v if rng.random() < 0.4 else 0 for v in c]
        vectors += [c, near, sparse, [rng.randrange(p) for _ in range(8)]]
    # reorder each vector so that mask b of slots reads monomial b
    columns = np.zeros((8, len(vectors)), dtype=object)
    for b in range(8):
        mask = sum(slots[t] for t in range(3) if b >> t & 1)
        columns[mask] = [c[b] for c in vectors]
    want = [_trivariate_rop(column, *slots, p) for column in columns.T.tolist()]
    assert _trivariate_rop(columns, *slots, p).tolist() == want
    if p < 2**30:
        got = _trivariate_rop(columns.astype(np.int64), *slots, p)
        assert got.dtype == bool and got.tolist() == want
    assert any(want) and not all(want)


def test_building_a_benchmark_pool_compiles_no_taylor_plan(monkeypatch):
    # the pools hold polynomials and formulas; their Taylor plans are
    # compiled inside the timed operations, never while a pool is built
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    compiled = []
    monkeypatch.setattr(_TaylorPlan, "__init__", lambda plan, P: compiled.append(P))
    for name in workloads.NAMES:
        assert workloads.build(name, 41).ops
    assert compiled == []


def test_brute_force_known_cases():
    assert not brute_force_is_rop(q_n(3, GF101))
    assert not brute_force_is_rop(q_n(4, GF101))
    assert brute_force_is_rop(parse_terms(GF101, 4, "x1*x2 + x3*x4"))
    assert brute_force_is_rop(MPoly.constant(GF101, 2, 9))
    assert brute_force_is_rop(parse_terms(GF101, 1, "3*x1 + 2"))
    E2_padded = E2.embed(5, {0: 0, 1: 2, 2: 4})
    assert not brute_force_is_rop(E2_padded)
    with pytest.raises(TooManyVariables):
        brute_force_is_rop(random_multilinear(GF2, 13, random.Random(2)), max_vars=12)


def test_brute_force_accepts_rof_expansions():
    rng = random.Random(11)
    for _ in range(40):
        F = random_rof(GF101, rng.randint(1, 6), rng)
        assert brute_force_is_rop(F.expand())


def test_gate_graph_dataclass_behavior():
    G = GateGraph(frozenset({0, 1}), frozenset({(0, 1)}))
    assert G == gate_graph(parse_terms(GF101, 2, "x1*x2"))
