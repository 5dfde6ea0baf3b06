"""Structure layer: commutators, split tests, witnesses, gate graphs."""

import itertools
import random

import numpy as np
import pytest

from ropcheck.decomp import (
    _PROBE,
    GateGraph,
    _probe_value,
    _trivariate_rop,
    additive_split,
    brute_force_is_rop,
    commutator,
    decomp_witness,
    decompose,
    find_nonzero_point,
    gate_graph,
    is_additively_separable,
    multiplicative_split,
    trivariate_is_rop,
    witness_is_zero,
)
from ropcheck.errors import (
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
from ropcheck.mpoly import MPoly, parse_terms, random_multilinear
from ropcheck.rof import random_rof

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


def _probe_pair(n, p):
    """The witness probe pair for J = {}: x reads _PROBE from entry 0, y from
    entry n, cyclically, reduced mod p."""
    x = [_PROBE[k % len(_PROBE)] % p for k in range(n)]
    y = [_PROBE[(n + k) % len(_PROBE)] % p for k in range(n)]
    return x, y


def _certificate_glue_sets(n):
    """(i, j, J, m) for every pair, J = {} with m = None and J = rest - {m}."""
    for i, j in itertools.combinations(range(n), 2):
        rest = frozenset(range(n)) - {i, j}
        yield i, j, frozenset(), None
        for m in sorted(rest):
            yield i, j, rest - {m}, m


@pytest.mark.parametrize("p", [3, 5, 101])
def test_probe_value_from_tables_matches_materialized_witness(p):
    # the probe reads P's Taylor tables at x and y; the materialized witness
    # on 2n slots is evaluated directly at x in the x-block, y in the y-block
    ctx = FieldCtx(p)
    rng = random.Random(p + 41)
    zero_coordinates = 0
    for n in range(3, 7):
        x, y = _probe_pair(n, p)
        zero_coordinates += (x + y).count(0)
        polys = [q_n(n, ctx), random_rof(ctx, n, rng).expand(),
                 random_rof(ctx, n, rng).expand(), random_multilinear(ctx, n, rng)]
        for P in polys:
            for i, j, J, m in _certificate_glue_sets(n):
                W = decomp_witness(P, i, j, J).value
                assert _probe_value(P, i, j, m) == W.eval_raw(x + y), (n, i, j, J)
    if p == 3:
        # probe coordinates that are 0 take the tables' zero-slot branch
        assert zero_coordinates > 0


def test_probe_memo_belongs_to_its_polynomial():
    rng = random.Random(13)
    n = 5
    for ctx in (GF3, GF101):
        x, y = _probe_pair(n, ctx.p)
        P = random_rof(ctx, n, rng).expand()
        Q = random_multilinear(ctx, n, rng)
        cases = list(_certificate_glue_sets(n))
        tags = [witness_is_zero(P, i, j, J) for i, j, J, _ in cases]
        # Q has P's arity, so the same probe points, but tables of its own
        for i, j, J, m in cases:
            W = decomp_witness(Q, i, j, J).value
            assert _probe_value(Q, i, j, m) == W.eval_raw(x + y)
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
    # the fixed probe pair reads 0 on two certificate glue sets of q_10 over
    # GF(1009), so both reach the exact slot test, which must find W != 0
    P = q_n(10, FieldCtx(1009))
    rng = random.Random(10)
    for i, j, m in ((4, 6, 0), (5, 7, 4)):
        J = frozenset(range(10)) - {i, j, m}
        assert _probe_value(P, i, j, m) == 0
        assert not witness_is_zero(P, i, j, J)
        # W != 0 at a second point pair, through D = P*S - d_iP*d_jP
        S, Pi, Pj = P.partial(i).partial(j), P.partial(i), P.partial(j)

        def D(pt):
            return P.eval_raw(pt) * S.eval_raw(pt) - Pi.eval_raw(pt) * Pj.eval_raw(pt)

        x = [rng.randrange(1009) for _ in range(10)]
        y = list(x)
        y[m] = rng.randrange(1009)
        assert (D(x) * S.eval_raw(y) - S.eval_raw(x) * D(y)) % 1009


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
