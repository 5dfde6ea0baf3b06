"""Certificate layer: goodness checks, local read-once tests, the full verdict."""

import itertools
import random

import numpy as np
import pytest

from ropcheck import charax, decomp
from ropcheck.charax import (
    INDETERMINATE,
    READ_MANY,
    ROP,
    GoodnessChecker,
    GoodnessReport,
    certificate_multiplicands,
    characterize,
    is_locally_rop,
)
from ropcheck.errors import (ArityMismatch, FieldTooSmall, InvalidParams, NotMultilinear,
                             ScaleGuardExceeded)
from ropcheck.ff import FieldCtx
from ropcheck.hardcases import q_n
from ropcheck.mpoly import MPoly, parse_terms, random_multilinear
from ropcheck.reference import brute_force_is_rop, gate_graph
from ropcheck.rof import random_rof

GF101 = FieldCtx(101)
GF1009 = FieldCtx(1009)


def test_multiplicand_inventory_small():
    P = parse_terms(GF101, 3, "x1*x2 + x3")
    ms = certificate_multiplicands(P)
    kinds = [m.kind for m in ms]
    assert len(ms) == 9
    assert kinds.count("first_partial") == 3
    assert kinds.count("second_partial") == 3
    assert kinds.count("witness") == 3
    dead = {(m.kind, m.index) for m in ms if m.identically_zero}
    assert dead == {("second_partial", (0, 2)), ("second_partial", (1, 2)),
                    ("witness", (0, 2)), ("witness", (1, 2))}


def test_multiplicand_inventory_counts_n5():
    P = parse_terms(GF1009, 5, "x1*x2*x3*x4*x5")
    ms = certificate_multiplicands(P)
    kinds = [m.kind for m in ms]
    assert len(ms) == 45
    assert kinds.count("first_partial") == 5
    assert kinds.count("second_partial") == 10
    assert kinds.count("witness") == 30


def test_multiplicands_fully_zero_for_linear():
    P = parse_terms(GF101, 4, "x1 + x2 + x3 + x4")
    ms = certificate_multiplicands(P)
    for m in ms:
        if m.kind == "first_partial":
            assert not m.identically_zero
        else:
            assert m.identically_zero


def test_goodness_simple_positive():
    P = parse_terms(GF101, 3, "x1*x2 + x3")
    rep = GoodnessChecker(P).check((1, 1, 1))
    assert rep.good
    assert rep.skipped_zero == 4
    assert rep.violations == []


def test_goodness_detects_vanishing_first_partial():
    P = parse_terms(GF101, 3, "x1*x2 + x3")
    rep = GoodnessChecker(P).check((1, 0, 1))
    assert not rep.good
    kinds = {(m.kind, m.index) for m, _ in rep.violations}
    assert ("first_partial", (0,)) in kinds


def test_goodness_detects_vanishing_second_partial():
    # dd_12 of x1*x2*x3 is x3, which vanishes at a3 = 0.
    P = parse_terms(GF101, 3, "x1*x2*x3")
    rep = GoodnessChecker(P).check((1, 1, 0))
    assert not rep.good
    kinds = {(m.kind, m.index) for m, _ in rep.violations}
    assert ("second_partial", (0, 1)) in kinds


def test_goodness_checker_validation():
    P = parse_terms(GF101, 3, "x1*x2 + x3")
    checker = GoodnessChecker(P)
    with pytest.raises(ArityMismatch):
        checker.check((1, 1))
    with pytest.raises(FieldTooSmall):
        GoodnessChecker(parse_terms(FieldCtx(2), 2, "x1*x2"))
    with pytest.raises(NotMultilinear):
        GoodnessChecker(parse_terms(GF101, 2, "x1^2"))


def _reference_report(P, multiplicands, a, full):
    """The goodness report from the full commutator D = P*S - d_iP*d_jP:
    D and S are built over every variable, then restricted at the glue set.
    full caches (D, S) per pair across the calls on one P."""
    a = tuple(v % P.ctx.p for v in a)
    violations = []
    skipped = 0
    for m in multiplicands:
        if m.identically_zero:
            skipped += 1
            continue
        if m.kind != "witness":
            d = P.partial(*m.index) if m.kind == "first_partial" else P.partial2(*m.index)
            if d.eval_raw(a) == 0:
                violations.append((m, "evaluates to 0 at the assignment"))
            continue
        i, j = m.index
        if m.index not in full:
            S = P.partial2(i, j)
            full[m.index] = (P * S - P.partial(i) * P.partial(j), S)
        D, S = full[m.index]
        J = sorted(m.shared)
        T = (S.restrict_many(J, a).scale(D.eval_raw(a))
             - D.restrict_many(J, a).scale(S.eval_raw(a)))
        if T.is_zero():
            violations.append((m, "vanishes identically in the free variables"))
    return GoodnessReport(not violations, violations, skipped)


@pytest.mark.parametrize("p", [3, 5, 101])
def test_goodness_check_matches_full_commutator_reference(p):
    ctx = FieldCtx(p)
    rng = random.Random(p)
    for n in range(3, 8):
        polys = [q_n(n, ctx), random_rof(ctx, n, rng).expand(),
                 random_rof(ctx, n, rng).expand(), random_multilinear(ctx, n, rng)]
        for P in polys:
            checker = GoodnessChecker(P)
            full = {}
            # the check's table drops monomials with more than 3 zero slots
            for zeros in (0, 0, 1, 1, 2, 2, 3, min(4, n), n):
                a = [rng.randrange(p) for _ in range(n)]
                for k in rng.sample(range(n), zeros):
                    a[k] = 0
                assert checker.check(a) == _reference_report(P, checker.multiplicands, a, full)


def test_is_locally_rop_small_arity():
    P = parse_terms(GF101, 2, "x1*x2 + 7")
    assert is_locally_rop(P, (1, 2)) == (True, None)


def test_is_locally_rop_accepts_formulas():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(3, 6)
        P = random_rof(GF101, n, rng).expand()
        a = tuple(rng.randrange(101) for _ in range(n))
        ok, witness = is_locally_rop(P, a)
        assert ok and witness is None


def _locally_rop_by_restriction(P, a):
    """Reference: restrict P to each triple in lex order, decide by brute force."""
    n = P.arity
    for I in itertools.combinations(range(n), 3):
        rest = [k for k in range(n) if k not in I]
        if not brute_force_is_rop(P.restrict_many(rest, a)):
            return False, I
    return True, None


@pytest.mark.parametrize("p", [2, 3, 5, 1009])
def test_is_locally_rop_matches_restriction_reference(p):
    ctx = FieldCtx(p)
    rng = random.Random(p)
    rejected = 0
    for n in range(3, 9):
        polys = [q_n(n, ctx), random_rof(ctx, n, rng).expand(),
                 random_rof(ctx, n, rng).expand(), random_multilinear(ctx, n, rng)]
        for P in polys:
            # 0, 1, 2, 3 and more than 3 zero coordinates, written as 0 or as
            # a multiple of p; the other coordinates nonzero residues, written
            # as they are, negative or at least p
            for zeros in sorted({0, 1, 2, 3, min(4, n), n}):
                a = [rng.randrange(1, p) + p * rng.choice((0, 0, -2, 1, 3))
                     for _ in range(n)]
                for k in rng.sample(range(n), zeros):
                    a[k] = p * rng.choice((0, 0, -1, 2))
                got = is_locally_rop(P, a)
                assert got == _locally_rop_by_restriction(P, a)
                rejected += not got[0]
                # the triples are decided on the mixed partials d_T P(a),
                # which P's Taylor plan evaluates
                table = decomp._taylor_table(P, [v % p for v in a])
                rows = decomp._subsets(n).rows
                for k in range(4):
                    for T in itertools.combinations(range(n), k):
                        D = P
                        for v in T:
                            D = D.partial(v)
                        assert table[rows[sum(1 << v for v in T)]] == D.evaluate(a)
    assert rejected > 0


def test_is_locally_rop_rejects_hard_case_at_generic_point():
    Q4 = q_n(4, GF101)
    ok, witness = is_locally_rop(Q4, (3, 4, 5, 6))
    assert not ok
    assert witness == (0, 1, 2)
    # Cross-check the reported triple by restricting and brute-forcing.
    others = [t for t in range(4) if t not in witness]
    R = Q4.restrict_many(others, (3, 4, 5, 6))
    assert not brute_force_is_rop(R)


def test_hard_case_is_locally_rop_everywhere_over_gf2():
    Q4 = q_n(4, FieldCtx(2))
    for a in itertools.product(range(2), repeat=4):
        assert is_locally_rop(Q4, a) == (True, None)
    assert not brute_force_is_rop(Q4)


def test_characterize_small_arity_short_circuit():
    rep = characterize(parse_terms(GF101, 2, "x1*x2 + 3"), 0)
    assert rep.verdict == ROP
    assert rep.attempts == 0
    assert "small arity" in rep.note


def test_characterize_rop_instances():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(3, 6)
        P = random_rof(GF1009, n, rng).expand()
        rep = characterize(P, rng)
        assert rep.verdict == ROP
        assert rep.witness_I is None
        assert rep.goodness is not None and rep.goodness.good


def test_characterize_read_many_instances():
    rep = characterize(q_n(5, GF1009), 3)
    assert rep.verdict == READ_MANY
    assert rep.witness_I is not None and len(rep.witness_I) == 3

    e2 = parse_terms(GF1009, 3, "x1*x2 + x2*x3 + x1*x3")
    padded = e2.embed(5, {0: 0, 1: 2, 2: 4})
    rep = characterize(padded, 9)
    assert rep.verdict == READ_MANY


def test_characterize_matches_brute_force():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(3, 5)
        if rng.random() < 0.5:
            P = random_rof(GF1009, n, rng).expand()
        else:
            P = random_multilinear(GF1009, n, rng)
        rep = characterize(P, rng)
        assert rep.verdict != INDETERMINATE
        assert (rep.verdict == ROP) == brute_force_is_rop(P)


def test_characterize_verdict_is_seed_independent():
    P = q_n(4, GF1009)
    verdicts = {characterize(P, s).verdict for s in range(8)}
    assert verdicts == {READ_MANY}
    F = random_rof(GF1009, 5, 123).expand()
    verdicts = {characterize(F, s).verdict for s in range(8)}
    assert verdicts == {ROP}


def test_characterize_arity_guard_and_note():
    P = MPoly.constant(GF1009, 11, 1) * parse_terms(GF1009, 11, "x1*x11")
    rep = characterize(P, 0)
    assert rep.verdict == ROP and rep.note == ""
    with pytest.raises(ScaleGuardExceeded):
        characterize(parse_terms(GF1009, 47, "x1*x47"), 0)


def test_characterize_exact_at_arity_11_and_12():
    # labels without a decider: q_n is read-many for n >= 3, and the
    # expansion of a read-once formula is read-once
    assert characterize(q_n(11, GF1009), 1).verdict == READ_MANY
    for n, seed in ((11, 5), (12, 5)):
        F = random_rof(GF1009, n, seed)
        assert F.variables() == frozenset(range(n))
        assert characterize(F.expand(), 1).verdict == ROP


def test_characterize_builds_one_table_per_attempt(monkeypatch):
    # the witness probes evaluate P's Taylor plan once, at the x and y
    # points of both probe pairs as one K = 4 array; a certified first
    # attempt then evaluates it once at its assignment, and both the
    # certificate check and the triple scan read that table
    table = decomp._TaylorPlan.table
    calls = []

    def counted(plan, a):
        calls.append(np.asarray(a, dtype=object).tolist())
        return table(plan, a)

    monkeypatch.setattr(decomp._TaylorPlan, "table", counted)
    rep = characterize(q_n(6, GF1009), 3)
    assert rep.attempts == 1 and rep.verdict == READ_MANY
    assert len(calls) == 2
    assert [len(column) for column in calls[0]] == [4] * 6
    assert calls[-1] == list(rep.assignment)


def test_characterize_requires_multilinear():
    with pytest.raises(NotMultilinear):
        characterize(parse_terms(GF101, 3, "x1^2 + x2*x3"), 0)


def test_characterize_rejects_negative_retries():
    for n in (2, 4):
        with pytest.raises(InvalidParams):
            characterize(q_n(n, GF1009), 0, max_retries=-1)
    assert characterize(q_n(4, GF1009), 0, max_retries=0).verdict == INDETERMINATE


def test_characterize_report_json_shape():
    rep = characterize(q_n(4, GF1009), 5)
    d = rep.to_json_dict()
    assert d["verdict"] == READ_MANY
    assert d["seed"] == 5
    assert isinstance(d["assignment"], list)
    # JSON indices are 1-based for human consumption.
    assert min(d["witness_I"]) >= 1
    assert set(d) >= {"verdict", "assignment", "witness_I", "attempts", "seed"}


def test_certified_assignment_preserves_gate_graph_under_restriction():
    rng = random.Random(77)
    for _ in range(15):
        n = rng.randint(3, 5)
        P = random_multilinear(GF1009, n, rng)
        rep = characterize(P, rng)
        if rep.assignment is None:
            continue
        G = gate_graph(P)
        for k in range(n):
            restricted = gate_graph(P.restrict(k, rep.assignment[k]))
            assert restricted == G.without_vertex(k)


def test_exact_guard_in_certificates(monkeypatch):
    # C(n,2)*(n-2)*(n-3) glue-set entries: 1,958,220 at n = 46 pass the
    # 2,000,000 limit and reach the witness tags, 2,140,380 at n = 47
    # raise before any tag is decided
    class Tagged(Exception):
        pass

    def tag(*args):
        raise Tagged

    monkeypatch.setattr(charax, "witness_is_zero", tag)
    with pytest.raises(Tagged):
        certificate_multiplicands(parse_terms(GF1009, 46, "x1*x46"))
    with pytest.raises(ScaleGuardExceeded):
        certificate_multiplicands(parse_terms(GF1009, 47, "x1*x47"))
