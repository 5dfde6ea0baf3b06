"""Stress family: the product-plus-product polynomials q_n and their locality sweeps."""

import random

import pytest

from ropcheck.charax import is_locally_rop
from ropcheck import hardcases
from ropcheck.errors import InvalidParams, ScaleGuardExceeded, TooFewVariables
from ropcheck.ff import FieldCtx
from ropcheck.hardcases import (
    SWEEP_CSV_HEADER,
    local_rop_fraction,
    q_n,
)
from ropcheck.mpoly import MPoly, parse_terms
from ropcheck.reference import brute_force_is_rop
from ropcheck.rof import random_rof

GF2 = FieldCtx(2)
GF5 = FieldCtx(5)
GF101 = FieldCtx(101)


def test_qn_small_values():
    assert q_n(1, GF101) == parse_terms(GF101, 1, "2*x1 - 1")
    expected = parse_terms(
        GF101, 3, "2*x1*x2*x3 - x1*x2 - x1*x3 - x2*x3 + x1 + x2 + x3 - 1")
    assert q_n(3, GF101) == expected


def test_qn_matches_factor_construction():
    for n in (2, 4, 5):
        left = MPoly.constant(GF101, n, 1)
        right = MPoly.constant(GF101, n, 1)
        for i in range(n):
            left = left * MPoly.affine(GF101, n, i, 1, -1)
            right = right * MPoly.variable(GF101, n, i)
        assert q_n(n, GF101) == left + right


def test_qn_is_multilinear_and_read_many():
    for n in range(3, 8):
        P = q_n(n, GF101)
        assert P.is_multilinear()
        assert not brute_force_is_rop(P)
    # The two-variable member factors: Q_2 = 2*(x1 + ...)(x2 + ...) shape.
    assert brute_force_is_rop(q_n(2, GF101))


def test_qn_validation(monkeypatch):
    with pytest.raises(InvalidParams):
        q_n(0, GF101)

    # 2^20 terms pass the 2,000,000 limit and reach the first product;
    # 2^21 are refused before any product is formed
    class Multiplied(Exception):
        pass

    def no_products(*args):
        raise Multiplied

    monkeypatch.setattr(MPoly, "__mul__", no_products)
    with pytest.raises(Multiplied):
        q_n(20, GF101)
    with pytest.raises(ScaleGuardExceeded):
        q_n(21, GF101)


def test_boolean_size_corollary_sampled():
    # Any point of GF(7)^5 with at least four 0/1 coordinates leaves every
    # trivariate restriction of the hard case read-once.
    GF7 = FieldCtx(7)
    Q5 = q_n(5, GF7)
    rng = random.Random(9)
    checked = 0
    while checked < 150:
        a = tuple(rng.randrange(7) for _ in range(5))
        if sum(v in (0, 1) for v in a) < 4:
            continue
        assert is_locally_rop(Q5, a)[0]
        checked += 1


def test_local_fraction_exhaustive_gf2():
    row = local_rop_fraction(q_n(4, GF2), 0, 0)
    assert (row.p, row.n, row.samples) == (2, 4, 16)
    assert row.good_fraction == 1.0
    assert row.stderr == 0.0


def test_local_fraction_exhaustive_gf5():
    # Exactly the 16 all-boolean points of GF(5)^4 qualify.
    row = local_rop_fraction(q_n(4, GF5), 0, 0)
    assert row.samples == 625
    assert row.good_fraction == 16 / 625
    assert row.stderr == 0.0


def test_local_fraction_monte_carlo():
    row = local_rop_fraction(q_n(4, GF101), 300, 5)
    assert row.samples == 300
    assert row.good_fraction < 0.05


def test_local_fraction_on_read_once_input():
    P = random_rof(GF5, 4, 8).expand()
    row = local_rop_fraction(P, 0, 0)
    assert row.good_fraction == 1.0


def test_local_fraction_validation():
    with pytest.raises(TooFewVariables):
        local_rop_fraction(q_n(3, GF5), 10, 0)
    with pytest.raises(InvalidParams):
        local_rop_fraction(q_n(4, GF101), 0, 0)
    for threads in (0, -1):
        with pytest.raises(InvalidParams):
            local_rop_fraction(q_n(4, GF5), 0, 0, threads)


def test_local_fraction_work_guard(monkeypatch):
    # assignments * C(n, 3) triple restrictions above the desk-scale limit
    # are refused before any worker starts
    def no_workers(*args):
        raise AssertionError("a worker started")

    monkeypatch.setattr(hardcases, "range_sum", no_workers)
    with pytest.raises(ScaleGuardExceeded, match="triple restrictions"):
        local_rop_fraction(q_n(16, GF2), 0, 0)      # 65,536 * 560
    with pytest.raises(ScaleGuardExceeded, match="triple restrictions"):
        local_rop_fraction(q_n(4, GF101), 500_001, 0)   # 500,001 * 4


def test_sweep_row_csv():
    from ropcheck.hardcases import SweepRow
    row = SweepRow(5, 4, 625, 16 / 625, 0.0)
    assert row.to_csv_row() == "5,4,625,0.025600,0.000000"
    assert SWEEP_CSV_HEADER == "p,n,samples,good_fraction,stderr"
