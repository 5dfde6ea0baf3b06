"""Field layer: primality, moduli, residues, inverses."""

import random

import pytest

from ropcheck.errors import DivisionByZero, FieldMismatch, NotPrime, OutOfRange
from ropcheck.ff import MAX_PRIME, FieldCtx, is_prime
from ropcheck.mpoly import MPoly
from ropcheck.reference import decompose, multiplicative_split
from ropcheck.rof import random_rof


def _egcd_inverse(a, p):
    """Reference inverse via the extended Euclid algorithm."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def _trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_small():
    for n in range(2, 5000):
        assert is_prime(n) == _trial_division_prime(n), n


def test_is_prime_known_composites():
    # Carmichael numbers and base-2 strong pseudoprimes must not slip through.
    for n in (561, 1105, 1729, 41041, 2047, 3277, 4033):
        assert not is_prime(n)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 - 2)
    assert is_prime(1_000_000_007)


def test_ctx_accepts_full_range():
    assert FieldCtx(2).p == 2
    assert FieldCtx(MAX_PRIME).p == MAX_PRIME


def test_ctx_rejects_bad_moduli():
    for bad in (1, 0, -7, MAX_PRIME + 1):
        with pytest.raises(OutOfRange):
            FieldCtx(bad)
    with pytest.raises(NotPrime):
        FieldCtx(91)
    with pytest.raises(NotPrime):
        FieldCtx(561)


def test_felt_reduction_and_repr():
    ctx = FieldCtx(101)
    assert ctx.coerce(205) == 3
    assert ctx.coerce(-1) == 100
    assert repr(ctx) == "GF(101)"


def test_known_inverse():
    ctx = FieldCtx(101)
    assert ctx.inv_raw(2) == 51


def test_inverses_match_extended_euclid():
    rng = random.Random(11)
    for p in (2, 5, 101, 1009, 2**61 - 1):
        ctx = FieldCtx(p)
        for _ in range(200):
            a = rng.randrange(1, p)
            assert ctx.inv_raw(a) == _egcd_inverse(a, p)


def test_division_by_zero():
    ctx = FieldCtx(101)
    with pytest.raises(DivisionByZero):
        ctx.inv_raw(0)
    with pytest.raises(DivisionByZero):
        ctx.inv_raw(202)


def test_cross_field_operations_rejected():
    a = MPoly.constant(FieldCtx(5), 1, 2)
    b = MPoly.constant(FieldCtx(7), 1, 2)
    for op in (a.__add__, a.__sub__, a.__mul__):
        with pytest.raises(FieldMismatch):
            op(b)


def test_ctx_equality_and_hash():
    assert FieldCtx(101) == FieldCtx(101)
    assert FieldCtx(101) != FieldCtx(103)
    assert hash(FieldCtx(101)) == hash(FieldCtx(101))



def test_field_elements_are_int_residues():
    # (x1 + 2)(x2 + 3) - 4 over GF(101), every coefficient given as an
    # unreduced representative
    ctx = FieldCtx(101)
    P = MPoly(ctx, 2, {((0, 1), (1, 1)): 102, ((0, 1),): -98, ((1, 1),): -99,
                       (): 2 - 303})
    F = random_rof(ctx, 2, 0)
    point = (-5, 307)
    values = [P.evaluate(point), F.eval(point), decompose(P, 0, 1).c,
              multiplicative_split(P, 0, 1)[2]]
    assert values == [P.eval_raw((96, 4)), F.eval_raw((96, 4)), 97, 97]
    for v in values:
        assert type(v) is int and 0 <= v < 101
