"""Field layer: primality, element arithmetic, inverses, sampling."""

import random

import pytest

from ropcheck.errors import DivisionByZero, FieldMismatch, NotPrime, OutOfRange
from ropcheck.ff import MAX_PRIME, Felt, FieldCtx, is_prime


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
    assert int(ctx.felt(205)) == 3
    assert int(ctx.felt(-1)) == 100
    assert repr(ctx) == "GF(101)"
    assert "mod 101" in repr(ctx.felt(5))


def test_known_inverse():
    ctx = FieldCtx(101)
    assert ctx.inv_raw(2) == 51
    assert int(ctx.felt(2) * ctx.felt(51)) == 1


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
        ctx.felt(3) / ctx.felt(0)


def test_field_axioms_random_triples():
    rng = random.Random(23)
    for p in (2, 5, 101, 2**61 - 1):
        ctx = FieldCtx(p)
        for _ in range(2500):
            a, b, c = (ctx.sample(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == 0
            assert int(a - b) == (int(a) - int(b)) % p
            if int(b) != 0:
                assert (a / b) * b == a


def test_pow_matches_int_pow():
    ctx = FieldCtx(1009)
    rng = random.Random(5)
    for _ in range(300):
        a = ctx.sample(rng)
        e = rng.randrange(0, 50)
        assert int(a**e) == pow(int(a), e, 1009)


def test_mixed_int_operands():
    ctx = FieldCtx(101)
    a = ctx.felt(7)
    assert int(a + 100) == 6
    assert int(3 * a) == 21
    assert a == 7
    assert a != 8


def test_cross_field_operations_rejected():
    a = FieldCtx(5).felt(2)
    b = FieldCtx(7).felt(2)
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a == b or a * b


def test_ctx_equality_and_hash():
    assert FieldCtx(101) == FieldCtx(101)
    assert FieldCtx(101) != FieldCtx(103)
    assert hash(FieldCtx(101)) == hash(FieldCtx(101))
    assert FieldCtx(5).felt(3) == FieldCtx(5).felt(3)
    assert len({FieldCtx(5).felt(3), FieldCtx(5).felt(3)}) == 1


def test_sampling_is_roughly_uniform():
    # 1e5 draws over GF(101): mean 990.1 per residue, sd ~31.3; a 5-sigma
    # band is [834, 1147] and a correct sampler misses it with prob ~1e-4.
    ctx = FieldCtx(101)
    rng = random.Random(2024)
    counts = [0] * 101
    for _ in range(100_000):
        counts[ctx.sample_raw(rng)] += 1
    assert min(counts) >= 834 and max(counts) <= 1147


def test_sample_and_elements():
    ctx = FieldCtx(5)
    assert list(ctx.elements()) == [0, 1, 2, 3, 4]
    got = {int(ctx.sample(random.Random(s))) for s in range(40)}
    assert got <= set(range(5)) and len(got) == 5


def test_felt_bool_and_hash():
    ctx = FieldCtx(101)
    assert not ctx.felt(0)
    assert ctx.felt(1)
    assert hash(ctx.felt(3)) == hash(ctx.felt(104))
