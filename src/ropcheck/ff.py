"""Exact arithmetic in prime fields GF(p).

A FieldCtx pins the modulus.  A field element is a plain int residue in
[0, p); FieldCtx.coerce reduces any int representative to it.  Python
integers keep every intermediate product exact, so the largest supported
modulus (2**61 - 1) needs no special casing.
"""

from __future__ import annotations

from .errors import DivisionByZero, NotPrime, OutOfRange

MAX_PRIME = 2**61 - 1

# Deterministic Miller-Rabin witness set: correct for every n below 3.3 * 10**24,
# far past the 2**61 - 1 cap enforced on moduli.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n <= 2**64."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldCtx:
    """Arithmetic context for GF(p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2 or p > MAX_PRIME:
            raise OutOfRange(f"modulus must be an int in [2, 2**61 - 1], got {p!r}")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p

    def coerce(self, value: int) -> int:
        """Residue in [0, p) of an int representative."""
        return value % self.p

    def inv_raw(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and other.p == self.p

    def __hash__(self):
        return hash(("FieldCtx", self.p))

    def __repr__(self):
        return f"GF({self.p})"
