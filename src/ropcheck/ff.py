"""Exact arithmetic in prime fields GF(p).

A FieldCtx pins the modulus; Felt wraps a residue together with its context.
Python integers keep every intermediate product exact, so the largest
supported modulus (2**61 - 1) needs no special casing.  Hot inner loops
elsewhere in the package work on raw int residues and only wrap results in
Felt at API boundaries.
"""

from __future__ import annotations

import random

from .errors import DivisionByZero, FieldMismatch, NotPrime, OutOfRange

MAX_PRIME = 2**61 - 1

# Deterministic Miller-Rabin witness set: correct for every n below 3.3 * 10**24,
# far past the 2**61 - 1 cap enforced on moduli.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n <= 2**64."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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

    def felt(self, value) -> "Felt":
        """Wrap an int (any representative) or Felt as a residue in this field."""
        if isinstance(value, Felt):
            if value.ctx.p != self.p:
                raise FieldMismatch(f"value from GF({value.ctx.p}) used in GF({self.p})")
            return value
        return Felt(value % self.p, self)

    def coerce(self, value) -> int:
        """Raw residue of an int or Felt; shared validation for internal code."""
        if isinstance(value, Felt):
            if value.ctx.p != self.p:
                raise FieldMismatch(f"value from GF({value.ctx.p}) used in GF({self.p})")
            return value.value
        return value % self.p

    def inv_raw(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def sample_raw(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def sample(self, rng: random.Random) -> "Felt":
        return Felt(rng.randrange(self.p), self)

    def elements(self):
        """Iterate all residues as raw ints. Only sensible for small p."""
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and other.p == self.p

    def __hash__(self):
        return hash(("FieldCtx", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class Felt:
    """A single field element: residue plus context."""

    __slots__ = ("value", "ctx")

    def __init__(self, value: int, ctx: FieldCtx):
        self.value = value % ctx.p
        self.ctx = ctx

    def _other(self, other) -> int:
        if isinstance(other, Felt):
            if other.ctx.p != self.ctx.p:
                raise FieldMismatch(f"GF({self.ctx.p}) vs GF({other.ctx.p})")
            return other.value
        if isinstance(other, int):
            return other % self.ctx.p
        return NotImplemented

    def __add__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Felt((self.value + v) % self.ctx.p, self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Felt((self.value - v) % self.ctx.p, self.ctx)

    def __rsub__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Felt((v - self.value) % self.ctx.p, self.ctx)

    def __mul__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Felt((self.value * v) % self.ctx.p, self.ctx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Felt(self.value * self.ctx.inv_raw(v) % self.ctx.p, self.ctx)

    def __rtruediv__(self, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Felt(v * self.ctx.inv_raw(self.value) % self.ctx.p, self.ctx)

    def __pow__(self, e: int):
        if e < 0:
            return Felt(pow(self.ctx.inv_raw(self.value), -e, self.ctx.p), self.ctx)
        return Felt(pow(self.value, e, self.ctx.p), self.ctx)

    def __neg__(self):
        return Felt(-self.value % self.ctx.p, self.ctx)

    def __eq__(self, other):
        if isinstance(other, Felt):
            return other.ctx.p == self.ctx.p and other.value == self.value
        if isinstance(other, int):
            return self.value == other % self.ctx.p
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.p, self.value))

    def __int__(self):
        return self.value

    def __index__(self):
        return self.value

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.ctx.p})"

