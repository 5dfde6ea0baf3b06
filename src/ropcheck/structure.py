"""Witness zero tags proved from a polynomial's structure.

While decomp._WitnessTags decides a polynomial's tags, it hands this module
what its probes read; _Structure proves what it can of the open tags zero,
from exact identities over the polynomial's additive pieces and verified
factor blocks, recursively, and the exact test decides the rest after it.
"""

from __future__ import annotations

import itertools
import math
from typing import List

from .mpoly import MPoly


def _bits(mask: int) -> List[int]:
    """The slots of a bit mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _components(L: int, adjacent: List[int]) -> List[int]:
    """The connected components of the slots in the bit mask L, as bit
    masks, where adjacent[v] holds v's neighbours as a bit mask."""
    out = []
    while L:
        component = frontier = L & -L
        while frontier:
            reached = 0
            for v in _bits(frontier):
                reached |= adjacent[v]
            frontier = reached & L & ~component
            component |= frontier
        out.append(component)
        L &= ~component
    return out


class _Structure:
    """Zero tags of P's witnesses proved from P's structure, following
    Shpilka-Volkovich: a read-once polynomial splits into additive pieces
    and disjoint factors, recursively.

    Write R_H = D_H/S_H for a pair (a, b) of a polynomial H; the witness of
    (a, b) glued on rest - {m} vanishes iff R_P is free of x_m.  A level is
    a polynomial H on the slots L, reached from P so that
    R_P = alpha*R_H + beta, alpha != 0 and beta free of every slot of L;
    so for m in L the tag of (a, b, m) in P is its tag in H.  P is the top
    level.  Exact identities carry a level down:

    * pieces: if H = F + G and G is free of L's piece F, then
      R_H = R_F + G for every pair of F;
    * blocks: if H - c = h*g on disjoint slots, then R_H = g*R_h + c for
      every pair of h, and R_H = c for a pair across h and g, so all its
      tags over L vanish (at the top level the pair splits P).

    Only the rank-one check (factor) reads P's terms.  The pieces are the
    components of P's pairs that share a monomial (shares) within L, exact
    since a pair shares a monomial in a piece or a block iff it does in P.
    The candidate blocks join every pair of L that shares no monomial or
    whose witness reads nonzero at a probe glued on rest - {m} for some m
    in L, since P's probe there is H's times a nonzero factor; at the top
    level the J = {} probes join too.  A candidate proves nothing until
    factor verifies it, and a level is searched only while it holds an open
    tag.

    Slot sets and monomials are bit masks, and a polynomial is a dict from
    its monomials to their coefficients.  P holds the slots of the bit mask
    present.  The other arguments are lists indexed as the pairs (i, j),
    i < j, in lexicographic order: shares[q] tells whether a monomial of P
    holds both slots of pair q, base[q] whether its J = {} witness reads
    nonzero at a probe, and live[q] is the bit mask of the slots m whose
    witness glued on rest - {m} reads nonzero at one.  The proof reads
    these and writes only zero, the tags' bit masks
    (decomp._WitnessTags.zero), which come in holding the pair's own slots
    and those P does not hold, or all slots for a pair that shares no
    monomial: it adds to zero[q] the slots m whose tags of pair q it proves
    zero, every slot of P for a pair that splits P.
    """
    __slots__ = ("P", "base", "live", "zero", "pair_at", "shares", "open", "terms")

    def __init__(self, P: MPoly, present: int, shares: List[bool], base: List[bool],
                 live: List[int], zero: List[int]):
        n = P.arity
        self.P, self.base, self.live, self.zero, self.terms = P, base, live, zero, None
        self.pair_at = [[0] * n for _ in range(n)]
        self.shares = [0] * n
        for q, (i, j) in enumerate(itertools.combinations(range(n), 2)):
            self.pair_at[i][j] = self.pair_at[j][i] = q
            if shares[q]:
                self.shares[i] |= 1 << j
                self.shares[j] |= 1 << i
        # the tags still open: glued on all but a slot that P holds, neither
        # known zero nor read live
        self.open = [present & ~z & ~v for z, v in zip(zero, live)]
        self.level(present, True)

    def level(self, L: int, top: bool, source=None):
        """Prove the tags of the pairs inside the level's slots L glued on
        all but a slot of L.  The level's nonconstant terms are those of the
        polynomial source inside L; None stands for P."""
        slots = _bits(L)
        pairs = [(a, b, self.pair_at[a][b]) for k, a in enumerate(slots) for b in slots[k + 1:]]
        if not any(self.open[q] & L or top and self.shares[a] >> b & 1 and not self.base[q]
                   for a, b, q in pairs):
            return
        pieces = _components(L, self.shares)
        if len(pieces) > 1:
            for piece in pieces:
                if piece.bit_count() >= 3:
                    self.level(piece, False, source)
            return
        joined = [0] * self.P.arity
        for a, b, q in pairs:
            if not self.shares[a] >> b & 1 or self.live[q] & L or top and self.base[q]:
                joined[a] |= 1 << b
                joined[b] |= 1 << a
        blocks = _components(L, joined)
        if len(blocks) < 2:
            return
        factors = self.factor(L, blocks, source)
        if factors is None:
            return
        label = {v: k for k, block in enumerate(blocks) for v in _bits(block)}
        for a, b, q in pairs:
            if label[a] != label[b]:
                self.zero[q] |= L
        for block, factor in zip(blocks, factors):
            if block.bit_count() >= 3:
                self.level(block, False, factor)

    def factor(self, L: int, blocks: List[int], source):
        """The factors of Q = H - c over the blocks, for the level's
        polynomial H on the slots L and the one constant c that can make it
        factor; None when the rank-one check fails.

        If Q is the product of factors on the k blocks, each term m of Q
        has q(m)*q0^(k-1) = prod over blocks b of q(m_b | t0 outside b),
        for any term t0 of Q (the pivot), coefficient q0 and m_b the part
        of m in b.  Conversely, if Q's terms are all the combinations of
        their parts in the blocks (their count is the product of the
        parts' counts) and every term satisfies that, Q is
        q0^(1-k) times the product of its slices through the pivot.  A
        pivot spanning two blocks reads q(1) from that identity at m = 1,
        which fixes c.
        """
        p = self.P.ctx.p
        if source is None:
            if self.terms is None:
                self.terms = {sum(1 << v for v, _ in mono): c
                              for mono, c in self.P.terms.items()}
            source = self.terms
        Q = {m: c for m, c in source.items() if m and not m & ~L}
        for t0, q0 in Q.items():
            if sum(1 for b in blocks if t0 & b) >= 2:
                break
        else:
            return None
        rests = [t0 & ~b for b in blocks]
        scale = pow(q0, len(blocks) - 1, p)
        one = math.prod(Q.get(r, 0) for r in rests) * pow(scale, -1, p) % p
        if one:
            Q[0] = one
        parts = [{m & b for m in Q} for b in blocks]
        if math.prod(map(len, parts)) != len(Q):
            return None
        # Q's terms are all the combinations of their parts, so every
        # slice through the pivot is a term
        for m, c in Q.items():
            product = 1
            for b, r in zip(blocks, rests):
                product = product * Q[m & b | r] % p
            if product != c * scale % p:
                return None
        return [{u: Q[u | r] for u in part} for part, r in zip(parts, rests)]
