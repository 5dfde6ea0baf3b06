"""Witness zero tags proved from a polynomial's structure.

decomp._WitnessTags hands this module its bit-mask tags with what its probes
leave open; _Structure proves what it can of them zero, from exact identities
over the polynomial's additive pieces and verified factor blocks,
recursively.
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
    components of P's pairs that share a monomial (decomp._WitnessTags.shares)
    within L, exact since a pair shares a monomial in a piece or a block iff
    it does in P.  The candidate blocks join every pair of L that shares no
    monomial or whose witness reads nonzero at a probe glued on rest - {m}
    for some m in L, since P's probe there is H's times a nonzero factor;
    at the top level the J = {} probes join too.  A candidate proves
    nothing until factor verifies it, and a level is searched only while it
    holds an open tag.

    Slot sets and monomials are bit masks, and a polynomial is a dict from
    its monomials to their coefficients.  The proof reads and writes the
    tags' lists (decomp._WitnessTags), indexed as the pairs (i, j), i < j,
    in lexicographic order: it marks the pairs that split P in split, and
    adds to zero[q] the slots m whose tags of pair q it proves zero.  P
    holds the slots of the bit mask present.
    """
    __slots__ = ("P", "tags", "pair_at", "shares", "open", "terms")

    def __init__(self, P: MPoly, present: int, tags):
        n = P.arity
        self.P, self.tags, self.terms = P, tags, None
        self.pair_at = [[0] * n for _ in range(n)]
        self.shares = [0] * n
        self.open = []
        for q, (i, j) in enumerate(itertools.combinations(range(n), 2)):
            self.pair_at[i][j] = self.pair_at[j][i] = q
            if tags.split[q]:
                self.open.append(0)
            else:
                self.shares[i] |= 1 << j
                self.shares[j] |= 1 << i
                # the tags still open: glued on all but a slot that P holds
                self.open.append(present & ~(1 << i | 1 << j) & ~tags.live[q])
        self.level(present, True)

    def level(self, L: int, top: bool, source=None):
        """Prove the tags of the pairs inside the level's slots L glued on
        all but a slot of L.  The level's nonconstant terms are those of the
        polynomial source inside L; None stands for P."""
        tags = self.tags
        slots = _bits(L)
        pairs = [(a, b, self.pair_at[a][b]) for k, a in enumerate(slots) for b in slots[k + 1:]]
        if not any(self.open[q] & L or top and not (tags.split[q] or tags.base[q])
                   for _, _, q in pairs):
            return
        pieces = _components(L, self.shares)
        if len(pieces) > 1:
            for piece in pieces:
                if piece.bit_count() >= 3:
                    self.level(piece, False, source)
            return
        joined = [0] * self.P.arity
        for a, b, q in pairs:
            if not self.shares[a] >> b & 1 or tags.live[q] & L or top and tags.base[q]:
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
                tags.zero[q] |= L
                if top:
                    tags.split[q] = True
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
