"""A polynomial's structure from its terms: additive pieces and verified
factor blocks.

Following Shpilka-Volkovich, a read-once polynomial splits into additive
pieces over disjoint slots, or P - c = h*g over disjoint slots, recursively.
The tools here find such splits on bit-mask terms (a polynomial is a dict
from its monomials' slot masks to their coefficients) for two users:

* evaluation: mpoly's plan compiler splits a multilinear polynomial into
  its pieces (_components over shared_slots, exact from the terms) and its
  product blocks, proposed at fixed points (propose_block) and accepted
  only by the exact rank-one check (factor), and compiles the parts that
  split no further by Horner's rule;
* witness zero tags: while decomp._WitnessTags decides a polynomial's
  tags, it hands _Structure what its probes read; _Structure proves what it
  can of the open tags zero, from exact identities over the same pieces
  and verified blocks, and the exact test decides the rest after it.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
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


def slot_rows(masks: np.ndarray, L: int) -> Dict[int, np.ndarray]:
    """For each slot v of the bit mask L, which of the term masks (an int64
    array) hold v, as a boolean array."""
    return {v: (masks >> v) & 1 == 1 for v in _bits(L)}


def shared_slots(masks: np.ndarray, rows: Dict[int, np.ndarray]) -> Dict[int, int]:
    """For each slot v of rows (slot_rows), the slots that share a monomial
    with v, v included, as a bit mask."""
    return {v: int(np.bitwise_or.reduce(masks, where=held, initial=0))
            for v, held in rows.items()}


@functools.lru_cache(maxsize=16)
def _proposal_tables(p: int) -> Tuple[np.ndarray, ...]:
    """The coordinates of two fixed points in 1..p-1, drawn from a fixed seed
    so that every split is the same whoever asks for it, as read-only
    tables: entry [k, byte] of table j is the product of point k's
    coordinates on the slots 8j + i for the bits i of byte, mod p, for the
    slots an int64 bit mask can hold."""
    rng = random.Random("ropcheck/structure/proposal")
    dtype = np.int64 if p < 2**31 else object
    tables = []
    for _ in range(8):
        table = np.ones((2, 1), dtype=dtype)
        for _ in range(8):
            x = np.array([[1 + rng.randrange(p - 1)] for _ in range(2)], dtype=dtype)
            table = np.concatenate([table, table * x % p], axis=1)
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


# how many bits each byte value holds
_BYTE_BITS = np.array([bin(k).count("1") for k in range(256)], dtype=np.int64)


def propose_block(p: int, masks: np.ndarray, coeffs, rows: Dict[int, np.ndarray]) -> Optional[int]:
    """The slots of the lowest slot a's factor, if Q - c = h*g over disjoint
    slots with a in h, for the polynomial Q with the term masks (an int64
    array) and coefficients given, on the slots of rows (slot_rows); None
    when the proposal finds no such split.  Only a proposal: factor()
    verifies it.

    Write Q = x_a*x_b*A + x_a*B + x_b*C + E with A, B, C, E free of a and
    b.  If a and b lie in different factors, A*(E - c) = B*C, so E - B*C/A
    reads c at every point where A does not vanish.  At a point with
    x_a, x_b != 0 and term values t, let S_a sum the terms that hold a, S_0
    the others, and S_ab, S_0b those among them that hold b; then
    E - B*C/A = S_0 - S_0b*S_a/S_ab, since x_a and x_b cancel.  Each slot b
    is read at two fixed points with nonzero coordinates, where A does not
    vanish unless by chance, and at one 0/1 point: 1 on the slots of the
    fewest-slot term that holds a and b, 0 elsewhere, where A reads that
    term's coefficient, since no other term of A lies inside it.  So every
    b that shares a term with a has a reading, over GF(2) too, where the
    fixed points may all be roots of A.  A slot b joins the other factor
    when all its readings are one value, the most common of those values.
    The term values take one pass per 8 slots (_proposal_tables), and the
    sums a few per slot.
    """
    tables = _proposal_tables(p)
    coeffs = np.asarray(coeffs, dtype=tables[0].dtype) % p
    values = np.tile(coeffs, (2, 1))
    size = np.zeros(len(masks), dtype=np.int64)     # each term's slot count
    L = sum(1 << v for v in rows)
    for j in range(0, L.bit_length(), 8):
        byte = (masks >> j) & 255
        values = values * tables[j // 8][:, byte] % p
        size += _BYTE_BITS[byte]
    a = min(rows)
    with_a = np.where(rows[a], values, 0)
    without_a = values - with_a
    S_a = [int(s) % p for s in with_a.sum(axis=1)]
    S_0 = [int(s) % p for s in without_a.sum(axis=1)]
    reads = {}
    for b, held in rows.items():
        both = held & rows[a]
        if b == a or not both.any():
            continue
        S_ab = with_a.sum(axis=1, where=held, initial=0)
        S_0b = without_a.sum(axis=1, where=held, initial=0)
        cs = {(S_0[k] - int(S_0b[k]) * S_a[k] * pow(int(S_ab[k]), -1, p)) % p
              for k in range(2) if S_ab[k] % p}
        # the 0/1 point: the terms inside the fewest-slot term of A
        at = np.flatnonzero(both)
        inside = masks & ~masks[at[np.argmin(size[at])]] == 0
        sums = [int(coeffs[inside & h].sum())
                for h in (rows[a], rows[a] & held, ~rows[a], ~rows[a] & held)]
        cs.add((sums[2] - sums[3] * sums[0] * pow(sums[1], -1, p)) % p)
        if len(cs) == 1:
            reads[b] = cs.pop()
    if not reads:
        return None
    c = Counter(reads.values()).most_common(1)[0][0]
    return L & ~sum(1 << b for b, r in reads.items() if r == c)


def factor(p: int, source: Dict[int, int], L: int, blocks: List[int]):
    """The factors of Q = H - c over the blocks, for the polynomial H of
    the terms of source inside the slots L and the one constant c that can
    make it factor; None when the rank-one check fails.  Each factor is a
    dict of bit-mask terms on its block, and Q is their product.

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
    Q = {m: c for m, c in source.items() if m and not m & ~L}
    for t0, q0 in Q.items():
        if sum(1 for b in blocks if t0 & b) >= 2:
            break
    else:
        return None
    rests = [t0 & ~b for b in blocks]
    scale = pow(q0, len(blocks) - 1, p)
    inverse = pow(scale, -1, p)
    one = math.prod(Q.get(r, 0) for r in rests) * inverse % p
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
    factors = [{u: Q[u | r] for u in part} for part, r in zip(parts, rests)]
    factors[0] = {u: c * inverse % p for u, c in factors[0].items()}
    return factors


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
    whose witness glued on rest - {m} reads live at a probe for some m in
    L, since P's reading there is H's times a factor.  A candidate
    proves nothing until factor verifies it, and a level is searched only
    while it holds an open tag.

    Slot sets and monomials are bit masks, and a polynomial is a dict from
    its monomials to their coefficients.  P holds the slots of the bit mask
    present.  The other arguments are lists indexed as the pairs (i, j),
    i < j, in lexicographic order: shares[q] tells whether a monomial of P
    holds both slots of pair q, and live[q] is the bit mask of the slots m
    whose witness glued on rest - {m} reads live at a probe.  The proof reads
    these and writes only zero, the tags' bit masks
    (decomp._WitnessTags.zero), which come in holding the pair's own slots
    and those P does not hold, or all slots for a pair that shares no
    monomial: it adds to zero[q] the slots m whose tags of pair q it proves
    zero, every slot of P for a pair that splits P.
    """
    __slots__ = ("P", "live", "zero", "pair_at", "shares", "open", "terms")

    def __init__(self, P: MPoly, present: int, shares: List[bool], live: List[int],
                 zero: List[int]):
        n = P.arity
        self.P, self.live, self.zero, self.terms = P, live, zero, None
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
        self.level(present)

    def level(self, L: int, source=None):
        """Prove the tags of the pairs inside the level's slots L glued on
        all but a slot of L.  The level's nonconstant terms are those of the
        polynomial source inside L; None stands for P."""
        slots = _bits(L)
        pairs = [(a, b, self.pair_at[a][b]) for k, a in enumerate(slots) for b in slots[k + 1:]]
        if not any(self.open[q] & L for _, _, q in pairs):
            return
        pieces = _components(L, self.shares)
        if len(pieces) > 1:
            for piece in pieces:
                if piece.bit_count() >= 3:
                    self.level(piece, source)
            return
        joined = [0] * self.P.arity
        for a, b, q in pairs:
            if not self.shares[a] >> b & 1 or self.live[q] & L:
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
                self.level(block, factor)

    def factor(self, L: int, blocks: List[int], source):
        """factor() on the level's polynomial: the terms of source inside
        L, None standing for P's."""
        if source is None:
            if self.terms is None:
                self.terms = {sum(1 << v for v, _ in mono): c
                              for mono, c in self.P.terms.items()}
            source = self.terms
        return factor(self.P.ctx.p, source, L, blocks)
