"""Reference routines: exact ground truths that the fast path is checked
against.

This module imports nothing of the package but the field, polynomial and
error layers, so that no ground truth shares code with the certificate,
the structural proof or the testers it checks (tests/test_reference.py
enforces both directions).  It holds:

* the pair commutator D(P) = P * dd_ij(P) - d_i(P) * d_j(P), built as
  D = AE - BC from P = A*x_i*x_j + B*x_i + C*x_j + E, whose being a
  constant multiple of the mixed second partial dd_ij(P) characterizes
  splitting P as h*g + c with x_i and x_j on opposite sides (decompose sums
  D on P's cofactors as integer monomial codes and never builds it);
* the materialized decomposition witness W(P) on two copies of the
  variables (x-block slots 0..n-1, y-block slots n..2n-1), y_k := x_k for
  k in a shared index set J;
* the gate graph: edge (i, j) iff dd_ij(P) != 0; its connected components
  are exactly the additive pieces of P;
* exact additive and multiplicative splits, and brute_force_is_rop, one
  recursion over them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import (
    IndexOverlap,
    InvalidParams,
    NotDecomposable,
    NotMultilinear,
    NotSeparableAlongCut,
    SameVariable,
    TooManyVariables,
    VariableNotPresent,
)
from .mpoly import MPoly, _code_products, _coded_cofactors


def _check_multilinear(P: MPoly):
    if not P.is_multilinear():
        raise NotMultilinear(f"operation needs a multilinear polynomial, got {P!r}")


def _coded_commutator(c, x: int, y: int, p: int) -> Dict[int, int]:
    """D = A*E - B*C for P = A*x*y + B*x + C*y + E, from P's coded cofactors
    c in the one-bit masks x and y (mpoly._coded_cofactors), as
    mpoly._code_products returns it: empty iff D == 0."""
    return _code_products(p, (1, c[x | y], c[0]), (-1, c[x], c[y]))


def commutator(P: MPoly, i: int, j: int) -> MPoly:
    """P * dd_ij(P) - d_i(P) * d_j(P); the pair commutator of slots i and j.

    Built as AE - BC, where P = A*x_i*x_j + B*x_i + C*x_j + E: A = dd_ij(P),
    E = P|x_i=x_j=0, B = d_i(P)|x_j=0 and C = d_j(P)|x_i=0.  Expanding
    P*A - (A*x_j + B)(A*x_i + C) leaves exactly AE - BC, over every field.
    """
    if i == j:
        raise SameVariable(f"need two distinct variables, got {i} twice")
    _check_multilinear(P)
    zeros = [0] * P.arity
    E = P.restrict_many((i, j), zeros)
    B = P.partial(i).restrict(j, 0)
    C = P.partial(j).restrict(i, 0)
    return P.partial2(i, j) * E - B * C


def find_nonzero_point(P: MPoly) -> Tuple[int, ...]:
    """A full-arity point where the multilinear P is nonzero.

    The variables of a least-degree monomial m are set to 1 and every other
    slot to 0.  A monomial survives that point only if its variables all lie
    in m; no other monomial of P does, since none has lower degree, so P
    takes the value of m's coefficient there.  Raises on the zero polynomial.
    """
    _check_multilinear(P)
    if P.is_zero():
        raise InvalidParams("the zero polynomial has no nonzero point")
    return _ones_at(P.arity, min(P.terms, key=len))


def _ones_at(n: int, mono) -> Tuple[int, ...]:
    """The n-slot point with 1 at the slots of mono and 0 elsewhere."""
    point = [0] * n
    for v, _ in mono:
        point[v] = 1
    return tuple(point)


@dataclass(frozen=True)
class DecompResult:
    """Outcome of a split test: P = h*g + c with i, j on opposite sides.

    degenerate marks the case dd_ij(P) == 0, where no such split exists and
    no constant is defined.
    """
    decomposable: bool
    c: Optional[int]
    degenerate: bool


def decompose(P: MPoly, i: int, j: int) -> DecompResult:
    """Exact split test for the pair (i, j).

    P is decomposable iff D(P) = c * dd_ij(P) for the unique candidate
    c = D(w) / dd_ij(P)(w) at any point w where the second partial is
    nonzero.  With P = A*x_i*x_j + B*x_i + C*x_j + E, D = AE - BC is summed
    on the cofactors' codes and compared with c * A; no polynomial is built.
    """
    if i == j:
        raise SameVariable(f"need two distinct variables, got {i} twice")
    _check_multilinear(P)
    pv = P.variables()
    for t in (i, j):
        if t not in pv:
            raise VariableNotPresent(f"x{t + 1} does not occur in the polynomial")
    return _decompose(P, i, j)


def _decompose(P: MPoly, i: int, j: int) -> DecompResult:
    """decompose on a multilinear P that holds both slots, unchecked."""
    bi, bj, p = 1 << i, 1 << j, P.ctx.p
    cof = _coded_cofactors(P, (i, j))
    S = cof[bi | bj]
    if not S:
        return DecompResult(False, None, True)
    # D = c * S forces c to the ratio of their coefficients at any monomial
    # of S
    D = _coded_commutator(cof, bi, bj, p)
    k, s = S[0]
    c = D.get(k, 0) * P.ctx.inv_raw(s) % p
    if D == ({m: c * a % p for m, a in S} if c else {}):
        return DecompResult(True, c, False)
    return DecompResult(False, None, False)


# ---- decomposition witness ----

@dataclass(frozen=True)
class WitnessPoly:
    """Materialized witness: value lives on 2n slots (x-block then y-block)."""
    i: int
    j: int
    shared: FrozenSet[int]
    value: MPoly


def decomp_witness(P: MPoly, i: int, j: int,
                   shared: FrozenSet[int] | Sequence[int] = frozenset()) -> WitnessPoly:
    """Build W(P) = D(x) * S(y) - S(x) * D(y) with y_k := x_k for k in shared.

    D is the pair commutator and S the mixed second partial; the result has
    arity 2n and individual degree at most 3 (at most 2 on unshared slots).
    """
    shared = frozenset(shared)
    if i in shared or j in shared:
        raise IndexOverlap(f"shared set {sorted(shared)} overlaps the pair ({i}, {j})")
    _check_multilinear(P)
    n = P.arity
    for k in shared:
        if not 0 <= k < n:
            raise IndexOverlap(f"shared index {k} outside arity {n}")
    D = commutator(P, i, j)
    S = P.partial2(i, j)
    x_map = {v: v for v in range(n)}
    y_map = {v: (v if v in shared else v + n) for v in range(n)}
    Dx = D.embed(2 * n, x_map)
    Sx = S.embed(2 * n, x_map)
    Dy = D.embed(2 * n, y_map)
    Sy = S.embed(2 * n, y_map)
    return WitnessPoly(i, j, shared, Dx * Sy - Sx * Dy)


# ---- gate graph ----

class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass(frozen=True)
class GateGraph:
    """Variables of P with an edge wherever a mixed second partial is nonzero."""
    vertices: FrozenSet[int]
    edges: FrozenSet[Tuple[int, int]]  # each edge stored as (min, max)

    def components(self) -> List[FrozenSet[int]]:
        """Connected components, sorted by their smallest vertex."""
        uf = _UnionFind(self.vertices)
        for a, b in self.edges:
            uf.union(a, b)
        groups: Dict[int, set] = {}
        for v in self.vertices:
            groups.setdefault(uf.find(v), set()).add(v)
        return sorted((frozenset(g) for g in groups.values()), key=min)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def without_vertex(self, v: int) -> "GateGraph":
        return GateGraph(self.vertices - {v},
                         frozenset(e for e in self.edges if v not in e))


def gate_graph(P: MPoly) -> GateGraph:
    _check_multilinear(P)
    return _gate_graph(P, sorted(P.variables()))


def _gate_graph(P: MPoly, vs: List[int]) -> GateGraph:
    """gate_graph on a multilinear P whose slots are vs, in one pass over
    P's monomials: dd_ab P != 0 iff some monomial holds both a and b, since
    the monomials that do stay distinct once x_a*x_b is divided out."""
    edges = set()
    for mono in P.terms:
        edges.update(itertools.combinations([v for v, _ in mono], 2))
    return GateGraph(frozenset(vs), frozenset(edges))


# ---- exact splits ----

def is_additively_separable(P: MPoly) -> bool:
    """True iff P = P1 + P2 on disjoint nonempty variable sets."""
    _check_multilinear(P)
    if len(P.variables()) < 2:
        return False
    return not gate_graph(P).is_connected()


def additive_split(P: MPoly, part) -> Tuple[MPoly, MPoly]:
    """Split P = P1 + P2 along the cut (part, rest); P1 keeps the constant.

    part must be a nonempty proper subset of the support; the reconstruction
    is verified and NotSeparableAlongCut raised when the cut crosses a term.
    """
    _check_multilinear(P)
    return _additive_split(P, frozenset(part), P.variables())


def _additive_split(P: MPoly, side: FrozenSet[int], vs: FrozenSet[int]) -> Tuple[MPoly, MPoly]:
    """additive_split on a multilinear P whose slots are vs."""
    if not side or not side.issubset(vs) or side == vs:
        raise InvalidParams(
            f"cut {sorted(side)} is not a nonempty proper subset of {sorted(vs)}")
    zeros = [0] * P.arity
    P1 = P.restrict_many(vs - side, zeros)
    # P1 keeps the constant term, which is P at 0
    P2 = P.restrict_many(side, zeros) - MPoly.constant(P.ctx, P.arity, P.terms.get((), 0))
    if P1 + P2 != P:
        raise NotSeparableAlongCut(f"terms cross the cut {sorted(side)}")
    return P1, P2


def multiplicative_split(P: MPoly, i: int, j: int) -> Tuple[MPoly, MPoly, int]:
    """Exact factors: P = h * g + c with x_i in h only and x_j in g only.

    g collects exactly the irreducible factor of P - c containing x_j
    together with nothing else; h is the product of the remaining factors,
    normalized so its leading (graded-lex) coefficient is 1.  The
    reconstruction h * g + c == P is verified before returning.
    """
    h, g, c, _ = _multiplicative_split(P, i, j, decompose(P, i, j), P.variables())
    return h, g, c


def _multiplicative_split(P: MPoly, i: int, j: int, res: DecompResult,
                          vs: FrozenSet[int]) -> Tuple[MPoly, MPoly, int, FrozenSet[int]]:
    """multiplicative_split on a multilinear P whose slots are vs, from the
    pair's decompose result res; also returns h's slots.  Once h * g + c == P
    is verified, h holds exactly those slots and g the rest of vs: each
    holds no more, and their product holds every slot of P - c."""
    if not res.decomposable:
        raise NotDecomposable(f"pair ({i}, {j}) does not split this polynomial")
    ctx = P.ctx
    c = res.c
    Pp = P - MPoly.constant(ctx, P.arity, c)
    # variables tied to j: k stays with j iff the pair (k, j) does not split
    # P - c with constant 0, i.e. its commutator is nonzero
    right = {j}
    for k in sorted(vs):
        if k != j and _coded_commutator(_coded_cofactors(Pp, (k, j)), 1 << k, 1 << j, ctx.p):
            right.add(k)
    left = vs - right
    # Pp's value at w is the coefficient s of the least-degree monomial that
    # w sets to 1 (find_nonzero_point)
    least = min(Pp.terms, key=len)
    w = _ones_at(Pp.arity, least)
    s = Pp.terms[least]
    h_raw = Pp.restrict_many(sorted(right), w)   # h * g(w)
    g_raw = Pp.restrict_many(sorted(left), w)    # h(w) * g
    lc = h_raw.leading_coefficient()
    h = h_raw.scale(ctx.inv_raw(lc))
    g = g_raw.scale(lc * ctx.inv_raw(s) % ctx.p)
    if h * g + MPoly.constant(ctx, P.arity, c) != P:
        raise NotDecomposable(
            f"pair ({i}, {j}) admits no variable-disjoint factorization")
    return h, g, c, left


# ---- read-once decider ----

def brute_force_is_rop(P: MPoly, *, max_vars: int = 12) -> bool:
    """Ground-truth read-once decider by one recursion over exact splits.

    Constants and single variables are read-once.  A disconnected gate graph
    splits P additively, and P is read-once iff both pieces are.  On a
    connected one, the first pair in lexicographic order that decompose
    splits decides: P is read-once iff both factors of P - c = h*g are
    (Shpilka-Volkovich), and P is not read-once if no pair splits.  No
    other pair needs a try: the pair's c = D/S is unique, so h*g groups
    the irreducible factors of P - c, and P is read-once iff they are.
    P is validated and its slots read once, here; the recursion hands each
    piece's and each factor's slots down with it.
    """
    _check_multilinear(P)
    live = P.variables()
    if len(live) > max_vars:
        raise TooManyVariables(
            f"{len(live)} live variables exceeds the guard {max_vars}")
    return _is_rop(P, live)


def _is_rop(P: MPoly, live: FrozenSet[int]) -> bool:
    """brute_force_is_rop on a multilinear P whose slots are live."""
    if len(live) <= 1:
        return True
    order = sorted(live)
    comps = _gate_graph(P, order).components()
    if len(comps) > 1:
        P1, P2 = _additive_split(P, comps[0], live)
        return _is_rop(P1, comps[0]) and _is_rop(P2, live - comps[0])
    for a, b in itertools.combinations(order, 2):
        res = _decompose(P, a, b)
        if res.decomposable:
            h, g, _, left = _multiplicative_split(P, a, b, res, live)
            return _is_rop(h, left) and _is_rop(g, live - left)
    return False
