"""Decomposition structure of multilinear polynomials.

The central objects:

* the pair commutator D(P) = P * dd_ij(P) - d_i(P) * d_j(P), whose being a
  constant multiple of the mixed second partial dd_ij(P) characterizes
  splitting P as h*g + c with x_i and x_j on opposite sides.  With
  P = A*x_i*x_j + B*x_i + C*x_j + E it is D = AE - BC, which needs about a
  quarter of the monomial products of the defining form and never forms the
  terms of that form that always cancel.  The exact zero tests never build
  D as a polynomial: they sum products of P's cofactors on integer monomial
  codes (mpoly._code_products) and test that sum for zero;
* the decomposition witness W(P): a polynomial in two copies of the
  variables (x-block slots 0..n-1, y-block slots n..2n-1) that vanishes
  identically exactly when dd_ij(P) is zero or P splits for some constant.
  A shared index set J glues y_k := x_k for k in J;
* the pair split along a third slot z, P = A*x_i*x_j + B*x_i + C*x_j + E
  with A..E affine in z.  On scalars it reads the witness probes and the
  certificate checks; on P's coded cofactors it decides every witness with
  J != {} exactly (_slot_vanishes, see witness_is_zero);
* the order-3 Taylor table of P at a point a: the mixed partials d_T P(a),
  |T| <= 3, from a truncated shift of P's terms to a, one slot at a time,
  that keeps no term past its third shifted slot.  The witness's fixed probe
  and the certificate's checks read every point value they need from such
  tables;
* the gate graph: edge (i, j) iff dd_ij(P) != 0; connected components are
  exactly the additive pieces of P;
* exact splitting routines and a brute-force read-once decider used as the
  ground truth in tests.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
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

# The exact witness test's probe point pair, drawn once from a fixed seed so
# that no call seeds or consumes a random stream: slot k of the x-point reads
# entry k, slot k of the y-point entry n + k, cyclically, reduced mod p.
_PROBE = tuple(map(random.Random(0).getrandbits, [64] * 64))


class _Probe:
    """What this module memoizes on a polynomial P (MPoly._probe): whether P
    is multilinear, and, once a witness is probed, the probe points x and y
    (the J = {} pair) with P's Taylor tables at them.  P never changes, so
    neither does its memo."""
    __slots__ = ("multilinear", "tables")

    def __init__(self, P: MPoly):
        self.multilinear = P.is_multilinear()
        self.tables = None


def _probe_memo(P: MPoly) -> _Probe:
    memo = P._probe
    if memo is None:
        memo = P._probe = _Probe(P)
    return memo


def _is_multilinear(P: MPoly) -> bool:
    """P.is_multilinear(), scanned once per polynomial."""
    return _probe_memo(P).multilinear


def _require_multilinear(P: MPoly):
    if not _is_multilinear(P):
        raise NotMultilinear(f"operation needs a multilinear polynomial, got {P!r}")


def _tail(tails: Dict[int, int], a, p: int, x: int) -> int:
    """prod(a_w : w in x) mod p for the bit mask x, memoized in tails.

    Not a closure inside _shifted_coefficients: a closure that calls itself
    is a reference cycle, which keeps each call's memo alive until the
    cyclic garbage collector runs, and so raises peak memory over many
    tables.
    """
    t = tails.get(x)
    if t is None:
        low = x & -x
        t = tails[x] = a[low.bit_length() - 1] * _tail(tails, a, p, x ^ low) % p
    return t


def _shifted_coefficients(P: MPoly, a) -> Dict[int, int]:
    """P's order-3 Taylor table at a: the mixed partials d_T P(a) for every
    |T| <= 3, keyed by T's bit mask.

    They are the coefficients of P(a + u) in u, and a truncated shift finds
    them: x_v = a_v + u_v is substituted one slot at a time, in index order.
    A term then has a shifted part U (its u-slots, below v) and an unshifted
    part X (its x-slots, v and up).  Terms are grouped by X, so terms that
    share their unshifted part are shifted together and merge.  At slot v a
    term c * u^U * x^X splits into c*a_v * u^U * x^(X-v), dropped when
    a_v = 0, and c * u^(U+v) * x^(X-v).  A term that takes its third u-slot
    can take no more: it adds c * prod(a_w : w in X-v) to d_(U+v) P(a) at
    once, the product memoized per remaining part and 0 when some a_w is.
    So no term carries more than two u-slots.  P must be multilinear and a a
    sequence of residues.  The table reads 0 at entries that receive nothing;
    values are sums of residues, left unreduced.
    """
    p, n = P.ctx.p, P.arity
    table: Dict[int, int] = defaultdict(int)
    # pending[v] maps each unshifted part X whose lowest slot is v to its
    # terms, a dict from shifted part U to coefficient.  Plain dicts and get:
    # a defaultdict's missing-key path costs more than the lookup
    pending = [{} for _ in range(n)]
    for mono, c in P.terms.items():
        x = 0
        for v, _ in mono:
            x |= 1 << v
        if x:
            pending[(x & -x).bit_length() - 1][x] = {0: c}
        else:
            table[0] = c
    tails = {0: 1}
    for v in range(n):
        bit, av = 1 << v, a[v]
        for x, group in pending[v].items():
            rest = x ^ bit
            if rest:
                groups = pending[(rest & -rest).bit_length() - 1]
                target = groups.get(rest)
                if target is None:
                    target = groups[rest] = {}
                t = _tail(tails, a, p, rest)
            else:
                target, t = table, 1
            for u, c in group.items():
                if av:
                    target[u] = target.get(u, 0) + c * av % p
                u |= bit
                if u.bit_count() < 3:
                    target[u] = target.get(u, 0) + c
                elif t:
                    table[u] = table.get(u, 0) + c * t % p
        pending[v] = None
    return table


def _pair_split(c, x: int, y: int, z: int):
    """Split P = A*x*y + B*x + C*y + E with A, B, C, E affine in z,
    A = A1*z + A0 and so on, and D = A*E - B*C = D2*z^2 + D1*z + D0.

    c maps a bit mask to the coefficient of that monomial in x, y and z:
    scalars, such as a table in shifted coordinates, or arrays of them
    (_slot_vanishes forms the same D from coded cofactors).  x, y, z are
    one-bit masks; returns (A1, A0, D2, D1, D0).
    """
    A1, A0 = c[x | y | z], c[x | y]
    B1, B0 = c[x | z], c[x]
    C1, C0 = c[y | z], c[y]
    E1, E0 = c[z], c[0]
    return (A1, A0, A1 * E1 - B1 * C1, A1 * E0 + A0 * E1 - B1 * C0 - B0 * C1,
            A0 * E0 - B0 * C0)


def _commutator_codes(c, x: int, y: int, p: int) -> Dict[int, int]:
    """D = A*E - B*C for P = A*x*y + B*x + C*y + E, from P's coded cofactors
    c in the one-bit masks x and y (mpoly._coded_cofactors), as
    _code_products returns it: empty iff D == 0."""
    return _code_products(p, (1, c[x | y], c[0]), (-1, c[x], c[y]))


def _slot_vanishes(c, x: int, y: int, z: int, p: int) -> bool:
    """D2 == 0 and A1*D0 == A0*D1 in the pair split along z (_pair_split),
    from P's coded cofactors c in the one-bit masks x, y and z
    (mpoly._coded_cofactors).

    D1 and D0 are accumulated first and multiplied once; A1*D0 multiplies
    three multilinear factors, which the cofactor codes hold.
    """
    A1, A0 = c[x | y | z], c[x | y]
    B1, B0 = c[x | z], c[x]
    C1, C0 = c[y | z], c[y]
    E1, E0 = c[z], c[0]
    if _code_products(p, (1, A1, E1), (-1, B1, C1)):
        return False
    D1 = _code_products(p, (1, A1, E0), (1, A0, E1), (-1, B1, C0), (-1, B0, C1))
    D0 = _commutator_codes(c, x, y, p)
    return not _code_products(p, (1, A1, D0.items()), (-1, A0, D1.items()))


def commutator(P: MPoly, i: int, j: int) -> MPoly:
    """P * dd_ij(P) - d_i(P) * d_j(P); the pair commutator of slots i and j.

    Built as AE - BC, where P = A*x_i*x_j + B*x_i + C*x_j + E: A = dd_ij(P),
    E = P|x_i=x_j=0, B = d_i(P)|x_j=0 and C = d_j(P)|x_i=0.  Expanding
    P*A - (A*x_j + B)(A*x_i + C) leaves exactly AE - BC, over every field.
    """
    if i == j:
        raise SameVariable(f"need two distinct variables, got {i} twice")
    _require_multilinear(P)
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
    _require_multilinear(P)
    if P.is_zero():
        raise InvalidParams("the zero polynomial has no nonzero point")
    point = [0] * P.arity
    for v, _ in min(P.terms, key=len):
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
    on the cofactors' codes (_commutator_codes) and compared with c * A;
    no polynomial is built.
    """
    if i == j:
        raise SameVariable(f"need two distinct variables, got {i} twice")
    _require_multilinear(P)
    pv = P.variables()
    for t in (i, j):
        if t not in pv:
            raise VariableNotPresent(f"x{t + 1} does not occur in the polynomial")
    bi, bj, p = 1 << i, 1 << j, P.ctx.p
    cof = _coded_cofactors(P, (i, j))
    S = cof[bi | bj]
    if not S:
        return DecompResult(False, None, True)
    # D = c * S forces c to the ratio of their coefficients at any monomial
    # of S
    D = _commutator_codes(cof, bi, bj, p)
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
    _require_multilinear(P)
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


def witness_is_zero(P: MPoly, i: int, j: int,
                    shared: FrozenSet[int] | Sequence[int] = frozenset()) -> bool:
    """Decide W(P) == 0 for the pair (i, j) and a shared index set J.

    Write P = A*x_i*x_j + B*x_i + C*x_j + E; then S = dd_ij(P) = A and
    D = AE - BC, neither involving x_i or x_j, and
    W(x, y) = D(x) * S(y) - S(x) * D(y) with y_k = x_k for k in J.  W == 0
    when S == 0; otherwise W is first read at fixed pseudo-random point
    pairs from P's Taylor tables at the probe points, memoized on P (see
    _probe_value), and a nonzero value proves W != 0.

    J = {} is then decompose's test, D = c * S for a constant c.  For
    J = rest - {m}, split S = A1*x_m + A0 and D = D2*x_m^2 + D1*x_m + D0
    with coefficients in the ring R of the other slots (_slot_vanishes on the
    cofactors of P in x_i, x_j, x_m).  W's coefficients in x_m and y_m are
    +-D2*A1, +-D2*A0 and +-(A1*D0 - A0*D1); R has no zero divisors, so
    W == 0 iff D2 == 0 and A1*D0 == A0*D1.  Any other J reduces to these:
    W_J == 0 iff D/S is free of every unglued slot m, which is
    W_{rest - {m}} == 0, so every unglued slot is probed before any is
    tested.  This holds over every field, GF(2) included.
    """
    shared = frozenset(shared)
    if i == j:
        raise SameVariable(f"need two distinct variables, got {i} twice")
    if i in shared or j in shared:
        raise IndexOverlap(f"shared set {sorted(shared)} overlaps the pair ({i}, {j})")
    _require_multilinear(P)
    n = P.arity
    for k in shared:
        if not 0 <= k < n:
            raise IndexOverlap(f"shared index {k} outside arity {n}")

    if P.partial(i).partial(j).is_zero():
        return True
    if not shared:
        return not _probe_value(P, i, j, None) and decompose(P, i, j).decomposable
    unglued = [k for k in range(n) if k not in shared and k != i and k != j]
    if any(_probe_value(P, i, j, m) for m in unglued):
        return False
    bi, bj, p = 1 << i, 1 << j, P.ctx.p
    return all(_slot_vanishes(_coded_cofactors(P, (i, j, m)), bi, bj, 1 << m, p)
               for m in unglued)


def _probe_value(P: MPoly, i: int, j: int, m: Optional[int]) -> int:
    """W(x, y) at a fixed probe pair, in O(1) from P's memoized tables.

    x reads _PROBE from entry 0 and y from entry n.  m = None probes J = {}:
    W = D(x)*S(y) - S(x)*D(y) with D = P*S - d_iP*d_jP at each point.
    Otherwise m is the free slot of J = rest - {m}: D and S ignore slots i
    and j, so y differs from x only in slot m, by delta = y_m - x_m; with
    the pair split of P's shift to x in (i, j) along m (_pair_split),
    W = delta*(A1*D0 - A0*D1) - delta^2*A0*D2.
    """
    n, p = P.arity, P.ctx.p
    memo = _probe_memo(P)
    if memo.tables is None:
        x = [_PROBE[k % len(_PROBE)] % p for k in range(n)]
        y = [_PROBE[(n + k) % len(_PROBE)] % p for k in range(n)]
        memo.tables = x, y, _shifted_coefficients(P, x), _shifted_coefficients(P, y)
    x, y, tx, ty = memo.tables
    bi, bj = 1 << i, 1 << j
    if m is None:
        sx, sy = tx[bi | bj], ty[bi | bj]
        dx = tx[0] * sx - tx[bi] * tx[bj]
        dy = ty[0] * sy - ty[bi] * ty[bj]
        return (dx * sy - sx * dy) % p
    A1, A0, D2, D1, D0 = _pair_split(tx, bi, bj, 1 << m)
    delta = y[m] - x[m]
    return (delta * (A1 * D0 - A0 * D1) - delta * delta * A0 * D2) % p


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
    _require_multilinear(P)
    vs = sorted(P.variables())
    edges = set()
    for a in range(len(vs)):
        for b in range(a + 1, len(vs)):
            if not P.partial2(vs[a], vs[b]).is_zero():
                edges.add((vs[a], vs[b]))
    return GateGraph(frozenset(vs), frozenset(edges))


def is_additively_separable(P: MPoly) -> bool:
    """True iff P = P1 + P2 on disjoint nonempty variable sets."""
    _require_multilinear(P)
    if len(P.variables()) < 2:
        return False
    return not gate_graph(P).is_connected()


def additive_split(P: MPoly, part) -> Tuple[MPoly, MPoly]:
    """Split P = P1 + P2 along the cut (part, rest); P1 keeps the constant.

    part must be a nonempty proper subset of the support; the reconstruction
    is verified and NotSeparableAlongCut raised when the cut crosses a term.
    """
    _require_multilinear(P)
    vs = P.variables()
    side = frozenset(part)
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
    res = decompose(P, i, j)
    if not res.decomposable:
        raise NotDecomposable(f"pair ({i}, {j}) does not split this polynomial")
    ctx = P.ctx
    c = res.c
    Pp = P - MPoly.constant(ctx, P.arity, c)
    # variables tied to j: k stays with j iff the pair (k, j) does not split
    # P - c with constant 0, i.e. its commutator is nonzero
    right = {j}
    for k in sorted(Pp.variables()):
        if k != j and _commutator_codes(_coded_cofactors(Pp, (k, j)), 1 << k, 1 << j, ctx.p):
            right.add(k)
    left = sorted(Pp.variables() - right)
    # Pp's value at w is the coefficient of the least-degree monomial that
    # find_nonzero_point sets to 1
    w = find_nonzero_point(Pp)
    s = Pp.terms[min(Pp.terms, key=len)]
    h_raw = Pp.restrict_many(sorted(right), w)   # h * g(w)
    g_raw = Pp.restrict_many(left, w)            # h(w) * g
    lc = h_raw.leading_coefficient()
    h = h_raw.scale(ctx.inv_raw(lc))
    g = g_raw.scale(lc * ctx.inv_raw(s) % ctx.p)
    if h * g + MPoly.constant(ctx, P.arity, c) != P:
        raise NotDecomposable(
            f"pair ({i}, {j}) admits no variable-disjoint factorization")
    return h, g, c


# ---- read-once deciders ----

def _trivariate_rop(c, x: int, y: int, z: int, p: int):
    """Is the multilinear polynomial with coefficients c in slots x, y, z
    read-once?

    c maps a bit mask to the coefficient of that monomial in x, y and z (the
    one-bit masks of the three slots), as _pair_split reads it: residues,
    unreduced Python ints, or int64 arrays of residues below 2**30 (object
    arrays above), one entry per polynomial.  P is read-once iff at least two
    of the three pair witnesses vanish identically.  For a pair (x, y) write
    P = A*x*y + B*x + C*y + E with A, B, C, E affine in z, A = A1*z + A0 and
    so on; then D = A*E - B*C = D2*z^2 + D1*z + D0, and the witness
    D(z)*A(z') - A(z)*D(z') vanishes iff A == 0, or D2 == 0 and
    D1*A0 == D0*A1, that is, D is a constant multiple of A.  With a slot
    absent, both pairs through it have A == 0 and the third has D2 == 0 and
    D1 == 0, so every polynomial in at most two of the slots is read-once.
    Returns a bool, or a bool array for arrays.
    """
    zeros = 0
    for a, b, m in ((x, y, z), (x, z, y), (y, z, x)):
        A1, A0, D2, D1, D0 = _pair_split(c, a, b, m)
        # reducing each D first keeps the products of residues below 2**60
        zeros = zeros + ((A1 % p == 0) & (A0 % p == 0)
                         | (D2 % p == 0) & ((D1 % p * A0 - D0 % p * A1) % p == 0))
    return zeros >= 2


def trivariate_is_rop(P: MPoly) -> bool:
    """Exact read-once test for polynomials with at most 3 live variables.

    The 8 coefficients c[S], S a subset of the live variables, decide it in
    closed form (_trivariate_rop).
    """
    _require_multilinear(P)
    vs = sorted(P.variables())
    if len(vs) > 3:
        raise TooManyVariables(f"{len(vs)} live variables, trivariate test needs <= 3")
    bit = {v: 1 << t for t, v in enumerate(vs)}
    c = [0] * 8
    for mono, coeff in P.terms.items():
        c[sum(bit[v] for v, _ in mono)] = coeff
    return _trivariate_rop(c, 1, 2, 4, P.ctx.p)


def _canonical_key(P: MPoly, live: Sequence[int]):
    rank = {v: t for t, v in enumerate(live)}
    items = []
    for mono, c in P.terms.items():
        items.append((tuple((rank[v], e) for v, e in mono), c))
    items.sort()
    return (P.ctx.p, tuple(items))


def brute_force_is_rop(P: MPoly, *, max_vars: int = 12) -> bool:
    """Ground-truth read-once decider by recursive exact splitting.

    Constants and single variables are read-once.  A disconnected gate graph
    splits P additively; otherwise every variable pair is tried for a
    multiplicative split and P is read-once iff some split yields two
    read-once factors.  Results are memoized on the polynomial rewritten
    over its live variables, so structurally equal subproblems are shared.
    """
    _require_multilinear(P)
    if len(P.variables()) > max_vars:
        raise TooManyVariables(
            f"{len(P.variables())} live variables exceeds the guard {max_vars}")
    memo: Dict = {}

    def rec(Q: MPoly) -> bool:
        live = sorted(Q.variables())
        if len(live) <= 1:
            return True
        key = _canonical_key(Q, live)
        hit = memo.get(key)
        if hit is not None:
            return hit
        comps = gate_graph(Q).components()
        if len(comps) > 1:
            Q1, Q2 = additive_split(Q, comps[0])
            out = rec(Q1) and rec(Q2)
        else:
            out = False
            for a, b in itertools.combinations(live, 2):
                r = decompose(Q, a, b)
                if r.decomposable:
                    h, g, _ = multiplicative_split(Q, a, b)
                    if rec(h) and rec(g):
                        out = True
                        break
        memo[key] = out
        return out

    return rec(P)
