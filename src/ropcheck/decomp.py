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
  with A..E affine in z.  On arrays it runs many splits at once for the
  witness probes, the certificate checks and the trivariate decisions
  (_pair_splits); on P's coded cofactors it decides every witness with
  J != {} exactly (_slot_vanishes, see witness_is_zero);
* the order-3 Taylor table of P at a point a: the mixed partials d_T P(a),
  |T| <= 3, one row per T (_subsets).  A Taylor plan compiled once per
  polynomial (_TaylorPlan) evaluates it at the columns of an (n, K) array
  of points in a few numpy steps, from P's terms as slot arrays and, for
  each T, the terms that contain it.  The witness probes and the
  certificate's checks read every point value they need from such tables;
* the witness zero tags, decided in bulk once per polynomial
  (_WitnessTags) and read by witness_is_zero: which slots and pairs P's
  monomials hold (the subsets its plan lists), every witness at two fixed
  probe pairs from one evaluation of the plan (_Probes), and a structural
  proof (structure._Structure).  Following Shpilka-Volkovich, a read-once
  polynomial splits into additive pieces and disjoint factors,
  recursively; the proof recurses over P's pieces, exact from the pairs
  its monomials hold, and over factorizations of a piece minus a constant,
  each proposed by the probes and verified by a rank-one check on the
  terms as bit masks.  A pair across two factors has a constant D/S in
  that piece, so its witnesses glued on all but a slot of the piece
  vanish, and at the top level the pair splits P.  Only what these leave
  open reaches the exact tests;
* the gate graph: edge (i, j) iff dd_ij(P) != 0; connected components are
  exactly the additive pieces of P;
* exact splitting routines and a brute-force read-once decider used as the
  ground truth in tests.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ArityMismatch,
    IndexOverlap,
    InvalidParams,
    NotDecomposable,
    NotMultilinear,
    NotSeparableAlongCut,
    SameVariable,
    TooManyVariables,
    VariableNotPresent,
)
from .mpoly import _NUMPY_P_LIMIT, MPoly, _code_products, _coded_cofactors, _product_run
from .structure import _Structure

# The exact witness test's two probe point pairs, drawn once from fixed seeds
# so that no call seeds or consumes a random stream: slot k of pair t's
# x-point reads entry k of _PROBES[t], slot k of its y-point entry n + k,
# cyclically, reduced mod p.
_PROBES = tuple(tuple(map(random.Random(seed).getrandbits, [64] * 64)) for seed in (0, 1))


class _Probe:
    """What this module memoizes on a polynomial P (MPoly._probe): whether P
    is multilinear, its Taylor plan once a table is asked for (_TaylorPlan),
    and, once a witness is asked for, the witnesses at the probe pairs
    (_Probes) and the witness zero tags (_WitnessTags).  P never changes,
    so neither does its memo."""
    __slots__ = ("multilinear", "taylor", "probes", "tags")

    def __init__(self, P: MPoly):
        self.multilinear = P.is_multilinear()
        self.taylor = None
        self.probes = None
        self.tags = None


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


@functools.lru_cache(maxsize=64)
def _triples(n: int) -> np.ndarray:
    """The 3-subsets {a < b < c} of n slots in lexicographic order, as a
    (C(n,3), 3) array in the smallest signed type that holds n, built once
    per n.  The triples that start at a end in the pairs b < c above a,
    which are the last C(n-1-a, 2) of the n slots' lexicographic pairs."""
    b, c = np.triu_indices(n, 1)
    above = np.array([math.comb(n - 1 - a, 2) for a in range(n)], dtype=np.intp)
    # the run of triples at a starts at cumsum(above)[a] - above[a], its
    # pairs at len(b) - above[a]
    shift = np.repeat(len(b) - np.cumsum(above), above)
    pair = np.arange(len(shift)) + shift
    return np.stack([np.repeat(np.arange(n), above), b[pair], c[pair]],
                    axis=1).astype(np.min_scalar_type(-n)).reshape(-1, 3)


@functools.lru_cache(maxsize=64)
def _subsets(n: int) -> "_Subsets":
    """The row layout of order-3 Taylor tables in n slots, built once per n."""
    return _Subsets(n)


class _Subsets:
    """The rows of an order-3 Taylor table in n slots: one per subset T of
    at most 3 slots, by size, and colexicographically within a size.

    T = {s_1 < ... < s_k} sits in row w_1(s_1) + ... + w_k(s_k), where
    w_t(s) = C(s, t) + C(n, t-1); slot n pads a subset of fewer than 3
    slots and weighs 0.  weights holds w_1, w_2 and w_3 over the slots
    0..n one after the other, from offsets, in the smallest unsigned type
    that numbers every row.  rows maps T's bit mask to its row, and slots
    holds each row's slots, padded with n.  triples lists every 3-subset
    {a < b < c} in lexicographic order, and triple_rows its 8 subsets'
    rows, one column per triple: row mask holds the subset with a iff bit 0
    of mask is set, b iff bit 1 and c iff bit 2, so a column reads as
    coefficients in the one-bit masks 1, 2 and 4.
    """
    __slots__ = ("size", "weights", "offsets", "rows", "slots", "triples", "triple_rows")

    def __init__(self, n: int):
        self.size = sum(math.comb(n, k) for k in range(4))
        w = [[math.comb(s, t) + math.comb(n, t - 1) for s in range(n)] + [0] for t in (1, 2, 3)]
        self.weights = np.array(w, dtype=np.min_scalar_type(self.size)).ravel()
        self.offsets = np.array([0, n + 1, 2 * n + 2], dtype=np.intp)
        self.rows = {0: 0}
        self.slots = np.full((self.size, 3), n, dtype=np.intp)
        for k in (1, 2, 3):
            for T in itertools.combinations(range(n), k):
                row = self.rows[sum(1 << v for v in T)] = sum(w[t][v] for t, v in enumerate(T))
                self.slots[row, :k] = T
        self.triples = _triples(n)
        w0, w1, w2 = np.array(w, dtype=np.intp)
        a, b, c = self.triples.T
        self.triple_rows = np.array([np.zeros_like(a), w0[a], w0[b], w0[a] + w1[b], w0[c],
                                     w0[a] + w1[c], w0[b] + w1[c], w0[a] + w1[b] + w2[c]])


# (term, subset) pairs a Taylor plan's compiler indexes at a time
_PAIR_BLOCK = 1 << 18


@functools.lru_cache(maxsize=64)
def _positions(d: int) -> Tuple[np.ndarray, List[int]]:
    """The subsets of at most 3 of the positions 0..d-1, in order of their
    largest position, padded with position d, and C(e, <=3) for each e <= d:
    the subsets of a term's first e positions are the first C(e, <=3) rows.
    Row k holds 3*q_t + t for the t-th position q_t of subset k, the flat
    index of w_t+1 at q_t in a (d + 1, 3) array of a term's slot weights."""
    subsets = sorted((c for k in range(4) for c in itertools.combinations(range(d), k)),
                     key=lambda c: c[-1] if c else -1)
    positions = [[3 * q + t for t, q in enumerate(c + (d,) * (3 - len(c)))] for c in subsets]
    return (np.array(positions, dtype=np.int32).reshape(-1, 3),
            [sum(math.comb(e, k) for k in range(4)) for e in range(d + 1)])


def _product_mod(factors: np.ndarray, p: int) -> np.ndarray:
    """The product of the residues factors[0], factors[1], ... mod p, as
    many at a time as the product stays below 2**62 (mpoly._product_run)."""
    run = min(_product_run(p), len(factors)) + 1
    out = np.multiply.reduce(factors[:run], axis=0) % p
    for lo in range(run, len(factors), run):
        out = out * (np.multiply.reduce(factors[lo:lo + run], axis=0) % p) % p
    return out


class _TaylorPlan:
    """P's order-3 Taylor table as a plan compiled once per polynomial: the
    mixed partials d_T P(a), |T| <= 3, at the columns of an array of
    assignments, in a handful of numpy steps.

    At an assignment a, d_T P(a) is the sum of c_m * prod(a_v : v in m - T)
    over P's terms c_m * x^m with T inside m.  Let pi_m be the product of a
    over m's nonzero slots and z_m the count of m's zero slots.  A term's
    product over m - T is nonzero iff every zero slot of m lies in T, that
    is iff z_m = z_T, and it is pi_m / pi_T then.  So d_T P(a) is pi_T^-1
    times the sum of w_m = c_m * pi_m over the terms m that contain T and
    have z_m = z_T.

    The plan holds P's terms as slot arrays (slots[r] holds every term's
    r-th slot, or n past its degree) and the (term, subset) pairs of every
    subset T of at most 3 slots that some term contains, sorted by T's row
    (_subsets): T's terms are the run of pair_terms that starts at T's
    entry of starts and has its entry of sizes.  live lists those rows and
    live_slots their slots.  Its memory grows with the pairs, not with
    C(n, <=3) times the terms.  At and above _NUMPY_P_LIMIT the same steps
    run on object arrays of Python ints.
    """
    __slots__ = ("p", "dtype", "size", "coeffs", "slots", "pair_terms", "starts", "sizes",
                 "live", "live_slots")

    def __init__(self, P: MPoly):
        n, p = P.arity, P.ctx.p
        sub = _subsets(n)
        self.p, self.size = p, sub.size
        self.dtype = np.int64 if p < _NUMPY_P_LIMIT else object
        self.coeffs = np.array(list(P.terms.values()), dtype=self.dtype)
        width = max(map(len, P.terms), default=0)
        positions, subset_counts = _positions(width)
        # one row per term: its slots, then slot n up to width + 1 columns;
        # a term of degree d has C(d, <=3) subsets of at most 3 slots, the
        # first rows of positions, which position width pads with slot n
        pad = [n] * (width + 1)
        flat, counts = [], []
        for mono in P.terms:
            flat += [v for v, _ in mono]
            flat += pad[len(mono):]
            counts.append(subset_counts[len(mono)])
        slots = np.array(flat, dtype=np.int32).reshape(-1, width + 1)
        self.slots = np.ascontiguousarray(slots[:, :width].T)
        # term m's k-th subset for every k below its count, term by term; a
        # subset's row sums the weights w_1, w_2, w_3 of its slots
        # (_Subsets), gathered at once from each term's slot weights, laid
        # out term by term as positions' flat indices read them.  Blocks of
        # terms bound the memory of the index arrays.
        weights = sub.weights.take(slots[:, :, None] + sub.offsets).ravel()
        counts = np.array(counts)
        block = max(1, _PAIR_BLOCK // len(positions))
        pair_terms, rows = [], []
        for lo in range(0, len(counts), block):
            terms, local = (np.arange(len(positions)) < counts[lo:lo + block, None]).nonzero()
            at = positions.take(local, axis=0)
            terms = terms.astype(np.int32)
            terms += lo
            at += (terms * np.int32(3 * width + 3))[:, None]
            pair_terms.append(terms)
            rows.append(weights.take(at).sum(axis=1, dtype=weights.dtype))
        pair_terms = np.concatenate(pair_terms or [np.zeros(0, dtype=np.int32)])
        rows = np.concatenate(rows or [np.zeros(0, dtype=weights.dtype)])
        order = rows.argsort(kind="stable")
        rows = rows.take(order)
        self.pair_terms = pair_terms.take(order)
        del pair_terms, order
        change = np.empty(len(rows), dtype=bool)
        change[:1] = True
        np.not_equal(rows[1:], rows[:-1], out=change[1:])
        self.starts = change.nonzero()[0]
        ends = np.empty_like(self.starts)
        ends[:-1] = self.starts[1:]
        ends[-1:] = len(rows)
        self.sizes = ends - self.starts
        self.live = rows.take(self.starts)
        self.live_slots = np.ascontiguousarray(sub.slots.take(self.live, axis=0).T)

    def table(self, a) -> np.ndarray:
        """d_T P at each column of a, n rows of K residues (Python ints, or
        an integer array): an (R, K) array of residues in the rows of
        _subsets(n), in the plan's dtype.  A sequence of n residues gives its
        one column, as an (R,) array.  Rows of subsets that no term contains
        read 0.  The n*K entries are prepared in Python (1 for 0, the
        inverses); every step over terms and pairs is a numpy step."""
        p = self.p
        if isinstance(a, np.ndarray):
            a = a.tolist()
        column = not a or not isinstance(a[0], (list, tuple))
        if column:
            a = [[v] for v in a]
        K = len(a[0]) if a else 1
        # each slot's entries with 1 for 0, then their inverses; slot n pads
        ext = [v if v else 1 for row in a for v in row] + [1] * K
        factors = np.array(ext + [pow(v, -1, p) for v in ext],
                           dtype=self.dtype).reshape(2, len(a) + 1, K)
        # ndarray.take gathers along the first axis several times faster
        # than fancy indexing does
        w = self.coeffs[:, None] * _product_mod(factors[0].take(self.slots, axis=0), p) % p
        terms = w.take(self.pair_terms, axis=0)
        if any(0 in row for row in a):
            # a term counts toward T only if it has T's count of zero slots
            zero = np.array([[v == 0 for v in row] for row in a] + [[False] * K])
            z = zero.take(self.slots, axis=0).sum(axis=0, dtype=np.int8)
            zT = zero.take(self.live_slots, axis=0).sum(axis=0, dtype=np.int8)
            terms *= z.take(self.pair_terms, axis=0) == zT.repeat(self.sizes, axis=0)
        sums = np.add.reduceat(terms, self.starts, axis=0) % p
        out = np.zeros((self.size, K), dtype=self.dtype)
        out[self.live] = sums * _product_mod(factors[1].take(self.live_slots, axis=0), p) % p
        return out[:, 0] if column else out


def _taylor_plan(P: MPoly) -> _TaylorPlan:
    """P's Taylor plan, compiled at the first request and memoized on P.
    P must be multilinear."""
    memo = _probe_memo(P)
    if memo.taylor is None:
        memo.taylor = _TaylorPlan(P)
    return memo.taylor


def _taylor_table(P: MPoly, a) -> np.ndarray:
    """P's order-3 Taylor tables at the columns of a, through P's plan
    (_TaylorPlan.table).  P must be multilinear."""
    return _taylor_plan(P).table(a)


def _pair_split(c, x: int, y: int, z: int):
    """Split P = A*x*y + B*x + C*y + E with A, B, C, E affine in z,
    A = A1*z + A0 and so on, and D = A*E - B*C = D2*z^2 + D1*z + D0.

    c maps a bit mask to the coefficient of that monomial in x, y and z, a
    scalar (_pair_splits splits arrays of them, and _slot_vanishes forms
    the same D from coded cofactors).  x, y, z are one-bit masks; returns
    (A1, A0, D2, D1, D0).
    """
    A1, A0 = c[x | y | z], c[x | y]
    B1, B0 = c[x | z], c[x]
    C1, C0 = c[y | z], c[y]
    E1, E0 = c[z], c[0]
    return (A1, A0, A1 * E1 - B1 * C1, A1 * E0 + A0 * E1 - B1 * C0 - B0 * C1,
            A0 * E0 - B0 * C0)


# D's eight products in a pair split: D2 = A1*E1 - B1*C1,
# D1 = A1*E0 + A0*E1 - B1*C0 - B0*C1 and D0 = A0*E0 - B0*C0, each product's
# sign, and where each of D2, D1 and D0 starts among them
_SPLIT_SIGNS = np.array([1, -1, 1, 1, -1, -1, 1, -1])
_SPLIT_STARTS = np.array([0, 2, 6])


# the three pair splits of a triple in the one-bit masks 1, 2, 4: (1, 2)
# along 4, (1, 4) along 2 and (2, 4) along 1
_SPLITS = ((1, 2, 4), (1, 4, 2), (2, 4, 1))


@functools.lru_cache(maxsize=64)
def _split_masks(splits) -> Tuple[np.ndarray, np.ndarray]:
    """The masks of the left and right factors of D's eight products (in
    _SPLIT_SIGNS order) in the pair split of (x, y) along z, for each
    (x, y, z) in splits: two (8, len(splits)) arrays.  Row 0 of the left
    factors is A1 and row 3 is A0."""
    left = [[x | y | z, x | z, x | y | z, x | y, x | z, x, x | y, x] for x, y, z in splits]
    right = [[z, y | z, 0, z, y, y | z, 0, y] for x, y, z in splits]
    return np.array(left, dtype=np.intp).T, np.array(right, dtype=np.intp).T


def _pair_splits(c: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Many pair splits (_pair_split) at once: A1, A0 and the stack
    (D2, D1, D0), unreduced, where c's entries at the index arrays left and
    right, of shape (8, ...), are the factors of D's eight products (see
    _split_masks).  c holds residues: int64 below 2**30, so that no sum of
    products reaches 2**62, or Python ints in an object array."""
    L = c.take(left, axis=0)
    products = L * c.take(right, axis=0)
    products *= _SPLIT_SIGNS.reshape((8,) + (1,) * (products.ndim - 1))
    return L[0], L[3], np.add.reduceat(products, _SPLIT_STARTS, axis=0)


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
    when S == 0, that is when no monomial of P holds both x_i and x_j;
    otherwise W is first read at two fixed pseudo-random point pairs, from
    P's memoized probes (_Probes), and a nonzero value proves W != 0.  A
    structural proof over P's additive pieces and verified factor blocks,
    recursively, proves many witnesses zero at once
    (structure._Structure).  These bulk tags are decided once per
    polynomial (_WitnessTags).

    What they leave open goes to the exact tests, whose outcomes join the
    tags.  J = {} is decompose's test, D = c * S for a constant c.  For
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
    n = P.arity
    for t in (i, j):
        if not 0 <= t < n:
            raise ArityMismatch(f"variable {t} outside arity {n}")
    if i == j:
        raise SameVariable(f"need two distinct variables, got {i} twice")
    if i in shared or j in shared:
        raise IndexOverlap(f"shared set {sorted(shared)} overlaps the pair ({i}, {j})")
    _require_multilinear(P)
    for k in shared:
        if not 0 <= k < n:
            raise IndexOverlap(f"shared index {k} outside arity {n}")

    if i > j:
        i, j = j, i
    tags = _witness_tags(P)
    zero = tags.pair[i, j]
    if not shared:
        if zero is None:
            zero = tags.pair[i, j] = decompose(P, i, j).decomposable
        return zero
    if zero:
        return True
    row = tags.slot[i, j]
    unglued = [m for m in row if m not in shared]
    known = [row[m] for m in unglued]
    if False in known:
        return False
    bi, bj, p = 1 << i, 1 << j, P.ctx.p
    for m, zero in zip(unglued, known):
        if zero is None:
            zero = row[m] = _slot_vanishes(_coded_cofactors(P, (i, j, m)), bi, bj, 1 << m, p)
            if not zero:
                return False
    return True


@functools.lru_cache(maxsize=64)
def _pair_layout(n: int) -> "_PairLayout":
    """The pairs and pair splits of n slots, built once per n."""
    return _PairLayout(n)


class _PairLayout:
    """Every pair and every pair split in n slots, as the certificate reads
    them from order-3 Taylor tables (in the rows of _subsets(n)).

    pairs lists the pairs (i, j), i < j, in lexicographic order, index maps
    each to its position and pair_slots holds them as two rows of slots;
    single_rows holds the row of each {t}, and pair_rows the rows of {i},
    {j} and {i, j}, one column per pair.  left and right hold the rows of
    each split's factors (_split_masks), one column per split: the three
    splits of _SPLITS for each triple, split by split.  columns maps each
    split's (i, j, m), for its pair i < j and free slot m, to its column,
    and split_free holds each column's m.  witness_columns lists, pair by
    pair, the columns of the pair's splits along each other slot m in
    increasing order: the order in which the certificate lists the pair's
    witnesses glued on rest - {m}; witness_free holds those m.
    """
    __slots__ = ("pairs", "index", "pair_slots", "single_rows", "pair_rows", "left", "right",
                 "columns", "split_free", "witness_columns", "witness_free")

    def __init__(self, n: int):
        sub = _subsets(n)
        rows = sub.rows
        self.pairs = list(itertools.combinations(range(n), 2))
        self.index = {pair: q for q, pair in enumerate(self.pairs)}
        self.pair_slots = np.array(self.pairs, dtype=np.intp).reshape(-1, 2).T
        self.single_rows = np.array([rows[1 << t] for t in range(n)], dtype=np.intp)
        self.pair_rows = np.array([[rows[1 << i], rows[1 << j], rows[1 << i | 1 << j]]
                                   for i, j in self.pairs], dtype=np.intp).reshape(-1, 3).T
        self.left, self.right = (sub.triple_rows[masks].reshape(8, -1)
                                 for masks in _split_masks(_SPLITS))
        triples = sub.triples.tolist()
        splits = ([(a, b, c) for a, b, c in triples] + [(a, c, b) for a, b, c in triples]
                  + [(b, c, a) for a, b, c in triples])
        self.columns = {key: k for k, key in enumerate(splits)}
        self.split_free = np.array([m for _, _, m in splits], dtype=np.intp)
        self.witness_columns = np.array(
            [self.columns[i, j, m] for i, j in self.pairs for m in range(n) if m != i and m != j],
            dtype=np.intp).reshape(len(self.pairs), max(n - 2, 0))
        self.witness_free = self.split_free.take(self.witness_columns)


def _probes(P: MPoly) -> "_Probes":
    """P's witness probes, computed at the first request and memoized on P.
    P must be multilinear."""
    memo = _probe_memo(P)
    if memo.probes is None:
        memo.probes = _Probes(P)
    return memo.probes


class _Probes:
    """P's witnesses at the two fixed probe pairs, for every pair and every
    glue set the certificate lists, and which slots and pairs P's monomials
    hold.

    present[t] tells whether a monomial of P holds slot t, and shares[q]
    whether one holds both slots of pair q (_PairLayout.pairs), that is
    whether S = dd_ij(P) != 0: both read from the subsets that P's Taylor
    plan lists, with no evaluation.  One evaluation of the plan, at the x
    and y points of both probe pairs as the columns x0, y0, x1, y1 of one
    array, gives every value.  S and D = P*S - d_iP*d_jP hold each pair's
    values at the four points.  base holds J = {}:
    W = D(x)*S(y) - S(x)*D(y) at both pairs.  slots holds J = rest - {m} at
    both pairs, one row per split column of _pair_layout: D and S ignore
    slots i and j, so y differs from x only in slot m, by
    delta = y_m - x_m; with the pair split of P's shift to x in (i, j)
    along m (_pair_split), W = delta*(A1*D0 - A0*D1) - delta^2*A0*D2.
    """
    __slots__ = ("present", "shares", "S", "D", "base", "slots")

    def __init__(self, P: MPoly):
        n, p = P.arity, P.ctx.p
        lay = _pair_layout(n)
        plan = _taylor_plan(P)
        contained = np.zeros(plan.size, dtype=bool)
        contained[plan.live] = True
        self.present = contained.take(lay.single_rows)
        self.shares = contained.take(lay.pair_rows[2])
        points = [[probe[(h * n + k) % len(probe)] % p for probe in _PROBES for h in (0, 1)]
                  for k in range(n)]
        table = plan.table(points) if n else np.zeros((plan.size, 4), dtype=plan.dtype)
        ri, rj, rij = lay.pair_rows
        S = self.S = table.take(rij, axis=0)
        D = self.D = (table[0] * S - table.take(ri, axis=0) * table.take(rj, axis=0)) % p
        self.base = (D[:, 0::2] * S[:, 1::2] - S[:, 0::2] * D[:, 1::2]) % p
        # products of residues stay below 2**60 once every factor is reduced
        A1, A0, Dm = _pair_splits(table[:, 0::2], lay.left, lay.right)
        Dm %= p
        xy = np.array(points, dtype=plan.dtype).reshape(n, 4)
        delta = ((xy[:, 1::2] - xy[:, 0::2]) % p).take(lay.split_free, axis=0)
        self.slots = (delta * ((A1 * Dm[2] - A0 * Dm[1]) % p)
                      - delta * delta % p * (A0 * Dm[0] % p)) % p


def _witness_tags(P: MPoly) -> "_WitnessTags":
    """P's witness zero tags, decided in bulk at the first request and
    memoized on P.  P must be multilinear."""
    memo = _probe_memo(P)
    if memo.tags is None:
        memo.tags = _WitnessTags(P)
    return memo.tags


class _WitnessTags:
    """Which witnesses of P vanish, as far as the bulk steps decide it;
    witness_is_zero fills in the rest with the exact tests.

    pair maps each pair (i, j), i < j, to whether its J = {} witness
    vanishes, that is whether the pair splits P, and then every witness of
    the pair vanishes.  For a pair not known to split, slot[i, j] maps each
    slot m outside the pair, in increasing order, to whether its witness
    glued on rest - {m} vanishes; None marks a tag not decided yet.  A pair
    whose slots share no monomial has S == 0, so all its witnesses vanish,
    and a witness glued on all but a slot that P does not hold vanishes
    too.  A nonzero value at either probe pair (_Probes) proves a witness
    live.  What these leave open goes to the structural proof over P's
    additive pieces and verified factor blocks (structure._Structure).
    """
    __slots__ = ("pair", "slot")

    def __init__(self, P: MPoly):
        n = P.arity
        lay, probes = _pair_layout(n), _probes(P)
        live = probes.base.any(axis=1).tolist()
        split = (~probes.shares).tolist()
        # each pair's slots m whose witness glued on rest - {m} reads
        # nonzero, as a bit mask
        glued = np.zeros((len(lay.pairs), n), dtype=bool)
        glued[np.arange(len(lay.pairs))[:, None], lay.witness_free] = (
            probes.slots.take(lay.witness_columns, axis=0).any(axis=-1))
        slot_live = _bit_rows(glued)
        present = _bit_rows(probes.present[None])[0]
        zero = [(1 << n) - 1 & ~present] * len(lay.pairs)
        # the tags still open: glued on all but a slot that P holds
        open_slots = [0 if s else present & ~(1 << i | 1 << j) & ~v
                      for (i, j), s, v in zip(lay.pairs, split, slot_live)]
        if any(open_slots) or not all(s or k for s, k in zip(split, live)):
            _Structure(P, lay.pairs, present, live, slot_live, open_slots, split, zero)
        self.pair, self.slot = {}, {}
        for (i, j), s, known, v, z in zip(lay.pairs, split, live, slot_live, zero):
            self.pair[i, j] = True if s else False if known else None
            if not s:
                self.slot[i, j] = {m: False if v >> m & 1 else True if z >> m & 1 else None
                                   for m in range(n) if m != i and m != j}


def _bit_rows(rows: np.ndarray) -> List[int]:
    """Each row of a boolean array as the bit mask of its True columns."""
    packed = np.packbits(rows, axis=1, bitorder="little").tolist()
    return [int.from_bytes(bytes(row), "little") for row in packed]


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
    one-bit masks of the three slots), as _pair_split reads it: residues or
    unreduced Python ints, or an array whose first axis is the mask, holding
    residues as _pair_splits reads them, one polynomial per entry of its
    other axes.  P is read-once iff at least two of the three pair witnesses
    vanish identically.  For a pair (x, y) write P = A*x*y + B*x + C*y + E
    with A, B, C, E affine in z, A = A1*z + A0 and so on; then
    D = A*E - B*C = D2*z^2 + D1*z + D0, and the witness
    D(z)*A(z') - A(z)*D(z') vanishes iff A == 0, or D2 == 0 and
    D1*A0 == D0*A1, that is, D is a constant multiple of A.  With a slot
    absent, both pairs through it have A == 0 and the third has D2 == 0 and
    D1 == 0, so every polynomial in at most two of the slots is read-once.
    An array's three pair splits run at once, on one stack of their factors
    (_pair_splits).  Returns a bool, or a bool array for arrays.
    """
    if isinstance(c, np.ndarray):
        A1, A0, D = _pair_splits(c, *_split_masks(((x, y, z), (x, z, y), (y, z, x))))
        # reducing each D first keeps the products of residues below 2**60
        D %= p
        zeros = (A1 == 0) & (A0 == 0) | (D[0] == 0) & ((D[1] * A0 - D[2] * A1) % p == 0)
        return zeros.sum(axis=0) >= 2
    zeros = 0
    for a, b, m in ((x, y, z), (x, z, y), (y, z, x)):
        A1, A0, D2, D1, D0 = _pair_split(c, a, b, m)
        # reducing each D first keeps the products of residues small
        zeros += ((A1 % p == 0) and (A0 % p == 0)
                  or (D2 % p == 0) and ((D1 % p * A0 - D0 % p * A1) % p == 0))
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
