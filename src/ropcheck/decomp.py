"""The fast path's decomposition structure of multilinear polynomials: the
witness zero tags that the certificate reads, and the trivariate decider.

The central objects:

* the decomposition witness W(P) of a pair (i, j): with the mixed second
  partial S = dd_ij(P) and the pair commutator
  D = P * S - d_i(P) * d_j(P), W = D(x) * S(y) - S(x) * D(y) on two copies
  of the variables, y_k := x_k for k in a shared index set J.  It vanishes
  identically exactly when D/S is free of every slot that J leaves
  unglued; with J = {}, when S is zero or P splits as h*g + c with x_i and
  x_j on opposite sides.  With P = A*x_i*x_j + B*x_i + C*x_j + E it is
  D = AE - BC;
* the pair split along a third slot z, P = A*x_i*x_j + B*x_i + C*x_j + E
  with A..E affine in z.  On arrays it runs many splits at once for the
  witness probes, the certificate checks and the trivariate decisions
  (_pair_splits); on P's coded cofactors it is the one exact witness test
  (_slot_vanishes, see _WitnessTags), which sums products of P's
  cofactors on integer monomial codes (mpoly._code_products) and never
  builds D as a polynomial;
* the order-3 Taylor table of P at a point a: the mixed partials d_T P(a),
  |T| <= 3, one row per T (_subsets).  A Taylor plan compiled once per
  polynomial (_TaylorPlan) evaluates it at the columns of an (n, K) array
  of points in a few numpy steps, from P's terms as slot arrays and, for
  each T, the terms that contain it.  The witness probes and the
  certificate's checks read every point value they need from such tables;
* the witness zero tags, all decided once per polynomial when they are
  built (_WitnessTags) and held as bit masks of slots, which
  witness_is_zero only reads: which slots and pairs P's monomials hold
  (the subsets its plan lists), every witness glued on all but a slot m
  read at two fixed probe points as a polynomial in y_m, from one
  evaluation of the plan and by the certificate's own check
  (_probe_witnesses, _witness_vanishes), a structural proof
  (structure._Structure), and the exact test on each tag these leave
  open.  Following Shpilka-Volkovich, a read-once
  polynomial splits into additive pieces and disjoint factors,
  recursively; the proof recurses over P's pieces, exact from the pairs
  its monomials hold, and over factorizations of a piece minus a constant,
  each proposed by the probes and verified by a rank-one check on the
  terms as bit masks.  A pair across two factors has a constant D/S in
  that piece, so its witnesses glued on all but a slot of the piece
  vanish, and at the top level the pair splits P;
* the trivariate read-once decider in closed form (_trivariate_rop).

The ground truths these are checked against live in ropcheck.reference,
which imports nothing of the fast path; this module binds four of its
names for the benchmark and calls none of them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from .errors import ArityMismatch, IndexOverlap, NotMultilinear, SameVariable, TooManyVariables
from .mpoly import _NUMPY_P_LIMIT, MPoly, _code_products, _coded_cofactors, _product_run
# bound here, and never called here, for the benchmark: bench/tracer.py
# wraps decomp.<name> for each of these, and bench/test_perfbench.py
# imports decomp.brute_force_is_rop
from .reference import brute_force_is_rop, commutator, decompose, find_nonzero_point  # noqa: F401
from .structure import _bits, _Structure

# The witness probes' two fixed points, drawn once from fixed seeds so that
# no call seeds or consumes a random stream: slot k of point t reads entry k
# of _PROBES[t], cyclically, reduced mod p.
_PROBES = tuple(tuple(map(random.Random(seed).getrandbits, [64] * 64)) for seed in (0, 1))


class _Probe:
    """What this module memoizes on a polynomial P (MPoly._probe): whether P
    is multilinear, its Taylor plan once a table is asked for (_TaylorPlan),
    and its witness zero tags once a witness is asked for (_WitnessTags).
    P never changes, so neither does its memo."""
    __slots__ = ("multilinear", "taylor", "tags")

    def __init__(self, P: MPoly):
        self.multilinear = P.is_multilinear()
        self.taylor = None
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
    D0 = _code_products(p, (1, A0, E0), (-1, B0, C0))
    return not _code_products(p, (1, A1, D0.items()), (-1, A0, D1.items()))


def witness_is_zero(P: MPoly, i: int, j: int,
                    shared: FrozenSet[int] | Sequence[int] = frozenset()) -> bool:
    """Decide W(P) == 0 for the pair (i, j) and a shared index set J.

    Write P = A*x_i*x_j + B*x_i + C*x_j + E; then S = dd_ij(P) = A and
    D = AE - BC, neither involving x_i or x_j, and
    W(x, y) = D(x) * S(y) - S(x) * D(y) with y_k = x_k for k in J.  W == 0
    when S == 0, and otherwise iff D/S is free of every slot m that J
    leaves unglued, that is iff the witness glued on rest - {m} vanishes
    for each such m.  P's witness zero tags hold those outcomes as a bit
    mask of slots per pair, all decided once per polynomial (_WitnessTags),
    so the answer is one test of that mask, which writes nothing.  J = {}
    leaves every slot outside the pair unglued: W == 0 iff the pair splits
    P.  This holds over every field, GF(2) included.
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
    glued = 1 << i | 1 << j
    for k in shared:
        if not 0 <= k < n:
            raise IndexOverlap(f"shared index {k} outside arity {n}")
        glued |= 1 << k
    if i > j:
        i, j = j, i
    zero = _witness_tags(P).zero[_pair_layout(n).index[i, j]]
    return not ((1 << n) - 1 & ~glued & ~zero)


@functools.lru_cache(maxsize=64)
def _pair_layout(n: int) -> "_PairLayout":
    """The pairs and pair splits of n slots, built once per n."""
    return _PairLayout(n)


class _PairLayout:
    """Every pair and every pair split in n slots, as the certificate reads
    them from order-3 Taylor tables (in the rows of _subsets(n)).

    pairs lists the pairs (i, j), i < j, in lexicographic order, index
    maps each to its position and masks holds each as a bit mask of its
    two slots; single_rows holds the row of each {t}, and pair_rows the
    row of each {i, j}.  left and right hold the rows of each split's
    factors (_split_masks), one column per split: the three splits of
    _SPLITS for each triple, split by split.  columns maps each split's
    (i, j, m), for its pair i < j and free slot m, to its column.
    witness_columns lists, pair by pair, the columns of the pair's splits
    along each other slot m in increasing order: the order in which the
    certificate lists the pair's witnesses glued on rest - {m};
    witness_free holds those m.
    """
    __slots__ = ("pairs", "index", "masks", "single_rows", "pair_rows", "left", "right",
                 "columns", "witness_columns", "witness_free")

    def __init__(self, n: int):
        sub = _subsets(n)
        rows = sub.rows
        self.pairs = list(itertools.combinations(range(n), 2))
        self.index = {pair: q for q, pair in enumerate(self.pairs)}
        self.masks = [1 << i | 1 << j for i, j in self.pairs]
        self.single_rows = np.array([rows[1 << t] for t in range(n)], dtype=np.intp)
        self.pair_rows = np.array([rows[mask] for mask in self.masks], dtype=np.intp)
        self.left, self.right = (sub.triple_rows[masks].reshape(8, -1)
                                 for masks in _split_masks(_SPLITS))
        triples = sub.triples.tolist()
        splits = ([(a, b, c) for a, b, c in triples] + [(a, c, b) for a, b, c in triples]
                  + [(b, c, a) for a, b, c in triples])
        self.columns = {key: k for k, key in enumerate(splits)}
        self.witness_columns = np.array(
            [self.columns[i, j, m] for i, j in self.pairs for m in range(n) if m != i and m != j],
            dtype=np.intp).reshape(len(self.pairs), max(n - 2, 0))
        self.witness_free = np.array([m for _, _, m in splits],
                                     dtype=np.intp).take(self.witness_columns)


def _witness_vanishes(table: np.ndarray, left: np.ndarray, right: np.ndarray,
                      p: int) -> np.ndarray:
    """Whether each witness, glued on all but its free slot m and set to
    x = a and y_J = a_J, is the zero polynomial in y_m, at the assignments
    a whose Taylor tables are table's columns (a boolean array of shape
    (splits, K), or (splits,) for one column).  left and right hold the
    rows of the witnesses' pair splits of (i, j) along m (_split_masks).

    D and S ignore slots i and j, so in u = y_m - a_m the witness is
    u*(A1*D0 - A0*D1) - u^2*A0*D2, from the split of P's shift to a
    (_pair_split), where A0 = S(a) and D0 = D(a): it vanishes in y_m iff
    A0*D2 == 0 and A1*D0 == A0*D1 (mod p).
    """
    A1, A0, D = _pair_splits(table, left, right)
    # products of residues stay below 2**60 once every factor is reduced
    D %= p
    return (A0 * D[0] % p == 0) & ((A1 * D[2] - A0 * D[1]) % p == 0)


def _probe_witnesses(P: MPoly, plan: _TaylorPlan, lay: _PairLayout) -> np.ndarray:
    """Which witnesses read live at the two fixed probe points: for each
    split column of lay, whether the witness of its pair glued on
    rest - {m}, m its free slot, is a nonzero polynomial in y_m at either
    point (_witness_vanishes).  One evaluation of P's plan, at both points
    as the columns of one array, gives every value."""
    n, p = P.arity, P.ctx.p
    points = [[probe[k % len(probe)] % p for probe in _PROBES] for k in range(n)]
    table = plan.table(points) if n else np.zeros((plan.size, 2), dtype=plan.dtype)
    return ~_witness_vanishes(table, lay.left, lay.right, p).all(axis=-1)


def _witness_tags(P: MPoly) -> "_WitnessTags":
    """P's witness zero tags, all decided at the first request and memoized
    on P.  P must be multilinear."""
    memo = _probe_memo(P)
    if memo.tags is None:
        memo.tags = _WitnessTags(P)
    return memo.tags


class _WitnessTags:
    """Which witnesses of P vanish, every tag decided here once and never
    changed after.

    present[t] tells whether a monomial of P holds slot t, and shares[q]
    whether one holds both slots of pair q (_PairLayout.pairs), that is
    whether S = dd_ij(P) != 0: boolean arrays read from the subsets that
    P's Taylor plan lists, with no evaluation.  zero[q] is the bit mask of
    the slots m whose witness of pair q glued on rest - {m} vanishes, with
    the pair's own slots set too; it holds all n bits iff the pair splits
    P, as it does when S == 0.

    The steps: a witness glued on all but a slot that P does not hold
    vanishes; a witness that is a nonzero polynomial in its free variable
    at either probe point (_probe_witnesses) is live; the structural proof
    over P's additive pieces and verified factor blocks
    (structure._Structure) proves witnesses zero from what the probes
    read; and each tag these leave open, of a pair that shares a monomial,
    gets the exact test.  For it split
    S = A1*x_m + A0 and D = D2*x_m^2 + D1*x_m + D0 with coefficients in the
    ring R of the other slots (_slot_vanishes on the cofactors of P in
    x_i, x_j, x_m).  W's coefficients in x_m and y_m are +-D2*A1, +-D2*A0
    and +-(A1*D0 - A0*D1); R has no zero divisors, so W == 0 iff D2 == 0
    and A1*D0 == A0*D1.
    """
    __slots__ = ("present", "shares", "zero")

    def __init__(self, P: MPoly):
        n, p = P.arity, P.ctx.p
        lay, plan = _pair_layout(n), _taylor_plan(P)
        contained = np.zeros(plan.size, dtype=bool)
        contained[plan.live] = True
        self.present = contained.take(lay.single_rows)
        self.shares = contained.take(lay.pair_rows)
        # each pair's slots m whose witness glued on rest - {m} reads live
        glued = np.zeros((len(lay.pairs), n), dtype=bool)
        glued[np.arange(len(lay.pairs))[:, None], lay.witness_free] = (
            _probe_witnesses(P, plan, lay).take(lay.witness_columns))
        live = _bit_rows(glued)
        present = _bit_rows(self.present[None])[0]
        full = (1 << n) - 1
        absent = full & ~present
        shares = self.shares.tolist()
        self.zero = [absent | pair if s else full for pair, s in zip(lay.masks, shares)]
        _Structure(P, present, shares, live, self.zero)
        for q, (i, j) in enumerate(lay.pairs):
            if live[q] | self.zero[q] != full:
                for m in _bits(full & ~live[q] & ~self.zero[q]):
                    if _slot_vanishes(_coded_cofactors(P, (i, j, m)), 1 << i, 1 << j, 1 << m, p):
                        self.zero[q] |= 1 << m


def _bit_rows(rows: np.ndarray) -> List[int]:
    """Each row of a boolean array as the bit mask of its True columns."""
    packed = np.packbits(rows, axis=1, bitorder="little").tolist()
    return [int.from_bytes(bytes(row), "little") for row in packed]


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
