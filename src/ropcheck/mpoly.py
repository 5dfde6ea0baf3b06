"""Sparse multivariate polynomials over GF(p), with exact arithmetic.

Representation: a polynomial carries a fixed arity n (variable slots 0..n-1)
and a dict mapping monomials to nonzero coefficient residues.  A monomial is
a tuple of (variable, exponent) pairs, sorted by variable, every exponent
positive; the empty tuple is the constant monomial.  The representation is
canonical, so equality of polynomials is equality of dicts.

Zero coefficients are dropped by the constructor.  Every operation but the
product accumulates its terms into a fresh dict as
out[m] = (out.get(m, 0) + c) % p, leaving any cancelled term at 0, and hands
the dict to the constructor, which removes the zeros and keeps the dict as
the new polynomial's terms.

Products go through integer monomial codes: a code holds each slot's exponent
in its own bit field (_encode), wide enough for the largest exponent sum, so a
monomial product is one integer addition.  _code_products sums such products
into one dict and drops the codes whose sum vanishes; MPoly.__mul__ decodes
its result in the order the codes first occur, which is the order the
monomials first occur.  Operands that share no slot skip the codes: each
pair of their monomials gives its own product, the two tuples merged, in
that same order.

Restriction keeps the arity: substituting into slot i just removes i from the
support, it never renumbers the remaining variables.

Evaluation runs a plan compiled once per polynomial (_Plan).  A multilinear
polynomial is split first (_split_tree): into its additive pieces, the
components of the slots that share a monomial, and into products
P - c = h*g over disjoint slots, proposed at fixed points and accepted only
by structure.factor's exact rank-one check, recursively.  The split tree
compiles like a read-once formula's tree (_compile_tree), so a read-once
expansion takes O(n) steps.  A core, a part that splits no further, and a
polynomial that is not multilinear take the Horner form of their monomial
prefix tree, P = c + sum of x_v**e * P_child over the tree's edges, so each
distinct monomial prefix costs one product.  The same loop runs on residues
and on int64 columns.  The compiler tracks an upper bound on every
intermediate value and reduces mod p only where the next step could reach
2**62, whatever the tree.

Grid transforms (_interpolate_stack) apply one matrix per axis, with
entries in [0, p), to a stack of grids of samples: the Lagrange bases of
the axes' nodes (_basis_matrices) for interpolate_grid, and the testers'
inverse-free difference tables.  A matrix is float64 where a row times a
column of residues stays below 2**53 (_table_dtype), and then each axis is
one float64 matmul on nonnegative integers under a tracked bound, reduced
mod p only before a step that could reach 2**53 and once at the end; int64
and object matrices reduce after every step.

Serialization is one term per '+', coefficients as decimal residues,
variables printed 1-based (slot 0 is x1), terms ordered by graded
lexicographic order, highest first.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ArityMismatch,
    DuplicateNode,
    EmptySampleSet,
    FieldMismatch,
    IncompleteGrid,
    InvalidParams,
    NotMultilinearInVar,
    NotPrime,
    OutOfRange,
    ParseError,
    SameVariable,
)
from .ff import FieldCtx
from .structure import _bits, _components, factor, propose_block, shared_slots, slot_rows

Mono = Tuple[Tuple[int, int], ...]

# below this modulus a product of two residues plus a residue stays below
# 2**61, so a plan's bound rule keeps every int64 intermediate below 2**62;
# at and above it eval_points evaluates Python ints point by point
_NUMPY_P_LIMIT = 2**30


def eval_points(eval_raw, p: int, points: Sequence[Sequence[int]]) -> np.ndarray:
    """eval_raw's value at each point, as an int64 array of residues.

    points is a list of points or an integer array with one row per point.
    Below _NUMPY_P_LIMIT, 8 or more points are brought into [0, p) by
    _residues, so _eval_residues evaluates them in one call.
    """
    if p < _NUMPY_P_LIMIT and len(points) >= 8:
        points = _residues(points, p)
    return _eval_residues(eval_raw, p, points)


def _eval_residues(eval_raw, p: int, points) -> np.ndarray:
    """eval_raw's value at each point, as an int64 array.

    points is a list of points or an integer array with one row per point.
    8 or more points below _NUMPY_P_LIMIT must be residues, which nothing
    checks or reduces again; they go to eval_raw in one call, as one
    contiguous int64 column per slot; the result is one value per point,
    or one int for a polynomial that reads no slot, broadcast to every
    point.  Otherwise eval_raw runs point by point on Python ints, which is
    exact for any entries.
    """
    if p >= _NUMPY_P_LIMIT or len(points) < 8:
        if isinstance(points, np.ndarray):
            points = points.tolist()
        return np.array([eval_raw(pt) for pt in points], dtype=np.int64)
    cols = list(np.ascontiguousarray(np.asarray(points, dtype=np.int64).T))
    values = eval_raw(cols)
    return values if isinstance(values, np.ndarray) else np.broadcast_to(values, len(points))


def _pow_mod(x, e: int, p: int):
    """x**e mod p by repeated squaring, for a residue or an int64 array of
    them; numpy has no 3-argument pow, and e may be huge."""
    out = 1
    while True:
        if e & 1:
            out = out * x % p
        e >>= 1
        if not e:
            return out
        x = x * x % p


# ---- evaluation plans ----

# plan steps (op, d, f, c) on registers r and factors X (see _Plan)
_PROD, _PROD_ACC, _CHILD, _CHILD_ACC, _CONST, _ADDC, _ADD, _MUL, _MOD = range(9)
# the step that adds what op writes, for a register that holds a value
_ACC = {_PROD: _PROD_ACC, _CHILD: _CHILD_ACC, _CONST: _ADDC}
# in a product's factor list: reduce the product so far mod p
_REDUCE = -1
# no intermediate value of a plan reaches this where p allows it
_LAZY_LIMIT = 2**62


@functools.lru_cache(maxsize=64)
def _product_run(p: int) -> int:
    """How many residue factors may multiply a residue, one after another,
    before the product could reach 2**62; at least 1."""
    q = t = p - 1
    if q == 1:
        return sys.maxsize
    k = 0
    while t * q < _LAZY_LIMIT:
        t *= q
        k += 1
    return max(k, 1)


class _Plan:
    """A polynomial or a formula compiled to a straight-line program.

    A compiler hands over the program's steps, each (op, d, f, c):
      _PROD   r[d] = c * X[f[0]] * X[f[1]] * ...
      _CHILD  r[d] = r[d + 1] * X[f]
      _CONST  r[d] = c
      _ADD    r[d] = r[d] + r[d + 1]
      _MUL    r[d] = r[d] * r[d + 1]
    and the value ends in r[0].  Factor X[v] is slot v's value, and X[k] for
    k in powers.values() is x_v**e mod p for its key (v, e).

    The constructor turns a write to a register that holds a value into an
    add (_PROD_ACC, _CHILD_ACC, _ADDC), and places the reductions mod p by
    the bound rule: it tracks an upper bound on every register, taking p - 1
    for every input, factor and constant in a product, and reduces only
    where a sum or product could reach 2**62, the larger operand first, then
    the other.  A product's run of factors is cut by _REDUCE, a register is
    reduced by a _MOD step.  A result that still could reach 2**62 (p above
    2**31, where a product of two residues passes it and eval_points hands
    over Python ints) is reduced right after its step.
    """

    __slots__ = ("p", "code", "powers", "regs")

    def __init__(self, p: int, steps, powers: Dict[Tuple[int, int], int], regs: int):
        self.p, self.powers, self.regs = p, powers, regs
        q, run = p - 1, _product_run(p)
        B: list = [None] * regs       # per register: its value's bound, None while free
        code = self.code = []
        for op, d, f, c in steps:
            # a: r[d]'s bound, None when the step writes r[d]; t: the bound
            # of what the step writes or adds; low: t once that is reduced,
            # None when it cannot be
            a = B[d]
            if op == _PROD:
                t, low = q ** ((len(f) - 1) % run + 2), q
                cut = list(f[:run])
                for k in range(run, len(f), run):
                    cut += (_REDUCE, *f[k:k + run])
                f = cut
            elif op == _CHILD:
                t, low = B[d + 1] * q, q * q
            elif op == _ADD:
                t, low = B[d + 1], q
            elif op == _CONST:
                t, low = c, None
            else:                     # _MUL: reduce the larger factor first
                for k in sorted((d, d + 1), key=B.__getitem__, reverse=True):
                    if B[d] * B[d + 1] >= _LAZY_LIMIT and B[k] > q:
                        code.append((_MOD, k, 0, 0))
                        B[k] = q
                a, t, low = 0, B[d] * B[d + 1], None
            if low is not None and low >= t:
                low = None
            while (a or 0) + t >= _LAZY_LIMIT:
                if low is not None and (a is None or t >= a or a <= q):
                    if op == _PROD:
                        f = [*f, _REDUCE]
                    else:
                        code.append((_MOD, d + 1, 0, 0))
                    t, low = low, None
                elif a and a > q:
                    code.append((_MOD, d, 0, 0))
                    a = q
                else:
                    break
            if a is not None:
                op = _ACC.get(op, op)
            code.append((op, d, tuple(f) if op <= _PROD_ACC else f, c))
            B[d] = (a or 0) + t
            if op in (_CHILD, _CHILD_ACC, _ADD, _MUL):
                B[d + 1] = None
            if B[d] >= _LAZY_LIMIT:
                code.append((_MOD, d, 0, 0))
                B[d] = q

    def run(self, vals):
        """The value mod p at vals: one residue per slot, or one int64 column
        per slot with entries in [0, p) (see eval_points).  On Python ints
        the value is exact for any entries."""
        p = self.p
        x = vals
        if self.powers:
            x = [*vals, *[_pow_mod(vals[v], e, p) for v, e in self.powers]]
        r = [0] * self.regs
        for op, d, f, c in self.code:
            if op <= _PROD_ACC:
                t = c
                for k in f:
                    t = t * x[k] if k >= 0 else t % p
                r[d] = r[d] + t if op == _PROD_ACC else t
            elif op == _CHILD_ACC:
                r[d] = r[d] + r[d + 1] * x[f]
            elif op == _CONST:
                r[d] = c
            elif op == _ADDC:
                r[d] = r[d] + c
            elif op == _ADD:
                r[d] = r[d] + r[d + 1]
            elif op == _MUL:
                r[d] = r[d] * r[d + 1]
            elif op == _CHILD:
                r[d] = r[d + 1] * x[f]
            else:
                r[d] = r[d] % p
        return r[0] % p


def _shared_length(m1, m2) -> int:
    """The length of the longest common prefix of two sequences."""
    k = 0
    while k < len(m1) and k < len(m2) and m1[k] == m2[k]:
        k += 1
    return k


def _horner(terms: Mapping[Mono, int], arity: int, powers: Dict[Tuple[int, int], int],
            steps: list, base: int = 0) -> int:
    """Append the Horner steps of a term dict, its value to register base;
    returns how many registers they use, from 0.

    The monomials form a prefix tree: a node is a monomial prefix, with the
    coefficient of that monomial (0 if it is no term), and an edge is one
    factor x_v**e.  A node's value, c + sum of x_v**e * child, goes to the
    register of its depth, counted from base.  A chain of nodes that only
    one term passes is that term's product, c * x_v**e * ..., one step.  The
    tree is walked in the sorted order of the monomials, which lists every
    prefix before its extensions, and never recursively.  A power x_v**e,
    e > 1, is factor powers[(v, e)], added from arity on.
    """
    items = sorted(terms.items())
    # the open nodes below the root, node k in register base + k + 1: their
    # edges and the factors on them
    edges: list = []
    factors: list = []
    shared = 0                  # how many open nodes mono lies under
    for i, (mono, c) in enumerate(items):
        while len(edges) > shared:
            edges.pop()
            steps.append((_CHILD, base + len(edges), factors.pop(), 0))
        # the nodes mono shares with the next term stay open for it
        ahead = _shared_length(mono, items[i + 1][0]) if i + 1 < len(items) else 0
        top = max(shared, ahead)
        fs = [v if e == 1 else powers.setdefault((v, e), arity + len(powers))
              for v, e in mono[shared:]]
        edges += mono[shared:top]
        factors += fs[:top - shared]
        if top == len(mono):
            steps.append((_CONST, base + top, 0, c))
        else:
            steps.append((_PROD, base + top, fs[top - shared:], c))
        shared = ahead
    while edges:
        edges.pop()
        steps.append((_CHILD, base + len(edges), factors.pop(), 0))
    if not terms:
        steps.append((_CONST, base, 0, 0))
    return base + max(map(len, terms), default=0) + 2


# ---- formula trees ----

@dataclass(frozen=True)
class Leaf:
    """alpha * x_var + beta, alpha != 0 for a formula's leaf."""
    var: int
    alpha: int
    beta: int


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Gate:
    op: str  # "+" or "*"
    left: "Node"
    right: "Node"


Node = Union[Leaf, Const, Gate]


def _compile_tree(root, p: int, arity: int) -> _Plan:
    """The plan of a tree of Leaf, Const and + and * Gate nodes whose leaves
    may also be cores, term dicts compiled by _horner: a read-once formula,
    or a polynomial's split tree (_split_tree).

    A node's value goes to register d.  A sum adds both children into d,
    and a product leaves its left child in d and its right child in d + 1;
    a product that is added to a value already in d is built in d + 1 and
    added after.  A core adds into d as it writes it.  Every register
    above d is free while a node's value is built in d.  The tree is walked
    with an explicit stack.
    """
    steps: list = []
    powers: Dict[Tuple[int, int], int] = {}
    regs = 2
    # (node, d, whether r[d] already holds a value the node's is added to),
    # or (step, d, None) once a gate's children are in place
    stack: list = [(root, 0, False)]
    while stack:
        node, d, adds = stack.pop()
        if isinstance(node, Leaf):
            steps.append((_PROD, d, [node.var], node.alpha))
            if node.beta:
                steps.append((_CONST, d, 0, node.beta))
        elif isinstance(node, Const):
            steps.append((_CONST, d, 0, node.value))
        elif isinstance(node, Gate):
            if node.op == "+":
                stack += ((node.right, d, True), (node.left, d, adds))
            elif adds:
                stack += ((_ADD, d, None), (node, d + 1, False))
            else:
                regs = max(regs, d + 2)
                stack += ((_MUL, d, None), (node.right, d + 1, False), (node.left, d, False))
        elif isinstance(node, dict):
            regs = max(regs, _horner(node, arity, powers, steps, d))
        else:
            steps.append((node, d, 0, 0))
    return _Plan(p, steps, powers, regs)


# the bit of each slot that an int64 bit mask can hold, by its factor
# (v, 1) in a multilinear monomial
_SLOT_BITS = {(v, 1): 1 << v for v in range(62)}


def _slot_masks(terms: Mapping[Mono, int]):
    """Each monomial's slots as a bit mask, in the dict's order; None when a
    monomial holds a power above 1 or a slot past an int64's bits."""
    try:
        return [sum(map(_SLOT_BITS.__getitem__, mono)) for mono in terms]
    except KeyError:
        return None


def _split_tree(p: int, terms: Dict[int, int], top: bool = True):
    """The split tree of a multilinear polynomial, given by its bit-mask
    terms (see structure), for _compile_tree; None at the top when it does
    not split at all.

    The polynomial is the sum of its pieces (the components of the slots
    that share a monomial, exact from the terms) and its constant; a
    polynomial of one piece is c + h*g when structure.propose_block finds
    h's slots and structure.factor verifies the split, exactly.  Each piece
    and factor is split in turn.  A core, one that splits no further or has
    at most one nonconstant term, is a leaf of the tree: a term dict in
    monomial form, for Horner's rule.  A split costs numpy passes over the
    terms, one per slot, and no pass is made per term and slot in Python.
    """
    if len(terms) - (0 in terms) > 1:
        masks = np.fromiter(terms, dtype=np.int64, count=len(terms))
        L = int(np.bitwise_or.reduce(masks))
        rows = slot_rows(masks, L)
        pieces = _components(L, shared_slots(masks, rows))
        if len(pieces) > 1:
            label = {v: k for k, piece in enumerate(pieces) for v in _bits(piece)}
            groups: list = [{} for _ in pieces]
            for m, c in terms.items():
                if m:
                    groups[label[(m & -m).bit_length() - 1]][m] = c
            node = functools.reduce(functools.partial(Gate, "+"),
                                    (_split_tree(p, group, False) for group in groups))
            return Gate("+", node, Const(terms[0])) if 0 in terms else node
        block = propose_block(p, masks, list(terms.values()), rows)
        factors = None if block is None else factor(p, terms, L, [block, L & ~block])
        if factors is not None:
            h, g = factors
            c = (terms.get(0, 0) - h.get(0, 0) * g.get(0, 0)) % p
            node = Gate("*", _split_tree(p, h, False), _split_tree(p, g, False))
            return Gate("+", node, Const(c)) if c else node
    if top:
        return None
    return {tuple((v, 1) for v in _bits(m)): c for m, c in terms.items()}


def _compile_poly(P: "MPoly") -> _Plan:
    """P's plan: the plan of its split tree (_split_tree) where P is
    multilinear in the slots an int64 bit mask holds (_slot_masks) and
    splits, else of its terms as one core (Horner's rule)."""
    p, terms = P.ctx.p, P.terms
    masks = _slot_masks(terms)
    tree = None if masks is None else _split_tree(p, dict(zip(masks, terms.values())))
    return _compile_tree(terms if tree is None else tree, p, P.arity)


def _encode(terms: Mapping[Mono, int], w: int) -> list[Tuple[int, int]]:
    """(code, coefficient) per term: the code holds slot v's exponent in bits
    w*v .. w*v + w - 1, so a monomial product is the sum of the codes as long
    as no exponent sum reaches 2**w."""
    out = []
    for mono, c in terms.items():
        code = 0
        for v, e in mono:
            code |= e << w * v
        out.append((code, c))
    return out


def _decode_all(codes: Iterable[int], w: int) -> list[Mono]:
    """The monomials of codes in w-bit fields (see _encode), in order.

    A code is read one chunk of max(1, 8 // w) fields at a time.  Each
    chunk, kept in place in the code, is decoded once per call: the codes of
    one product share most of their chunks.
    """
    step = max(1, 8 // w) * w
    chunk_mask = (1 << step) - 1
    mask = (1 << w) - 1
    memo: Dict[int, Mono] = {}
    out = []
    for code in codes:
        mono = ()
        shift = 0
        top = code.bit_length()
        while shift < top:
            chunk = code & chunk_mask << shift
            if chunk:
                part = memo.get(chunk)
                if part is None:
                    fields, v, found = chunk >> shift, shift // w, []
                    while fields:
                        if fields & mask:
                            found.append((v, fields & mask))
                        fields >>= w
                        v += 1
                    part = memo[chunk] = tuple(found)
                mono += part
            shift += step
        out.append(mono)
    return out


def _code_products(p: int, *products) -> Dict[int, int]:
    """sum of s * X * Y over products (s, X, Y), reduced mod p.

    X and Y are iterables of (code, coefficient) pairs in one field width
    (_encode); Y is iterated once per term of X.  s is an integer.  The result maps each code with a nonzero residue to it,
    in the order the codes first occur, so it is empty iff the sum vanishes.
    """
    acc: Dict[int, int] = defaultdict(int)
    for s, X, Y in products:
        for k1, c1 in X:
            c1 *= s
            for k2, c2 in Y:
                acc[k1 + k2] += c1 * c2
    return {k: r for k, v in acc.items() if (r := v % p)}


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _coded_cofactors(P: "MPoly", slots) -> Dict[int, list[Tuple[int, int]]]:
    """P = sum of c[T] * x^T over the subsets T of slots, each c[T] free of
    the slots; returns c keyed by T's bit mask, each c[T] as the (code,
    coefficient) pairs of _encode in 2-bit fields, empty where no monomial's
    slots-part is T.  One pass over P's terms.  P must be multilinear; a
    product of up to three cofactors then fits the fields."""
    masks = [0]
    for v in slots:
        masks += [mask | 1 << v for mask in masks]
    parts: Dict[int, list] = {mask: [] for mask in masks}
    for mono, c in P.terms.items():
        mask = code = 0
        for v, _ in mono:
            if v in slots:
                mask |= 1 << v
            else:
                code |= 1 << 2 * v
        parts[mask].append((code, c))
    return parts


class MPoly:
    """Immutable sparse polynomial over a prime field.

    First partials are memoized per slot on the polynomial, so every caller
    that asks for d_i(P) of one P shares a single computation.  _probe holds
    decomp's memo of P: its multilinearity, its Taylor plan and its witness
    zero tags.  _plan holds the evaluation
    plan, compiled on the first evaluation.
    """

    __slots__ = ("ctx", "arity", "terms", "_partials", "_probe", "_plan")

    def __init__(self, ctx: FieldCtx, arity: int, terms: Mapping[Mono, int] | None = None,
                 *, _canonical: bool = False):
        if arity < 0:
            raise OutOfRange(f"arity must be nonnegative, got {arity}")
        self.ctx = ctx
        self.arity = arity
        self._partials = None
        self._probe = None
        self._plan = None
        if terms is None:
            terms = {}
        elif not _canonical:
            p = ctx.p
            clean: Dict[Mono, int] = {}
            for mono, coeff in terms.items():
                mono = tuple(sorted(mono))
                for v, e in mono:
                    if not 0 <= v < arity:
                        raise ArityMismatch(f"variable {v} outside arity {arity}")
                    if e <= 0:
                        raise OutOfRange(f"exponent {e} must be positive")
                clean[mono] = (clean.get(mono, 0) + ctx.coerce(coeff)) % p
            terms = clean
        # _canonical callers pass sorted, in-range monomials with reduced
        # coefficients in a fresh dict, which the polynomial keeps: no MPoly
        # mutates its terms
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        self.terms: Dict[Mono, int] = terms

    # ---- constructors ----

    @classmethod
    def zero(cls, ctx: FieldCtx, arity: int) -> "MPoly":
        return cls(ctx, arity, None)

    @classmethod
    def constant(cls, ctx: FieldCtx, arity: int, c) -> "MPoly":
        return cls(ctx, arity, {(): ctx.coerce(c)}, _canonical=True)

    @classmethod
    def variable(cls, ctx: FieldCtx, arity: int, i: int) -> "MPoly":
        if not 0 <= i < arity:
            raise ArityMismatch(f"variable {i} outside arity {arity}")
        return cls(ctx, arity, {((i, 1),): 1}, _canonical=True)

    @classmethod
    def affine(cls, ctx: FieldCtx, arity: int, i: int, alpha, beta) -> "MPoly":
        """alpha * x_i + beta."""
        if not 0 <= i < arity:
            raise ArityMismatch(f"variable {i} outside arity {arity}")
        return cls(ctx, arity, {((i, 1),): ctx.coerce(alpha), (): ctx.coerce(beta)},
                   _canonical=True)

    # ---- structure queries ----

    def variables(self) -> FrozenSet[int]:
        """Slots the polynomial actually depends on."""
        out = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return frozenset(out)

    def is_multilinear(self) -> bool:
        for mono in self.terms:
            for _, e in mono:
                if e != 1:
                    return False
        return True

    def is_zero(self) -> bool:
        return not self.terms

    def _check_slot(self, i: int):
        if not 0 <= i < self.arity:
            raise ArityMismatch(f"variable {i} outside arity {self.arity}")

    # ---- evaluation ----

    def eval_raw(self, vals: Sequence[int]) -> int:
        """Evaluate at raw residues (no validation).

        vals holds one residue per slot, or one int64 array per slot (see
        eval_points).  The polynomial's plan (_Plan) reduces mod p only where
        an intermediate value could reach 2**62, so below _NUMPY_P_LIMIT no
        int64 intermediate overflows.
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = _compile_poly(self)
        return plan.run(vals)

    def evaluate(self, assignment) -> int:
        """Residue at an assignment of int representatives, full arity."""
        if len(assignment) != self.arity:
            raise ArityMismatch(
                f"assignment length {len(assignment)} != arity {self.arity}")
        return self.eval_raw([self.ctx.coerce(v) for v in assignment])

    def eval_batch(self, points: Sequence[Sequence[int]]) -> list[int]:
        """Evaluate at many points at once (see eval_points), as a list."""
        return eval_points(self.eval_raw, self.ctx.p, points).tolist()

    # ---- restriction and derivatives ----

    def restrict(self, i: int, value) -> "MPoly":
        """Substitute value into slot i; arity is preserved."""
        self._check_slot(i)
        point = [0] * self.arity
        point[i] = value
        return self.restrict_many((i,), point)

    def restrict_many(self, indices: Iterable[int], assignment) -> "MPoly":
        """Substitute assignment[i] into every slot i in indices.

        The assignment must be full-arity; slots outside indices are ignored.
        """
        idx = sorted(set(indices))
        for i in idx:
            self._check_slot(i)
        if len(assignment) != self.arity:
            raise ArityMismatch(
                f"assignment length {len(assignment)} != arity {self.arity}")
        ctx = self.ctx
        p = ctx.p
        vals = {i: ctx.coerce(assignment[i]) for i in idx}
        out: Dict[Mono, int] = {}
        for mono, c in self.terms.items():
            kept = []
            for v, e in mono:
                a = vals.get(v)
                if a is None:
                    kept.append((v, e))
                else:
                    c = c * pow(a, e, p) % p
                    if not c:
                        break
            if c:
                mono = tuple(kept)
                out[mono] = (out.get(mono, 0) + c) % p
        return MPoly(self.ctx, self.arity, out, _canonical=True)

    def partial(self, i: int) -> "MPoly":
        """Discrete partial in slot i: P|x_i=1 - P|x_i=0, requires deg_i <= 1.

        For a multilinear slot this equals the formal derivative.  The result
        is memoized per slot; a raising call stores nothing.
        """
        memo = self._partials
        if memo is None:
            memo = self._partials = {}
        hit = memo.get(i)
        if hit is not None:
            return hit
        self._check_slot(i)
        out: Dict[Mono, int] = {}
        for mono, c in self.terms.items():
            for k, (v, e) in enumerate(mono):
                if v == i:
                    if e != 1:
                        raise NotMultilinearInVar(
                            f"degree {e} in variable {i}; partial needs degree <= 1")
                    out[mono[:k] + mono[k + 1:]] = c
                    break
                if v > i:
                    break
        memo[i] = MPoly(self.ctx, self.arity, out, _canonical=True)
        return memo[i]

    def partial2(self, i: int, j: int) -> "MPoly":
        """Mixed second partial, i != j."""
        if i == j:
            raise SameVariable(f"need two distinct variables, got {i} twice")
        return self.partial(i).partial(j)

    # ---- ring operations ----

    def _check_compat(self, other: "MPoly"):
        if self.ctx.p != other.ctx.p:
            raise FieldMismatch(f"GF({self.ctx.p}) vs GF({other.ctx.p})")
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_compat(other)
        p = self.ctx.p
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = (out.get(mono, 0) + c) % p
        return MPoly(self.ctx, self.arity, out, _canonical=True)

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_compat(other)
        p = self.ctx.p
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = (out.get(mono, 0) - c) % p
        return MPoly(self.ctx, self.arity, out, _canonical=True)

    def __neg__(self):
        p = self.ctx.p
        return MPoly(self.ctx, self.arity,
                     {m: p - c for m, c in self.terms.items()}, _canonical=True)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_compat(other)
        if self.variables().isdisjoint(other.variables()):
            return self._mul_disjoint(other)
        # fields one bit wider than the largest exponent of either operand
        # hold every exponent sum
        top = max((e for f in (self, other) for mono in f.terms for _, e in mono), default=0)
        w = top.bit_length() + 1
        out = _code_products(self.ctx.p, (1, _encode(self.terms, w), _encode(other.terms, w)))
        return MPoly(self.ctx, self.arity, dict(zip(_decode_all(out, w), out.values())),
                     _canonical=True)

    def _mul_disjoint(self, other: "MPoly") -> "MPoly":
        """self * other for operands that share no slot.  Every pair of
        monomials then gives its own product monomial, the two sorted tuples
        merged, with a nonzero coefficient; the terms come in the order the
        coded product lists them, self's terms major."""
        p = self.ctx.p
        out: Dict[Mono, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if not m1 or not m2 or m1[-1][0] < m2[0][0]:
                    mono = m1 + m2
                elif m2[-1][0] < m1[0][0]:
                    mono = m2 + m1
                else:
                    mono = tuple(sorted(m1 + m2))
                out[mono] = c1 * c2 % p
        return MPoly(self.ctx, self.arity, out, _canonical=True)

    def scale(self, c) -> "MPoly":
        c = self.ctx.coerce(c)
        p = self.ctx.p
        return MPoly(self.ctx, self.arity,
                     {m: v * c % p for m, v in self.terms.items()}, _canonical=True)

    def embed(self, new_arity: int, var_map: Mapping[int, int]) -> "MPoly":
        """Rename slots through var_map into a polynomial of new_arity.

        Distinct old slots may map to one new slot; exponents then add.
        """
        out: Dict[Mono, int] = {}
        p = self.ctx.p
        for mono, c in self.terms.items():
            acc: Dict[int, int] = {}
            for v, e in mono:
                w = var_map[v]
                if not 0 <= w < new_arity:
                    raise ArityMismatch(f"target slot {w} outside arity {new_arity}")
                acc[w] = acc.get(w, 0) + e
            m = tuple(sorted(acc.items()))
            out[m] = (out.get(m, 0) + c) % p
        return MPoly(self.ctx, new_arity, out, _canonical=True)

    # ---- ordering, comparison, serialization ----

    def _grlex_key(self, mono: Mono):
        dense = [0] * self.arity
        for v, e in mono:
            dense[v] = e
        return (_mono_degree(mono), tuple(dense))

    def leading_coefficient(self) -> int:
        """Coefficient of the graded-lex largest monomial (0 for the zero poly)."""
        if not self.terms:
            return 0
        lead = max(self.terms, key=self._grlex_key)
        return self.terms[lead]

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.ctx.p == other.ctx.p and self.arity == other.arity
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ctx.p, self.arity, tuple(sorted(self.terms.items()))))

    def serialize_terms(self) -> str:
        """Canonical term list: graded lex, highest first, x1-based names."""
        if not self.terms:
            return "0"
        monos = sorted(self.terms, key=self._grlex_key, reverse=True)
        parts = []
        for mono in monos:
            c = self.terms[mono]
            factors = []
            if c != 1 or not mono:
                factors.append(str(c))
            for v, e in mono:
                factors.append(f"x{v + 1}" if e == 1 else f"x{v + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_text(self) -> str:
        """Full file form: header line then the canonical term list."""
        return f"field p={self.ctx.p} n={self.arity}\n{self.serialize_terms()}\n"

    def __repr__(self):
        return f"MPoly(GF({self.ctx.p}), n={self.arity}, {self.serialize_terms()})"


# ---- parsing ----

def _parse_term(ctx: FieldCtx, arity: int, term: str) -> Tuple[Mono, int]:
    factors = term.split("*")
    coeff = 1
    exps: Dict[int, int] = {}
    for f in factors:
        f = f.strip()
        if not f:
            raise ParseError(f"empty factor in term {term!r}")
        if f[0] in "xX":
            body = f[1:]
            e = 1
            if "^" in body:
                body, _, etxt = body.partition("^")
                try:
                    e = int(etxt)
                except ValueError:
                    raise ParseError(f"bad exponent in {f!r}") from None
                if e <= 0:
                    raise ParseError(f"exponent must be positive in {f!r}")
            try:
                v = int(body)
            except ValueError:
                raise ParseError(f"bad variable name {f!r}") from None
            if not 1 <= v <= arity:
                raise ParseError(f"variable {f!r} outside x1..x{arity}")
            exps[v - 1] = exps.get(v - 1, 0) + e
        else:
            try:
                coeff = coeff * int(f) % ctx.p
            except ValueError:
                raise ParseError(f"bad coefficient {f!r}") from None
    return tuple(sorted(exps.items())), coeff


def parse_terms(ctx: FieldCtx, arity: int, expr: str) -> MPoly:
    """Parse a '+'/'-'-separated term list into a polynomial."""
    text = "".join(expr.split())
    if not text:
        raise ParseError("empty polynomial body")
    # split on signs, keeping them
    chunks = []
    sign = 1
    cur = []
    for ch in text:
        if ch in "+-":
            if cur:
                chunks.append((sign, "".join(cur)))
                cur = []
                sign = 1 if ch == "+" else -1
            else:
                sign = sign if ch == "+" else -sign
        else:
            cur.append(ch)
    if not cur:
        raise ParseError(f"trailing operator in {expr!r}")
    chunks.append((sign, "".join(cur)))
    acc: Dict[Mono, int] = {}
    p = ctx.p
    for sign, chunk in chunks:
        mono, c = _parse_term(ctx, arity, chunk)
        acc[mono] = (acc.get(mono, 0) + c * sign) % p
    return MPoly(ctx, arity, acc, _canonical=True)


def parse_header(line: str) -> Tuple[int, int]:
    """Parse 'field p=<p> n=<n>'; returns (p, n)."""
    toks = line.split()
    if len(toks) != 3 or toks[0] != "field":
        raise ParseError(f"bad header {line!r}; expected 'field p=<p> n=<n>'")
    vals = {}
    for tok in toks[1:]:
        key, eq, num = tok.partition("=")
        if eq != "=" or key not in ("p", "n") or key in vals:
            raise ParseError(f"bad header field {tok!r}")
        try:
            vals[key] = int(num)
        except ValueError:
            raise ParseError(f"bad header value {tok!r}") from None
    if set(vals) != {"p", "n"}:
        raise ParseError(f"header must set both p and n: {line!r}")
    if vals["n"] < 0:
        raise ParseError(f"arity must be nonnegative: {line!r}")
    return vals["p"], vals["n"]


def content_lines(text: str) -> list[str]:
    """Lines of an instance file that are neither blank nor '#' comments."""
    return [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]


def parse_poly_file(text: str) -> MPoly:
    """Parse the on-disk polynomial format: header line, then the terms."""
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty polynomial file")
    p, n = parse_header(lines[0])
    try:
        ctx = FieldCtx(p)
    except (OutOfRange, NotPrime) as exc:
        raise ParseError(f"bad modulus in header: {exc}") from exc
    body = " ".join(lines[1:])
    if not body.strip():
        raise ParseError("missing polynomial body")
    if body.strip() == "0":
        return MPoly.zero(ctx, n)
    return parse_terms(ctx, n, body)


# ---- interpolation ----

# float64 holds every integer below this exactly
_FLOAT_EXACT = 2**53


def _table_dtype(p: int, L: int):
    """The dtype of an (L, L) axis matrix with entries in [0, p), as
    _interpolate_stack reads it.  A row times a column of residues sums L
    products of two residues: float64 where that stays below 2**53 (the BLAS
    path), int64 where it stays below 2**62, and object (Python ints)
    otherwise."""
    bound = L * (p - 1) * (p - 1)
    return np.float64 if bound < _FLOAT_EXACT else np.int64 if bound < 2**62 else object


def _basis_matrices(p: int, nodes) -> np.ndarray:
    """The Lagrange bases of k node tuples at once, as a (k, L, L) array M.

    nodes is a (k, L) array of residues, L distinct ones in each row g, and
    M[g][t][r] is the coefficient of X^t in the basis polynomial that is 1
    at nodes[g][r] and 0 at the row's other nodes.  So for samples f at the
    nodes, coefficient t of the interpolant is sum_r M[g][t][r] * f_r.  The
    numerators prod_{j != r} (X - x_j) are the quotients of each row's full
    product prod_j (X - x_j) by X - x_r, found for every r by one synthetic
    division, and the denominators are those quotients at x_r, by Horner's
    rule.  Below _NUMPY_P_LIMIT every step multiplies two residues in
    int64, and Python ints in object arrays above it.  M has _table_dtype's
    dtype.
    """
    dtype = np.int64 if p < _NUMPY_P_LIMIT else object
    x = np.asarray(nodes, dtype=dtype)
    k, L = x.shape
    # full[:, t] is the coefficient of X^t in prod_j (X - x_j)
    full = np.zeros((k, L + 1), dtype=dtype)
    full[:, 0] = 1
    for j in range(L):
        full[:, 1:] = (full[:, :-1] - x[:, j:j + 1] * full[:, 1:]) % p
        full[:, 0] = -x[:, j] * full[:, 0] % p
    # q[g, r, t] is the coefficient of X^t in prod_{j != r} (X - x_j)
    q = np.empty((k, L, L), dtype=dtype)
    q[:, :, L - 1] = 1
    for t in range(L - 1, 0, -1):
        q[:, :, t - 1] = (full[:, t:t + 1] + x * q[:, :, t]) % p
    denominators = q[:, :, L - 1]
    for t in range(L - 2, -1, -1):
        denominators = (denominators * x + q[:, :, t]) % p
    inverses = np.array([pow(v, -1, p) for v in denominators.ravel().tolist()],
                        dtype=dtype).reshape(k, L, 1)
    M = (q * inverses % p).transpose(0, 2, 1)
    return M.astype(_table_dtype(p, L))


def _residues(values, p: int) -> np.ndarray:
    """Integers as an int64 array of residues mod p, of the same shape.

    An int64 array already in [0, p) comes back as it is, neither copied nor
    reduced: one min/max check decides, and % p runs only on out-of-range
    input.  Unsigned and object arrays are reduced in their own type, and
    ints beyond int64 as Python ints, so every reduction is exact.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "uO":
        values = values % p
    try:
        out = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return (np.asarray(values, dtype=object) % p).astype(np.int64)
    if out.size and (out.min() < 0 or out.max() >= p):
        out = out % p
    return out


def _interpolate_stack(p: int, bases: Sequence[np.ndarray], C: np.ndarray) -> np.ndarray:
    """Each of k grids of samples transformed by one matrix per axis, mod p.

    C has shape (k, L_1, ..., L_m) and holds each grid's samples as int64
    residues, in itertools.product order; bases[t] is any matrix of axis t
    with entries in [0, p), in _table_dtype(p, L_t): one (L_t, L_t) matrix
    that every grid shares, or a (k, L_t, L_t) stack, one per grid.  Entry
    [g, e_1, ..., e_m] of the result is sum over r of
    prod_t bases[t][e_t, r_t] * C[g, r_1, ..., r_m], reduced mod p: object
    where a matrix is, else int64.  With the Lagrange bases of the axes'
    nodes (_basis_matrices) it is grid g's coefficient of
    x_1^e_1 ... x_m^e_m.

    A float64 matrix transforms its axis by one float64 matmul (BLAS).  The
    entries stay nonnegative integers under a tracked bound: p - 1 for
    residues, times L_t * (p - 1) per such step.  They are reduced mod p
    only before a step whose bound would reach 2**53, and once at the end,
    so every partial sum is an integer below 2**53, exact in whatever order
    the matmul adds.  An int64 or object matrix reduces after its step.
    """
    k, dims = C.shape[0], C.shape[1:]
    # an upper bound on the entries of C
    bound = p - 1
    # transform the leading axis, then rotate it to the back; after one step
    # per axis the axes are back in order
    for L, M in zip(dims, bases):
        if M.dtype == np.float64:
            if bound * L * (p - 1) >= _FLOAT_EXACT:
                C, bound = np.fmod(C, p), p - 1
            C = M @ C.astype(np.float64, copy=False).reshape(k, L, -1)
            bound *= L * (p - 1)
        else:
            if C.dtype == np.float64:
                C = C.astype(np.int64) % p
            C, bound = M @ C.reshape(k, L, -1) % p, p - 1
        C = C.transpose(0, 2, 1)
    if C.dtype == np.float64:
        C = C.astype(np.int64) % p
    return C.reshape(k, *dims)


def interpolate_grid(ctx: FieldCtx, axes: Sequence[Sequence[int]],
                     values: Sequence[int]) -> MPoly:
    """Interpolate a polynomial of arity len(axes) from a full product grid.

    axes[t] lists the distinct node values for slot t; values holds the
    sample at every grid point, in itertools.product(*axes) order (a list or
    an integer array).  The result is the unique polynomial of degree below
    len(axes[t]) in each slot t that matches every sample.
    """
    if not 1 <= len(axes) <= 3:
        raise InvalidParams(f"grid interpolation supports 1..3 axes, got {len(axes)}")
    p = ctx.p
    ax = []
    for pts in axes:
        nodes = tuple(int(v) % p for v in pts)
        if not nodes:
            raise EmptySampleSet("each axis needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise DuplicateNode(f"axis nodes must be distinct: {pts}")
        ax.append(nodes)
    dims = [len(nodes) for nodes in ax]
    if len(values) != math.prod(dims):
        raise IncompleteGrid(
            f"{len(values)} samples for a grid of {math.prod(dims)} points")
    C = _residues(values, p).reshape(1, *dims)
    C = _interpolate_stack(p, [_basis_matrices(p, [nodes])[0] for nodes in ax], C)[0]
    # np.nonzero lists indices in row-major order, which fixes the term order
    nonzero = np.nonzero(C)
    terms: Dict[Mono, int] = {}
    exponents = zip(*(column.tolist() for column in nonzero))
    for idx, c in zip(exponents, C[nonzero].tolist()):
        terms[tuple((t, e) for t, e in enumerate(idx) if e)] = c
    return MPoly(ctx, len(ax), terms, _canonical=True)


def random_multilinear(ctx: FieldCtx, n: int, rng: random.Random,
                       *, max_vars: int = 16) -> MPoly:
    """Multilinear polynomial with all 2**n coefficients uniform in GF(p)."""
    if n < 0 or n > max_vars:
        raise OutOfRange(f"arity {n} outside [0, {max_vars}]")
    terms: Dict[Mono, int] = {}
    for mask in range(1 << n):
        terms[tuple((v, 1) for v in range(n) if mask >> v & 1)] = rng.randrange(ctx.p)
    return MPoly(ctx, n, terms, _canonical=True)
