"""Read-once formulae and black-box oracles.

A formula is a binary tree whose internal nodes are + or * gates, whose
leaves are affine functions alpha*x_i + beta (alpha != 0) of distinct
variables, plus optional constant leaves.  Because every variable labels at
most one leaf, the expanded polynomial is multilinear.

Oracles wrap anything that can be evaluated at a point and count queries;
corrupt_oracle derandomizes 'flip a delta-fraction of values' with a keyed
hash so the corrupted function is a fixed object per key.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from typing import FrozenSet, Sequence, Union

import numpy as np

from .errors import (
    ArityMismatch,
    InvalidParams,
    NotPrime,
    OutOfRange,
    ParseError,
    ReadOnceViolation,
    guard_scale,
)
from .ff import FieldCtx
from .mpoly import _NUMPY_P_LIMIT, MPoly, content_lines, eval_points, parse_header

Node = Union["Leaf", "Const", "Gate"]


@dataclass(frozen=True)
class Leaf:
    var: int
    alpha: int
    beta: int


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Gate:
    op: str  # "+" or "*"
    left: Node
    right: Node


def _eval_node(node: Node, vals, p: int):
    """A subtree's value at raw residues (see Rof.eval_raw).

    A module function rather than a recursive closure: the closure's
    reference to itself is a cycle that keeps vals, a batch's point columns,
    alive until the cyclic collector runs.
    """
    if isinstance(node, Leaf):
        return (node.alpha * vals[node.var] + node.beta) % p
    if isinstance(node, Const):
        return node.value
    l, r = _eval_node(node.left, vals, p), _eval_node(node.right, vals, p)
    return (l + r) % p if node.op == "+" else l * r % p


class Rof:
    """A read-once formula over a fixed field and arity."""

    __slots__ = ("ctx", "arity", "root", "_vars")

    def __init__(self, ctx: FieldCtx, arity: int, root: Node):
        self.ctx = ctx
        self.arity = arity
        seen = set()
        self.root = self._reduce(root, seen)
        self._vars = frozenset(seen)

    def _reduce(self, node: Node, seen: set) -> Node:
        """Validate a subtree; return it with leaf and constant values mod p."""
        p = self.ctx.p
        if isinstance(node, Leaf):
            if not 0 <= node.var < self.arity:
                raise ArityMismatch(f"leaf variable {node.var} outside arity {self.arity}")
            if node.var in seen:
                raise ReadOnceViolation(f"variable x{node.var + 1} labels two leaves")
            if node.alpha % p == 0:
                raise InvalidParams(f"leaf on x{node.var + 1} has zero slope")
            seen.add(node.var)
            return Leaf(node.var, node.alpha % p, node.beta % p)
        if isinstance(node, Const):
            return Const(node.value % p)
        if isinstance(node, Gate):
            if node.op not in ("+", "*"):
                raise InvalidParams(f"unknown gate {node.op!r}")
            return Gate(node.op, self._reduce(node.left, seen),
                        self._reduce(node.right, seen))
        raise InvalidParams(f"unknown node {node!r}")

    def variables(self) -> FrozenSet[int]:
        return self._vars

    def eval_raw(self, vals: Sequence[int]) -> int:
        """Evaluate at raw residues: one per slot, or one int64 array per slot."""
        return _eval_node(self.root, vals, self.ctx.p)

    def eval(self, assignment) -> int:
        if len(assignment) != self.arity:
            raise ArityMismatch(
                f"assignment length {len(assignment)} != arity {self.arity}")
        return self.eval_raw([self.ctx.coerce(v) for v in assignment])

    def eval_batch(self, points: Sequence[Sequence[int]]) -> list[int]:
        return eval_points(self.eval_raw, self.ctx.p, points)

    def expand(self) -> MPoly:
        """Multiply the tree out into its (multilinear) polynomial.

        Raises ScaleGuardExceeded, before multiplying anything, when a bound
        on the term count exceeds the desk-scale limit: a leaf has 1 or 2
        terms, a constant 0 or 1, a + gate at most the sum of its children's
        and a * gate exactly their product, since its children share no
        variable.
        """
        def terms(node) -> int:
            if isinstance(node, Leaf):
                return 2 if node.beta else 1
            if isinstance(node, Const):
                return 1 if node.value else 0
            l, r = terms(node.left), terms(node.right)
            return l + r if node.op == "+" else l * r

        guard_scale(terms(self.root), "expansion terms (upper bound)")
        ctx, n = self.ctx, self.arity

        def go(node):
            if isinstance(node, Leaf):
                return MPoly.affine(ctx, n, node.var, node.alpha, node.beta)
            if isinstance(node, Const):
                return MPoly.constant(ctx, n, node.value)
            l, r = go(node.left), go(node.right)
            return l + r if node.op == "+" else l * r

        return go(self.root)

    # ---- text form ----

    def serialize(self) -> str:
        def go(node):
            if isinstance(node, Leaf):
                return f"(leaf {node.var + 1} {node.alpha} {node.beta})"
            if isinstance(node, Const):
                return f"(const {node.value})"
            return f"({node.op} {go(node.left)} {go(node.right)})"

        return go(self.root)

    def to_text(self) -> str:
        return f"field p={self.ctx.p} n={self.arity}\n{self.serialize()}\n"

    @classmethod
    def parse(cls, text: str) -> "Rof":
        """Parse the on-disk formula format: header line, then one s-expression."""
        lines = content_lines(text)
        if not lines:
            raise ParseError("empty formula file")
        p, n = parse_header(lines[0])
        try:
            ctx = FieldCtx(p)
        except (OutOfRange, NotPrime) as exc:
            raise ParseError(f"bad modulus in header: {exc}") from exc
        toks = " ".join(lines[1:]).replace("(", " ( ").replace(")", " ) ").split()
        if not toks:
            raise ParseError("missing formula body")
        pos = 0

        def need(tok):
            nonlocal pos
            if pos >= len(toks) or toks[pos] != tok:
                got = toks[pos] if pos < len(toks) else "<end>"
                raise ParseError(f"expected {tok!r}, got {got!r}")
            pos += 1

        def number():
            nonlocal pos
            if pos >= len(toks):
                raise ParseError("unexpected end of formula")
            try:
                v = int(toks[pos])
            except ValueError:
                raise ParseError(f"expected a number, got {toks[pos]!r}") from None
            pos += 1
            return v

        def expr() -> Node:
            nonlocal pos
            need("(")
            if pos >= len(toks):
                raise ParseError("unexpected end of formula")
            head = toks[pos]
            pos += 1
            if head == "leaf":
                var, alpha, beta = number(), number(), number()
                if not 1 <= var <= n:
                    raise ParseError(f"leaf variable x{var} outside x1..x{n}")
                node: Node = Leaf(var - 1, alpha, beta)
            elif head == "const":
                node = Const(number())
            elif head in ("+", "*"):
                node = Gate(head, expr(), expr())
            else:
                raise ParseError(f"unknown form {head!r}")
            need(")")
            return node

        root = expr()
        if pos != len(toks):
            raise ParseError(f"trailing tokens after formula: {' '.join(toks[pos:])!r}")
        try:
            return cls(ctx, n, root)
        except (ReadOnceViolation, ArityMismatch, InvalidParams) as exc:
            raise ParseError(str(exc)) from exc


def _as_rng(rng) -> random.Random:
    if isinstance(rng, random.Random):
        return rng
    return random.Random(rng)


@functools.lru_cache(maxsize=None)
def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _random_shape(k: int, rng: random.Random):
    """Uniform full binary tree with k leaves, as nested ('L',) / (l, r)."""
    if k == 1:
        return "L"
    total = _catalan(k - 1)
    pick = rng.randrange(total)
    acc = 0
    for left in range(1, k):
        acc += _catalan(left - 1) * _catalan(k - left - 1)
        if pick < acc:
            return (_random_shape(left, rng), _random_shape(k - left, rng))
    raise AssertionError("unreachable")


def random_rof(ctx: FieldCtx, n: int, rng, vars_used: int | None = None) -> Rof:
    """Random formula: uniform tree shape, uniform gates, random affine leaves.

    vars_used picks how many of the n slots appear (default all); the subset
    and its left-to-right placement are both drawn from rng.
    """
    rng = _as_rng(rng)
    if vars_used is None:
        vars_used = n
    if not 1 <= vars_used <= n:
        raise OutOfRange(f"vars_used {vars_used} outside [1, {n}]")
    chosen = rng.sample(range(n), vars_used)
    shape = _random_shape(vars_used, rng)
    order = iter(chosen)

    def build(sh):
        if sh == "L":
            v = next(order)
            alpha = 1 + rng.randrange(ctx.p - 1)
            beta = rng.randrange(ctx.p)
            return Leaf(v, alpha, beta)
        op = "+" if rng.randrange(2) == 0 else "*"
        return Gate(op, build(sh[0]), build(sh[1]))

    return Rof(ctx, n, build(shape))


def _point_tuples(points):
    """The points as tuples of ints, from a list of tuples or an int array."""
    if isinstance(points, np.ndarray):
        return list(map(tuple, points.tolist()))
    return points


class Oracle:
    """Counting black box from assignments to field residues."""

    __slots__ = ("ctx", "arity", "query_count", "_fn", "_batch")

    def __init__(self, ctx: FieldCtx, arity: int, fn, batch=None):
        """fn answers one point, a tuple of residues; batch answers many.

        batch receives a list of such tuples, or below 2**30 possibly an
        (N, arity) int64 array of residues (default: fn on each point).
        """
        self.ctx = ctx
        self.arity = arity
        self.query_count = 0
        self._fn = fn
        self._batch = (batch if batch is not None
                       else (lambda pts: [fn(pt) for pt in _point_tuples(pts)]))

    def query(self, assignment) -> int:
        return self.query_many((assignment,))[0]

    def query_many(self, points) -> list[int]:
        """Answer a sequence of points, or an integer array with one row each.

        An array is reduced mod p in one copy (an int64 array is not copied
        again); above 2**30 its rows become tuples of Python ints, since
        int64 products of residues overflow there.
        """
        p = self.ctx.p
        if isinstance(points, np.ndarray):
            if points.ndim != 2 or points.shape[1] != self.arity:
                raise ArityMismatch(
                    f"point array of shape {points.shape} for arity {self.arity}")
            if points.dtype.kind not in "iuO":
                raise InvalidParams(f"points must be integers, got {points.dtype}")
            pts = (points % p).astype(np.int64, copy=False)
            if p >= _NUMPY_P_LIMIT:
                pts = _point_tuples(pts)
        else:
            pts = []
            for a in points:
                if len(a) != self.arity:
                    raise ArityMismatch(
                        f"assignment length {len(a)} != arity {self.arity}")
                pts.append(tuple(self.ctx.coerce(v) for v in a))
        self.query_count += len(pts)
        return self._batch(pts)


def as_oracle(obj) -> Oracle:
    """Wrap a formula or polynomial as a counting oracle."""
    if isinstance(obj, (Rof, MPoly)):
        return Oracle(obj.ctx, obj.arity, obj.eval_raw, obj.eval_batch)
    raise InvalidParams(f"cannot build an oracle from {type(obj).__name__}")


def corrupt_oracle(base: Oracle, delta: float, rng) -> Oracle:
    """Corrupt a deterministic delta-fraction of inputs of a base oracle.

    A keyed 64-bit hash of the query point decides membership in the
    corrupted set, so the same point always answers the same way; corrupted
    points answer base value + 1.  The key is drawn once from rng.
    """
    if not 0.0 <= delta <= 1.0:
        raise InvalidParams(f"delta must be in [0, 1], got {delta}")
    rng = _as_rng(rng)
    key = rng.getrandbits(128).to_bytes(16, "little")
    threshold = int(delta * 2**64)
    p = base.ctx.p

    def corrupted(pt) -> bool:
        blob = (",".join(map(str, pt))).encode()
        h = int.from_bytes(hashlib.blake2b(blob, key=key, digest_size=8).digest(), "big")
        return h < threshold

    def fn(pt):
        v = base._fn(pt)
        return (v + 1) % p if corrupted(pt) else v

    def batch(pts):
        return [(v + 1) % p if corrupted(q) else v
                for q, v in zip(_point_tuples(pts), base._batch(pts))]

    return Oracle(base.ctx, base.arity, fn, batch)
