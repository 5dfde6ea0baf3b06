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
from typing import FrozenSet, Sequence

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
from .mpoly import (_NUMPY_P_LIMIT, Const, Gate, Leaf, MPoly, Node, _compile_tree,
                    _eval_residues, _residues, content_lines, eval_points, parse_header)


class Rof:
    """A read-once formula over a fixed field and arity.

    _plan holds the evaluation plan, compiled on the first evaluation.
    """

    __slots__ = ("ctx", "arity", "root", "_vars", "_plan")

    def __init__(self, ctx: FieldCtx, arity: int, root: Node):
        self.ctx = ctx
        self.arity = arity
        self._plan = None
        seen = set()
        self.root = self._reduce(root, seen)
        self._vars = frozenset(seen)

    def _reduce(self, root: Node, seen: set) -> Node:
        """Validate a tree; return it with leaf and constant values mod p,
        rebuilt bottom-up (_fold)."""
        p = self.ctx.p

        def leaf(node) -> Node:
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
            raise InvalidParams(f"unknown node {node!r}")

        def gate(op: str, left: Node, right: Node) -> Node:
            if op not in ("+", "*"):
                raise InvalidParams(f"unknown gate {op!r}")
            return Gate(op, left, right)

        return _fold(root, leaf, gate)

    def variables(self) -> FrozenSet[int]:
        return self._vars

    def eval_raw(self, vals: Sequence[int]) -> int:
        """Evaluate at raw residues: one per slot, or one int64 array per slot."""
        plan = self._plan
        if plan is None:
            plan = self._plan = _compile_tree(self.root, self.ctx.p, self.arity)
        return plan.run(vals)

    def eval(self, assignment) -> int:
        if len(assignment) != self.arity:
            raise ArityMismatch(
                f"assignment length {len(assignment)} != arity {self.arity}")
        return self.eval_raw([self.ctx.coerce(v) for v in assignment])

    def eval_batch(self, points: Sequence[Sequence[int]]) -> list[int]:
        """Evaluate at many points at once (see mpoly.eval_points), as a list."""
        return eval_points(self.eval_raw, self.ctx.p, points).tolist()

    def expand(self) -> MPoly:
        """Multiply the tree out into its (multilinear) polynomial, bottom-up
        with an explicit stack (_fold).

        Raises ScaleGuardExceeded, before multiplying anything, when a bound
        on the term count exceeds the desk-scale limit: a leaf has 1 or 2
        terms, a constant 0 or 1, a + gate at most the sum of its children's
        and a * gate exactly their product, since its children share no
        variable.
        """
        def bound(node) -> int:
            if isinstance(node, Leaf):
                return 2 if node.beta else 1
            return 1 if node.value else 0

        guard_scale(_fold(self.root, bound, _apply), "expansion terms (upper bound)")
        ctx, n = self.ctx, self.arity

        def leaf(node) -> MPoly:
            if isinstance(node, Leaf):
                return MPoly.affine(ctx, n, node.var, node.alpha, node.beta)
            return MPoly.constant(ctx, n, node.value)

        return _fold(self.root, leaf, _apply)

    # ---- text form ----

    def serialize(self) -> str:
        """The tree as one s-expression, written with an explicit stack."""
        out = []
        # nodes, and the text between a gate's children
        stack: list = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Gate):
                stack += (")", node.right, " ", node.left, f"({node.op} ")
            elif isinstance(node, Leaf):
                out.append(f"(leaf {node.var + 1} {node.alpha} {node.beta})")
            elif isinstance(node, Const):
                out.append(f"(const {node.value})")
            else:
                out.append(node)
        return "".join(out)

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

        # the gates open around the form being read, each [head, children
        # read so far...]; the forms are read with this explicit stack
        open_gates: list = []
        while True:
            need("(")
            if pos >= len(toks):
                raise ParseError("unexpected end of formula")
            head = toks[pos]
            pos += 1
            if head in ("+", "*"):
                open_gates.append([head])
                continue
            if head == "leaf":
                var, alpha, beta = number(), number(), number()
                if not 1 <= var <= n:
                    raise ParseError(f"leaf variable x{var} outside x1..x{n}")
                node: Node = Leaf(var - 1, alpha, beta)
            elif head == "const":
                node = Const(number())
            else:
                raise ParseError(f"unknown form {head!r}")
            need(")")
            # close every gate whose right child node completes
            while open_gates and len(open_gates[-1]) == 2:
                head, left = open_gates.pop()
                node = Gate(head, left, node)
                need(")")
            if not open_gates:
                break
            open_gates[-1].append(node)
        root = node
        if pos != len(toks):
            raise ParseError(f"trailing tokens after formula: {' '.join(toks[pos:])!r}")
        try:
            return cls(ctx, n, root)
        except (ReadOnceViolation, ArityMismatch, InvalidParams) as exc:
            raise ParseError(str(exc)) from exc


def _fold(root: Node, leaf, gate):
    """A formula tree's value, folded bottom-up with an explicit stack:
    leaf(node) for a Leaf or Const, gate(op, left value, right value) for
    a Gate, children left to right."""
    values: list = []
    # (node, whether its children's values are in values)
    stack: list = [(root, False)]
    while stack:
        node, joined = stack.pop()
        if joined:
            right = values.pop()
            values.append(gate(node.op, values.pop(), right))
        elif isinstance(node, Gate):
            stack += ((node, True), (node.right, False), (node.left, False))
        else:
            values.append(leaf(node))
    return values[0]


def _apply(op: str, left, right):
    """A gate's value from its children's: their sum or their product."""
    return left + right if op == "+" else left * right


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

    __slots__ = ("ctx", "arity", "query_count", "_batch")

    def __init__(self, ctx: FieldCtx, arity: int, fn, batch=None):
        """fn answers one point, a tuple of residues; batch answers many.
        fn is read only when no batch is given.

        batch receives a list of such tuples, or below 2**30 possibly an
        (N, arity) int64 array of residues (default: fn on each point), and
        returns a list or an integer array of their values.
        """
        self.ctx = ctx
        self.arity = arity
        self.query_count = 0
        self._batch = (batch if batch is not None
                       else (lambda pts: [fn(pt) for pt in _point_tuples(pts)]))

    def query(self, assignment) -> int:
        return self.query_many((assignment,))[0]

    def query_many(self, points) -> list[int]:
        """Answer a sequence of points, or an integer array with one row
        each, as a list of residues (see _query_array)."""
        return self._query_array(points).tolist()

    def _query_array(self, points) -> np.ndarray:
        """The residues at the points, as an int64 array; counts them.

        An integer array is brought into [0, p) by mpoly._residues: an int64
        array already there is handed on as it is, without a copy or a
        second % p.  Above 2**30 its rows become tuples of Python ints,
        since int64 products of residues overflow there.  A list's entries
        are coerced one by one.  The batch's values pass through _residues
        too, so a list, or values outside [0, p), come back as residues.
        """
        p = self.ctx.p
        if isinstance(points, np.ndarray):
            if points.ndim != 2 or points.shape[1] != self.arity:
                raise ArityMismatch(
                    f"point array of shape {points.shape} for arity {self.arity}")
            if points.dtype.kind not in "iuO":
                raise InvalidParams(f"points must be integers, got {points.dtype}")
            pts = _residues(points, p)
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
        return _residues(self._batch(pts), p)


def as_oracle(obj) -> Oracle:
    """Wrap a formula or polynomial as a counting oracle."""
    if isinstance(obj, (Rof, MPoly)):
        return Oracle(obj.ctx, obj.arity, None,
                      functools.partial(_eval_residues, obj.eval_raw, obj.ctx.p))
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

    def batch(pts):
        vals = _residues(base._batch(pts), p)
        flip = np.fromiter(map(corrupted, _point_tuples(pts)), dtype=bool, count=len(vals))
        return np.where(flip, (vals + 1) % p, vals)

    return Oracle(base.ctx, base.arity, None, batch)
