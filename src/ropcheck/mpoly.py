"""Sparse multivariate polynomials over GF(p), with exact arithmetic.

Representation: a polynomial carries a fixed arity n (variable slots 0..n-1)
and a dict mapping monomials to nonzero coefficient residues.  A monomial is
a tuple of (variable, exponent) pairs, sorted by variable, every exponent
positive; the empty tuple is the constant monomial.  The representation is
canonical, so equality of polynomials is equality of dicts.

Zero coefficients are dropped in one place: the constructor.  Every operation
accumulates its terms into a fresh dict as out[m] = (out.get(m, 0) + c) % p,
leaving any cancelled term at 0, and hands the dict to the constructor, which
removes the zeros and keeps the dict as the new polynomial's terms.

Restriction keeps the arity: substituting into slot i just removes i from the
support, it never renumbers the remaining variables.

Serialization is one term per '+', coefficients as decimal residues,
variables printed 1-based (slot 0 is x1), terms ordered by graded
lexicographic order, highest first.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple

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

Mono = Tuple[Tuple[int, int], ...]

# eval_points' int64 products stay exact below this modulus
_NUMPY_P_LIMIT = 2**30


def eval_points(eval_raw, p: int, points: Sequence[Sequence[int]]) -> list[int]:
    """eval_raw's value at each raw-residue point.

    points is a list of points or an integer array with one row per point.
    Below _NUMPY_P_LIMIT, 8 or more points go to eval_raw in one call, as
    one int64 column per slot; a result that does not depend on the point
    is broadcast to every point.
    """
    if p >= _NUMPY_P_LIMIT or len(points) < 8:
        if isinstance(points, np.ndarray):
            points = points.tolist()
        return [eval_raw(pt) for pt in points]
    columns = (np.asarray(points, dtype=np.int64) % p).T
    return np.broadcast_to(eval_raw(columns), len(points)).tolist()


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


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


class MPoly:
    """Immutable sparse polynomial over a prime field.

    First partials are memoized per slot on the polynomial, so every caller
    that asks for d_i(P) of one P shares a single computation.  _probe holds
    decomp's memo of P: its multilinearity and its Taylor tables at the fixed
    witness probe points.
    """

    __slots__ = ("ctx", "arity", "terms", "_partials", "_probe")

    def __init__(self, ctx: FieldCtx, arity: int, terms: Mapping[Mono, int] | None = None,
                 *, _canonical: bool = False):
        if arity < 0:
            raise OutOfRange(f"arity must be nonnegative, got {arity}")
        self.ctx = ctx
        self.arity = arity
        self._partials = None
        self._probe = None
        if terms is None:
            terms = {}
        elif not _canonical:
            p = ctx.p
            clean: Dict[Mono, int] = {}
            for mono, coeff in terms.items():
                if isinstance(mono, dict):
                    mono = tuple(sorted(mono.items()))
                else:
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
        eval_points); every product is of two residues, so below
        _NUMPY_P_LIMIT no int64 product reaches 2**60.
        """
        p = self.ctx.p
        acc = 0
        for mono, c in self.terms.items():
            t = c
            for v, e in mono:
                x = vals[v]
                t = t * x % p if e == 1 else t * _pow_mod(x, e, p) % p
            acc += t
        return acc % p

    def evaluate(self, assignment) -> int:
        """Residue at an assignment of int representatives, full arity."""
        if len(assignment) != self.arity:
            raise ArityMismatch(
                f"assignment length {len(assignment)} != arity {self.arity}")
        return self.eval_raw([self.ctx.coerce(v) for v in assignment])

    def eval_batch(self, points: Sequence[Sequence[int]]) -> list[int]:
        """Evaluate at many raw-residue points at once."""
        return eval_points(self.eval_raw, self.ctx.p, points)

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
        p = self.ctx.p
        out: Dict[Mono, int] = {}
        items2 = list(other.terms.items())
        for m1, c1 in self.terms.items():
            for m2, c2 in items2:
                m = _mono_mul(m1, m2)
                out[m] = (out.get(m, 0) + c1 * c2) % p
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

@functools.lru_cache(maxsize=64)
def _basis_matrix(p: int, xs: Tuple[int, ...]) -> np.ndarray:
    """M with M[t][k] = coefficient of X^t in the Lagrange basis poly L_k.

    Then for values f(xs[k]), coefficient t of the interpolant is
    sum_k M[t][k] * f(xs[k]).  A row times a column of residues sums len(xs)
    products of two residues; int64 holds that sum exactly below 2**62, and
    above it M is an object array of Python ints.  Memoized per (p, nodes),
    since the testers interpolate many grids on the same nodes (every subset
    of read_once_test, every subset of a property round); the returned array
    is read-only.
    """
    m = len(xs)
    M = [[0] * m for _ in range(m)]
    for k in range(m):
        num = [1]
        for j in range(m):
            if j == k:
                continue
            xj = xs[j]
            nxt = [0] * (len(num) + 1)
            for t, c in enumerate(num):
                nxt[t] = (nxt[t] - c * xj) % p
                nxt[t + 1] = (nxt[t + 1] + c) % p
            num = nxt
        denom = 1
        for j in range(m):
            if j != k:
                denom = denom * (xs[k] - xs[j]) % p
        dinv = pow(denom, p - 2, p)
        for t in range(m):
            M[t][k] = num[t] * dinv % p
    out = np.array(M, dtype=np.int64 if m * (p - 1) * (p - 1) < 2**62 else object)
    out.flags.writeable = False
    return out


def _residues(values, p: int) -> np.ndarray:
    """Integer samples as one int64 array of residues mod p.

    np.asarray keeps ints beyond int64 as objects, so the reduction is exact,
    and residues below 2**61 fit int64.
    """
    return (np.asarray(values) % p).astype(np.int64, copy=False)


def _interpolate_stack(p: int, axes: Sequence[Sequence[Tuple[int, ...]]],
                       C: np.ndarray) -> np.ndarray:
    """Coefficients of k grid interpolants at once.

    C has shape (k, L_1, ..., L_m) and holds each grid's samples as int64
    residues, in itertools.product order; axes[t] lists the k grids' node
    tuples along axis t, distinct residues each.  Entry [g, e_1, ..., e_m] of
    the result is grid g's coefficient of x_1^e_1 ... x_m^e_m, reduced mod p,
    int64 where _basis_matrix is and object above its bound.
    """
    k, dims = C.shape[0], C.shape[1:]
    # transform the leading axis, then rotate it to the back; after one step
    # per axis the axes are back in order
    for L, nodes in zip(dims, axes):
        mats = [_basis_matrix(p, xs) for xs in nodes]
        M = mats[0] if all(m is mats[0] for m in mats) else np.stack(mats)
        C = (M @ C.reshape(k, L, -1) % p).transpose(0, 2, 1)
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
    C = _interpolate_stack(p, [[nodes] for nodes in ax], C)[0]
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
