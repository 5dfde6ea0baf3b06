"""Global read-once characterization through certified assignments.

A multilinear P is read-once exactly when, at any assignment where every
nonzero certificate multiplicand survives, all C(n,3) trivariate
restrictions are read-once.  The certificate multiplicands are: the n first
partials, the n(n-1)/2 mixed second partials, and per pair (i,j) and per
remaining index m one decomposition-witness term glued on the n-3 indices
outside {i, j, m}.

characterize samples assignments, certifies one good, then reduces the
global question to trivariate restrictions.  Every zero tag is exact, so
every verdict is; when no good assignment is found it answers
INDETERMINATE, never a wrong verdict.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .decomp import _commutator, trivariate_is_rop, witness_is_zero
from .errors import (ArityMismatch, FieldTooSmall, InvalidParams, NotMultilinear,
                     guard_scale)
from .mpoly import MPoly

ROP = "ROP"
READ_MANY = "READ_MANY"
INDETERMINATE = "INDETERMINATE"

FIRST_PARTIAL = "first_partial"
SECOND_PARTIAL = "second_partial"
WITNESS = "witness"


@dataclass(frozen=True)
class Multiplicand:
    """One factor of the goodness certificate, tagged if identically zero."""
    kind: str
    index: Tuple[int, ...]              # (t,) or (i, j)
    shared: Optional[FrozenSet[int]]    # witness terms only
    identically_zero: bool

    def describe(self) -> str:
        names = ",".join(f"x{t + 1}" for t in self.index)
        if self.kind == FIRST_PARTIAL:
            return f"first partial in {names}"
        if self.kind == SECOND_PARTIAL:
            return f"second partial in ({names})"
        glue = "{" + ",".join(f"x{k + 1}" for k in sorted(self.shared)) + "}"
        return f"witness for ({names}) glued on {glue}"


@dataclass(frozen=True)
class GoodnessReport:
    good: bool
    violations: List[Tuple[Multiplicand, str]]
    skipped_zero: int


def _require_multilinear(P: MPoly):
    if not P.is_multilinear():
        raise NotMultilinear("certification needs a multilinear polynomial")


def certificate_multiplicands(P: MPoly) -> List[Multiplicand]:
    """Enumerate every certificate multiplicand with exact zero tags.

    Each witness term of a pair glues all but one of the remaining indices.
    Raises ScaleGuardExceeded when the certificate would exceed the
    desk-scale limit.
    """
    _require_multilinear(P)
    n = P.arity
    # the full certificate stores C(n,2)*(n-2) witness multiplicands, each
    # gluing n-3 slots: 1,958,220 glue-set entries at n = 46, 2,140,380 at 47
    guard_scale(math.comb(n, 2) * (n - 2) * (n - 3), "certificate glue-set entries")
    out: List[Multiplicand] = []
    for t in range(n):
        out.append(Multiplicand(FIRST_PARTIAL, (t,), None, P.partial(t).is_zero()))
    for i, j in itertools.combinations(range(n), 2):
        out.append(Multiplicand(SECOND_PARTIAL, (i, j), None,
                                P.partial2(i, j).is_zero()))
    for i, j in itertools.combinations(range(n), 2):
        rest = [k for k in range(n) if k not in (i, j)]
        # the unglued witness vanishing forces every glued one to vanish
        base_zero = witness_is_zero(P, i, j, frozenset())
        for m in rest:
            shared = frozenset(k for k in rest if k != m)
            zero = base_zero or witness_is_zero(P, i, j, shared)
            out.append(Multiplicand(WITNESS, (i, j), shared, zero))
    return out


class GoodnessChecker:
    """Reusable certifier: zero tags and partials once, then one check per
    assignment.

    No witness polynomial is precomputed.  check restricts first: for a
    witness multiplicand glued on J it sets R = P|J<-a, builds S_R = dd_ij(R)
    and D_R = D(R) on that small polynomial, and tests
    S_R * D(a) - D_R * S(a) == 0, with S(a) and D(a) = P(a)*S(a) -
    d_iP(a)*d_jP(a) taken from point values computed once per assignment.
    Restriction at J commutes with the partials in i, j and with products, so
    this is the restriction of D(x)*S(y) - S(x)*D(y) at x = a, y_J = a_J.
    """

    def __init__(self, P: MPoly):
        _require_multilinear(P)
        if P.ctx.p < 3:
            raise FieldTooSmall("goodness certification needs p >= 3")
        self.P = P
        self.multiplicands = certificate_multiplicands(P)
        self._first = [P.partial(t) for t in range(P.arity)]
        # a live witness implies a live second partial of its pair
        self._second = {m.index: P.partial2(*m.index) for m in self.multiplicands
                        if m.kind == SECOND_PARTIAL and not m.identically_zero}

    def check(self, assignment) -> GoodnessReport:
        P = self.P
        if len(assignment) != P.arity:
            raise ArityMismatch(
                f"assignment length {len(assignment)} != arity {P.arity}")
        a = tuple(P.ctx.coerce(v) for v in assignment)
        p = P.ctx.p
        pa = P.eval_raw(a)
        first = [d.eval_raw(a) for d in self._first]
        second = {ij: S.eval_raw(a) for ij, S in self._second.items()}
        # the three pairs of a triple share one glue set
        restricted = {}
        violations = []
        skipped = 0
        for m in self.multiplicands:
            if m.identically_zero:
                skipped += 1
                continue
            if m.kind == FIRST_PARTIAL:
                if first[m.index[0]] == 0:
                    violations.append((m, "evaluates to 0 at the assignment"))
            elif m.kind == SECOND_PARTIAL:
                if second[m.index] == 0:
                    violations.append((m, "evaluates to 0 at the assignment"))
            else:
                i, j = m.index
                s = second[(i, j)]
                d = (pa * s - first[i] * first[j]) % p
                R = restricted.get(m.shared)
                if R is None:
                    R = restricted[m.shared] = P.restrict_many(m.shared, a)
                T = R.partial2(i, j).scale(d) - _commutator(R, i, j).scale(s)
                if T.is_zero():
                    violations.append(
                        (m, "vanishes identically in the free variables"))
        return GoodnessReport(not violations, violations, skipped)


def is_good_assignment(P: MPoly, a) -> GoodnessReport:
    """Certify one assignment; build a GoodnessChecker for repeated use."""
    return GoodnessChecker(P).check(a)


def _shifted_coefficients(P: MPoly, a) -> Dict[int, int]:
    """The mixed partials d_T P(a) for every |T| <= 3, keyed by T's bit mask.

    They are the coefficients of P(a + u) in u.  A monomial c * x^m adds
    c * prod(a_v : v in m - T) to d_T P(a) for every T inside m; the product
    vanishes unless T holds every slot of m where a is 0, so a monomial with
    more than 3 such slots adds nothing.  Entries that receive nothing are
    absent, and values are left unreduced.
    """
    p = P.ctx.p
    inv = [pow(v, p - 2, p) if v else 0 for v in a]
    table: Dict[int, int] = {}
    for mono, c in P.terms.items():
        zero_mask = zeros = 0
        live = []
        for v, _ in mono:
            if a[v]:
                c = c * a[v] % p
                live.append((1 << v, inv[v]))
            else:
                zero_mask |= 1 << v
                zeros += 1
        if zeros > 3:
            continue
        # grow the subsets T of the monomial that hold its zero slots, one
        # live slot at a time: taking v into T divides its factor a_v out
        subsets = [(zero_mask, c, zeros)]
        for b, w in live:
            subsets += [(mask | b, val * w % p, size + 1)
                        for mask, val, size in subsets if size < 3]
        for mask, val, _ in subsets:
            table[mask] = table.get(mask, 0) + val
    return table


def is_locally_rop(P: MPoly, a) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """All C(n,3) trivariate restrictions at a read-once?

    The restriction to a triple I, written in shifted coordinates
    x_k = a_k + u_k, is the 8-term polynomial with coefficients
    {d_S P(a) : S inside I}; one pass over P's terms tabulates them all.  A
    one-variable affine shift keeps a formula read-once, so each triple gets
    the verdict of its restriction.  Subsets are scanned in lexicographic
    order and the first failing one is returned as the witness.  Fewer than
    3 variables: trivially read-once.
    """
    _require_multilinear(P)
    n = P.arity
    if n < 3:
        return True, None
    if len(a) != n:
        raise ArityMismatch(f"assignment length {len(a)} != arity {n}")
    ctx = P.ctx
    p = ctx.p
    table = _shifted_coefficients(P, [ctx.coerce(v) for v in a])
    for I in itertools.combinations(range(n), 3):
        # the 8 subsets S of I, as bit masks and as monomials
        masks, monos = [0], [()]
        for v in I:
            masks += [mask | 1 << v for mask in masks]
            monos += [mono + ((v, 1),) for mono in monos]
        terms = {mono: table.get(mask, 0) % p for mono, mask in zip(monos, masks)}
        if not trivariate_is_rop(MPoly(ctx, n, terms, _canonical=True)):
            return False, I
    return True, None


@dataclass(frozen=True)
class CharacterizeReport:
    verdict: str
    assignment: Optional[Tuple[int, ...]]
    witness_I: Optional[Tuple[int, ...]]
    attempts: int
    goodness: Optional[GoodnessReport]
    seed: Optional[int]
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "assignment": list(self.assignment) if self.assignment is not None else None,
            "witness_I": [t + 1 for t in self.witness_I] if self.witness_I else None,
            "attempts": self.attempts,
            "seed": self.seed,
            "skipped_zero": self.goodness.skipped_zero if self.goodness else None,
            "violations": [m.describe() for m, _ in self.goodness.violations]
            if self.goodness else [],
            "note": self.note,
        }


def characterize(P: MPoly, rng, max_retries: int = 16) -> CharacterizeReport:
    """Decide read-once-ness through a certified random assignment.

    Draws up to max_retries assignments; at the first certified-good one the
    verdict is exactly the local trivariate check.  Exhausted retries yield
    INDETERMINATE.  Arity below 3 is answered ROP directly: every
    multilinear polynomial in at most two variables is read-once.  Arity
    above the certificate's scale guard raises ScaleGuardExceeded, and a
    negative max_retries raises InvalidParams.
    """
    _require_multilinear(P)
    if max_retries < 0:
        raise InvalidParams(f"need max_retries >= 0, got {max_retries}")
    seed = rng if isinstance(rng, int) else None
    rng = random.Random(rng) if isinstance(rng, int) else rng
    n = P.arity
    if n < 3:
        return CharacterizeReport(ROP, None, None, 0, None, seed,
                                  "small arity answered directly")
    checker = GoodnessChecker(P)
    p = P.ctx.p
    last = None
    for attempt in range(1, max_retries + 1):
        a = tuple(rng.randrange(p) for _ in range(n))
        last = checker.check(a)
        if last.good:
            ok, witness = is_locally_rop(P, a)
            verdict = ROP if ok else READ_MANY
            return CharacterizeReport(verdict, a, witness, attempt, last, seed)
    return CharacterizeReport(INDETERMINATE, None, None, max_retries, last, seed,
                              "no certified assignment within the retry budget")
