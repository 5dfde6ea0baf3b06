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
from typing import FrozenSet, List, Optional, Tuple

from .decomp import (_is_multilinear, _pair_split, _shifted_coefficients, _trivariate_rop,
                     witness_is_zero)
# bound here for bench/tracer.py, which wraps charax's binding of it
from .decomp import trivariate_is_rop  # noqa: F401
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
    if not _is_multilinear(P):
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
    """Reusable certifier: zero tags once, then one check per assignment.

    No witness polynomial is built.  check tabulates the mixed partials
    d_T P(a), |T| <= 3, at the assignment a in one pass over P's terms (P's
    order-3 Taylor table) and decides every multiplicand in O(1) from it.  A
    first or second partial is one entry.  A witness multiplicand of the
    pair (i, j) glued on J = rest - {m}, set to x = a and y_J = a_J, is a
    polynomial in y_m alone: in u = y_m - a_m it is
    u*(A1*d - s*D1) - u^2*s*D2, from the split of P's shift to a in (i, j)
    along m (decomp._pair_split), where s = A0 = S(a), d = D0 = D(a) and
    A1 = d_ijm P(a).  So it vanishes in the free variable iff s*D2 == 0 and
    d*A1 == s*D1 (mod p).
    """

    def __init__(self, P: MPoly):
        _require_multilinear(P)
        if P.ctx.p < 3:
            raise FieldTooSmall("goodness certification needs p >= 3")
        self.P = P
        self.multiplicands = certificate_multiplicands(P)
        # every live multiplicand with the table masks it reads: the
        # partial's slots, or a witness's pair and free slot
        self._live = []
        for m in self.multiplicands:
            if m.identically_zero:
                continue
            if m.kind == WITNESS:
                i, j = m.index
                free = next(k for k in range(P.arity)
                            if k not in m.shared and k != i and k != j)
                masks = (1 << i, 1 << j, 1 << free)
            else:
                masks = sum(1 << t for t in m.index)
            self._live.append((m, masks))

    def check(self, assignment) -> GoodnessReport:
        P = self.P
        if len(assignment) != P.arity:
            raise ArityMismatch(
                f"assignment length {len(assignment)} != arity {P.arity}")
        p = P.ctx.p
        table = _shifted_coefficients(P, [P.ctx.coerce(v) for v in assignment])
        violations = []
        for m, masks in self._live:
            if m.kind != WITNESS:
                if table[masks] % p == 0:
                    violations.append((m, "evaluates to 0 at the assignment"))
                continue
            A1, A0, D2, D1, D0 = _pair_split(table, *masks)
            if A0 * D2 % p == 0 and (A1 * D0 - A0 * D1) % p == 0:
                violations.append((m, "vanishes identically in the free variables"))
        return GoodnessReport(not violations, violations,
                              len(self.multiplicands) - len(self._live))


def is_good_assignment(P: MPoly, a) -> GoodnessReport:
    """Certify one assignment; build a GoodnessChecker for repeated use."""
    return GoodnessChecker(P).check(a)


def is_locally_rop(P: MPoly, a) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """All C(n,3) trivariate restrictions at a read-once?

    The restriction to a triple I, written in shifted coordinates
    x_k = a_k + u_k, is the 8-term polynomial with coefficients
    {d_S P(a) : S inside I}; one pass over P's terms tabulates them all, and
    each triple's entries go straight to the closed-form decision
    (decomp._trivariate_rop).  A one-variable affine shift keeps a formula
    read-once, so each triple gets the verdict of its restriction.  Subsets
    are scanned in lexicographic order and the first failing one is returned
    as the witness.  Fewer than 3 variables: trivially read-once.
    """
    _require_multilinear(P)
    n = P.arity
    if n < 3:
        return True, None
    if len(a) != n:
        raise ArityMismatch(f"assignment length {len(a)} != arity {n}")
    ctx = P.ctx
    table = _shifted_coefficients(P, [ctx.coerce(v) for v in a])
    for I in itertools.combinations(range(n), 3):
        if not _trivariate_rop(table, *(1 << v for v in I), ctx.p):
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
