"""Global read-once characterization through certified assignments.

A multilinear P is read-once exactly when, at any assignment where every
nonzero certificate multiplicand survives, all C(n,3) trivariate
restrictions are read-once.  The certificate multiplicands are: the n first
partials, the n(n-1)/2 mixed second partials, and per pair (i,j) and per
remaining index m one decomposition-witness term glued on the n-3 indices
outside {i, j, m}.

The certificate is held as one boolean mask of its zero tags, in that
order (_certificate_zero).  A Multiplicand object is built only for a
violation that a report names, from its index in the mask, or when the
whole list is asked for (certificate_multiplicands,
GoodnessChecker.multiplicands); a certified attempt builds none.

characterize samples assignments, certifies one good, then reduces the
global question to trivariate restrictions.  Every zero tag is exact, so
every verdict is; when no good assignment is found it answers
INDETERMINATE, never a wrong verdict.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from .decomp import (_is_multilinear, _pair_layout, _subsets, _taylor_table, _trivariate_rop,
                     _witness_tags, _witness_vanishes, witness_is_zero)
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


def _certificate_zero(P: MPoly) -> np.ndarray:
    """The zero tags of P's certificate as one boolean mask, in certificate
    order: the n first partials, the C(n,2) second partials, then pair by
    pair (_PairLayout.pairs) the pair's n-2 witnesses glued on rest - {m},
    m in increasing order (_PairLayout.witness_free).

    A first partial vanishes iff no monomial of P holds its slot, and a
    second partial iff no monomial holds both slots of its pair, and then
    every witness of the pair vanishes too: all read from the subsets that
    P's Taylor plan lists (present and shares of decomp._WitnessTags), with
    no partial polynomial built.  The other witnesses are tagged by
    witness_is_zero, which reads P's tags as bit masks of slots, all
    decided once from one stacked probe, a structural proof over P's
    additive pieces and verified factor blocks, recursively, and the exact
    tests on what those two leave open (decomp._WitnessTags).  Raises ScaleGuardExceeded when the certificate would exceed the
    desk-scale limit, before any tag is decided.
    """
    _require_multilinear(P)
    n = P.arity
    # the full certificate lists C(n,2)*(n-2) witness multiplicands, each
    # gluing n-3 slots: 1,958,220 glue-set entries at n = 46, 2,140,380 at 47
    guard_scale(math.comb(n, 2) * (n - 2) * (n - 3), "certificate glue-set entries")
    tags = _witness_tags(P)
    pairs = _pair_layout(n).pairs
    witness = np.ones((len(pairs), max(n - 2, 0)), dtype=bool)
    everything = frozenset(range(n))
    for q in tags.shares.nonzero()[0].tolist():
        i, j = pairs[q]
        # the unglued witness vanishing makes every witness of the pair vanish
        if not witness_is_zero(P, i, j, frozenset()):
            rest = everything - {i, j}
            witness[q] = [witness_is_zero(P, i, j, rest - {m}) for m in sorted(rest)]
    return np.concatenate([~tags.present, ~tags.shares, witness.ravel()])


def _multiplicand(n: int, k: int, zero: bool) -> Multiplicand:
    """Entry k of the certificate of an n-slot polynomial (in the order of
    _certificate_zero), with the zero tag zero."""
    if k < n:
        return Multiplicand(FIRST_PARTIAL, (k,), None, zero)
    lay = _pair_layout(n)
    k -= n
    if k < len(lay.pairs):
        return Multiplicand(SECOND_PARTIAL, lay.pairs[k], None, zero)
    q, r = divmod(k - len(lay.pairs), n - 2)
    i, j = lay.pairs[q]
    return Multiplicand(WITNESS, (i, j),
                        frozenset(range(n)) - {i, j, int(lay.witness_free[q, r])}, zero)


def _multiplicands(n: int, zero: np.ndarray) -> List[Multiplicand]:
    return [_multiplicand(n, k, z) for k, z in enumerate(zero.tolist())]


def certificate_multiplicands(P: MPoly) -> List[Multiplicand]:
    """Every certificate multiplicand of P with its exact zero tag, in
    certificate order, built from the mask of _certificate_zero.  Raises
    ScaleGuardExceeded when the certificate would exceed the desk-scale
    limit, before any tag is decided."""
    return _multiplicands(P.arity, _certificate_zero(P))


class GoodnessChecker:
    """Reusable certifier: zero tags once, then one check per assignment.

    The certificate is held as its zero-tag mask (_certificate_zero), the
    indices of its live entries and the table rows each live entry reads; a
    Multiplicand is built only for a violation that a report names, from
    its index alone, and multiplicands builds the whole list on request.
    No witness polynomial is built.  check evaluates the mixed partials
    d_T P(a), |T| <= 3, at the assignment a through P's Taylor plan (P's
    order-3 Taylor table, decomp._taylor_table) and decides every live
    multiplicand from it at once: the partials' entries in one gather, the
    witnesses in one stacked step.  A first or second partial is one entry.
    A witness multiplicand of the pair (i, j) glued on J = rest - {m}, set
    to x = a and y_J = a_J, is a polynomial in y_m alone, and it vanishes
    in the free variable as the witness probes read it
    (decomp._witness_vanishes).
    """

    def __init__(self, P: MPoly):
        _require_multilinear(P)
        if P.ctx.p < 3:
            raise FieldTooSmall("goodness certification needs p >= 3")
        self.P = P
        self._zero = _certificate_zero(P)
        live = ~self._zero
        # the certificate indices of the live entries, which list the
        # partials before the witnesses, and the table rows each reads: a
        # partial's entry, or the factors of a witness's pair split of
        # (i, j) along its free slot, in the order of decomp._pair_layout's
        # witness columns
        self._live = live.nonzero()[0]
        lay = _pair_layout(P.arity)
        rows = np.concatenate([lay.single_rows, lay.pair_rows])
        self._partial_rows = rows[live[:len(rows)]]
        splits = lay.witness_columns.ravel()[live[len(rows):]]
        self._left, self._right = lay.left[:, splits], lay.right[:, splits]

    @property
    def multiplicands(self) -> List[Multiplicand]:
        """Every certificate multiplicand with its zero tag, in certificate
        order, built on each request."""
        return _multiplicands(self.P.arity, self._zero)

    def check(self, assignment) -> GoodnessReport:
        P = self.P
        if len(assignment) != P.arity:
            raise ArityMismatch(
                f"assignment length {len(assignment)} != arity {P.arity}")
        return self._check_table(_taylor_table(P, [P.ctx.coerce(v) for v in assignment]))

    def _check_table(self, table) -> GoodnessReport:
        """check on P's Taylor table at the assignment, a column of
        residues in the rows of decomp._subsets."""
        n = self.P.arity
        failed = np.concatenate([table.take(self._partial_rows) == 0,
                                 _witness_vanishes(table, self._left, self._right,
                                                   self.P.ctx.p)])
        violations = []
        for k in self._live[failed].tolist():
            m = _multiplicand(n, k, False)
            violations.append((m, "vanishes identically in the free variables"
                               if m.kind == WITNESS else "evaluates to 0 at the assignment"))
        return GoodnessReport(not violations, violations, len(self._zero) - len(self._live))


def is_locally_rop(P: MPoly, a) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """All C(n,3) trivariate restrictions at a read-once?

    The restriction to a triple I, written in shifted coordinates
    x_k = a_k + u_k, is the 8-term polynomial with coefficients
    {d_S P(a) : S inside I}; one evaluation of P's Taylor plan at a
    tabulates them all (decomp._taylor_table), and every triple's entries
    go to the closed-form decision at once (_failing_triple).  A
    one-variable affine shift keeps a formula read-once, so each triple gets
    the verdict of its restriction.  The first failing triple in
    lexicographic order is returned as the witness.  Fewer than 3
    variables: trivially read-once.
    """
    _require_multilinear(P)
    n = P.arity
    if n < 3:
        return True, None
    if len(a) != n:
        raise ArityMismatch(f"assignment length {len(a)} != arity {n}")
    ctx = P.ctx
    I = _failing_triple(_taylor_table(P, [ctx.coerce(v) for v in a]), n, ctx.p)
    return I is None, I


def _failing_triple(table, n: int, p: int) -> Optional[Tuple[int, int, int]]:
    """The first triple, in lexicographic order, whose restriction is not
    read-once, read from P's Taylor table at the assignment; None if every
    one is.  The (8, C(n,3)) entries of all triples are gathered and decided
    in one call (decomp._trivariate_rop)."""
    sub = _subsets(n)
    rop = _trivariate_rop(table.take(sub.triple_rows, axis=0), 1, 2, 4, p)
    if rop.all():
        return None
    return tuple(sub.triples[rop.argmin()].tolist())


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
        # one table at a serves the certificate check and the triple scan
        table = _taylor_table(P, a)
        last = checker._check_table(table)
        if last.good:
            witness = _failing_triple(table, n, p)
            verdict = ROP if witness is None else READ_MANY
            return CharacterizeReport(verdict, a, witness, attempt, last, seed)
    return CharacterizeReport(INDETERMINATE, None, None, max_retries, last, seed,
                              "no certified assignment within the retry budget")
