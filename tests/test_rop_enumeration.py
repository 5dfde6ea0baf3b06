"""Definition-level ground truth for the read-once deciders.

Every read-once formula on at most k variables over GF(p) is expanded into
its vector of 2^k coefficients, indexed by the bit mask of the monomial's
variables, straight from the grammar: constants; leaves alpha*x + beta with
alpha != 0; f + g and f*g + c with f, g on disjoint nonempty variable sets.
Constant leaves inside a formula only scale a subformula or add a constant,
which the grammar already covers.  The grammar calls nothing of the
package; the trivariate set is compared exhaustively with trivariate_is_rop,
with its closed form on raw coefficients, as arrays and as unreduced ints,
and with the reference recursion brute_force_is_rop, which is also checked
on four variables over GF(2).
"""

import itertools
import random

import numpy as np
import pytest

from ropcheck.decomp import _trivariate_rop, trivariate_is_rop
from ropcheck.ff import FieldCtx
from ropcheck.mpoly import MPoly
from ropcheck.reference import brute_force_is_rop


def _monos(k):
    """The monomial of each bit mask over k variables."""
    return [tuple((v, 1) for v in range(k) if mask >> v & 1) for mask in range(1 << k)]


MONOS = _monos(3)


def _add(f, g, p):
    return tuple((a + b) % p for a, b in zip(f, g))


def _mul(f, g, p):
    """Product of coefficient vectors on disjoint variable sets."""
    h = [0] * len(f)
    for m1, a in enumerate(f):
        if a:
            for m2, b in enumerate(g):
                if b:
                    h[m1 | m2] = (h[m1 | m2] + a * b) % p
    return tuple(h)


def read_once_vectors(p, k=3):
    """Coefficient vectors of every read-once polynomial on x1..xk."""
    size = 1 << k

    def const(c):
        return (c,) + (0,) * (size - 1)

    live = {0: {const(c) for c in range(p)}}
    for v in range(k):
        live[1 << v] = {tuple(beta if m == 0 else alpha if m == 1 << v else 0
                              for m in range(size))
                        for alpha in range(1, p) for beta in range(p)}
    # masks in increasing order, so that both parts of a split come first
    for mask in range(3, size):
        if mask & (mask - 1) == 0:
            continue
        out = set()
        # every unordered split of mask into two nonempty parts
        for left in range(1, mask):
            right = mask ^ left
            if left & ~mask or left > right:
                continue
            for f in live[left]:
                for g in live[right]:
                    out.add(_add(f, g, p))
                    fg = _mul(f, g, p)
                    for c in range(p):
                        out.add(_add(fg, const(c), p))
        live[mask] = out
    return set().union(*live.values())


@pytest.mark.parametrize("p, count", [(2, 152), (3, 2_025), (5, 46_625)])
def test_trivariate_is_rop_matches_formula_enumeration(p, count):
    ctx = FieldCtx(p)
    rop = read_once_vectors(p)
    assert len(rop) == count
    decided = set()
    for coeffs in itertools.product(range(p), repeat=8):
        P = MPoly(ctx, 3, {m: c for m, c in zip(MONOS, coeffs) if c})
        if trivariate_is_rop(P):
            decided.add(coeffs)
    assert decided == rop
    # the closed form on raw coefficients: all p^8 vectors at once as int64
    # columns, as the testers pass them, in the three slot orders
    vectors = np.array(list(itertools.product(range(p), repeat=8)), dtype=np.int64)
    want = np.array([tuple(v) in rop for v in vectors.tolist()])
    for slots in ((1, 2, 4), (4, 2, 1), (2, 4, 1)):
        assert np.array_equal(_trivariate_rop(vectors.T, *slots, p), want)


@pytest.mark.parametrize("p", [2, 3])
def test_closed_form_reads_unreduced_coefficients(p):
    # the scalar form, which trivariate_is_rop reads (is_locally_rop passes
    # arrays), on coefficients given as unreduced Python ints
    rop = read_once_vectors(p)
    rng = random.Random(p)
    for coeffs in itertools.product(range(p), repeat=8):
        raw = [c + p * rng.randrange(1 << 40) for c in coeffs]
        assert _trivariate_rop(raw, 1, 2, 4, p) == (coeffs in rop)


@pytest.mark.parametrize("p", [2, 3])
def test_brute_force_matches_formula_enumeration_on_three_variables(p):
    # the reference recursion on all p^8 trivariate coefficient vectors
    ctx = FieldCtx(p)
    rop = read_once_vectors(p)
    for coeffs in itertools.product(range(p), repeat=8):
        P = MPoly(ctx, 3, {m: c for m, c in zip(MONOS, coeffs) if c})
        assert brute_force_is_rop(P) == (coeffs in rop), coeffs


def test_brute_force_matches_formula_enumeration_on_four_variables():
    # GF(2), four variables: every read-once vector and a seeded sample of
    # 2,000 of the others (all 65,536 take about 9 s)
    ctx, monos = FieldCtx(2), _monos(4)
    rop = read_once_vectors(2, 4)
    assert len(rop) == 2_680
    others = [v for v in itertools.product(range(2), repeat=16) if v not in rop]
    for coeffs in sorted(rop) + random.Random(4).sample(others, 2_000):
        P = MPoly(ctx, 4, {m: c for m, c in zip(monos, coeffs) if c})
        assert brute_force_is_rop(P) == (coeffs in rop), coeffs
