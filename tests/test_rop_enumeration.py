"""Definition-level ground truth for the trivariate read-once decider.

Every read-once formula on at most 3 variables over GF(p) is expanded into
its vector of 8 coefficients, indexed by the bit mask of the monomial's
variables, straight from the grammar: constants; leaves alpha*x + beta with
alpha != 0; f + g and f*g + c with f, g on disjoint nonempty variable sets.
Constant leaves inside a formula only scale a subformula or add a constant,
which the grammar already covers.  Nothing here calls the decomposition
layer; the set is compared exhaustively with trivariate_is_rop and with
its closed form on raw coefficients, as arrays and as unreduced ints.
"""

import itertools
import random

import numpy as np
import pytest

from ropcheck.decomp import _trivariate_rop, trivariate_is_rop
from ropcheck.ff import FieldCtx
from ropcheck.mpoly import MPoly

MONOS = [tuple((v, 1) for v in range(3) if mask >> v & 1) for mask in range(8)]


def _add(f, g, p):
    return tuple((a + b) % p for a, b in zip(f, g))


def _mul(f, g, p):
    """Product of coefficient vectors on disjoint variable sets."""
    h = [0] * 8
    for m1, a in enumerate(f):
        if a:
            for m2, b in enumerate(g):
                if b:
                    h[m1 | m2] = (h[m1 | m2] + a * b) % p
    return tuple(h)


def read_once_vectors(p):
    """Coefficient vectors of every read-once polynomial on x1, x2, x3."""
    def const(c):
        return (c,) + (0,) * 7

    live = {0: {const(c) for c in range(p)}}
    for v in range(3):
        live[1 << v] = {tuple(beta if m == 0 else alpha if m == 1 << v else 0
                              for m in range(8))
                        for alpha in range(1, p) for beta in range(p)}
    for mask in (3, 5, 6, 7):
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
    # is_locally_rop passes Taylor-table entries as unreduced Python ints
    rop = read_once_vectors(p)
    rng = random.Random(p)
    for coeffs in itertools.product(range(p), repeat=8):
        raw = [c + p * rng.randrange(1 << 40) for c in coeffs]
        assert _trivariate_rop(raw, 1, 2, 4, p) == (coeffs in rop)
