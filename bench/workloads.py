"""Instance pools for the ropcheck benchmark, each with a reference label.

There are two workloads, each made of two parts:

    exact   exact-rop (characterize on expanded read-once formulas) and
            exact-hard (characterize on q_n and read-many variants)
    local   blackbox (read_once_test and property_test on oracles) and
            sweep (is_locally_rop on q_10 over GF(5) at drawn assignments)

Every instance is derived from (part, seed, index) through its own
string-seeded random stream, so the same seed always gives the same pool.
What makes an instance expensive is fixed by the index alone: the tree shape
and gate kinds of a formula, the slots and combination of a read-many
variant, the coordinates of a sweep assignment that are 0 or 1.  The seed
draws everything else: variable placement, leaf and affine coefficients,
constants, the sweep coordinates outside {0, 1}, and the rng handed to
the program.  Marginally each instance is still distributed exactly as the
program's own generator draws it, but every seed runs the same mix of costs,
which is what keeps run-to-run spread small.

Reference labels hold by construction and never call the decider:

* an expanded read-once formula is read-once;
* q_k (k >= 3) is read-many, an invertible affine map on each slot keeps it
  so, and G*H + c or G + H with H a read-once polynomial on the other slots
  stays read-many, because restricting H's slots to a point where H is
  nonzero gives back an affine image of G, and a restriction of a read-once
  polynomial is read-once;
* q_10 over GF(5) is locally read-once at a exactly when at least 4
  coordinates of a lie in {0, 1}: with 3 or fewer, the triple holding them
  restricts to a * prod(x - 1) + b * prod(x) with a, b != 0; with 4 or more,
  every restriction fixes a 0 or a 1, which kills one of the two products.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ropcheck import charax, hardcases, testers
from ropcheck.ff import FieldCtx
from ropcheck.mpoly import MPoly
from ropcheck.rof import Gate, Leaf, Rof, as_oracle, random_rof

EXACT_P = 1009
SWEEP_P = 5
SWEEP_N = 10
SWEEP_THRESHOLD = 4

# Pool sizes: one pass over a workload's pool takes about 4-5 s at the seed
# commit on a 2-core x86 container, so a 45 s run is about eight whole passes
# and each instance's median latency rests on about eight samples.
ROP_PER_ARITY = 8
HARD_PER_ARITY = 5
HARD_Q_ARITIES = (5, 6)
BLACKBOX_ROF_PER_ARITY = 3
BLACKBOX_HARD_PER_ARITY = 1
SWEEP_ASSIGNMENTS = 20

ROP = charax.ROP
READ_MANY = charax.READ_MANY


@dataclass
class Op:
    """One timed call into the program, with what it must answer."""
    name: str                     # stable label, e.g. "rof n=7 #3"
    n: int
    kind: str                     # the public function the operation calls
    expect: str                   # ROP / READ_MANY, or the sweep rule's verdict
    text: str                     # the instance in the program's text formats
    call: Callable[[], object]    # the timed operation
    terms: Callable[[], int]      # term count of the instance (untimed)


@dataclass
class Pool:
    workload: str
    seed: int
    fields: tuple
    ops: list


def _rng(*key) -> random.Random:
    return random.Random("ropbench/" + "/".join(map(str, key)))


def _draw_seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


def _with_fresh_leaves(skeleton: Rof, rng: random.Random) -> Rof:
    """Same tree shape and gates; variable placement and leaves from rng."""
    ctx, n = skeleton.ctx, skeleton.arity
    perm = rng.sample(range(n), n)

    def go(node):
        if isinstance(node, Leaf):
            return Leaf(perm[node.var], 1 + rng.randrange(ctx.p - 1),
                        rng.randrange(ctx.p))
        return Gate(node.op, go(node.left), go(node.right))

    return Rof(ctx, n, go(skeleton.root))


def seeded_rof(ctx: FieldCtx, n: int, workload: str, index, seed: int) -> Rof:
    """A random_rof formula whose shape comes from the index, leaves from the seed."""
    skeleton = random_rof(ctx, n, _rng(workload, "shape", n, index))
    return _with_fresh_leaves(skeleton, _rng(workload, seed, "leaves", n, index))


def shifted_q(ctx: FieldCtx, n: int, slots, rng: random.Random) -> MPoly:
    """q_k(a_1 x_s1 + b_1, ...) on the given slots, a_t != 0."""
    low = MPoly.constant(ctx, n, 1)
    high = MPoly.constant(ctx, n, 1)
    for s in slots:
        a = 1 + rng.randrange(ctx.p - 1)
        b = rng.randrange(ctx.p)
        low = low * MPoly.affine(ctx, n, s, a, b - 1)
        high = high * MPoly.affine(ctx, n, s, a, b)
    return low + high


def read_many_variant(ctx: FieldCtx, n: int, workload: str, index, seed: int) -> MPoly:
    """Shifted q_k on k >= 3 slots, joined to a read-once H on the rest."""
    shape = _rng(workload, "shape", n, index)
    k = shape.randint(3, n)
    slots = sorted(shape.sample(range(n), k))
    product = shape.randrange(2) == 0
    values = _rng(workload, seed, "values", n, index)
    G = shifted_q(ctx, n, slots, values)
    rest = [s for s in range(n) if s not in slots]
    if not rest:
        return G
    H = seeded_rof(ctx, len(rest), workload + "/H", (n, index), seed)
    H = H.expand().embed(n, dict(enumerate(rest)))
    if product:
        return G * H + MPoly.constant(ctx, n, values.randrange(ctx.p))
    return G + H


def _characterize_op(name, n, instance, expect, rng_seed) -> Op:
    """characterize on a polynomial, or on a formula expanded inside the call."""
    if isinstance(instance, Rof):
        poly = lambda: instance.expand()
    else:
        poly = lambda: instance
    return Op(name, n, "characterize", expect, instance.to_text(),
              lambda: charax.characterize(poly(), rng_seed), lambda: len(poly().terms))


def exact_rop(seed: int) -> Pool:
    ctx = FieldCtx(EXACT_P)
    ops = []
    for index in range(ROP_PER_ARITY):
        for n in (5, 6, 7):
            f = seeded_rof(ctx, n, "exact-rop", index, seed)
            s = _draw_seed(_rng("exact-rop", seed, "rng", n, index))
            ops.append(_characterize_op(f"rof n={n} #{index}", n, f, ROP, s))
    return Pool("exact-rop", seed, (EXACT_P,), ops)


def exact_hard(seed: int) -> Pool:
    ctx = FieldCtx(EXACT_P)
    ops = []
    for n in HARD_Q_ARITIES:
        s = _draw_seed(_rng("exact-hard", seed, "rng", n, "q"))
        ops.append(_characterize_op(f"q_{n}", n, hardcases.q_n(n, ctx), READ_MANY, s))
    for index in range(HARD_PER_ARITY):
        for n in (5, 6, 7):
            P = read_many_variant(ctx, n, "exact-hard", index, seed)
            s = _draw_seed(_rng("exact-hard", seed, "rng", n, index))
            ops.append(_characterize_op(f"variant n={n} #{index}", n, P, READ_MANY, s))
    return Pool("exact-hard", seed, (EXACT_P,), ops)


def blackbox(seed: int) -> Pool:
    """Both testers on each oracle; 3 of every 4 oracles are read-once formulas."""
    ctx = FieldCtx(EXACT_P)
    ops = []
    per_arity = BLACKBOX_ROF_PER_ARITY + BLACKBOX_HARD_PER_ARITY
    for index in range(per_arity):
        for n in (6, 7, 8):
            if index < BLACKBOX_ROF_PER_ARITY:
                obj = seeded_rof(ctx, n, "blackbox", index, seed)
                expect, tag = ROP, "rof"
                terms = lambda f=obj: len(f.expand().terms)
            else:
                obj = read_many_variant(ctx, n, "blackbox", index, seed)
                expect, tag = READ_MANY, "variant"
                terms = lambda P=obj: len(P.terms)
            oracle = as_oracle(obj)
            rng = _rng("blackbox", seed, "rng", n, index)
            s_rot, s_prop = _draw_seed(rng), _draw_seed(rng)
            ops.append(Op(f"read_once_test {tag} n={n} #{index}", n, "read_once_test",
                          expect, obj.to_text(),
                          lambda o=oracle, n=n, s=s_rot:
                          testers.read_once_test(o, n, n, 0.25, s, cache=True),
                          terms))
            ops.append(Op(f"property_test {tag} n={n} #{index}", n, "property_test",
                          expect, obj.to_text(),
                          lambda o=oracle, n=n, s=s_prop:
                          testers.property_test(o, n, 0.5, s),
                          terms))
    return Pool("blackbox", seed, (EXACT_P,), ops)


def sweep_label(a) -> str:
    """The sweep reference: locally read-once iff >= 4 coordinates in {0, 1}."""
    hits = sum(1 for v in a if v in (0, 1))
    return ROP if hits >= SWEEP_THRESHOLD else READ_MANY


def sweep_assignment(index, seed: int):
    """Uniform point of GF(5)^10: the index fixes the coordinates that are 0 or 1.

    Substituting 0 removes terms and substituting 1 keeps them, so those
    coordinates set the cost; the seed draws the others from {2, 3, 4}.
    """
    mask = _rng("sweep", "mask", index)
    values = _rng("sweep", seed, "values", index)
    out = []
    for _ in range(SWEEP_N):
        v = mask.randrange(SWEEP_P)
        out.append(v if v < 2 else 2 + values.randrange(SWEEP_P - 2))
    return tuple(out)


def sweep(seed: int) -> Pool:
    Q = hardcases.q_n(SWEEP_N, FieldCtx(SWEEP_P))
    ops = []
    for index in range(SWEEP_ASSIGNMENTS):
        a = sweep_assignment(index, seed)
        ops.append(Op(f"assignment #{index}", SWEEP_N, "is_locally_rop", sweep_label(a),
                      " ".join(map(str, a)),
                      lambda a=a: charax.is_locally_rop(Q, a),
                      lambda: len(Q.terms)))
    return Pool("sweep", seed, (SWEEP_P,), ops)


# A workload is the concatenation of its parts' pools.  Each part keeps its
# own name in the instance streams, so a part's instances do not depend on
# which workload it is in.
PARTS = {"exact-rop": exact_rop, "exact-hard": exact_hard,
         "blackbox": blackbox, "sweep": sweep}
WORKLOADS = {"exact": ("exact-rop", "exact-hard"),
             "local": ("blackbox", "sweep")}
NAMES = tuple(WORKLOADS)


def build(workload: str, seed: int) -> Pool:
    pools = [PARTS[part](seed) for part in WORKLOADS[workload]]
    fields = tuple(sorted({p for pool in pools for p in pool.fields}))
    return Pool(workload, seed, fields, [op for pool in pools for op in pool.ops])


def _is_triple(I, n) -> bool:
    return (I is not None and len(I) == 3 and len(set(I)) == 3
            and all(0 <= t < n for t in I))


def check(op: Op, out) -> Optional[str]:
    """Why out contradicts op's reference label, or None when it agrees."""
    if op.kind == "characterize":
        if out.verdict != op.expect:
            return f"verdict {out.verdict}, expected {op.expect}"
        if out.verdict == READ_MANY and not _is_triple(out.witness_I, op.n):
            return f"READ_MANY without a witness triple: {out.witness_I}"
        return None
    if op.kind == "is_locally_rop":
        ok, I = out
        if (ROP if ok else READ_MANY) != op.expect:
            return f"is_locally_rop says {ok}, rule says {op.expect}"
        if not ok and not _is_triple(I, op.n):
            return f"no failing triple: {I}"
        return None
    if op.expect == ROP:
        return None if out.verdict == testers.YES else \
            f"{out.verdict} on a read-once oracle (failing {out.failing_I})"
    if out.verdict == testers.NO and not _is_triple(out.failing_I, op.n):
        return f"NO without a failing triple: {out.failing_I}"
    return None


def counts(op: Op, out) -> dict:
    """Deterministic work counts of one operation (no tracing needed)."""
    if op.kind == "characterize":
        return {"attempts": out.attempts,
                "certified": int(out.verdict != charax.INDETERMINATE),
                "skipped_zero": out.goodness.skipped_zero if out.goodness else 0}
    if op.kind == "is_locally_rop":
        return {"full_scans": int(out[0])}
    return {"queries": out.queries,
            "readmany_calls": int(op.expect == READ_MANY),
            "readmany_rejects": int(op.expect == READ_MANY and out.verdict == testers.NO)}
