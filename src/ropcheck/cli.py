"""Command-line interface.

Subcommands:
  check       exact read-once characterization of a polynomial file
  blackbox    one-sided black-box read-once test of a formula/polynomial file
  property    27-point property test of a formula/polynomial file
  gen         write instance files (qn | rof | multilinear)
  experiment  qn-fraction sweeps, tau statistics, trivariate enumeration

Exit codes: 0 = YES/ROP, 1 = NO/READ_MANY, 2 = parse or config error, or
out of memory, 3 = precondition violation, 4 = INDETERMINATE.

Output is deterministic for a fixed command line and seed; there are no
timestamps.  --json swaps the human lines for one JSON document.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys

from . import charax, hardcases, testers
from .decomp import trivariate_is_rop
from .errors import (
    DegreeTooSmall,
    Error,
    FieldTooSmall,
    InvalidParams,
    NotMultilinear,
    NotPrime,
    OutOfRange,
    ParseError,
    ReadOnceViolation,
    ScaleGuardExceeded,
    TooFewVariables,
    TooManyVariables,
    guard_scale,
)
from .ff import FieldCtx
from .mpoly import MPoly, content_lines, parse_poly_file, random_multilinear
from .reference import brute_force_is_rop
from .rof import Rof, as_oracle, random_rof

EXIT_YES = 0
EXIT_NO = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_INDETERMINATE = 4

_CONFIG_ERRORS = (ParseError, InvalidParams, ScaleGuardExceeded, NotPrime,
                  OutOfRange, ReadOnceViolation)
_PRECONDITION_ERRORS = (NotMultilinear, FieldTooSmall, DegreeTooSmall,
                        TooManyVariables, TooFewVariables)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_text(path, text: str):
    """Write text to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _load_instance(path: str):
    """Polynomial or formula, chosen by the shape of the body line."""
    text = _read_text(path)
    lines = content_lines(text)
    if len(lines) < 2:
        raise ParseError(f"{path}: expected a header line and a body")
    if lines[1].lstrip().startswith("("):
        return Rof.parse(text)
    return parse_poly_file(text)


def _emit(args, payload: dict, human_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _fmt_subset(I) -> str:
    return " ".join(f"x{t + 1}" for t in I)


# ---- check ----

def cmd_check(args) -> int:
    obj = _load_instance(args.file)
    P = obj.expand() if isinstance(obj, Rof) else obj
    n = P.arity
    threshold = 1.5 * n**3
    if P.ctx.p < threshold and not args.json:
        print(f"warning: p={P.ctx.p} is below the recommended 1.5*n^3 = "
              f"{threshold:.0f}; good assignments may not exist", file=sys.stderr)
    report = charax.characterize(P, args.seed, max_retries=args.retries)
    lines = [f"verdict: {report.verdict}", f"attempts: {report.attempts}"]
    if report.assignment is not None:
        lines.append("assignment: " + " ".join(map(str, report.assignment)))
    if report.witness_I is not None:
        lines.append("witness subset: " + _fmt_subset(report.witness_I))
    if report.verdict == charax.INDETERMINATE and report.goodness is not None:
        for m, why in report.goodness.violations:
            lines.append(f"bad multiplicand: {m.describe()} ({why})")
    if report.note:
        lines.append(f"note: {report.note}")
    _emit(args, report.to_json_dict(), lines)
    if report.verdict == charax.ROP:
        return EXIT_YES
    if report.verdict == charax.READ_MANY:
        return EXIT_NO
    return EXIT_INDETERMINATE


# ---- blackbox / property ----

def _oracle_and_n(path: str):
    obj = _load_instance(path)
    return as_oracle(obj), obj.arity


def _run_battery(args, runner) -> int:
    """Shared driver: single run exits by verdict, --repeat > 1 reports a rate."""
    if args.repeat < 1:
        raise InvalidParams(f"--repeat must be >= 1, got {args.repeat}")
    if args.repeat == 1:
        report = runner(args.seed)
        lines = [f"verdict: {report.verdict}", f"queries: {report.queries}",
                 f"repeats: {report.repeats}"]
        if report.failing_I is not None:
            lines.append("failing subset: " + _fmt_subset(report.failing_I))
            lines.append(f"failure kind: {report.failure_kind}")
        _emit(args, report.to_json_dict(), lines)
        return EXIT_YES if report.verdict == testers.YES else EXIT_NO
    reports = [runner(args.seed + t) for t in range(args.repeat)]
    noes = sum(1 for r in reports if r.verdict == testers.NO)
    rate = noes / len(reports)
    payload = {
        "runs": [r.to_json_dict() for r in reports],
        "no_count": noes,
        "no_rate": rate,
    }
    lines = [f"runs: {len(reports)}", f"no: {noes}", f"no_rate: {rate:.4f}"]
    _emit(args, payload, lines)
    return EXIT_YES


def cmd_blackbox(args) -> int:
    oracle, n = _oracle_and_n(args.file)
    d = args.degree if args.degree is not None else n
    bound = testers.recommended_field_size(n, d, args.epsilon)
    if oracle.ctx.p < bound:
        print(f"warning: p={oracle.ctx.p} is below max(1.5*n^4, d)/epsilon = "
              f"{bound:.0f}; the rejection guarantee does not apply",
              file=sys.stderr)
    return _run_battery(
        args, lambda seed: testers.read_once_test(
            oracle, n, d, args.epsilon, seed, cache=not args.no_cache))


def cmd_property(args) -> int:
    oracle, n = _oracle_and_n(args.file)
    return _run_battery(
        args, lambda seed: testers.property_test(oracle, n, args.delta, seed))


# ---- gen ----

def cmd_gen(args) -> int:
    ctx = FieldCtx(args.p)
    if args.kind == "qn":
        text = hardcases.q_n(args.n, ctx).to_text()
    elif args.kind == "rof":
        text = random_rof(ctx, args.n, args.seed, args.vars).to_text()
    else:
        text = random_multilinear(ctx, args.n, random.Random(args.seed)).to_text()
    _write_text(args.out, text)
    return EXIT_YES


# ---- experiment ----

def cmd_experiment_qn_fraction(args) -> int:
    try:
        ns = [int(tok) for tok in str(args.n).split(",")]
    except ValueError:
        raise ParseError(f"--n must be an integer or a comma list of them, "
                         f"got {args.n!r}") from None
    ctx = FieldCtx(args.p)
    rows = [hardcases.local_rop_fraction(hardcases.q_n(n, ctx), args.samples,
                                         args.seed, args.threads)
            for n in ns]
    if args.json:
        print(json.dumps([dataclasses.asdict(row) for row in rows], sort_keys=True))
    else:
        out_lines = [hardcases.SWEEP_CSV_HEADER] + [r.to_csv_row() for r in rows]
        _write_text(args.out, "\n".join(out_lines) + "\n")
    return EXIT_YES


def cmd_experiment_tau(args) -> int:
    oracle, n = _oracle_and_n(args.file)
    est = testers.tau_estimate(oracle, n, args.samples, args.seed)
    payload = {"fraction": est.fraction, "stderr": est.stderr,
               "samples": est.samples}
    _emit(args, payload, [f"fraction: {est.fraction:.6f}",
                          f"stderr: {est.stderr:.6f}",
                          f"samples: {est.samples}"])
    return EXIT_YES


_TRIVARIATE_MONOS = [
    (), ((0, 1),), ((1, 1),), ((2, 1),),
    ((0, 1), (1, 1)), ((0, 1), (2, 1)), ((1, 1), (2, 1)),
    ((0, 1), (1, 1), (2, 1)),
]


def _enum_case(ctx, coeffs) -> bool:
    """True when the fast trivariate test disagrees with brute force."""
    P = MPoly(ctx, 3, dict(zip(_TRIVARIATE_MONOS, coeffs)), _canonical=True)
    return trivariate_is_rop(P) != brute_force_is_rop(P)


def _enum_worker(job):
    """Disagreements among the cases k in [lo, hi) (hardcases.sweep_cases):
    with seed None, case k's coefficients are k's base-p digits."""
    p, seed, lo, hi = job
    ctx = FieldCtx(p)
    return sum(1 for coeffs in hardcases.sweep_cases(p, 8, seed, lo, hi)
               if _enum_case(ctx, coeffs))


def cmd_experiment_trivariate_enum(args) -> int:
    p = args.p
    FieldCtx(p)  # a bad modulus exits 2 before any worker starts
    if args.samples is None:
        cases, seed = p ** 8, None
        guard_scale(cases, "coefficient vectors (pass --samples to subsample)")
    elif args.samples < 1:
        raise InvalidParams(f"need at least one sample, got {args.samples}")
    else:
        cases, seed = args.samples, args.seed
    bad = hardcases.range_sum(_enum_worker, (p, seed), cases, args.threads)
    payload = {"cases": cases, "disagreements": bad}
    _emit(args, payload, [f"{cases} cases, {bad} disagreements"])
    return EXIT_YES if bad == 0 else EXIT_NO


# ---- parser ----

def _common(sub, *, seed=True, js=True, threads=False):
    if seed:
        sub.add_argument("--seed", type=int, default=0,
                         help="PRNG seed (default 0)")
    if js:
        sub.add_argument("--json", action="store_true",
                         help="emit one JSON document instead of text")
    if threads:
        sub.add_argument("--threads", type=int, default=1,
                         help="worker process cap for sweeps (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropcheck",
        description="exact and black-box read-once tests for multilinear "
                    "polynomials over prime fields")
    subs = parser.add_subparsers(dest="cmd", required=True)

    sc = subs.add_parser("check", help="exact characterization of a polynomial file")
    sc.add_argument("file")
    sc.add_argument("--retries", type=int, default=16,
                    help="assignment samples before INDETERMINATE (default 16)")
    _common(sc)

    sb = subs.add_parser("blackbox", help="one-sided black-box read-once test")
    sb.add_argument("file")
    sb.add_argument("--degree", type=int, default=None,
                    help="degree bound d (default: the file's arity)")
    sb.add_argument("--epsilon", type=float, default=0.25,
                    help="soundness parameter (default 0.25)")
    sb.add_argument("--repeat", type=int, default=1,
                    help="seeded batch size; > 1 reports the rejection rate")
    sb.add_argument("--no-cache", action="store_true",
                    help="disable query caching (exact query accounting)")
    _common(sb)

    sp = subs.add_parser("property", help="27-point property test")
    sp.add_argument("file")
    sp.add_argument("--delta", type=float, default=0.1,
                    help="distance parameter (default 0.1)")
    sp.add_argument("--repeat", type=int, default=1,
                    help="seeded batch size; > 1 reports the rejection rate")
    _common(sp)

    sg = subs.add_parser("gen", help="write instance files")
    sg.add_argument("kind", choices=("qn", "rof", "random-multilinear"))
    sg.add_argument("--p", type=int, default=101, help="field modulus (default 101)")
    sg.add_argument("--n", type=int, required=True, help="arity")
    sg.add_argument("--vars", type=int, default=None,
                    help="rof only: how many slots appear (default n)")
    sg.add_argument("--out", default=None, help="output path (default stdout)")
    _common(sg, js=False)

    se = subs.add_parser("experiment", help="sweeps and statistics")
    se_subs = se.add_subparsers(dest="experiment", required=True)

    sq = se_subs.add_parser("qn-fraction",
                            help="locality fraction of the hard family")
    sq.add_argument("--p", type=int, required=True)
    sq.add_argument("--n", required=True,
                    help="arity, or a comma list like 4,5,6")
    sq.add_argument("--samples", type=int, default=2000)
    sq.add_argument("--out", default=None, help="CSV path (default stdout)")
    _common(sq, threads=True)

    st = se_subs.add_parser("tau", help="aligned-triple nonlinearity fraction")
    st.add_argument("file")
    st.add_argument("--samples", type=int, default=1000)
    _common(st)

    sv = se_subs.add_parser("trivariate-enum",
                            help="fast-vs-brute-force agreement over GF(p)")
    sv.add_argument("--p", type=int, required=True)
    sv.add_argument("--samples", type=int, default=None,
                    help="random subsample size (default: exhaustive)")
    _common(sv, threads=True)

    return parser


_DISPATCH = {
    "check": cmd_check,
    "blackbox": cmd_blackbox,
    "property": cmd_property,
    "gen": cmd_gen,
}

_EXPERIMENTS = {
    "qn-fraction": cmd_experiment_qn_fraction,
    "tau": cmd_experiment_tau,
    "trivariate-enum": cmd_experiment_trivariate_enum,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        if args.cmd == "experiment":
            return _EXPERIMENTS[args.experiment](args)
        return _DISPATCH[args.cmd](args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("error: out of memory; the input needs more memory than is available",
              file=sys.stderr)
        return EXIT_CONFIG
    except RecursionError:
        print("error: the input is nested too deeply to process", file=sys.stderr)
        return EXIT_CONFIG


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
