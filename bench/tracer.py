"""Span tracing of ropcheck's layers, installed from outside the program.

The tracer replaces public functions and methods with wrappers that record a
span (name, start, end, parent, operation id) per call.  Module functions are
replaced under every name bound to them in the package, so calls through a
`from ... import` binding are traced too.  Functions called millions of times
get a call counter and no span.

Spans of one operation are kept in memory until the operation ends, then
folded into per-name totals: calls, self time (the span's duration minus the
part of it that child spans cover) and total time (counted once per
outermost span of that name).
"""

from __future__ import annotations

import functools
import time
from collections import Counter

NAME, START, END, PARENT, OP = range(5)


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    spans is a list of [name, start, end, parent, op] records in which every
    parent precedes its children; parent is an index into spans or -1.
    """
    children = [[] for _ in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for rec, kids in zip(spans, children):
        lo, hi = rec[START], rec[END]
        covered = 0.0
        reach = lo
        for s, e in sorted(kids):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out.append(hi - lo - covered)
    return out


class Tracer:
    """Records spans and counts; fold() turns an operation's spans into totals."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.span_count = 0
        self._saved = []

    # ---- wrappers ----

    def span(self, name, fn, name_of=None, points_of=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nm = name if name_of is None else name_of(args, kwargs)
            if points_of is not None:
                counts[nm + ".points"] += points_of(args)
            rec = [nm, clock(), 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- installing ----

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr, name, counter_only=False, **kw):
        fn = cls.__dict__[attr]
        self._set(cls, attr, self.counter(name, fn) if counter_only
                  else self.span(name, fn, **kw))

    def wrap_function(self, modules, home, attr, name, **kw):
        """Trace home.attr under every module-level name bound to it."""
        fn = getattr(home, attr)
        wrapper = self.span(name, fn, **kw)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapper)

    def wrap_binding(self, module, attr, name):
        """Count calls made through one module's binding of a function."""
        self._set(module, attr, self.counter(name, getattr(module, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ---- operations ----

    def run(self, op_id, fn):
        """Call fn() as operation op_id under a root span, then fold its spans."""
        self.op = op_id
        try:
            return self.span("op", fn)()
        finally:
            self.fold()

    def fold(self):
        spans = self.spans
        for rec, own in zip(spans, self_times(spans)):
            name = rec[NAME]
            self.calls[name] += 1
            self.self_s[name] += own
            parent = rec[PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                self.total_s[name] += rec[END] - rec[START]
        self.span_count += len(spans)
        spans.clear()

    def snapshot(self):
        return (Counter(self.calls), Counter(self.self_s), Counter(self.total_s),
                Counter(self.counts))


def install(tracer: Tracer):
    """Wrap the public layer functions of ropcheck; returns the tracer."""
    import ropcheck
    from ropcheck import charax, decomp, ff, hardcases, mpoly, rof, testers
    from ropcheck.mpoly import MPoly
    from ropcheck.rof import Oracle, Rof

    modules = (ropcheck, ff, mpoly, rof, decomp, charax, testers, hardcases)
    npoints = lambda args: len(args[1])

    for attr, name in (("__mul__", "mpoly.mul"), ("__add__", "mpoly.add"),
                       ("__sub__", "mpoly.sub"), ("__neg__", "mpoly.neg"),
                       ("scale", "mpoly.scale"), ("restrict", "mpoly.restrict"),
                       ("restrict_many", "mpoly.restrict_many"),
                       ("partial", "mpoly.partial"), ("partial2", "mpoly.partial2"),
                       ("embed", "mpoly.embed"), ("variables", "mpoly.variables"),
                       ("is_multilinear", "mpoly.is_multilinear"),
                       ("evaluate", "mpoly.evaluate")):
        tracer.wrap_method(MPoly, attr, name)
    tracer.wrap_method(MPoly, "eval_batch", "mpoly.eval_batch", points_of=npoints)
    tracer.wrap_method(MPoly, "eval_raw", "mpoly.eval_raw.calls", counter_only=True)
    tracer.wrap_method(MPoly, "is_zero", "mpoly.is_zero.calls", counter_only=True)
    tracer.wrap_method(ff.FieldCtx, "coerce", "ff.coerce.calls", counter_only=True)
    tracer.wrap_function(modules, mpoly, "interpolate_grid", "mpoly.interpolate_grid",
                         points_of=lambda args: len(args[2]))

    tracer.wrap_method(Rof, "expand", "rof.expand")
    tracer.wrap_method(Rof, "eval_batch", "rof.eval_batch", points_of=lambda args: len(args[1]))
    tracer.wrap_method(Oracle, "query", "rof.query")
    tracer.wrap_method(Oracle, "query_many", "rof.query_many", points_of=npoints)

    def witness_name(args, kwargs):
        shared = args[3] if len(args) > 3 else kwargs.get("shared", ())
        return f"decomp.witness_is_zero.J{len(shared)}"

    tracer.wrap_function(modules, decomp, "witness_is_zero", None, name_of=witness_name)
    for attr in ("decompose", "commutator", "find_nonzero_point", "trivariate_is_rop"):
        tracer.wrap_function(modules, decomp, attr, "decomp." + attr)
    # every charax call of trivariate_is_rop is one triple of is_locally_rop
    tracer.wrap_binding(charax, "trivariate_is_rop", "charax.is_locally_rop.triples")

    tracer.wrap_function(modules, charax, "characterize", "charax.characterize")
    tracer.wrap_function(modules, charax, "is_locally_rop", "charax.is_locally_rop")
    tracer.wrap_method(charax.GoodnessChecker, "__init__", "charax.certificate")
    tracer.wrap_method(charax.GoodnessChecker, "check", "charax.goodness_check")

    tracer.wrap_function(modules, testers, "read_once_test", "testers.read_once_test")
    tracer.wrap_function(modules, testers, "property_test", "testers.property_test")
    tracer.wrap_function(modules, hardcases, "q_n", "hardcases.q_n")
    return tracer
