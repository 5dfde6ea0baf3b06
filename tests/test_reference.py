"""The reference module shares no code with the fast path it checks.

ropcheck.reference holds the exact ground truths (the split test, the
materialized witness, the gate graph, brute_force_is_rop).  These tests
enforce both directions: the reference imports only the field, polynomial
and error layers, and the certificate, the structural proof, the testers and
the hard-case sweeps never call it, not even through decomp's bindings that
the benchmark's tracer wraps.
"""

import ast
import inspect
import random
import sys
from pathlib import Path

import ropcheck
from ropcheck import decomp, reference
from ropcheck.charax import characterize
from ropcheck.ff import FieldCtx
from ropcheck.hardcases import q_n
from ropcheck.mpoly import random_multilinear

SRC = Path(reference.__file__).resolve().parent
FAST_PATH = ("decomp", "structure", "charax", "testers", "hardcases")


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _reference_objects():
    """Every function and class that reference.py defines, by name."""
    return {name: obj for name, obj in vars(reference).items()
            if (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == reference.__name__}


def test_reference_imports_only_the_arithmetic_layers():
    allowed = {"ff", "mpoly", "errors"}
    seen = set()
    for node in ast.walk(_tree("reference")):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                # from . import x names package modules too
                names = [node.module] if node.module else [a.name for a in node.names]
            elif node.module.startswith("ropcheck"):
                names = [node.module.partition(".")[2] or node.names[0].name]
            else:
                continue
            seen.update(names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("ropcheck") for a in node.names)
    assert seen and seen <= allowed, seen


def test_fast_path_calls_no_reference_name():
    # a call counts if its name is one that reference.py defines, or if the
    # module's binding of that name is a reference object (an alias)
    defined = {node.name for node in _tree("reference").body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    objects = set(_reference_objects().values())
    assert {"decompose", "commutator", "brute_force_is_rop", "decomp_witness"} <= defined
    for module in FAST_PATH:
        mod = sys.modules[f"ropcheck.{module}"]
        calls = []
        for node in ast.walk(_tree(module)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name, bound = func.id, getattr(mod, func.id, None)
            elif isinstance(func, ast.Attribute):
                name, bound = func.attr, None
                if isinstance(func.value, ast.Name):
                    owner = getattr(mod, func.value.id, None)
                    if inspect.ismodule(owner):
                        bound = getattr(owner, func.attr, None)
            else:
                continue
            if name in defined or any(bound is obj for obj in objects):
                calls.append((node.lineno, name))
        assert not calls, (module, calls)


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the fast path called reference.{name}")
    return refuse


def _probe_miss_and_gf3_inputs():
    """q_10 over GF(1009), whose first probe pair misses two certificate
    glue sets, and random GF(3) multilinear inputs, where the probes miss
    often enough that tags reach the exact slot test."""
    rng = random.Random(31)
    polys = [q_n(10, FieldCtx(1009))]
    polys += [random_multilinear(FieldCtx(3), n, rng) for n in (3, 4, 5, 6) for _ in range(6)]
    return polys


def test_characterize_runs_with_every_reference_function_refusing(monkeypatch):
    want = [characterize(P, 7) for P in _probe_miss_and_gf3_inputs()]
    objects = _reference_objects()
    for name, obj in objects.items():
        monkeypatch.setattr(reference, name, _refuse(name))
    for name in ("brute_force_is_rop", "commutator", "decompose", "find_nonzero_point"):
        assert getattr(decomp, name) is objects[name]
        monkeypatch.setattr(decomp, name, _refuse(name))
    # and every other binding of a reference object inside the package
    for module in [ropcheck] + [sys.modules[f"ropcheck.{m}"] for m in FAST_PATH]:
        for key, value in list(vars(module).items()):
            if any(value is obj for obj in objects.values()):
                monkeypatch.setattr(module, key, _refuse(key))
    slot_tests = []
    slot_vanishes = decomp._slot_vanishes

    def counted(*args):
        slot_tests.append(args)
        return slot_vanishes(*args)

    monkeypatch.setattr(decomp, "_slot_vanishes", counted)
    # fresh polynomials, so that no witness tag is memoized from the first
    # pass
    got = [characterize(P, 7) for P in _probe_miss_and_gf3_inputs()]
    assert got == want
    assert slot_tests, "no input reached the exact fallback"

