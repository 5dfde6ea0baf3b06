"""Tests of the benchmark itself: generators, reference labels, tracing.

Run from the repository root:

    python3 -m pytest bench -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from ropcheck import charax, decomp, hardcases  # noqa: E402
from ropcheck.decomp import brute_force_is_rop  # noqa: E402
from ropcheck.ff import FieldCtx  # noqa: E402
from ropcheck.mpoly import parse_poly_file  # noqa: E402
from ropcheck.rof import Rof  # noqa: E402


def _polynomial(text):
    body = [ln for ln in text.splitlines() if ln.strip()][1]
    return Rof.parse(text).expand() if body.lstrip().startswith("(") else parse_poly_file(text)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_instances(name):
    first = [op.text for op in workloads.build(name, 7).ops]
    again = [op.text for op in workloads.build(name, 7).ops]
    other = [op.text for op in workloads.build(name, 8).ops]
    assert first == again
    assert first != other


@pytest.mark.parametrize("part", ["exact-rop", "exact-hard", "blackbox"])
def test_labels_match_brute_force(part):
    seen = {}
    for op in workloads.PARTS[part](3).ops:
        if op.n > 6 or seen.get((op.n, op.expect), 0) >= 3 or op.kind == "property_test":
            continue
        seen[(op.n, op.expect)] = seen.get((op.n, op.expect), 0) + 1
        expect_rop = op.expect == workloads.ROP
        assert brute_force_is_rop(_polynomial(op.text)) == expect_rop, op.name
    assert sum(seen.values()) >= 3


def test_sweep_rule_matches_is_locally_rop_on_all_of_q6_over_gf3():
    Q = hardcases.q_n(6, FieldCtx(3))
    for a in itertools.product(range(3), repeat=6):
        ok, _ = charax.is_locally_rop(Q, a)
        assert (workloads.sweep_label(a) == workloads.ROP) == ok, a


def test_sweep_assignments_cover_both_labels():
    labels = {op.expect for op in workloads.PARTS["sweep"](1).ops}
    assert labels == {workloads.ROP, workloads.READ_MANY}


def test_workloads_are_their_parts_in_order():
    for name, parts in workloads.WORKLOADS.items():
        whole = [op.text for op in workloads.build(name, 5).ops]
        assert whole == [op.text for part in parts for op in workloads.PARTS[part](5).ops]


def test_costs_cancel_a_uniformly_slower_host():
    run = bench_run.Run(2)
    fast = [(0, 0.010, 0.001), (1, 0.030, 0.001)] * 6
    run.records = fast + [(i, 2 * lat, 2 * ref) for i, lat, ref in fast]
    assert bench_run.typical(run.costs()) == pytest.approx([10.0, 30.0])
    assert bench_run.typical(run.latencies()) == pytest.approx([0.015, 0.045])


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_of_nested_spans():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("a", 5.0, 9.0, 0),
        _span("c", 6.0, 7.0, 3),
        _span("a", 7.0, 8.0, 3),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 1.0, 1.0]
    t = tracing.Tracer()
    t.spans.extend(spans)
    t.fold()
    assert t.calls["a"] == 3
    assert t.self_s["a"] == 5.0
    assert t.total_s["a"] == 7.0   # the nested "a" is inside an outer "a"
    assert t.total_s["op"] == 10.0
    assert not t.spans


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0.0, 10.0, -1), _span("x", 1.0, 5.0, 0),
             _span("y", 3.0, 7.0, 0), _span("z", 9.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_wraps_from_import_bindings_and_restores_them():
    original = decomp.witness_is_zero
    t = tracing.install(tracing.Tracer())
    try:
        assert charax.witness_is_zero is decomp.witness_is_zero is not original
        Q = hardcases.q_n(4, FieldCtx(101))
        t.run(0, lambda: charax.characterize(Q, 1))
    finally:
        t.uninstall()
    assert charax.witness_is_zero is decomp.witness_is_zero is original
    assert t.calls["charax.characterize"] == 1
    assert t.calls["decomp.witness_is_zero.J0"] > 0
    assert t.calls["decomp.witness_is_zero.J1"] > 0
    assert t.counts["ff.coerce.calls"] > 0


def _main(monkeypatch, capsys, name, size, trace):
    """bench/run.py's main on the first size instances of a workload's pool."""
    build = workloads.build

    def small_pool(workload, seed):
        pool = build(workload, seed)
        pool.ops = pool.ops[:size]
        return pool

    monkeypatch.setattr(bench_run, "MIN_OPS", 1)
    monkeypatch.setattr(bench_run, "MIN_PASSES", 1)
    monkeypatch.setattr(workloads, "build", small_pool)
    status = bench_run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                             "--trace", str(trace)])
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_violated_reference_fails_the_run(monkeypatch, capsys):
    real = charax.characterize

    def wrong(P, rng, *args, **kwargs):
        rep = real(P, rng, *args, **kwargs)
        return charax.CharacterizeReport(charax.READ_MANY, rep.assignment, (0, 1, 2),
                                         rep.attempts, rep.goodness, rep.seed)

    monkeypatch.setattr(charax, "characterize", wrong)
    status, result = _main(monkeypatch, capsys, "exact", 3, 0)
    assert status != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 3


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(monkeypatch, capsys, trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status, result = _main(monkeypatch, capsys, "local", 2, trace)
    assert status == 0 and result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "local", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
