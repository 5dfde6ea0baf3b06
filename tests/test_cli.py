"""Command-line surface: exit codes, JSON output, determinism, experiments."""

import json

from ropcheck import testers
from ropcheck.cli import main
from ropcheck.mpoly import MPoly, parse_poly_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_qn_then_check_rejects(tmp_path, capsys):
    path = tmp_path / "q4.txt"
    assert main(["gen", "qn", "--p", "1009", "--n", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "verdict: READ_MANY" in out
    assert "witness subset:" in out


def test_gen_rof_then_check_accepts(tmp_path, capsys):
    path = tmp_path / "f.txt"
    assert main(["gen", "rof", "--p", "1009", "--n", "5", "--seed", "3",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "verdict: ROP" in out


def test_gen_deterministic_stdout(capsys):
    code1, out1, _ = run(capsys, "gen", "rof", "--p", "101", "--n", "8", "--seed", "7")
    code2, out2, _ = run(capsys, "gen", "rof", "--p", "101", "--n", "8", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    _, other, _ = run(capsys, "gen", "rof", "--p", "101", "--n", "8", "--seed", "8")
    assert other != out1


def test_gen_random_multilinear_parses(capsys):
    code, out, _ = run(capsys, "gen", "random-multilinear", "--n", "4", "--seed", "2")
    assert code == 0
    P = parse_poly_file(out)
    assert P.arity == 4 and P.is_multilinear()


def test_check_json_schema(tmp_path, capsys):
    path = tmp_path / "q4.txt"
    main(["gen", "qn", "--p", "1009", "--n", "4", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, "check", str(path), "--json", "--seed", "5")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "READ_MANY"
    assert doc["seed"] == 5
    assert isinstance(doc["witness_I"], list) and min(doc["witness_I"]) >= 1


def test_check_deterministic_for_seed(tmp_path, capsys):
    path = tmp_path / "q5.txt"
    main(["gen", "qn", "--p", "1009", "--n", "5", "--out", str(path)])
    capsys.readouterr()
    _, out1, _ = run(capsys, "check", str(path), "--seed", "9")
    _, out2, _ = run(capsys, "check", str(path), "--seed", "9")
    assert out1 == out2


def test_check_indeterminate_exit_code(tmp_path, capsys):
    path = tmp_path / "q4.txt"
    main(["gen", "qn", "--p", "1009", "--n", "4", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, "check", str(path), "--retries", "0")
    assert code == 4
    assert "INDETERMINATE" in out


def test_check_rejects_negative_retries(tmp_path, capsys):
    path = tmp_path / "q4.txt"
    main(["gen", "qn", "--p", "1009", "--n", "4", "--out", str(path)])
    capsys.readouterr()
    for retries in ("-1", "-3"):
        code, out, err = run(capsys, "check", str(path), "--retries", retries)
        assert code == 2 and out == ""
        assert "max_retries >= 0" in err


def test_gen_qn_over_limit_exit_2(capsys, monkeypatch):
    def no_products(*args):
        raise AssertionError("q_n ran past the scale guard")

    monkeypatch.setattr(MPoly, "__mul__", no_products)
    code, out, err = run(capsys, "gen", "qn", "--n", "21")
    assert code == 2 and out == ""
    assert "2097152 terms of q_n" in err


def test_experiment_threads_below_one_exit_2(capsys):
    for threads in ("0", "-1"):
        for argv in (("qn-fraction", "--p", "5", "--n", "4"),
                     ("qn-fraction", "--p", "101", "--n", "4", "--samples", "5"),
                     ("trivariate-enum", "--p", "2"),
                     ("trivariate-enum", "--p", "5", "--samples", "5")):
            code, out, err = run(capsys, "experiment", *argv, "--threads", threads)
            assert code == 2 and out == "", argv
            assert "threads >= 1" in err


def test_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "error:" in err
    code, _, _ = run(capsys, "check", str(tmp_path / "missing.txt"))
    assert code == 2


def test_unwritable_out_path_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing"
    for argv in (("gen", "qn", "--n", "4"),
                 ("experiment", "qn-fraction", "--p", "5", "--n", "4")):
        code, out, err = run(capsys, *argv, "--out", str(missing / "x.txt"))
        assert code == 2 and out == "", argv
        assert "error: cannot write" in err and "Traceback" not in err


def test_non_multilinear_exit_3(tmp_path, capsys):
    path = tmp_path / "sq.txt"
    path.write_text("field p=101 n=2\nx1^2 + x2\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 3
    assert "error:" in err


def test_check_over_gf2_exits_3(tmp_path, capsys):
    # goodness certification needs p >= 3 once the arity reaches 3
    path = tmp_path / "q3.txt"
    path.write_text("field p=2 n=3\nx1*x2*x3 + x1 + x2 + x3 + 1\n")
    for argv in (["check", str(path)], ["check", str(path), "--json"]):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "error: goodness certification needs p >= 3" in err
        assert "Traceback" not in err


def test_nullary_file_exits_3_without_traceback(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("field p=101 n=0\n7\n")
    for argv in (["property", str(path)], ["blackbox", str(path)],
                 ["experiment", "tau", str(path)]):
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert "error:" in err and "Traceback" not in err


def test_qn_fraction_bad_arity_list_exit_2(capsys):
    code, _, err = run(capsys, "experiment", "qn-fraction", "--p", "5", "--n", "4,x")
    assert code == 2
    assert "error:" in err and "Traceback" not in err


def test_unknown_arguments_exit_2(capsys):
    assert main(["bogus"]) == 2
    assert main(["check"]) == 2
    assert main(["gen", "qn", "--n", "4", "--p", "6"]) == 2
    capsys.readouterr()


def test_blackbox_accepts_formula_file(tmp_path, capsys):
    path = tmp_path / "f.txt"
    main(["gen", "rof", "--p", "101", "--n", "4", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    code, out, err = run(capsys, "blackbox", str(path), "--seed", "3")
    assert code == 0
    assert "verdict: YES" in out
    # 101 < 1.5 * 4^4 / 0.25
    assert "warning" in err


def test_blackbox_rejects_hard_case(tmp_path, capsys):
    path = tmp_path / "q6.txt"
    main(["gen", "qn", "--p", "11677", "--n", "6", "--out", str(path)])
    capsys.readouterr()
    # Sweep seeds until one rejects; the acceptance suite measures the rate.
    for seed in range(5):
        code, out, _ = run(capsys, "blackbox", str(path), "--seed", str(seed), "--json")
        if code == 1:
            doc = json.loads(out)
            assert doc["verdict"] == "NO"
            assert doc["failure_kind"] in ("NOT_ROP", "NOT_MULTILINEAR")
            return
    raise AssertionError("no rejection in 5 seeds")


def test_blackbox_refuses_oversized_grid(tmp_path, capsys, monkeypatch):
    # --degree 1000 over GF(1009) passes the field-size check, but its
    # 1001^3-point grids would not fit in memory
    def no_grids(*args):
        raise AssertionError("the scan ran past the grid scale guard")

    monkeypatch.setattr(testers, "_check_batch", no_grids)
    path = tmp_path / "q5.txt"
    main(["gen", "qn", "--p", "1009", "--n", "5", "--out", str(path)])
    capsys.readouterr()
    code, out, err = run(capsys, "blackbox", str(path), "--degree", "1000")
    assert code == 2 and out == ""
    assert "1003003001 grid points per subset" in err and "Traceback" not in err


def test_blackbox_repeat_reports_rate(tmp_path, capsys):
    path = tmp_path / "f.txt"
    main(["gen", "rof", "--p", "40961", "--n", "4", "--seed", "2", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, "blackbox", str(path), "--repeat", "3", "--seed", "0")
    assert code == 0
    assert "runs: 3" in out and "no_rate: 0.0000" in out


def test_property_commands(tmp_path, capsys):
    path = tmp_path / "f.txt"
    main(["gen", "rof", "--p", "1009", "--n", "4", "--seed", "5", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, "property", str(path), "--delta", "0.5", "--seed", "1")
    assert code == 0
    assert "verdict: YES" in out
    assert "repeats: 6" in out


def test_property_rejects_polynomial_file(tmp_path, capsys):
    path = tmp_path / "e2.txt"
    path.write_text("field p=1009 n=3\nx1*x2 + x2*x3 + x1*x3\n")
    code, out, _ = run(capsys, "property", str(path), "--delta", "0.5", "--seed", "0")
    assert code == 1
    assert "verdict: NO" in out
    assert "failing subset: x1 x2 x3" in out


def test_experiment_qn_fraction_gf2(capsys):
    code, out, _ = run(capsys, "experiment", "qn-fraction", "--p", "2", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,n,samples,good_fraction,stderr"
    assert lines[1] == "2,4,16,1.000000,0.000000"


def test_experiment_qn_fraction_multi_n(capsys):
    code, out, _ = run(capsys, "experiment", "qn-fraction", "--p", "2", "--n", "4,5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("2,5,32,1.000000")


def test_experiment_qn_fraction_independent_of_threads(capsys):
    outs = []
    for threads in ("1", "2"):
        code, out, _ = run(capsys, "experiment", "qn-fraction", "--p", "5", "--n", "10",
                           "--samples", "40", "--threads", threads)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[1].startswith("5,10,40,")


def test_experiment_tau_multilinear(tmp_path, capsys):
    path = tmp_path / "f.txt"
    main(["gen", "rof", "--p", "1009", "--n", "5", "--seed", "4", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, "experiment", "tau", str(path), "--samples", "200")
    assert code == 0
    assert "fraction: 0.000000" in out


def test_experiment_trivariate_enum_sampled(capsys):
    code, out, _ = run(capsys, "experiment", "trivariate-enum", "--p", "5",
                       "--samples", "300", "--seed", "1")
    assert code == 0
    assert out.strip() == "300 cases, 0 disagreements"


def test_experiment_trivariate_enum_sampled_independent_of_threads(capsys):
    outs = []
    for threads in ("1", "2"):
        code, out, _ = run(capsys, "experiment", "trivariate-enum", "--p", "5",
                           "--samples", "200", "--threads", threads)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == "200 cases, 0 disagreements\n"


def test_experiment_qn_fraction_work_guard_exit_2(capsys):
    # 2**16 assignments times C(16, 3) triples: about ten days of work
    code, out, err = run(capsys, "experiment", "qn-fraction", "--p", "2", "--n", "16")
    assert code == 2 and out == ""
    assert "36700160 triple restrictions in the sweep" in err


def test_property_round_work_guard_exit_2(tmp_path, capsys):
    # delta -> 0 asks for ceil(3 / (1e-9 + 20^-4)) = 479,924 rounds of
    # C(20,3) grids; the guard refuses the run before its first query
    path = tmp_path / "f20.rof"
    assert main(["gen", "rof", "--p", "1009", "--n", "20", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "property", str(path), "--delta", "1e-9")
    assert code == 2 and out == ""
    assert "error:" in err and "exceed the limit" in err


def test_experiment_trivariate_enum_scale_guard(capsys):
    code, _, err = run(capsys, "experiment", "trivariate-enum", "--p", "11")
    assert code == 2
    assert "error:" in err


def test_experiment_trivariate_enum_rejects_bad_sample_count(capsys):
    for samples in ("0", "-1"):
        code, out, err = run(capsys, "experiment", "trivariate-enum", "--p", "5",
                             "--samples", samples)
        assert code == 2 and out == ""
        assert "at least one sample" in err


def test_check_has_no_mode_option(capsys):
    code, _, err = run(capsys, "check", "q4.txt", "--mode", "fast")
    assert code == 2
    assert "--mode" in err


def test_huge_arity_files_exit_2(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("field p=101 n=100000\nx1*x2\n")
    wide = tmp_path / "wide.txt"
    wide.write_text("field p=1009 n=47\nx1*x47 + 1\n")
    for cmd, path in (("check", huge), ("blackbox", huge), ("property", huge),
                      ("check", wide)):
        code, _, err = run(capsys, cmd, str(path))
        assert code == 2, (cmd, path.name)
        assert "exceed the limit" in err


def test_check_refuses_formula_expansion_over_limit(tmp_path, capsys, monkeypatch):
    # 21 factors (x_i + 1) expand to 2^21 = 2,097,152 terms; the guard must
    # refuse before any product is formed
    def no_products(*args):
        raise AssertionError("expand ran past the scale guard")

    monkeypatch.setattr(MPoly, "__mul__", no_products)
    body = "(leaf 1 1 1)"
    for v in range(2, 22):
        body = f"(* {body} (leaf {v} 1 1))"
    path = tmp_path / "wide.rof"
    path.write_text(f"field p=1009 n=21\n{body}\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "2097152 expansion terms" in err
