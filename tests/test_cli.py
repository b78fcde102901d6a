import contextlib
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdeweak
from sdeweak import cli, freealg, heston_bench, moment_match, rk_trees, sampling
from sdeweak.cli import main
from sdeweak.heston_bench import REFERENCE_PRICE


def _no_pool(*args, **kwargs):
    raise AssertionError("a rejected config must not reach the thread pool")


def _no_paths(*args, **kwargs):
    raise AssertionError("a refused run must not run a path")


def _no_cells(*args, **kwargs):
    raise AssertionError("a refused run must not price a cell")


def _no_work(*args, **kwargs):
    raise AssertionError("a refused run must not build a word or a tree")


def _refuse_pricing(monkeypatch):
    # converge checks every cell before it prices one, and price_cell checks
    # every level of its cell before it estimates one
    monkeypatch.setattr(heston_bench, "price_cell", _no_cells)
    for name in ("estimate", "run_paths"):
        monkeypatch.setattr(heston_bench, name, _no_paths)


SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


# 2(2u - 1) = 2^120: c1 = 2^59 and c2 = 1 - 2^59 are exact, but float c1 + c2 = 0
CANCELLING_U = "664613997892457936451903530140172289/2"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyMoments:
    def test_solution_family_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify-moments", "--u", "0.75", "--branch", "lower")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "word,coefficient,target,residual"
        assert len(lines) == 1 + 119  # words of scaled degree <= 5 over {v0, v1, v2}
        assert all(line.endswith(",0") for line in lines[1:])
        assert "PASS" in err

    def test_rational_u_spelling(self, capsys):
        code, out, _ = run_cli(capsys, "verify-moments", "--u", "3/4")
        assert code == 0

    def test_cancelling_u_keeps_its_exact_check(self, capsys):
        # the exact family is rational; only the pricing path's floats cancel
        code, out, err = run_cli(capsys, "verify-moments", "--u", CANCELLING_U)
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 119
        assert "mode=exact" in err and "PASS" in err

    def test_perturbation_fails_with_named_row(self, capsys):
        code, out, err = run_cli(capsys, "verify-moments", "--u", "0.75",
                                 "--branch", "lower", "--perturb", "R12=+0.1")
        assert code == 1
        assert "v1.v1,3/5,1/2,1/10" in out.splitlines()
        assert "FAIL" in err

    def test_low_u_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify-moments", "--u", "0.4")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["sdeweak verify-moments: error: u must be >= 1/2, got 2/5"]

    @pytest.mark.parametrize("argv, message", [
        (["price", "--scheme", "em", "--n", "2", "--samples", "10", "--u", "1e5000"],
         "sdeweak price: error: u is too large for a float, got about 1e5000"),
        (["verify-moments", "--u=-1e5000"],
         "sdeweak verify-moments: error: u must be >= 1/2, got about -1e5000"),
        (["verify-moments", "--u", "1e400"],
         "sdeweak verify-moments: error: u is too large for a float, got about 1e400"),
    ], ids=["price-past-str-limit", "negative-past-str-limit", "huge"])
    def test_huge_u_is_named_by_its_power_of_ten(self, capsys, argv, message):
        # str refuses an int past 4300 digits; the rule's line never converts one
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [message]

    def test_irrational_family_member_passes_in_float(self, capsys):
        code, _, err = run_cli(capsys, "verify-moments", "--u", "1", "--branch", "upper")
        assert code == 0
        assert "mode=float" in err

    def test_unknown_perturbation_key_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify-moments", "--perturb", "c1=0.1")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "sdeweak verify-moments: error: only r11, r12, r22 can be perturbed, got 'c1'"]

    def test_perturbation_past_every_float_is_usage_error(self, capsys):
        # a float family takes the shift as a float; this one is infinite
        code, out, err = run_cli(capsys, "verify-moments", "--u", "1", "--perturb", "r12=1e400")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["sdeweak verify-moments: error: r12 must be finite, got inf"]

    @pytest.mark.parametrize("argv, message", [
        (["--m", "-1"], "--m must be an integer >= 1, got -1"),
        (["--d", "-1"], "--d must be an integer >= 1, got -1"),
        (["--m", "0"], "--m must be an integer >= 1, got 0"),
        (["--d", "0"], "--d must be an integer >= 1, got 0"),
    ], ids=["negative-m", "negative-d", "zero-m", "zero-d"])
    def test_bad_argument_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify-moments", *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"sdeweak verify-moments: error: {message}"]

    @pytest.mark.parametrize("argv", [["--m", "5", "--d", "1000"],
                                      ["--m", "1000000000", "--d", "1"]],
                             ids=["wide-alphabet", "huge-degree"])
    def test_too_many_words_refused_before_any_is_built(self, capsys, monkeypatch, argv):
        # --m 5 --d 1000 has 1,001,005,004,006,003 words
        def no_words(*args, **kwargs):
            raise AssertionError("a refused run must not build a word")

        monkeypatch.setattr(freealg, "words_up_to", no_words)
        monkeypatch.setattr(moment_match, "words_up_to", no_words)
        code, out, err = run_cli(capsys, "verify-moments", *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"sdeweak verify-moments: error: --m {argv[1]} --d {argv[3]} has more than "
            "1048576 words (2^20), the most verify-moments builds"]

    @pytest.mark.parametrize("argv, code, digest", [
        (["--u", "5/8", "--branch", "lower"], 0,
         "c9f4b4899c6cfebbac220cfc974a62570030673e2f71b7aa2405262a7dba3c08"),
        (["--u", "5/8", "--branch", "upper"], 0,
         "5d9412d943f17f58e4c7478355b71cfc781df863292ff5e336bd866b0894d311"),
        # R_ij^3 terms: their rounding depends on how the power is formed
        (["--u", "5/8", "--m", "8", "--d", "1"], 1,
         "52eac8391dd1c60677cca460c438ae81d245f937144588bb1ef744fe705488a0"),
        (["--u", "3/4", "--d", "3"], 0,
         "db345ee7142a4caf6f675e36de35b40e3442309b7d1242947126a6f3e49cf5b4"),
        (["--u", "3/4", "--m", "5", "--d", "6"], 0,
         "ec06ecee37b526c214961d0c85ddb9f95085ea0ffc589fc6fe61c795a4e1414a"),
        # u = 1 and 5/8 are float families: their pairing coefficients are rounded
        (["--u", "1"], 0,
         "4c7a31bbff41ceedd1e3b04eda465da5e6a4dbfc41f114c87c5d806ed48ae250"),
        (["--u", "1", "--branch", "upper", "--m", "6"], 1,
         "435457404fec8dd343272caea321340970a266a7f3a80c5dd1fa78313034b580"),
        (["--u", "5/8", "--d", "3"], 0,
         "b175b2f6ff8ffcf6abc020b835e5231d5d5f84f14c49fbe54ca4ed8c332dc63f"),
        (["--u", "3/4", "--m", "7"], 1,
         "99cc2fff593f55228d37df9fcb62b54f21b22a18f8f7e4c2c1ffccef7392fb97"),
    ], ids=["float-lower", "float-upper", "float-m8", "exact-d3", "exact-d6", "float-u1",
            "float-upper-m6", "float-d3", "exact-m7"])
    def test_csv_bytes_pinned(self, capsys, argv, code, digest):
        # sha256 of the CSV computed before the oracle and the moment
        # recursion were rebuilt; the float cases pin rounding, not just values
        got, out, _ = run_cli(capsys, "verify-moments", *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyRkOrder:
    def test_rk5_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify-rk-order", "--tableau", "rk5-butcher",
                                 "--order", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 17
        assert "PASS" in err

    def test_rk5_fails_order_six(self, capsys):
        code, *_ = run_cli(capsys, "verify-rk-order", "--tableau", "rk5-butcher",
                           "--order", "6")
        assert code == 1

    def test_rk7_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-rk-order", "--tableau", "rk7-butcher",
                               "--order", "7")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 85

    def test_tableau_from_json_file(self, capsys, tmp_path):
        path = tmp_path / "midpoint.json"
        path.write_text(json.dumps(
            {"name": "midpoint", "order": 2, "a": [["0", "0"], ["1/2", "0"]],
             "b": ["0", "1"]}))
        code, out, _ = run_cli(capsys, "verify-rk-order", "--tableau", str(path),
                               "--order", "2")
        assert code == 0

    @pytest.mark.parametrize("tableau, order, code, digest", [
        ("rk5-butcher", "5", 0, "29d31c550a7ffaffd471842cff67a51857f2c974862805663a093ee1a5de6531"),
        ("rk5-butcher", "6", 1, "08c2051f115402bf92bb28d31d9166313fc26d15b932d534083da503449c8f85"),
        ("rk7-butcher", "8", 1, "5874feb5372936d2cd00e2b8e1ce2dd34d05de778797b6c1484ab37a50145d40"),
        ({"name": "midpoint", "order": 2, "a": [["0", "0"], ["1/2", "0"]], "b": ["0", "1"]},
         "3", 1, "0f6472e4c8005cbb78557db0545056f1df617a31fe22a61a5949f81c5327f4a4"),
        # all-zero weights: every rhs is the Fraction 0, printed "0"
        ({"name": "zero-b", "order": 1, "a": [["0", "0"], ["1/2", "0"]], "b": ["0", "0"]},
         "2", 1, "b04d567db1b7bb4837770fbeeba08ffb96a85d4aa4007f5da9ff6a974635438f"),
    ], ids=["rk5-order5", "rk5-order6", "rk7-order8", "midpoint-order3", "zero-b-order2"])
    def test_csv_bytes_pinned(self, capsys, tmp_path, tableau, order, code, digest):
        # sha256 of stdout, read before the weights and the conditions shared one stage sum
        if isinstance(tableau, dict):
            path = tmp_path / "tableau.json"
            path.write_text(json.dumps(tableau))
            tableau = str(path)
        got, out, _ = run_cli(capsys, "verify-rk-order", "--tableau", tableau, "--order", order)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("order", ["15", "20", "40"])
    def test_order_above_14_refused_before_any_tree_is_built(self, capsys, monkeypatch,
                                                             order):
        # order 14 takes about 20 s to enumerate and each order about 6x more
        def no_trees(*args, **kwargs):
            raise AssertionError("a refused order must not build a tree")

        monkeypatch.setattr(rk_trees, "trees_up_to", no_trees)
        code, out, err = run_cli(capsys, "verify-rk-order", "--tableau", "rk5-butcher",
                                 "--order", order)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"sdeweak verify-rk-order: error: --order must be <= 14, got {order}"]

    def test_order_14_is_accepted(self, capsys, monkeypatch):
        asked = []
        monkeypatch.setattr(rk_trees, "trees_up_to", lambda m: asked.append(m) or [])
        code, *_ = run_cli(capsys, "verify-rk-order", "--tableau", "rk5-butcher",
                           "--order", "14")
        assert (code, asked) == (0, [14])

    def test_unknown_builtin_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-rk-order", "--tableau", "rk9-mystery", "--order", "9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("content, reason", [
        ({"order": 1, "a": [["1/0"]], "b": ["1"]}, "Fraction(1, 0)"),
        ({"order": 1, "a": 5, "b": ["1"]}, "'int' object is not iterable"),
        ([1, 2], "a tableau must be a JSON object, got list"),
    ], ids=["zero-denominator", "non-list-a", "top-level-list"])
    def test_bad_tableau_file_is_usage_error(self, capsys, tmp_path, content, reason):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as exc:
            main(["verify-rk-order", "--tableau", str(path), "--order", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "sdeweak verify-rk-order: error: argument --tableau: "
            f"cannot load tableau file {path}: {reason}"]


class TestPrice:
    def test_single_row_csv(self, capsys):
        code, out, err = run_cli(capsys, "price", "--scheme", "nn", "--n", "2",
                                 "--mode", "qmc", "--samples", "20000", "--workers", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "scheme,n,samples,mode,romberg,estimate,error"
        assert lines[1].startswith("nn,2,20000,qmc,0,")
        assert "estimate=" in err

    def test_worker_count_invariance(self, capsys):
        outs = []
        for w in ("1", "2"):
            _, out, _ = run_cli(capsys, "price", "--scheme", "nn", "--n", "2",
                                "--mode", "qmc", "--samples", "20000", "--workers", w)
            outs.append(out)
        assert outs[0] == outs[1]

    def test_mc_seed_changes_result(self, capsys):
        outs = []
        for seed in ("0", "1"):
            _, out, _ = run_cli(capsys, "price", "--scheme", "em", "--n", "4",
                                "--mode", "mc", "--samples", "10000", "--seed", seed)
            outs.append(out)
        assert outs[0] != outs[1]

    def test_timings_column_optional(self, capsys):
        _, out, _ = run_cli(capsys, "price", "--scheme", "em", "--n", "2",
                            "--mode", "qmc", "--samples", "5000", "--timings")
        assert out.splitlines()[0].endswith(",seconds")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "row.csv"
        code, out, _ = run_cli(capsys, "price", "--scheme", "nn", "--n", "2",
                               "--mode", "qmc", "--samples", "5000", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("scheme,n,samples")

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["price", "--scheme", "nn", "--n", "2", "--mode", "qmc",
                  "--samples", "100", "--frobnicate"])
        assert exc.value.code == 2

    def test_indivisible_mc_samples_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "price", "--scheme", "em", "--n", "2",
                               "--mode", "mc", "--samples", "1001")
        assert code == 2
        assert "divisible" in err

    def test_odd_romberg_partitions_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "price", "--scheme", "nn", "--n", "3",
                               "--romberg", "--mode", "qmc", "--samples", "1000")
        assert code == 2
        assert "even" in err

    def test_zero_samples_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "price", "--scheme", "em", "--n", "2",
                                 "--mode", "qmc", "--samples", "0")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["sdeweak price: error: --samples must be an integer "
                                    ">= 1, got 0"]

    @pytest.mark.parametrize("argv, message", [
        (["--n", "0", "--samples", "10"], "--n must be an integer >= 1, got 0"),
        (["--n", "2", "--samples", str(2**32 + 1)],
         "--samples must be <= 4294967296, got 4294967297"),
        (["--n", "2", "--samples", "10", "--u", "1e40"],
         "u is too large for the closed form in floats, got 1e+40"),
        (["--n", "2", "--samples", "10", "--u", "1e308"],
         "u is too large for the closed form in floats, got 1e+308"),
        (["--n", "2", "--samples", "10", "--workers", "100000"],
         "workers must be <= 256, got 100000"),
    ], ids=["zero-n", "huge-samples", "huge-u-closed-form", "huge-radicand-u", "huge-workers"])
    def test_bad_argument_is_usage_error(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", _no_pool)
        code, out, err = run_cli(capsys, "price", "--scheme", "nn", *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"sdeweak price: error: {message}"]

    @pytest.mark.parametrize("argv, skip, samples", [
        (["--samples", "40000", "--sobol-skip", "4294937296"], 4294937296, 40000),
        (["--samples", "4294967296"], 1, 4294967296),
    ], ids=["skip-near-the-end", "full-index-space"])
    def test_sobol_index_space_refused_before_any_path(self, capsys, monkeypatch, argv,
                                                      skip, samples):
        def no_paths(*args, **kwargs):
            raise AssertionError("a refused QMC cell must not run a path")

        monkeypatch.setattr(heston_bench, "run_paths", no_paths)
        code, out, err = run_cli(capsys, "price", "--scheme", "nn", "--n", "2",
                                 "--mode", "qmc", "--workers", "1", *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "sdeweak price: error: sobol_skip + samples must be <= 2^32 (the Sobol index "
            f"space), got sobol_skip {skip} and samples {samples}"]

    @pytest.mark.parametrize("argv, dim", [
        (["--scheme", "nn", "--n", "257"], 1028),
        (["--scheme", "nv", "--n", "342"], 1026),
        (["--scheme", "em", "--n", "514", "--romberg"], 1028),
    ], ids=["nn", "nv", "em-romberg-fine-level"])
    def test_sobol_width_refused_before_any_cell(self, capsys, monkeypatch, argv, dim):
        # the direction table holds 1025 coordinates; n steps of width 2d, 1 + d
        # or d (d = 2), at the fine level n of a Romberg cell
        _refuse_pricing(monkeypatch)
        code, out, err = run_cli(capsys, "price", *argv, "--samples", "100", "--workers", "1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"sdeweak price: error: requested {dim} Sobol dimensions; "
            "direction table supports 1025"]

    @pytest.mark.parametrize("argv", [
        ["--scheme", "nn", "--n", "256"], ["--scheme", "nv", "--n", "341"],
        ["--scheme", "em", "--n", "512", "--romberg"], ["--scheme", "nn", "--n", "257",
                                                        "--mode", "mc"]],
        ids=["nn", "nv", "em-romberg", "nn-mc"])
    def test_sobol_width_at_the_table_runs(self, capsys, monkeypatch, argv):
        priced = []

        def record(config, cell):
            priced.append(cell)
            return heston_bench.CellResult(cell, 0.0, None, 0.0, 0.0)

        monkeypatch.setattr(cli, "price_cell", record)
        code, *_ = run_cli(capsys, "price", *argv, "--samples", "100", "--workers", "1")
        assert (code, len(priced)) == (0, 1)

    @pytest.mark.parametrize("argv, message", [
        (["--samples", "2005"], "MC sample count must be divisible by 10"),
        (["--samples", "2000", "--seed", str(2**128)],
         f"seed must be < 2^128 for an MC cell (the Philox key), got {2**128}"),
    ], ids=["indivisible-samples", "seed-past-philox-key"])
    def test_mc_cell_refused_before_any_cell(self, capsys, monkeypatch, argv, message):
        _refuse_pricing(monkeypatch)
        code, out, err = run_cli(capsys, "price", "--scheme", "nn", "--n", "2",
                                 "--mode", "mc", *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"sdeweak price: error: {message}"]

    @pytest.mark.parametrize("scheme", ["em", "nv"])
    def test_cancelling_u_runs_a_scheme_that_does_not_read_it(self, capsys, scheme):
        code, out, _ = run_cli(capsys, "price", "--scheme", scheme, "--n", "2",
                               "--samples", "1000", "--workers", "1", "--u", CANCELLING_U)
        assert code == 0
        assert out.splitlines()[1].startswith(f"{scheme},2,1000,qmc,0,")

    @pytest.mark.parametrize("branch", ["lower", "upper"])
    def test_cancelling_u_refused_before_any_path(self, capsys, monkeypatch, branch):
        monkeypatch.setattr(heston_bench, "run_paths", _no_paths)
        code, out, err = run_cli(capsys, "price", "--scheme", "nn", "--n", "2",
                                 "--samples", "10", "--workers", "1", "--branch", branch,
                                 "--u", CANCELLING_U)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "sdeweak price: error: u is too large for the closed form in floats, "
            f"got {CANCELLING_U}"]

    def test_unparsable_workers_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", _no_pool)
        with pytest.raises(SystemExit) as exc:
            main(["price", "--scheme", "nn", "--n", "2", "--samples", "10",
                  "--workers", "1e300"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_counts_read_like_config_counts(self, capsys):
        # 1e2 on the command line is the count it is in a config
        code, out, _ = run_cli(capsys, "price", "--scheme", "nn", "--n", "2e0",
                               "--mode", "qmc", "--samples", "1e2", "--workers", "1")
        assert code == 0
        assert out.splitlines()[1].startswith("nn,2,100,qmc,0,")

    @pytest.mark.parametrize("argv, line", [
        (["verify-moments", "--m", "2.5"],
         "sdeweak verify-moments: error: --m must be an integer >= 1, got 2.5"),
        (["verify-rk-order", "--tableau", "rk5-butcher", "--order", "0"],
         "sdeweak verify-rk-order: error: --order must be an integer >= 1, got 0"),
        (["price", "--scheme", "nn", "--n", "2", "--samples", "10", "--frobnicate"],
         "sdeweak price: error: unrecognized arguments: --frobnicate"),
        (["price", "--scheme", "nn", "--n", "two", "--samples", "10"],
         "sdeweak price: error: argument --n: expected an integer or a number a float "
         "holds exactly, got 'two'"),
        (["converge"], "sdeweak converge: error: --config is required"),
    ], ids=["fractional-m", "zero-order", "unknown-flag", "word-n", "no-config"])
    def test_usage_error_is_one_line(self, capsys, argv, line):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [line]

    def test_malformed_config_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "converge", "--config", str(bad))
        assert code == 2


class TestConverge:
    @pytest.fixture
    def config_file(self, tmp_path):
        cfg = {
            "heston": {"mu": 0.05, "alpha": 2.0, "beta": 0.1, "theta": 0.09,
                       "rho": 0.0, "x1": 1.0, "x2": 0.09, "T": 1.0, "K": 1.05},
            "u": "3/4",
            "branch": "lower",
            "seed": 0,
            "sobol_skip": 1,
            "cells": [
                {"scheme": "nn", "n": [1, 2], "samples": 10000, "mode": "qmc"},
                {"scheme": "em", "n": 4, "samples": [10000], "mode": "qmc"},
            ],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_grid_expansion(self, capsys, config_file):
        code, out, err = run_cli(capsys, "converge", "--config", config_file,
                                 "--workers", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 3
        assert [l.split(",")[0] for l in lines[1:]] == ["nn", "nn", "em"]

    def test_rerun_bit_identical(self, capsys, config_file):
        outs = []
        for w in ("1", "2"):
            _, out, _ = run_cli(capsys, "converge", "--config", config_file,
                                "--workers", w)
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg["heston"].update(kappa=1.0), "unknown heston key(s) kappa"),
        (lambda cfg: cfg["cells"][0].update(samples=0), "samples must be an integer >= 1"),
        (lambda cfg: cfg.update(workers="two"), "workers must be an integer >= 1"),
        (lambda cfg: cfg.update(workers=1e300), "workers must be <= 256, got 1e+300"),
        (lambda cfg: cfg.update(workers=100000), "workers must be <= 256, got 100000"),
        (lambda cfg: cfg.update(cells=[]), "config contains no cells"),
        (lambda cfg: cfg.update(cells=[1]), "cells[0]: a cell must be a JSON object, got 1"),
        (lambda cfg: cfg.update(cells=cfg["cells"][0]), "cells must be a list of objects"),
        (lambda cfg: cfg["cells"][1].pop("n"), "cells[1]: missing key(s) n"),
        (lambda cfg: cfg["cells"][0].update(n=2.5),
         "cells[0]: n must be an integer >= 1, got 2.5"),
        (lambda cfg: cfg["cells"][0].update(n=True),
         "cells[0]: n must be an integer >= 1, got True"),
        (lambda cfg: cfg["cells"][0].update(romberg="no"),
         "cells[0]: romberg must be true or false, got 'no'"),
        (lambda cfg: cfg["cells"][0].update(scheme="xx", romberg=True),
         "cells[0]: scheme must be one of nn, em, nv, got 'xx'"),
        (lambda cfg: cfg["cells"][0].update(partitions=4), "cells[0]: unknown key(s) partitions"),
        (lambda cfg: cfg.update(seed=1.7), "seed must be an integer >= 0, got 1.7"),
        (lambda cfg: cfg.update(sobol_skip=0), "sobol_skip must be an integer >= 1, got 0"),
        (lambda cfg: cfg.update(sobol_skp=5), "unknown config key(s) sobol_skp"),
        (lambda cfg: cfg.update(u="1/0"), "u must be a rational number, got '1/0'"),
        (lambda cfg: cfg.update(u=0.25), "u must be >= 1/2, got 1/4"),
        (lambda cfg: cfg.update(u="1e400"), "u is too large for a float, got about 1e400"),
        (lambda cfg: cfg.update(u="1e300"),
         "u is too large for the closed form in floats, got 1e+300"),
        (lambda cfg: cfg.update(branch="middle"), "branch must be upper or lower, got 'middle'"),
        (lambda cfg: cfg.update(nn_tableau="rk9"), "nn_tableau: unknown tableau 'rk9'"),
        (lambda cfg: cfg.update(nv_tableau=[5]), "nv_tableau must be a tableau name, got [5]"),
        (lambda cfg: cfg.update(cells=[{"scheme": "em", "n": 1e15, "samples": 10,
                                        "mode": "mc"}]),
         "out of memory: "),
        (lambda cfg: cfg.update(cells=[{"scheme": "em", "n": 1e15, "samples": 10,
                                        "mode": "qmc"}]),
         "requested 2000000000000000 Sobol dimensions"),
        (lambda cfg: cfg["cells"][0].update(samples=1e300),
         "cells[0]: samples must be <= 4294967296, got 1e+300"),
        (lambda cfg: cfg["heston"].update(K=math.nan), "K must be finite, got nan"),
        (lambda cfg: cfg["heston"].update(mu=math.nan), "mu must be finite, got nan"),
        (lambda cfg: cfg["heston"].update(x1=10**400), "x1 must be finite, got 1000"),
        (lambda cfg: cfg.update(reference=math.nan),
         "reference must be a finite number, got nan"),
        (lambda cfg: cfg.update(reference=-10**400),
         "reference must be a finite number, got -1000"),
    ], ids=["unknown-heston-key", "zero-samples", "non-integer-workers", "huge-workers",
            "many-workers", "no-cells",
            "cell-not-object", "cells-not-list", "cell-without-n", "fractional-n", "boolean-n",
            "string-romberg", "unknown-scheme-romberg", "unknown-cell-key", "fractional-seed",
            "zero-sobol-skip", "unknown-top-level-key", "zero-denominator-u", "low-u",
            "huge-u", "huge-u-closed-form", "unknown-branch", "unknown-tableau",
            "non-string-tableau", "huge-mc-n", "huge-qmc-n", "huge-samples", "nan-strike",
            "nan-mu", "huge-int-price", "nan-reference", "huge-int-reference"])
    def test_bad_config_value_is_usage_error(self, capsys, config_file, edit, message):
        with open(config_file, encoding="utf-8") as fh:
            cfg = json.load(fh)
        edit(cfg)
        with open(config_file, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        code, out, err = run_cli(capsys, "converge", "--config", config_file)
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("sdeweak converge: error: ")
        assert message in line

    @pytest.mark.parametrize("key", ["heston", "u", "branch", "nn_tableau", "nv_tableau",
                                     "seed", "sobol_skip", "reference", "workers", "cells"])
    def test_null_value_is_usage_error(self, capsys, monkeypatch, config_file, key):
        # a JSON null is refused, not read as the default ("workers": null is not
        # every core)
        with open(config_file, encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg[key] = None
        with open(config_file, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", _no_pool)
        _refuse_pricing(monkeypatch)
        code, out, err = run_cli(capsys, "converge", "--config", config_file)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"sdeweak converge: error: {key} must not be null"]

    def test_sobol_index_space_refused_before_any_cell(self, capsys, monkeypatch, config_file):
        # the first cell fits; the second would pass 2^32, so neither may run
        def no_paths(*args, **kwargs):
            raise AssertionError("a refused config must not run a path")

        with open(config_file, encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["sobol_skip"] = 2**32 - 10000
        cfg["cells"][1]["samples"] = [10000, 10001]
        with open(config_file, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        monkeypatch.setattr(heston_bench, "run_paths", no_paths)
        code, out, err = run_cli(capsys, "converge", "--config", config_file, "--workers", "1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "sdeweak converge: error: cells[1]: sobol_skip + samples must be <= 2^32 (the "
            "Sobol index space), got sobol_skip 4294957296 and samples 10001"]

    def test_sobol_width_refused_before_any_cell(self, capsys, monkeypatch, tmp_path):
        # the first cell fits the 1025-coordinate direction table; the second,
        # nn n=300, needs 1200 coordinates, so neither may run
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"cells": [
            {"scheme": "nn", "n": 2, "samples": 1000, "mode": "qmc"},
            {"scheme": "nn", "n": 300, "samples": 1000, "mode": "qmc"}]}))
        monkeypatch.setattr(heston_bench, "price_cell", _no_cells)
        code, out, err = run_cli(capsys, "converge", "--config", str(path), "--workers", "1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "sdeweak converge: error: cells[1]: requested 1200 Sobol dimensions; "
            "direction table supports 1025"]

    def test_cancelling_u_refused_before_any_cell(self, capsys, monkeypatch, config_file):
        with open(config_file, encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["u"] = CANCELLING_U
        cfg["cells"].reverse()  # an em cell first, which does not read u
        with open(config_file, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        monkeypatch.setattr(heston_bench, "run_paths", _no_paths)
        code, out, err = run_cli(capsys, "converge", "--config", config_file, "--workers", "1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "sdeweak converge: error: cells[1]: u is too large for the closed form in "
            f"floats, got {CANCELLING_U}"]

    @pytest.mark.parametrize("extra, cell, message", [
        ({}, {"scheme": "nn", "n": 2, "samples": 2005, "mode": "mc"},
         "cells[2]: MC sample count must be divisible by 10"),
        ({"seed": 2**128}, {"scheme": "em", "n": 2, "samples": 1000, "mode": "mc"},
         f"cells[2]: seed must be < 2^128 for an MC cell (the Philox key), got {2**128}"),
        ({}, {"scheme": "nn", "n": [], "samples": 1000}, "cells[2]: n must not be an empty list"),
        ({}, {"scheme": "em", "n": 2, "samples": []},
         "cells[2]: samples must not be an empty list"),
    ], ids=["indivisible-mc-samples", "seed-past-philox-key", "empty-n", "empty-samples"])
    def test_refused_before_any_cell(self, capsys, monkeypatch, config_file, extra, cell,
                                     message):
        # the fixture's cells would run; the appended one is refused, so none may
        with open(config_file, encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg.update(extra)
        cfg["cells"].append(cell)
        with open(config_file, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        _refuse_pricing(monkeypatch)
        code, out, err = run_cli(capsys, "converge", "--config", config_file, "--workers", "1")
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"sdeweak converge: error: {message}"]

    def test_seed_past_philox_key_runs_qmc_cells(self, capsys, tmp_path):
        # a Sobol cell reads no seed, so its rows are seed 0's
        outs = []
        for seed in (0, 2**128):
            path = tmp_path / f"seed{seed}.json"
            path.write_text(json.dumps(
                {"seed": seed, "cells": [{"scheme": "nn", "n": 2, "samples": 1000}]}))
            code, out, _ = run_cli(capsys, "converge", "--config", str(path), "--workers", "1")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_cancelling_u_runs_cells_that_do_not_read_it(self, capsys, tmp_path):
        path = tmp_path / "no-nn.json"
        path.write_text(json.dumps({"u": CANCELLING_U, "cells": [
            {"scheme": "em", "n": 2, "samples": 1000},
            {"scheme": "nv", "n": 2, "samples": 1000, "mode": "mc"}]}))
        code, out, _ = run_cli(capsys, "converge", "--config", str(path), "--workers", "1")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["em", "nv"]

    def test_shipped_config_passes_the_intake(self, capsys, monkeypatch):
        # every cell of configs/default.json is checked, then priced; no path runs
        checked, priced = [], []

        def check(config, cell):
            checked.append(cell)
            heston_bench.check_cell(config, cell)

        def record(config, cell):
            priced.append(cell)
            return heston_bench.CellResult(cell, 0.0, None, 0.0, 0.0)

        monkeypatch.setattr(cli, "check_cell", check)
        monkeypatch.setattr(heston_bench, "price_cell", record)
        monkeypatch.setattr(heston_bench, "run_paths", _no_paths)
        code, _, err = run_cli(capsys, "converge", "--config", str(SHIPPED_CONFIG))
        assert code == 0, err
        assert len(priced) == 13
        assert checked == priced

    def test_sobol_index_space_does_not_bound_mc_cells(self, capsys, config_file):
        with open(config_file, encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["sobol_skip"] = 2**32 - 10
        cfg["cells"] = [{"scheme": "em", "n": 1, "samples": 100, "mode": "mc"}]
        with open(config_file, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        code, out, _ = run_cli(capsys, "converge", "--config", config_file, "--workers", "1")
        assert code == 0
        assert len(out.splitlines()) == 2

    @pytest.mark.parametrize("extra, reference", [
        ({}, REFERENCE_PRICE),
        ({"heston": {"alpha": 3.0}}, None),
        ({"heston": {"alpha": 3.0}, "reference": 0.06}, 0.06),
    ], ids=["pinned-parameters", "changed-parameters", "explicit-reference"])
    def test_error_column_names_its_reference(self, capsys, tmp_path, extra, reference):
        # the pinned price is the reference only for the pinned parameters
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(
            {**extra, "cells": [{"scheme": "nn", "n": 2, "samples": 1000}]}))
        code, out, err = run_cli(capsys, "converge", "--config", str(path))
        assert code == 0
        estimate, error = out.splitlines()[1].split(",")[5:7]
        if reference is None:
            assert error == ""
            assert "reference=none" in err
        else:
            assert float(error) == abs(float(estimate) - reference)
            assert f"reference={reference}" in err

    def test_numerical_failure_exits_3(self, capsys, tmp_path):
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps({"heston": {"alpha": 1e80},
                                    "cells": [{"scheme": "nn", "n": 2, "samples": 1000}]}))
        code, out, err = run_cli(capsys, "converge", "--config", str(path))
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["sdeweak converge: numerical failure: "
                                    "non-finite state in Runge-Kutta stage 5, step 0, "
                                    "path 0; cell nn n=2 qmc"]

    def test_numerical_failure_names_the_romberg_level(self, capsys, tmp_path):
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(
            {"heston": {"alpha": 1e80},
             "cells": [{"scheme": "nv", "n": 4, "samples": 40000, "mode": "mc",
                        "romberg": True}]}))
        for workers in ("1", "3"):
            code, out, err = run_cli(capsys, "converge", "--config", str(path),
                                     "--workers", workers)
            assert code == 3
            assert err.splitlines() == ["sdeweak converge: numerical failure: "
                                        "non-finite state in Runge-Kutta stage 5, step 0, "
                                        "path 0; cell nv n=4 mc +romberg, level n=2"]

    @pytest.mark.parametrize("config, code", [
        ({"sobol_skp": 5}, 2),
        ({"u": "1/0"}, 2),
        ({"workers": None}, 2),
        ({"heston": {"alpha": 1e80}}, 3),
    ], ids=["unknown-top-level-key", "zero-denominator-u", "null-workers", "stiff-parameters"])
    def test_process_reports_one_line(self, tmp_path, config, code):
        # a separate process shows what reaches the terminal: no traceback
        # and no numpy floating-point warnings ahead of the one line
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(
            {**config, "cells": [{"scheme": "nn", "n": 2, "samples": 1000}]}))
        src = str(Path(sdeweak.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "sdeweak.cli", "converge", "--config", str(path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == code
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("sdeweak converge: ")

    def test_non_object_config_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "converge", "--config", str(path))
        assert code == 2
        assert err.splitlines() == ["sdeweak converge: error: config must be a JSON object"]

    def test_missing_config_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["converge"])
        assert exc.value.code == 2

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("verify-moments", "verify-rk-order", "price", "converge"):
            assert name in out


_OUT_ARGV = {
    "verify-moments": [],
    "verify-rk-order": ["--tableau", "rk5-butcher", "--order", "5"],
    "price": ["--scheme", "nn", "--n", "2", "--samples", "1000"],
}


#: a rational just above 1 whose digits pass Python's 4300-digit integer limit
LONG_RATIONAL = "1." + "0" * 5000 + "1"
LONG_SHOWN = f"got '1.{'0' * 38}'... (5003 characters)"


@pytest.mark.parametrize("argv, message", [
    (["verify-moments", "--u", LONG_RATIONAL], "verify-moments: error: argument --u: u"),
    (["verify-moments", "--perturb", "R12=" + LONG_RATIONAL],
     "verify-moments: error: argument --perturb: perturbation"),
    (["converge", "--config"], "converge: error: u"),
], ids=["flag", "perturb", "config"])
def test_long_rational_text_is_refused_in_one_short_line(capsys, monkeypatch, tmp_path,
                                                         argv, message):
    # the refusal names the text by its head and its length, not in full
    if argv[-1] == "--config":
        config = tmp_path / "u.json"
        config.write_text(json.dumps({"u": LONG_RATIONAL, "cells": [
            {"scheme": "nn", "n": 2, "samples": 1000}]}))
        argv = [*argv, str(config)]
    _refuse_pricing(monkeypatch)
    monkeypatch.setattr(cli, "residual_table", _no_work)
    try:  # a flag's refusal leaves through argparse
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == [
        f"sdeweak {message} must be a rational number, {LONG_SHOWN}"]
    assert len(captured.err.encode()) < 200


#: a value past SHOWN characters, and how a refusal names it
LONG_VALUE = "x" * 5001
LONG_VALUE_SHOWN = f"'{'x' * 40}'... (5001 characters)"
#: a count past Python's 4300-digit integer limit, typed, and how a refusal names it
LONG_COUNT = "9" * 5001
LONG_COUNT_SHOWN = f"'{'9' * 40}'... (5001 characters)"
#: an integer below that limit, and how a refusal names it
BIG = 10**4000
BIG_SHOWN = f"1{'0' * 39}... (4001 characters)"
#: the refusal of a file name the file system takes as too long
TOO_LONG = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
_PRICE = ["price", "--scheme", "nn", "--n", "2", "--samples", "1000"]
_ONE_CELL = {"scheme": "nn", "n": 2, "samples": 1000}


def _count_flag_case(argv, flag):
    return ([*argv, flag, LONG_COUNT], None,
            f"{argv[0]}: error: argument {flag}: expected an integer or a number a float "
            f"holds exactly, got {LONG_COUNT_SHOWN}")


@pytest.mark.parametrize("argv, config, message", [
    (["verify-moments", "--perturb", LONG_VALUE + "=0.1"], None,
     f"verify-moments: error: only r11, r12, r22 can be perturbed, got {LONG_VALUE_SHOWN}"),
    (["verify-moments", "--branch", LONG_VALUE], None,
     f"verify-moments: error: argument --branch: invalid choice: {LONG_VALUE_SHOWN} "
     "(choose from 'upper', 'lower')"),
    (["price", "--scheme", "nn", "--n", "2", "--samples", "1000", "--branch", LONG_VALUE], None,
     f"price: error: argument --branch: invalid choice: {LONG_VALUE_SHOWN} "
     "(choose from 'upper', 'lower')"),
    (["converge"], {"branch": LONG_VALUE},
     f"converge: error: branch must be upper or lower, got {LONG_VALUE_SHOWN}"),
    (["converge"], {"nn_tableau": LONG_VALUE},
     f"converge: error: nn_tableau: unknown tableau {LONG_VALUE_SHOWN}; "
     "builtins: ['rk5-butcher', 'rk7-butcher']"),
    (["converge"], {"nv_tableau": LONG_VALUE},
     f"converge: error: nv_tableau: unknown tableau {LONG_VALUE_SHOWN}; "
     "builtins: ['rk5-butcher', 'rk7-butcher']"),
    (["verify-rk-order", "--order", "5", "--tableau", "r" + "0" * 300], None,
     "verify-rk-order: error: argument --tableau: \"unknown tableau "
     f"'r{'0' * 39}'... (301 characters); builtins: ['rk5-butcher', 'rk7-butcher']\""),
    (["verify-moments", "--branch", "middle"], None,
     "verify-moments: error: argument --branch: invalid choice: 'middle' "
     "(choose from 'upper', 'lower')"),
    _count_flag_case(["verify-moments"], "--m"),
    _count_flag_case(["verify-moments"], "--d"),
    _count_flag_case(["verify-rk-order", "--tableau", "rk5-butcher"], "--order"),
    *(_count_flag_case(_PRICE, flag)
      for flag in ("--n", "--samples", "--seed", "--sobol-skip", "--workers")),
    ([*_PRICE, "--out", "o" * 5000], None,
     f"price: error: {TOO_LONG}: '{'o' * 40}'... (5000 characters)"),
    (["verify-rk-order", "--order", "5", "--tableau", "x" * 5000 + ".json"], None,
     f"verify-rk-order: error: argument --tableau: cannot load tableau file: {TOO_LONG}: "
     f"'{'x' * 40}'... (5005 characters)"),
    (["converge"], f'{{"seed": {LONG_COUNT}, "cells": [{json.dumps(_ONE_CELL)}]}}',
     "converge: error: seed must be an integer >= 0, got 5001 digits, more than Python reads"),
    (["converge"], {"workers": BIG},
     f"converge: error: workers must be <= 256, got {BIG_SHOWN}"),
    (["converge"], {"seed": BIG, "cells": [{**_ONE_CELL, "mode": "mc"}]},
     "converge: error: cells[0]: seed must be < 2^128 for an MC cell (the Philox key), "
     f"got {BIG_SHOWN}"),
    (["converge"], {"sobol_skip": BIG},
     "converge: error: cells[0]: sobol_skip + samples must be <= 2^32 (the Sobol index "
     f"space), got sobol_skip {BIG_SHOWN} and samples 1000"),
], ids=["perturb-key", "branch-flag", "price-branch-flag", "config-branch", "config-nn-tableau",
        "config-nv-tableau", "tableau-past-file-name-limit", "short-branch-flag",
        "m-flag", "d-flag", "order-flag", "n-flag", "samples-flag", "seed-flag",
        "sobol-skip-flag", "workers-flag", "out-past-file-name-limit",
        "json-tableau-past-file-name-limit", "config-integer-past-parse-limit",
        "config-workers", "config-mc-seed", "config-sobol-skip"])
def test_long_value_is_refused_in_one_short_line(capsys, monkeypatch, tmp_path,
                                                 argv, config, message):
    # a refusal names a long value by its head and its length; a short one in
    # full.  A config is a mapping, or JSON text for an integer no str holds.
    if config is not None:
        path = tmp_path / "long.json"
        path.write_text(config if isinstance(config, str)
                        else json.dumps({"cells": [_ONE_CELL], **config}))
        argv = [*argv, "--config", str(path)]
    _refuse_pricing(monkeypatch)
    monkeypatch.setattr(cli, "residual_table", _no_work)
    monkeypatch.setattr(cli, "check_order", _no_work)
    try:  # a flag's refusal leaves through argparse
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == [f"sdeweak {message}"]
    assert len(captured.err.encode()) < 200


@pytest.mark.parametrize("target, reason", [
    ("missing/row.csv", "[Errno 2] No such file or directory"),
    (".", "[Errno 21] Is a directory")], ids=["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["verify-moments", "verify-rk-order", "price", "converge"])
def test_unwritable_out_refused_before_any_work(capsys, monkeypatch, tmp_path, command,
                                                target, reason):
    _refuse_pricing(monkeypatch)
    monkeypatch.setattr(cli, "residual_table", _no_work)
    monkeypatch.setattr(cli, "check_order", _no_work)
    out_path = tmp_path / target
    code, out, err = run_cli(capsys, command,
                             *_OUT_ARGV.get(command, ["--config", str(SHIPPED_CONFIG)]),
                             "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"sdeweak {command}: error: {reason}: '{out_path}'"]


@pytest.mark.parametrize("existing", [b"old bytes\n", None], ids=["existing", "new"])
def test_out_is_written_only_by_a_successful_run(capsys, tmp_path, existing):
    target = tmp_path / "row.csv"
    if existing is not None:
        target.write_bytes(existing)
    stiff = tmp_path / "stiff.json"
    stiff.write_text(json.dumps({"heston": {"alpha": 1e80}}))
    for argv, code in ((["--mode", "mc", "--samples", "2005"], 2),
                       (["--samples", "1000", "--config", str(stiff)], 3)):
        assert run_cli(capsys, "price", "--scheme", "nn", "--n", "2", *argv,
                       "--out", str(target))[0] == code
        assert (target.read_bytes() if target.exists() else None) == existing
    assert run_cli(capsys, "price", "--scheme", "nn", "--n", "2", "--samples", "1000",
                   "--out", str(target))[0] == 0
    assert target.read_text().startswith("scheme,n,samples")


# Generated converge configs: each key holds a valid value, or junk about one
# time in eight, so runs that succeed, fail numerically and are rejected all
# occur.  Sizes stay small (n <= 4, samples <= 64, workers <= 2), so no example
# allocates much or starts many threads: junk numbers lie in [-2, 2], because an
# integral float such as 1e300 is a valid count.  The sample counts 1e300 and
# 2**33, MC counts that are no multiple of 10, seeds past the 2^128 Philox keys
# and the u whose float parameters cancel are drawn too; each is refused as the
# config is read, before any cell could allocate or fail.
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.just({}),
                  st.lists(st.integers(-1, 2), max_size=2), st.integers(-2, 0),
                  st.floats(-2.0, 2.0), st.sampled_from([math.nan, math.inf, -math.inf]))


def _or_junk(valid):
    # junk on one value of eight; not on 0, which the simplest examples draw
    return st.integers(0, 7).flatmap(lambda k: _JUNK if k == 5 else valid)


def _grid(values):
    return st.one_of(values, st.lists(values, min_size=1, max_size=2))


def _or_unknown_key(mappings, key):
    # the mapping with an unknown key added, about one time in eight
    return st.tuples(mappings, st.integers(0, 7)).map(
        lambda t: {**t[0], key: 1} if t[1] == 5 else t[0])


_CELL = _or_unknown_key(st.fixed_dictionaries(
    {"scheme": _or_junk(st.sampled_from(["nn", "em", "nv"])),
     "n": _or_junk(_grid(st.integers(1, 4))),
     "samples": _or_junk(_grid(st.sampled_from([10, 20, 64, 15, 7.0, 1e300, 2**33])))},
    optional={"mode": _or_junk(st.sampled_from(["qmc", "mc"])),
              "romberg": _or_junk(st.booleans())}), "steps")

_HESTON = st.fixed_dictionaries({}, optional={
    **{key: _or_junk(st.floats(0.01, 3.0)) for key in
       ("mu", "theta", "beta", "x1", "x2", "T", "K")},
    "alpha": _or_junk(st.one_of(st.floats(0.01, 3.0), st.just(1e80))),  # 1e80 is stiff
    "rho": _or_junk(st.floats(-1.0, 1.0)),
})

_TABLEAU = _or_junk(st.sampled_from(["rk5-butcher", "rk7-butcher", "rk9"]))

_CONFIGS = _or_unknown_key(st.fixed_dictionaries(
    {"cells": _or_junk(st.lists(_or_junk(_CELL), min_size=1, max_size=2))},
    optional={
        "heston": _or_junk(_HESTON),
        "u": _or_junk(st.sampled_from(["3/4", "1/2", "5/8", "2", 0.75, "1/0", "1e300",
                                       CANCELLING_U])),
        "branch": _or_junk(st.sampled_from(["lower", "upper"])),
        "nn_tableau": _TABLEAU,
        "nv_tableau": _TABLEAU,
        "seed": _or_junk(st.integers(0, 2**130)),
        "sobol_skip": _or_junk(st.integers(1, 2**33)),
        "reference": _or_junk(st.floats(0.0, 1.0)),
        "workers": _or_junk(st.integers(1, 2)),
    }), "sobol_skp")


@settings(max_examples=60, deadline=None)
@given(_CONFIGS)
def test_converge_exit_codes_on_generated_configs(config):
    # whatever the config holds, converge ends in success (0), a usage error
    # (2) or a numerical failure (3), each reported without a traceback.  The
    # sizes rule out running out of memory, the one usage error that follows a
    # run, so a usage error means no cell was priced.
    priced = []
    price_cell = heston_bench.price_cell

    def record(config, cell):
        priced.append(cell)
        return price_cell(config, cell)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(heston_bench, "price_cell", record):
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["converge", "--config", str(path)])
    assert code in (0, 2, 3), err.getvalue()
    assert not (code == 2 and priced), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code:
        [line] = err.getvalue().splitlines()
        assert line.startswith("sdeweak converge: ")


# Generated command lines: a subcommand, its required flags and a few others,
# each value ordinary or, about one time in four, adversarial.  TMP in a value
# is the example's own directory, where config.json holds a generated config,
# and LONG_INTEGER in a config is a 5,001-digit JSON integer.  Accepted runs
# stay tiny: --m, --d, --order, --n and --samples take small values, and no
# value starts more than two workers.
_WILD = st.sampled_from(["", "-1", "0", "nan", "-inf", "1e400", "1e5000", "x" * 5001,
                         "9" * 5001, "\x00", "é", "n" * 300, "n" * 300 + ".json"])
_WILD_JSON = st.sampled_from([None, True, [], {}, -1, 1e300, "x" * 5001, "LONG_INTEGER"])


def _value(ordinary, wild=_WILD):
    """One of the ordinary values (or values of the strategy), or a wild one."""
    if not isinstance(ordinary, st.SearchStrategy):
        ordinary = st.sampled_from(ordinary)
    return st.integers(0, 3).flatmap(lambda k: wild if k == 3 else ordinary)


def _flag(name, *ordinary):
    return st.tuples(st.just(name), _value(ordinary))


def _path_flag(name, *ordinary):
    # a wild file name lies in the example's directory too
    return st.tuples(st.just(name), _value(ordinary, _WILD.map(lambda v: "TMP/" + v)))


_OUT = _path_flag("--out", "TMP/o.csv", "TMP/missing/o.csv", "TMP")
_BRANCH = _flag("--branch", "lower", "upper")
_RUN_FLAGS = [_flag("--u", "3/4", "5/8"), _BRANCH, _flag("--seed", "0", "7"),
              _flag("--sobol-skip", "1", "1010"), _flag("--workers", "1", "2"), _OUT]
_CONFIG_FLAG = _path_flag("--config", "TMP/config.json", "TMP/missing.json")
#: each subcommand's required flags, then the flags it may take
_FLAGS = {
    "verify-moments": ([], [_flag("--u", "3/4", "1"), _BRANCH, _flag("--m", "1", "4"),
                            _flag("--d", "1", "2"), _flag("--perturb", "R12=+0.1", "r11=1/3"),
                            _OUT]),
    "verify-rk-order": ([_path_flag("--tableau", "rk5-butcher", "rk7-butcher",
                                    "TMP/config.json"),
                         _flag("--order", "1", "5")], [_OUT]),
    "price": ([_flag("--scheme", "nn", "em", "nv"), _flag("--n", "1", "2"),
               _flag("--samples", "10", "20")],
              [_flag("--mode", "qmc", "mc"), _CONFIG_FLAG, *_RUN_FLAGS]),
    "converge": ([_CONFIG_FLAG], _RUN_FLAGS),
}
_COMMAND_LINES = st.sampled_from(sorted(_FLAGS)).flatmap(
    lambda command: st.tuples(st.just(command), st.tuples(*_FLAGS[command][0]),
                              st.lists(st.one_of(_FLAGS[command][1]), max_size=3)))
_GENERATED_CONFIGS = st.fixed_dictionaries(
    {"cells": _value(st.lists(st.fixed_dictionaries(
        {"scheme": _value(["nn", "em", "nv"], _WILD_JSON), "n": _value([1, 2], _WILD_JSON),
         "samples": _value([10], _WILD_JSON), "mode": _value(["qmc", "mc"], _WILD_JSON)}),
        min_size=1, max_size=2), _WILD_JSON)},
    optional={key: _value(ordinary, _WILD_JSON) for key, ordinary in (
        ("heston", [{}, {"rho": -0.5}]), ("u", ["3/4", 1]), ("branch", ["lower", "upper"]),
        ("nn_tableau", ["rk5-butcher"]), ("nv_tableau", ["rk5-butcher"]), ("seed", [0, 7]),
        ("sobol_skip", [1, 1010]), ("reference", [0.06]), ("workers", [1, 2]))})


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_COMMAND_LINES, _GENERATED_CONFIGS)
def test_any_command_line_exits_with_a_code_and_one_short_line(command_line, config):
    # README's contract: exit 0, 1, 2 or 3, never an exception; exits 2 and 3
    # print one stderr line under 200 bytes, with no traceback
    command, required, flags = command_line
    flags = [*required, *flags]
    with tempfile.TemporaryDirectory() as tmp:
        text = json.dumps(config).replace('"LONG_INTEGER"', "9" * 5001)
        Path(tmp, "config.json").write_text(text)
        argv = [command] + [part.replace("TMP", tmp) for flag in flags for part in flag]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code in (2, 3):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert len(err.getvalue().encode()) < 200, (argv, lines)
        assert "Traceback" not in lines[0]


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random costs several MB of RSS; only a Philox draw imports it
    src = str(Path(sdeweak.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sdeweak.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
