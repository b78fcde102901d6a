import contextlib
import hashlib
import io
import json
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

from cli_cases import BASE, CANCELLING_U, GROUPS, MIDPOINT, Case, check, run_process


def _no_paths(*args, **kwargs):
    raise AssertionError("a refused run must not run a path")


SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _main(argv) -> tuple[int, str, str]:
    """``cli.main(argv)``: its exit code, argparse's read off its SystemExit, and its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _refused_work(*args, **kwargs):
    raise AssertionError("a refused command line must not do a command's work")


#: the work a command does once its input is accepted; a refusal reaches none of it
_WORK = [(heston_bench, "price_cell"), (heston_bench, "estimate"), (heston_bench, "run_paths"),
         (cli, "residual_table"), (cli, "check_order"), (sampling, "ThreadPoolExecutor")]


def _check_case(case, monkeypatch, tmp_path):
    """The contract for ``case`` of tests/cli_cases.py, run through ``cli.main``."""
    if not case.may_work:
        for module, name in _WORK:
            monkeypatch.setattr(module, name, _refused_work)
    check(case, *_main(case.prepare(tmp_path)), tmp_path)


def _cases(group):
    cases = GROUPS[group]
    return pytest.mark.parametrize("case", cases, ids=[case.id for case in cases])


def _contract(group, id=None):
    """A test of every case of ``group`` in tests/cli_cases.py, or of its one case ``id``."""
    if id is None:
        @_cases(group)
        def test(case, monkeypatch, tmp_path):
            _check_case(case, monkeypatch, tmp_path)
        return test
    [case] = [case for case in GROUPS[group] if case.id == id]

    def test(monkeypatch, tmp_path):
        _check_case(case, monkeypatch, tmp_path)
    return test


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

    def test_long_u_is_named_short_in_the_summary(self, capsys):
        # a rational just above 1, whose float is 1: the summary names it by
        # its head and length, as a refusal would
        code, _, err = run_cli(capsys, "verify-moments", "--u", f"1{'0' * 3000}1/1{'0' * 3001}")
        assert code == 0
        [line] = err.splitlines()
        assert len(line.encode()) < 200
        assert f"u='1{'0' * 39}'... (6005 characters) branch=lower" in line

    def test_perturbation_fails_with_named_row(self, capsys):
        code, out, err = run_cli(capsys, "verify-moments", "--u", "0.75",
                                 "--branch", "lower", "--perturb", "R12=+0.1")
        assert code == 1
        assert "v1.v1,3/5,1/2,1/10" in out.splitlines()
        assert "FAIL" in err

    test_low_u_is_usage_error = staticmethod(_contract("refusals", "low-u"))
    test_huge_u_is_named_by_its_power_of_ten = staticmethod(_contract("huge-u"))

    def test_irrational_family_member_passes_in_float(self, capsys):
        code, _, err = run_cli(capsys, "verify-moments", "--u", "1", "--branch", "upper")
        assert code == 0
        assert "mode=float" in err

    test_unknown_perturbation_key_rejected = staticmethod(
        _contract("refusals", "unknown-perturbation"))
    test_perturbation_past_every_float_is_usage_error = staticmethod(
        _contract("refusals", "infinite-perturbation"))
    test_bad_argument_is_usage_error = staticmethod(_contract("moments-counts"))

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

    def test_summary_names_a_long_tableau_name_by_its_head(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"name": "n" * 5000, "order": 1, "a": [["0"]], "b": ["1"]}))
        code, _, err = run_cli(capsys, "verify-rk-order", "--tableau", str(path), "--order", "1")
        assert code == 0
        assert err.splitlines() == [f"verify-rk-order: tableau='{'n' * 40}'... (5000 characters) "
                                    "order=1 conditions=1 failures=0 PASS"]

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

    test_unknown_builtin_is_usage_error = staticmethod(_contract("refusals", "unknown-builtin"))
    test_bad_tableau_file_is_usage_error = staticmethod(_contract("bad-tableau-files"))
    test_tableau_contents_are_named_in_one_short_line = staticmethod(
        _contract("tableau-contents"))


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

    test_unknown_flag_is_usage_error = staticmethod(_contract("one-line", "unknown-flag"))
    test_indivisible_mc_samples_is_usage_error = staticmethod(
        _contract("price-mc-cells", "indivisible-samples"))
    test_odd_romberg_partitions_is_usage_error = staticmethod(
        _contract("refusals", "odd-romberg-partitions"))
    test_zero_samples_is_usage_error = staticmethod(_contract("refusals", "zero-samples"))
    test_bad_argument_is_usage_error = staticmethod(_contract("price-arguments"))
    test_sobol_index_space_refused_before_any_path = staticmethod(
        _contract("price-sobol-index-space"))
    test_sobol_width_refused_before_any_cell = staticmethod(_contract("price-sobol-width"))

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

    test_mc_cell_refused_before_any_cell = staticmethod(_contract("price-mc-cells"))

    @pytest.mark.parametrize("scheme", ["em", "nv"])
    def test_cancelling_u_runs_a_scheme_that_does_not_read_it(self, capsys, scheme):
        code, out, _ = run_cli(capsys, "price", "--scheme", scheme, "--n", "2",
                               "--samples", "1000", "--workers", "1", "--u", CANCELLING_U)
        assert code == 0
        assert out.splitlines()[1].startswith(f"{scheme},2,1000,qmc,0,")

    test_cancelling_u_refused_before_any_path = staticmethod(_contract("price-cancelling-u"))
    test_unparsable_workers_is_usage_error = staticmethod(
        _contract("refusals", "unparsable-workers"))

    def test_counts_read_like_config_counts(self, capsys):
        # 1e2 on the command line is the count it is in a config
        code, out, _ = run_cli(capsys, "price", "--scheme", "nn", "--n", "2e0",
                               "--mode", "qmc", "--samples", "1e2", "--workers", "1")
        assert code == 0
        assert out.splitlines()[1].startswith("nn,2,100,qmc,0,")

    test_usage_error_is_one_line = staticmethod(_contract("one-line"))
    test_malformed_config_is_usage_error = staticmethod(
        _contract("refusals", "malformed-config"))


class TestConverge:
    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(BASE))
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

    test_bad_config_value_is_usage_error = staticmethod(_contract("config-values"))
    test_null_value_is_usage_error = staticmethod(_contract("null-values"))
    test_sobol_index_space_refused_before_any_cell = staticmethod(
        _contract("refusals", "converge-sobol-index-space"))
    test_sobol_width_refused_before_any_cell = staticmethod(
        _contract("refusals", "converge-sobol-width"))
    test_cancelling_u_refused_before_any_cell = staticmethod(
        _contract("refusals", "converge-cancelling-u"))
    test_refused_before_any_cell = staticmethod(_contract("refused-cells"))

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

    test_numerical_failure_exits_3 = staticmethod(_contract("process", "stiff-parameters"))

    def test_numerical_failure_names_the_romberg_level(self, capsys, tmp_path):
        # alpha 1e80 puts the drift step's coefficients past the float range,
        # so N-V's first drift flow runs its Runge-Kutta stages
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
                                        "non-finite state in Runge-Kutta stage 4, step 0, "
                                        "path 0; cell nv n=4 mc +romberg, level n=2"]

    @_cases("process")
    def test_process_reports_one_line(self, monkeypatch, tmp_path, case):
        # a separate process shows what reaches the terminal: no traceback
        # and no numpy floating-point warnings ahead of the one line
        _check_case(case, monkeypatch, tmp_path)
        src = str(Path(sdeweak.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        check(case, *run_process(case, [sys.executable, "-m", "sdeweak.cli"], tmp_path, env),
              tmp_path)

    test_non_object_config_is_usage_error = staticmethod(
        _contract("refusals", "non-object-config"))
    test_missing_config_is_usage_error = staticmethod(_contract("one-line", "no-config"))

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("verify-moments", "verify-rk-order", "price", "converge"):
            assert name in out


test_long_rational_text_is_refused_in_one_short_line = _contract("long-rational-text")
test_long_value_is_refused_in_one_short_line = _contract("long-values")
test_unknown_keys_are_named_in_one_short_line = _contract("unknown-keys")
test_unwritable_out_refused_before_any_work = _contract("unwritable-out")
test_exit_codes = _contract("exit-codes")


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


# Generated command lines: a subcommand, its required flags and a few others,
# each value ordinary or, about one time in four, wild.  TMP in a value is the
# example's own directory, where config.json holds a generated config and
# tableau.json a generated tableau; LONG_INTEGER in either is a 5,001-digit JSON
# integer, and MANY_KEYS in a key's place is 2,000 unknown keys.  Accepted runs
# stay tiny: --m, --d, --order, n and samples take small values (an integral
# float such as 1e300 is a count, so a wild count is refused or runs out of
# memory at once), and no value starts more than two workers.
_WILD = st.sampled_from(["", "-1", "0", "nan", "-inf", "1e400", "1e5000", "x" * 5001,
                         "9" * 5001, "\x00", "\x01" * 41, "é", "n" * 300, "n" * 300 + ".json"])
_WILD_JSON = st.sampled_from([None, True, [], {}, -1, 1e300, "x" * 5001, "\x01" * 41,
                              "LONG_INTEGER"])
_UNKNOWN_KEY = st.sampled_from(["steps", "x" * 5001, "a\nb", "\x01" * 41, "MANY_KEYS"])


def _value(ordinary, wild=_WILD):
    """One of the ordinary values (or values of the strategy), or a wild one."""
    if not isinstance(ordinary, st.SearchStrategy):
        ordinary = st.sampled_from(ordinary)
    return st.integers(0, 3).flatmap(lambda k: wild if k == 3 else ordinary)


def _or_unknown_key(mappings):
    """The mapping, or about one time in four with an unknown key added."""
    def add(mapping, k, key):
        if k < 3:
            return mapping
        return {**mapping, **({f"k{i}": 1 for i in range(2000)} if key == "MANY_KEYS"
                              else {key: 1})}
    return st.builds(add, mappings, st.integers(0, 3), _UNKNOWN_KEY)


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
    "verify-rk-order": ([_path_flag("--tableau", "TMP/tableau.json", "rk5-butcher"),
                         _flag("--order", "1", "5")], [_OUT]),
    "price": ([_flag("--scheme", "nn", "em", "nv"), _flag("--n", "1", "2"),
               _flag("--samples", "10", "20")],
              [_flag("--mode", "qmc", "mc"), st.just(("--romberg",)), _CONFIG_FLAG, *_RUN_FLAGS]),
    "converge": ([_CONFIG_FLAG], _RUN_FLAGS),
}
_COMMAND_LINES = st.sampled_from(sorted(_FLAGS)).flatmap(
    lambda command: st.tuples(st.just(command), st.tuples(*_FLAGS[command][0]),
                              st.lists(st.one_of(_FLAGS[command][1]), max_size=3)))


def _grid(values):
    return st.one_of(values, st.lists(values, min_size=1, max_size=2))


_CELL = _or_unknown_key(st.fixed_dictionaries(
    {"scheme": _value(["nn", "em", "nv"], _WILD_JSON),
     "n": _value(_grid(st.integers(1, 4)), _WILD_JSON),
     # 15 and 7.0 are no multiple of 10 (an MC cell's batches); 1e300 and 2**33
     # pass 2^32 samples
     "samples": _value(_grid(st.sampled_from([10, 20, 64, 15, 7.0, 1e300, 2**33])), _WILD_JSON)},
    optional={"mode": _value(["qmc", "mc"], _WILD_JSON),
              "romberg": _value([False, True], _WILD_JSON)}))
_HESTON = _or_unknown_key(st.fixed_dictionaries({}, optional={
    **{key: _value(st.floats(0.01, 3.0), _WILD_JSON)
       for key in ("mu", "theta", "beta", "x1", "x2", "T", "K")},
    "alpha": _value([2.0, 1e80], _WILD_JSON),  # 1e80 is stiff: exit 3
    "rho": _value(st.floats(-1.0, 1.0), _WILD_JSON)}))
_GENERATED_CONFIGS = _or_unknown_key(st.fixed_dictionaries(
    {"cells": _value(st.lists(_CELL, min_size=1, max_size=2), _WILD_JSON)},
    optional={key: _value(ordinary, _WILD_JSON) for key, ordinary in (
        ("heston", _HESTON), ("u", ["3/4", 1, "5/8", "1e300", CANCELLING_U]),
        ("branch", ["lower", "upper"]), ("nn_tableau", ["rk5-butcher", "rk7-butcher"]),
        ("nv_tableau", ["rk5-butcher"]), ("seed", st.integers(0, 2**130)),
        ("sobol_skip", st.integers(1, 2**33)), ("reference", [0.06]), ("workers", [1, 2]))}))


def _tableau(field, value):
    """The midpoint rule with ``field`` set to ``value``; for "a" and "b", one entry of it."""
    entries = {"a": [["0", "0"], [value, "0"]], "b": ["0", value]}
    return MIDPOINT if field is None else {**MIDPOINT, field: entries.get(field, value)}


_GENERATED_TABLEAUS = _or_unknown_key(st.builds(
    _tableau, st.sampled_from([None, "order", "a", "b", "name"]), _WILD_JSON))


def _json_text(value) -> str:
    return json.dumps(value).replace('"LONG_INTEGER"', "9" * 5001)


def _check_generated_run(argv, config, tableau):
    """README's contract for one generated run; TMP in ``argv`` is its directory.

    Exit 0, 1, 2 or 3, never an exception; exits 2 and 3 print nothing on
    stdout and one stderr line under 200 bytes, with no traceback.  A usage
    error estimates no level of a cell, unless it is running out of memory.
    """
    estimated = []
    estimate = heston_bench.estimate

    def record(*args, **kwargs):
        estimated.append(args)
        return estimate(*args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(heston_bench, "estimate", record):
        Path(tmp, "config.json").write_text(_json_text(config))
        Path(tmp, "tableau.json").write_text(_json_text(tableau))
        argv = [part.replace("TMP", tmp) for part in argv]
        code, out, err = _main(argv)
    assert code in (0, 1, 2, 3), (argv, err)
    # the table's check, for the code the run exited with and any line
    check(Case("generated", tuple(argv), code, "", exact=False), code, out, err, tmp)
    assert not (code == 2 and estimated and "out of memory" not in err), (argv, err)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_COMMAND_LINES, _GENERATED_CONFIGS, _GENERATED_TABLEAUS)
def test_any_command_line_exits_with_a_code_and_one_short_line(command_line, config, tableau):
    command, required, flags = command_line
    _check_generated_run([command] + [part for flag in (*required, *flags) for part in flag],
                         config, tableau)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_GENERATED_CONFIGS)
def test_converge_exit_codes_on_generated_configs(config):
    # the same grammar's configs, each read by converge with no other flag
    _check_generated_run(["converge", "--config", "TMP/config.json"], config, MIDPOINT)


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random costs several MB of RSS; only a Philox draw imports it
    src = str(Path(sdeweak.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sdeweak.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
