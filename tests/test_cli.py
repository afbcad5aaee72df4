import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import ambiclt
from ambiclt import cli
from ambiclt.closed_form import upper_indicator_limit
from ambiclt.measures import coin_example, interval, validate_measure_set
from ambiclt.statistics import SwitchRule
from ambiclt.terminal import TerminalFunction
from ambiclt.worst_case import sup_dp_special


def run_cli(args, tmp_path=None):
    return cli.main(args)


class TestClosedFormCommand:
    def test_value_matches_library(self, tmp_path, capsys):
        out = tmp_path / "cf.json"
        code = run_cli([
            "closed-form", "--mu-lo", "-0.3", "--mu-hi", "0.3",
            "--a", "-1", "--b", "1", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == upper_indicator_limit(interval(-0.3, 0.3), -1, 1)
        assert payload["branch"] == "a+b>=mu_sum"
        assert payload["provenance"]["module"] == "closed_form"
        assert payload["version"]

    def test_lower_side(self, tmp_path):
        out = tmp_path / "cf.json"
        code = run_cli([
            "closed-form", "--mu-lo", "-0.3", "--mu-hi", "0.3",
            "--a", "-1", "--b", "1", "--side", "lower", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == pytest.approx(0.5816543649265746, abs=1e-12)

    def test_one_sided_via_missing_endpoint(self, tmp_path):
        out = tmp_path / "cf.json"
        assert run_cli([
            "closed-form", "--mu-lo", "-0.3", "--mu-hi", "0.3",
            "--b", "0", "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == pytest.approx(0.6179114221889526, abs=1e-12)
        assert payload["branch"] == "one_sided"

    def test_branch_is_the_one_the_value_came_from(self, tmp_path):
        # -0.4 + 2.33 >= 0.6 + 1.33 in floats, but the shift-reduced sum the
        # value is computed from, (a - c) + (b - c), is -2.2e-16
        out = tmp_path / "cf.json"
        assert run_cli([
            "closed-form", "--mu-lo", "0.6", "--mu-hi", "1.33",
            "--a", "-0.4", "--b", "2.33", "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["branch"] == "a+b<mu_sum"
        assert payload["value"] == upper_indicator_limit(interval(0.6, 1.33), -0.4, 2.33)


class TestDpCommand:
    def test_value_matches_library(self, tmp_path):
        out = tmp_path / "dp.json"
        code = run_cli([
            "dp", "--theorem", "special", "--p", "0.6", "--q", "0.3",
            "--a", "-1", "--b", "1", "--c", "0", "--n", "8", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        L = coin_example("0.6", "0.3")
        rule = SwitchRule(0.0, validate_measure_set(L))
        want = float(sup_dp_special(L, TerminalFunction.indicator("-1.0", "1.0"), 8, rule))
        assert payload["value"] == want
        assert payload["gap"] == pytest.approx(abs(want - payload["limit_reference"]))

    def test_convergence_csv(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = run_cli([
            "dp", "--theorem", "special", "--p", "0.6", "--q", "0.3",
            "--a", "-1", "--b", "1", "--c", "0", "--n-list", "4", "8",
            "--format", "csv", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theorem,n,value,reference,gap"
        assert len(lines) == 3
        # runtime column only with --timing
        assert "runtime" not in lines[0]

    def test_single_horizon_csv_is_one_table_row(self, tmp_path):
        out = tmp_path / "one.csv"
        code = run_cli([
            "dp", "--theorem", "special", "--p", "0.6", "--q", "0.3",
            "--a", "-1", "--b", "1", "--n", "4", "--format", "csv", "--output", str(out),
        ])
        assert code == 0
        L = coin_example("0.6", "0.3")
        iv = validate_measure_set(L)
        value = float(sup_dp_special(L, TerminalFunction.indicator("-1.0", "1.0"), 4,
                                     SwitchRule(0.0, iv)))
        limit = upper_indicator_limit(iv, -1.0, 1.0)
        assert out.read_text().splitlines() == [
            "theorem,n,value,reference,gap",
            f"special,4,{value!r},{limit!r},{abs(value - limit)!r}",
        ]

    def test_single_horizon_csv_without_a_limit(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run_cli(["dp", "--theorem", "deviation", "--p", "0.6", "--q", "0.3",
                        "--a", "-1", "--b", "1", "--n", "3", "--format", "csv",
                        "--output", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "theorem,n,value,reference,gap"
        assert row.startswith("deviation,3,") and row.endswith(",,")

    COIN_BOX = ["--p", "0.6", "--q", "0.3", "--a", "-1", "--b", "1"]

    @pytest.mark.parametrize("theorem", ["special", "tilde"])
    def test_off_center_switching_rule_has_no_closed_form_reference(self, capsys, theorem):
        # the switching statistic tends to the closed form only at c = (a + b)/2
        assert run_cli(["dp", "--theorem", theorem, *self.COIN_BOX, "--c", "0.5",
                        "--n", "160"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "limit_reference" not in payload and "gap" not in payload
        for c in ("0", "0.0", "-0"):
            assert run_cli(["dp", "--theorem", theorem, *self.COIN_BOX, "--c", c,
                            "--n", "4"]) == 0
            assert "limit_reference" in json.loads(capsys.readouterr().out)

    def test_exact_midpoint_counts_as_centered(self, capsys):
        # 0.5*(0.1 + 0.2) is 0.15000000000000002 in floats, 0.15 exactly
        for c in ([], ["--c", "0.15"]):
            assert run_cli(["dp", "--theorem", "special", "--p", "0.6", "--q", "0.3",
                            "--a", "0.1", "--b", "0.2", *c, "--n", "4"]) == 0
            assert "limit_reference" in json.loads(capsys.readouterr().out)

    def test_off_center_table_needs_a_reference(self, capsys):
        argv = ["dp", "--theorem", "special", *self.COIN_BOX, "--c", "0.5", "--n-list", "4", "8"]
        assert run_cli(argv) == 2
        assert "--reference" in json.loads(capsys.readouterr().err)["message"]
        assert run_cli(argv + ["--reference", "0.8785"]) == 0
        assert json.loads(capsys.readouterr().out)["reference"] == 0.8785

    @pytest.mark.parametrize("given, omitted", [
        (["--a", "-1", "--b", "inf"], ["--a", "-1"]),
        (["--a=-inf", "--b", "0.5"], ["--b", "0.5"]),
    ], ids=["b", "a"])
    def test_infinite_endpoint_is_the_omitted_one(self, capsys, given, omitted):
        values = []
        for ends in (given, omitted):
            assert run_cli(["dp", "--theorem", "special", "--p", "0.6", "--q", "0.3",
                            *ends, "--n", "4"]) == 0
            values.append(json.loads(capsys.readouterr().out)["value"])
        assert values[0] == values[1]

    # the value's key and the arguments of each command that takes --h
    BANDWIDTH_ROUTES = {
        "dp": ("value", ["dp", "--theorem", "special", "--n", "10"]),
        "lln": ("value", ["lln", "--n", "10"]),
        "mc": ("estimate", ["mc", "--theorem", "special", "--n", "10", "--paths", "500"]),
    }

    @pytest.mark.parametrize("command", list(BANDWIDTH_ROUTES))
    def test_bandwidth_applies_with_one_endpoint(self, capsys, command):
        key, route = self.BANDWIDTH_ROUTES[command]
        values = []
        for ends in (["--b", "1"], ["--b", "1", "--h", "0.05"],
                     ["--a=-inf", "--b", "1", "--h", "0.05"]):
            assert run_cli([*route, "--p", "0.6", "--q", "0.3", *ends]) == 0
            values.append(json.loads(capsys.readouterr().out)[key])
        sharp, one_sided, infinite_end = values
        assert one_sided == infinite_end != sharp

    @pytest.mark.parametrize("command", list(BANDWIDTH_ROUTES))
    def test_bandwidth_is_a_recorded_parameter_when_given(self, capsys, command):
        _, route = self.BANDWIDTH_ROUTES[command]
        for h in ([], ["--h", "0.05"]):
            assert run_cli([*route, *self.COIN_BOX, *h]) == 0
            payload = json.loads(capsys.readouterr().out)
            for parameters in (payload["config"], payload["provenance"]["parameters"]):
                assert parameters.get("h", "absent") == (0.05 if h else "absent")

    def test_measure_file_input(self, tmp_path):
        mfile = tmp_path / "laws.txt"
        mfile.write_text("1:0.6 -1:0.3 0:0.1\n1:0.3 -1:0.6 0:0.1\n")
        out = tmp_path / "dp.json"
        code = run_cli([
            "dp", "--theorem", "lln", "--measures", str(mfile),
            "--a", "-1", "--b", "1", "--n", "30", "--output", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(1.0)


class TestErrorsAndExitCodes:
    def test_unknown_flag_exits_2_without_output(self, tmp_path):
        out = tmp_path / "never.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ambiclt.cli", "dp", "--nonsense", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert not out.exists()

    def test_domain_error_exits_3_with_record(self, capsys):
        code = run_cli(["dp", "--theorem", "lln", "--p", "0.3", "--q", "0.6",
                        "--a", "-1", "--b", "1", "--n", "5"])
        assert code == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "BadParameters"

    def test_capacity_error_exits_5(self, capsys):
        code = run_cli(["dp", "--theorem", "clt", "--p", "0.6", "--q", "0.3",
                        "--a", "-1", "--b", "1", "--n", "2001"])
        assert code == 5
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "StateExplosion"

    def test_horizon_cap_message_names_n_and_the_cap(self, capsys):
        # the CLI has no option for the cap, so the message must not offer one
        code = run_cli(["dp", "--theorem", "special", "--p", "0.6", "--q", "0.3",
                        "--a", "-1", "--b", "1", "--n", "2001"])
        assert code == 5
        message = json.loads(capsys.readouterr().err)["message"]
        assert "n=2001" in message and "cap of 2000" in message
        assert "pass n_cap" not in message

    def test_default_cell_budget_exits_5_at_n_1000(self, capsys):
        # under the horizon cap, but the lattice fails before any DP work
        code = run_cli(["dp", "--theorem", "special", "--p", "0.6", "--q", "0.3",
                        "--a", "-1", "--b", "1", "--n", "1000"])
        assert code == 5
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "StateExplosion"
        assert "by step 1000 of 1000" in record["message"]

    def test_zero_horizon_monte_carlo_exits_3(self, capsys):
        code = run_cli(["mc", "--theorem", "special", "--p", "0.6", "--q", "0.3",
                        "--a", "-1", "--b", "1", "--n", "0", "--paths", "10"])
        assert code == 3
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "ValueError", "message": "n must be at least 1"}

    @pytest.mark.parametrize("sizes, message", [
        (["--n", "10", "--paths", "0"], "paths must be at least 1"),
        (["--n", "0", "--paths", "10"], "n must be at least 1"),
    ], ids=["zero-paths", "zero-n"])
    def test_zero_hyptest_simulation_size_exits_3(self, capsys, sizes, message):
        code = run_cli(["hyptest", "--kappa", "0.3", "--sigma", "0.9", "--alpha", "0.05",
                        *sizes])
        assert code == 3
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("route", [
        ["dp", "--n", "4"],
        ["dp", "--n-list", "4", "8", "--reference", "0.5"],
        ["mc", "--n", "4", "--paths", "10"],
    ], ids=["dp", "dp-table", "mc"])
    def test_bad_scaled_weight_exits_3_on_every_route(self, capsys, route):
        code = run_cli([*route, "--theorem", "scaled", "--p", "0.6", "--q", "0.3",
                        "--a", "-1", "--b", "1", "--alpha-scale", "-1"])
        assert code == 3
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "ValueError", "message": "alpha must be positive"}

    def test_missing_inputs_exit_2(self, capsys):
        code = run_cli(["dp", "--theorem", "clt", "--n", "4"])
        assert code == 2

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        code = run_cli(["hyptest", "--kappa", "0.3", "--alpha", "0.05",
                        "--data", str(tmp_path / "missing.csv")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"

    def test_non_finite_data_row_exits_3(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("x\n1\nnan\n-1\n")
        code = run_cli(["hyptest", "--kappa", "0.3", "--alpha", "0.05", "--data", str(path)])
        assert code == 3
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "ValueError", "message": "line 3: 'nan' is not a finite number"}

    def test_missing_measures_file_exits_2(self, tmp_path, capsys):
        code = run_cli(["dp", "--theorem", "special", "--measures", str(tmp_path / "missing.txt"),
                        "--a", "-1", "--b", "1", "--n", "4"])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"

    def test_malformed_number_in_measures_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "laws.txt"
        path.write_text("1:0.6 -1:0.3 0:0.1\n1:0.6 -1:abc 0:0.1\n")
        code = run_cli(["dp", "--theorem", "special", "--measures", str(path),
                        "--a", "-1", "--b", "1", "--n", "4"])
        assert code == 3
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "MeasureError",
                          "message": "line 2: cannot read 'abc' as a number"}

    def test_numeric_error_exits_4(self, capsys):
        # dt*kappa exceeds dx: the scheme's step bound rejects the grid
        code = run_cli(["pde", "--kappa", "5", "--a", "-1", "--b", "1",
                        "--nt", "10", "--eps", "0.1"])
        assert code == 4
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "UnstableGrid"

    def test_failed_upwind_re_march_exits_4(self, capsys, monkeypatch):
        # kappa = 2 on 41 nodes: the centered march of eps = 0.05 breaks the
        # max principle, and here the upwind re-march is made to break it too
        from ambiclt import pde

        march = pde._march

        def upwind_fails(v0, kappa, eps, *args):
            block, ok = march(v0, kappa, eps, *args)
            return block, ok & (args[-1] != "upwind")

        monkeypatch.setattr(pde, "_march", upwind_fails)
        code = run_cli(["pde", "--kappa", "2", "--a", "-1", "--b", "1", "--nx", "41",
                        "--nt", "20", "--eps", "0.2", "0.05"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "UnstableGrid" and "upwind" in record["message"]


class TestReproducibility:
    def test_json_runs_byte_identical(self, tmp_path):
        args = ["mc", "--theorem", "special", "--p", "0.6", "--q", "0.3",
                "--a", "-1", "--b", "1", "--c", "0", "--n", "10",
                "--paths", "2000", "--seed", "11"]
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        assert run_cli(args + ["--output", str(one)]) == 0
        assert run_cli(args + ["--output", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_seed_changes_payload(self, tmp_path):
        base = ["mc", "--theorem", "special", "--p", "0.6", "--q", "0.3",
                "--a", "-1", "--b", "1", "--c", "0", "--n", "10", "--paths", "2000"]
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        assert run_cli(base + ["--seed", "11", "--output", str(one)]) == 0
        assert run_cli(base + ["--seed", "12", "--output", str(two)]) == 0
        assert one.read_bytes() != two.read_bytes()


def usage_exit_code(args):
    """The exit code of an argparse usage error, which exits instead of
    returning."""
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    return exc.value.code


COIN_INI = "[dp]\nn = 4\np = 0.6\nq = 0.3\na = -1\nb = 1\nc = 0\n"


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(COIN_INI)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["dp", "--config", str(cfg), "--theorem", "special",
                        "--output", str(out1)]) == 0
        assert run_cli(["dp", "--config", str(cfg), "--theorem", "special",
                        "--n", "6", "--output", str(out2)]) == 0
        assert json.loads(out1.read_text())["config"]["n"] == 4
        assert json.loads(out2.read_text())["config"]["n"] == 6

    def test_both_config_spellings_write_the_same_bytes(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(COIN_INI)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["dp", "--config", str(cfg), "--output", str(out1)]) == 0
        assert run_cli(["dp", f"--config={cfg}", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_config_file(self, capsys):
        assert run_cli(["dp", "--config", "/nonexistent.ini", "--n", "3"]) == 2

    def test_config_flag_without_a_path(self, capsys):
        assert run_cli(["dp", "--config"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"

    @pytest.mark.parametrize("line", ["n = abc", "n = 4 5", "theorem = bogus", "c = x"])
    def test_bad_value_is_a_usage_error(self, tmp_path, line):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[dp]\np = 0.6\nq = 0.3\na = -1\nb = 1\n{line}\n")
        assert usage_exit_code(["dp", "--config", str(cfg)]) == 2

    def test_sections_keys_lists_and_booleans(self, tmp_path):
        # [global] seed is not a dp option and is skipped; [dp] c overrides
        # [global] c; list values split on whitespace; yes switches --timing on
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[global]\nseed = 5\np = 0.6\nq = 0.3\na = -1\nb = 1\nc = 1\n"
            "[dp]\nc = 0\nn_list = 4 8\ntiming = yes\nformat = csv\n"
        )
        out = tmp_path / "conv.csv"
        assert run_cli(["dp", "--config", str(cfg), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theorem,n,value,reference,gap,runtime_s"
        assert [line.split(",")[1] for line in lines[1:]] == ["4", "8"]
        L = coin_example("0.6", "0.3")
        rule = SwitchRule(0.0, validate_measure_set(L))
        want = float(sup_dp_special(L, TerminalFunction.indicator(-1, 1), 8, rule,
                                    value_mode="float"))
        assert lines[2].split(",")[2] == repr(want)

    def test_flag_overrides_both_sections(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[global]\nn = 3\n" + COIN_INI)
        out = tmp_path / "dp.json"
        assert run_cli(["dp", "--config", str(cfg), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["n"] == 4
        assert run_cli(["dp", "--config", str(cfg), "--n", "5", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["n"] == 5

    def test_config_supplies_a_required_option(self, tmp_path):
        cfg = tmp_path / "k.ini"
        cfg.write_text("[pde]\nkappa = 0.3\n")
        argv = ["pde", "--a", "-1", "--b", "1", "--nx", "201", "--nt", "200"]
        from_file, from_flag = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(argv + ["--config", str(cfg), "--output", str(from_file)]) == 0
        assert run_cli(argv + ["--kappa", "0.3", "--output", str(from_flag)]) == 0
        assert from_file.read_bytes() == from_flag.read_bytes()

    @pytest.mark.parametrize("argv, flags", [
        (["pde", "--a", "-1", "--b", "1"], "--kappa"),
        (["closed-form"], "--mu-lo, --mu-hi"),
        (["mc", "--p", "0.6", "--q", "0.3", "--a", "-1"], "--n"),
        (["hyptest"], "--kappa"),
    ])
    def test_missing_required_option_is_a_usage_error(self, tmp_path, capsys, argv, flags):
        cfg = tmp_path / "empty.ini"
        cfg.write_text("[global]\nseed = 3\n")
        for extra in ([], ["--config", str(cfg)]):
            assert usage_exit_code(argv + extra) == 2
            err = capsys.readouterr().err
            assert f"ambiclt {argv[0]}: error: the following arguments are required: {flags}" in err

    def test_list_option_with_a_default(self, tmp_path):
        cfg = tmp_path / "pde.ini"
        cfg.write_text("[pde]\neps = 0.2 0.1\na = -1\nb = 1\nnx = 201\nnt = 200\n")
        out = tmp_path / "pde.json"
        assert run_cli(["pde", "--kappa", "0.3", "--config", str(cfg),
                        "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["eps"] == [0.2, 0.1]


class TestPerCommandFlags:
    @pytest.mark.parametrize("flag", [["--format", "csv"], ["--timing"]])
    def test_closed_form_takes_neither_format_nor_timing(self, flag):
        argv = ["closed-form", "--mu-lo", "-0.3", "--mu-hi", "0.3", "--a", "-1", "--b", "1"]
        assert usage_exit_code(argv + flag) == 2


class TestHyptestCommand:
    def test_decision_on_data(self, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("0.5\n-1.2\n0.3\n0.7\n-0.4\n")
        out = tmp_path / "hyp.json"
        code = run_cli([
            "hyptest", "--kappa", "0.3", "--sigma", "0.9", "--alpha", "0.05",
            "--theta0", "0", "--data", str(data), "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["decision"] in ("accept", "reject")
        assert payload["coverage"] == pytest.approx(0.95, abs=1e-9)
        assert payload["a"] == -payload["b"]
        assert len(payload["power_curve"]) >= 13

    def test_simulation_path(self, tmp_path):
        out = tmp_path / "hyp.json"
        code = run_cli([
            "hyptest", "--kappa", "0", "--sigma", "1", "--alpha", "0.05",
            "--n", "200", "--paths", "1500", "--seed", "4", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0.85 <= payload["accept_rate"] <= 1.0


class TestReportCommand:
    def test_single_quick_criterion(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run_cli(["report", "--suite", "acceptance", "--criteria", "1",
                        "--output", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "PASS criterion 1" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "criterion,description,passed,detail"
        assert lines[1].startswith("1,")

    def test_failing_criterion_flips_the_exit_code(self, capsys):
        # criterion 8 is the documented honest red: the n=40 sharp-indicator
        # gap is 0.0573 against the criterion's pinned 0.05
        code = run_cli(["report", "--suite", "acceptance", "--criteria", "8"])
        assert code == 1
        assert "FAIL criterion 8" in capsys.readouterr().out


class TestConsoleScript:
    ARGV = ["closed-form", "--mu-lo", "0", "--mu-hi", "0", "--a", "-1", "--b", "1"]

    def test_entry_point_runs(self):
        # run the [project.scripts] target the way the generated wrapper does,
        # with the tree under test first on the child's path
        toml = tomllib or pytest.importorskip("tomli")
        with (Path(__file__).parents[1] / "pyproject.toml").open("rb") as fh:
            target = toml.load(fh)["project"]["scripts"]["ambiclt"]
        entry = EntryPoint("ambiclt", target, "console_scripts")
        assert callable(entry.load())
        src = str(Path(ambiclt.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        wrapper = (f"import sys\nfrom {entry.module} import {entry.attr}\n"
                   f"sys.exit({entry.attr}())")
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, *self.ARGV],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == pytest.approx(0.6826894921370859)

    @pytest.mark.skipif(shutil.which("ambiclt") is None,
                        reason="ambiclt console script not installed")
    def test_installed_script_runs(self):
        proc = subprocess.run(["ambiclt", *self.ARGV], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == pytest.approx(0.6826894921370859)


def test_import_loads_no_scipy_submodule():
    # scipy.special, scipy.integrate and scipy.linalg load on the first call
    # that needs them, not on import
    src = str(Path(ambiclt.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, ambiclt, ambiclt.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
             "(['scipy', 'special'], ['scipy', 'integrate'], ['scipy', 'linalg'])))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
