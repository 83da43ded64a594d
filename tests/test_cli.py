"""CLI behavior: determinism, CSV and metadata output, error handling."""

import json
import math
import warnings

import numpy as np
import pytest

from gmrfinfo.cli import DEFAULT_SEED, build_parser, emit_plotdata, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_exit(capsys, *argv):
    """Exit code and stderr of a run that argparse may end with SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestEmitPlotdata:
    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_plotdata([{"x": 1, "y": 0.5}], ["x", "y"], str(path))
        lines = path.read_text().splitlines()
        assert lines == ["x,y", "1,0.5"]

    def test_five_rows_schema_order(self, tmp_path):
        path = tmp_path / "five.csv"
        rows = [{"b": float(i), "a": i} for i in range(5)]
        emit_plotdata(rows, ["a", "b"], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0] == "a,b"
        assert lines[1] == "0,0"

    def test_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        emit_plotdata([{"v": math.pi}], ["v"], str(path))
        assert path.read_text().splitlines()[1] == "3.14159265359"

    def test_nonfinite_aborts_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [{"v": 1.0}, {"v": math.nan}]
        with pytest.raises(ValueError, match="row 1 column 'v'"):
            emit_plotdata(rows, ["v"], str(path))
        assert not path.exists()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plotdata([], ["x"], str(tmp_path / "e.csv"))


class TestRates:
    def test_prints_rates_and_error(self, capsys):
        code, out, err = run(capsys, "rates", "--snr-db", "10", "--zeta", "0.1")
        assert code == 0
        assert "kli=" in out and "mi=" in out and "quad_error=" in out

    def test_rerun_identical(self, capsys):
        _, out1, _ = run(capsys, "rates", "--snr-db", "10", "--zeta", "0.1")
        _, out2, _ = run(capsys, "rates", "--snr-db", "10", "--zeta", "0.1")
        assert out1 == out2

    def test_linear_snr_flag(self, capsys):
        _, out_db, _ = run(capsys, "rates", "--snr-db", "10", "--zeta", "0.0")
        _, out_lin, _ = run(capsys, "rates", "--snr-linear", "10", "--zeta", "0.0")
        assert out_db == out_lin

    def test_missing_snr_is_error(self, capsys):
        code, out, err = run(capsys, "rates", "--zeta", "0.1")
        assert code == 2
        assert "snr" in err


class TestSweepZeta:
    def test_low_snr_second_mode(self, capsys, tmp_path):
        path = tmp_path / "zeta.csv"
        code, out, _ = run(capsys, "sweep-zeta", "--snr-db", "-5",
                           "--points", "101", "--output", str(path))
        assert code == 0
        rows = np.genfromtxt(path, delimiter=",", names=True)
        kli = rows["kli"]
        zeta = rows["zeta"]
        # strong-correlation mode: an interior local maximum above the
        # uncorrelated value, located near the upper end of the zeta range
        interior = np.argmax(kli)
        assert 0 < interior < len(kli) - 1
        assert zeta[interior] > 0.2
        assert kli[interior] > kli[0]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep-zeta", "--snr-db", "0", "--points", "11", "--output", str(a))
        run(capsys, "sweep-zeta", "--snr-db", "0", "--points", "11", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestMetadata:
    def test_sidecar_contents(self, capsys, tmp_path):
        path = tmp_path / "rates.csv"
        code, _, _ = run(capsys, "rates", "--snr-db", "0", "--zeta", "0.05",
                         "--output", str(path))
        assert code == 0
        meta = json.loads((tmp_path / "rates.csv.meta.json").read_text())
        assert meta["command"] == "rates"
        assert meta["config"]["zeta"] == 0.05
        assert meta["config"]["grid"] == 512
        assert "version" in meta

    def test_mc_verify_sidecar_records_seed(self, capsys, tmp_path):
        path = tmp_path / "mc.csv"
        code, _, _ = run(capsys, "mc-verify", "--snr-db", "0", "--zeta", "0.0",
                         "--n", "16", "--trials", "30", "--output", str(path))
        assert code == 0
        meta = json.loads((tmp_path / "mc.csv.meta.json").read_text())
        assert meta["config"]["seed"] == DEFAULT_SEED

    def test_optimal_density_lists_maxima(self, capsys, tmp_path):
        path = tmp_path / "od.csv"
        code, out, _ = run(capsys, "optimal-density", "--L", "2", "--Et", "50",
                           "--alpha", "100", "--beta", "1", "--E0", "0.1", "--nu", "2",
                           "--points", "40", "--output", str(path))
        assert code == 0
        meta = json.loads((tmp_path / "od.csv.meta.json").read_text())
        assert meta["local_maxima"]
        assert meta["mu_star"] > 0


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr_db": 10, "zeta": 0.1}))
        _, out1, _ = run(capsys, "rates", "--config", str(cfg))
        _, out2, _ = run(capsys, "rates", "--snr-db", "10", "--zeta", "0.1")
        assert out1 == out2
        _, out3, _ = run(capsys, "rates", "--config", str(cfg), "--zeta", "0.2")
        _, out4, _ = run(capsys, "rates", "--snr-db", "10", "--zeta", "0.2")
        assert out3 == out4

    def test_bad_config_is_error_exit(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "rates", "--config", str(cfg), "--zeta", "0.1")
        assert code == 2
        assert "error:" in err

    def test_trailing_config_without_path(self, capsys):
        code, err = run_exit(capsys, "rates", "--zeta", "0.1", "--config")
        assert code == 2
        assert "--config" in err and "expected one argument" in err

    def test_config_with_both_snrs_rejected(self, capfd, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr_db": 10, "snr_linear": 2, "zeta": 0.1}))
        code = main(["rates", "--config", str(cfg)])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: config file {cfg} sets both snr_db and snr_linear; give one\n"

    @pytest.mark.parametrize("key,value,flag,arg", [("snr_linear", 2, "--snr-db", "10"),
                                                    ("snr_db", 10, "--snr-linear", "2")])
    def test_snr_flag_beats_config_snr(self, capsys, tmp_path, key, value, flag, arg):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value, "zeta": 0.1}))
        code, out, _ = run(capsys, "rates", "--config", str(cfg), flag, arg)
        assert code == 0
        assert out == run(capsys, "rates", "--zeta", "0.1", flag, arg)[1]

    @pytest.mark.parametrize("key,value", [("seed", 5), ("zeta", [0.1])])
    def test_unknown_or_mistyped_key_named(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr_db": 10, "zeta": 0.1, key: value}))
        code, _, err = run(capsys, "rates", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:") and key in err


class TestFlagScope:
    SEED = {"mc-verify"}

    def test_flags_only_where_read(self):
        _, commands = build_parser()
        for name, sub in commands.items():
            flags = {opt for action in sub._actions for opt in action.option_strings}
            assert ("--seed" in flags) == (name in self.SEED), name
            assert "--threads" not in flags, name

    @pytest.mark.parametrize("argv", [
        ["rates", "--snr-db", "0", "--zeta", "0.1", "--seed", "5"],
        ["sweep-zeta", "--snr-db", "0", "--points", "3", "--seed", "5"],
        ["rates", "--snr-db", "0", "--zeta", "0.1", "--threads", "2"],
    ])
    def test_unread_flag_rejected(self, capsys, argv):
        code, err = run_exit(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments" in err


# A cheap valid run of every command; the error-path cases append one flag to it.
BASE_ARGV = {
    "rates": ["--snr-db", "0", "--zeta", "0.1"],
    "sweep-zeta": ["--snr-db", "0", "--points", "3"],
    "sweep-snr": ["--zeta", "0.1", "--points", "3"],
    "optimal-zeta": ["--snr-db-min", "0", "--snr-db-max", "1", "--step-db", "1"],
    "mc-verify": ["--snr-db", "0", "--zeta", "0.1", "--n", "8", "--trials", "30"],
    "scaling": ["--n-list", "9", "17"],
    "spacing": ["--snr-db", "0", "--points", "3"],
    "density": ["--snr-db", "0", "--points", "3"],
    "energy": ["--et-list", "1e4", "1e5"],
    "optimal-density": ["--L", "2", "--Et", "50", "--alpha", "100", "--beta", "1",
                        "--E0", "0.1", "--nu", "2", "--points", "5"],
}


def _float_flags():
    _, commands = build_parser()
    assert set(commands) == set(BASE_ARGV)
    return [(name, opt) for name, sub in commands.items() for action in sub._actions
            if action.type is float for opt in action.option_strings]


class TestErrorPaths:
    @pytest.mark.parametrize("command", sorted(BASE_ARGV))
    def test_base_argv_runs(self, capsys, command):
        code, err = run_exit(capsys, command, *BASE_ARGV[command], "--grid", "16")
        assert code == 0, err

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # linspace of inf
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,flag", _float_flags())
    def test_nonfinite_float_flag_is_error(self, capsys, command, flag, value):
        code, err = run_exit(capsys, command, *BASE_ARGV[command], "--grid", "16", f"{flag}={value}")
        assert code == 2
        assert any(line.startswith("error:") for line in err.splitlines()), err

    @pytest.mark.parametrize("argv,message", [
        (["mc-verify", "--snr-db", "0", "--zeta", "0.1", "--sigma2=0"], "sigma2 must be positive, got 0.0"),
        (["mc-verify", "--snr-db", "0", "--zeta", "0.1", "--sigma2=-1"], "sigma2 must be positive, got -1.0"),
        (["optimal-zeta", "--step-db", "0"], "--step-db must be positive, got 0.0"),
        (["optimal-zeta", "--step-db=-0.5"], "--step-db must be positive, got -0.5"),
        (["optimal-zeta", "--snr-db-min", "inf"], "--snr-db-min must be finite, got inf"),
        (["optimal-zeta", "--snr-db-max=-inf"], "--snr-db-max must be finite, got -inf"),
        (["rates", "--snr-db=-inf", "--zeta", "0.1"], "--snr-db must be finite, got -inf"),
        (["rates", "--snr-db", "0", "--zeta", "0.1", "--grid", "0"], "grid must be >= 1, got 0"),
        (["density", "--snr-db", "0", "--L", "nan"], "L must be finite, got nan"),
        (["density", "--snr-db", "0", "--mu-min", "0"], "--mu-min must be positive, got 0.0"),
        (["optimal-density", "--L", "2", "--Et", "50", "--alpha", "100", "--beta", "1",
          "--E0", "0.1", "--nu=-inf"], "nu must be finite, got -inf"),
        (["optimal-zeta", "--snr-db-min", "2", "--snr-db-max", "1"],
         "--snr-db-max (1.0) is below --snr-db-min (2.0)"),
        (["spacing", "--snr-db", "0", "--dn-min", "0", "--points", "3"], "spacing must be positive, got 0.0"),
    ])
    def test_bad_input_is_one_named_error_line(self, capfd, argv, message):
        code = main(argv)
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,flag", [
        (["rates", "--snr-db", "4000", "--zeta", "0.1"], "--snr-db"),
        (["mc-verify", "--snr-db", "4000", "--zeta", "0.1"], "--snr-db"),
        (["optimal-zeta", "--snr-db-min", "4000", "--snr-db-max", "4000"], "--snr-db-max"),
        (["sweep-snr", "--zeta", "0.1", "--snr-db-max", "4000"], "--snr-db-max"),
        (["sweep-snr", "--zeta", "0.1", "--snr-db-min", "4000", "--snr-db-max", "0"], "--snr-db-min"),
    ])
    def test_overflowing_snr_db_is_named(self, capfd, argv, flag):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {flag} is too large: its linear SNR overflows a float\n"

    @pytest.mark.parametrize("command", ["sweep-zeta", "sweep-snr", "spacing", "density",
                                         "optimal-density"])
    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_below_one_is_named(self, capfd, command, points):
        code = main([command, *BASE_ARGV[command], "--points", points])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --points must be positive, got {points}\n"

    @pytest.mark.parametrize("command", ["rates", "sweep-zeta", "mc-verify", "spacing", "density"])
    @pytest.mark.parametrize("order", [("--snr-db", "10", "--snr-linear", "2"),
                                       ("--snr-linear", "2", "--snr-db", "10")])
    def test_both_snr_flags_is_one_error_line(self, capfd, command, order):
        code = main([command, *BASE_ARGV[command], *order])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: give one of --snr-db and --snr-linear, not both\n"

    @pytest.mark.parametrize("argv", [
        ["--snr-db-min", "0", "--snr-db-max", "100000", "--step-db", "1e-300"],
        ["--snr-db-min", "0", "--snr-db-max", "10", "--step-db", "1e-5"],  # 10^6 + 1 points
        ["--snr-db-min=-1e308", "--snr-db-max", "1e308", "--step-db", "1"],
    ])
    def test_optimal_zeta_solve_count_is_bounded(self, capfd, argv):
        code = main(["optimal-zeta", *argv])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --step-db is too small: the range needs more than 1000000 solves\n"

    def test_snr_linear_zero_still_means_zero_snr(self, capsys):
        code, out, _ = run(capsys, "rates", "--snr-linear", "0", "--zeta", "0.1")
        assert code == 0
        assert out.startswith("kli=0 mi=0 ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_spacing_is_one_error_line(self, capfd, value):
        code = main(["scaling", "--n-list", "17", "33", f"--dn={value}"])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: dn must be finite, got {float(value)!r}\n"

    def test_infeasible_energy_exit_code(self, capsys):
        code, _, err = run(capsys, "energy", "--et-list", "0.001")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_mc_verify_nonfinite_sigma2_named(self, capfd, value):
        code = main(["mc-verify", "--snr-db", "0", "--zeta", "0.1", f"--sigma2={value}", "--n", "8"])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: sigma2 must be finite, got {float(value)!r}\n"

    def test_mc_verify_runs(self, capsys):
        code, out, _ = run(capsys, "mc-verify", "--snr-db", "0", "--zeta", "0.0",
                           "--n", "16", "--trials", "50")
        assert code == 0
        assert "mc mean=" in out and "target=" in out


class TestOptimalZetaRange:
    def rows(self, capsys, tmp_path, *argv):
        path = tmp_path / "oz.csv"
        code, _, err = run(capsys, "optimal-zeta", *argv, "--grid", "8", "--output", str(path))
        assert code == 0, err
        return np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True)["snr_db"])

    def test_last_row_stays_within_max(self, capsys, tmp_path):
        dbs = self.rows(capsys, tmp_path, "--snr-db-min", "0", "--snr-db-max", "1.6", "--step-db", "1")
        assert list(dbs) == [0.0, 1.0]

    def test_max_reached_despite_division_rounding(self, capsys, tmp_path):
        # 0.3 / 0.1 rounds to 2.9999999999999996
        dbs = self.rows(capsys, tmp_path, "--snr-db-min", "0", "--snr-db-max", "0.3", "--step-db", "0.1")
        assert len(dbs) == 4 and dbs[-1] == 0.3

    def test_default_range_has_41_rows(self, capsys, tmp_path):
        dbs = self.rows(capsys, tmp_path)
        assert len(dbs) == 41 and dbs[0] == -10.0 and dbs[-1] == 10.0


class TestAllCommands:
    @pytest.mark.parametrize("argv", [
        ["sweep-snr", "--zeta", "0.1", "--points", "5"],
        ["optimal-zeta", "--snr-db-min", "2", "--snr-db-max", "4", "--step-db", "1",
         "--grid", "128"],
        ["scaling", "--n-list", "17", "33", "65"],
        ["scaling", "--n-list", "17", "33", "65", "--fusion"],
        ["spacing", "--snr-db", "10", "--points", "5"],
        ["density", "--snr-db", "0", "--points", "6"],
        ["energy", "--et-list", "1e4", "1e5", "1e6"],
    ])
    def test_command_writes_csv_and_metadata(self, capsys, tmp_path, argv):
        path = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert code == 0, err
        lines = path.read_text().splitlines()
        assert len(lines) >= 2
        assert (tmp_path / "out.csv.meta.json").exists()
