"""CLI behavior: determinism, CSV and metadata output, error handling."""

import json
import math
import warnings

import numpy as np
import pytest

from gmrfinfo import cli
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
        assert "grid=" not in out

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
        assert "grid" not in meta["config"]  # the rates have no quadrature knob
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

    @pytest.mark.parametrize("argv,nulls", [
        (["spacing", "--snr-db", "0", "--dn-min", "700", "--dn-max", "800", "--points", "3"],
         ["gap_fit_slope", "alpha_estimate"]),
        (["density", "--snr-linear", "0"], ["plateau_variation"]),
    ])
    def test_nonfinite_extras_are_null(self, capsys, tmp_path, argv, nulls):
        def reject(token):
            raise ValueError(f"sidecar holds {token}")

        path = tmp_path / "out.csv"
        assert run(capsys, *argv, "--output", str(path))[0] == 0
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text(), parse_constant=reject)
        assert all(meta[key] is None for key in nulls)


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

    def test_config_that_is_not_an_object_is_one_error_line(self, capfd, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        code = main(["rates", "--config", str(cfg), "--zeta", "0.1"])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: config file {cfg} must hold a JSON object\n"

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
        code, err = run_exit(capsys, command, *BASE_ARGV[command])
        assert code == 0, err

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # linspace of inf
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,flag", _float_flags())
    def test_nonfinite_float_flag_is_error(self, capsys, command, flag, value):
        code, err = run_exit(capsys, command, *BASE_ARGV[command], f"{flag}={value}")
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
        (["rates", "--snr-db", "0", "--zeta", "0.1", "--grid", "16"], "unrecognized arguments: --grid 16"),
        (["density", "--snr-db", "0", "--L", "nan"], "L must be finite, got nan"),
        (["density", "--snr-db", "0", "--mu-min", "0"], "--mu-min must be positive, got 0.0"),
        (["optimal-density", "--L", "2", "--Et", "50", "--alpha", "100", "--beta", "1",
          "--E0", "0.1", "--nu=-inf"], "nu must be finite, got -inf"),
        (["optimal-zeta", "--snr-db-min", "2", "--snr-db-max", "1"],
         "--snr-db-max (1.0) is below --snr-db-min (2.0)"),
        (["spacing", "--snr-db", "0", "--dn-min", "0", "--points", "3"], "spacing must be positive, got 0.0"),
        (["spacing", "--snr-linear", "-1"], "snr must be >= 0, got -1.0"),
        (["spacing", "--snr-linear", "nan"], "snr must be finite, got nan"),
        (["sweep-zeta", "--snr-db", "0", "--zeta-max", "0.3", "--points", "3"],
         "zeta must lie in [0, 1/4], got 0.3"),
        (["density", "--snr-db", "0", "--L", "1", "--points", "3"],
         "density 0.1 puts fewer than one node on an area of side L = 1.0"),
    ])
    def test_bad_input_is_one_named_error_line(self, capfd, argv, message):
        code = main(argv)
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_spacing_at_zero_snr_runs(self, capfd):
        assert main(["spacing", "--snr-linear", "0", "--points", "3"]) == 0
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("flag", ["--points"])
    def test_huge_integer_flag_is_an_error_line(self, capfd, flag):
        # an int too large for a float still passes the finite check and fails as a size
        code = main(["sweep-zeta", "--snr-db", "0", "--points", "3", flag, "1" + "0" * 400])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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

    @pytest.mark.filterwarnings("error")
    def test_repeated_side_is_one_error_line(self, capfd):
        code = main(["scaling", "--n-list", "33", "33"])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: not enough distinct points left to fit\n"

    @pytest.mark.parametrize("argv,message", [
        (["scaling", "--dn", "1e200"], "dn ** nu overflows a float (dn=1e+200, nu=2.0)"),
        (["scaling", "--nu", "1e5", "--dn", "2"], "dn ** nu overflows a float (dn=2.0, nu=100000.0)"),
        (["energy", "--dn", "1e200"], "dn ** nu overflows a float (dn=1e+200, nu=2.0)"),
        (["optimal-density", "--L", "1e200", "--Et", "100", "--alpha", "100", "--beta", "1",
          "--E0", "0.1", "--nu", "2", "--points", "3"], "no density satisfies the energy constraint"),
    ])
    def test_overflowing_energy_is_one_error_line(self, capfd, argv, message):
        code = main(argv)
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["scaling", "--n-list", str(10**200), "9", "17"],
        ["energy", "--n", str(10**200)],
        ["scaling", "--n-list", str(10**113), "9"],
    ])
    def test_overflowing_side_is_one_error_line(self, capfd, argv):
        code = main(argv)
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: n is too large: n ** 3 overflows a float\n"

    def test_huge_density_side_runs(self, capfd, tmp_path):
        # --L only bounds the one-node check, so --L 1e200 writes the --L 4 rows
        paths = [tmp_path / f"{side}.csv" for side in ("4", "1e200")]
        for path in paths:
            assert main(["density", "--snr-db", "0", "--L", path.stem, "--points", "3",
                         "--output", str(path)]) == 0
        assert capfd.readouterr().err == ""
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 74.5 TiB for an array with shape (10000000000000,)"),
         "Unable to allocate 74.5 TiB for an array with shape (10000000000000,)"),
        (MemoryError(), "MemoryError"),
    ])
    def test_allocation_failure_is_one_error_line(self, capfd, monkeypatch, exc, message):
        def runner(args):
            raise exc

        monkeypatch.setitem(cli._RUNNERS, "sweep-zeta", runner)  # nothing is allocated
        code = main(["sweep-zeta", "--snr-db", "0", "--points", "10000000000000"])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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


# BASE_ARGV as --config objects
BASE_CONFIG = {
    "rates": {"snr_db": 0, "zeta": 0.1},
    "sweep-zeta": {"snr_db": 0, "points": 3},
    "sweep-snr": {"zeta": 0.1, "points": 3},
    "optimal-zeta": {"snr_db_min": 0, "snr_db_max": 1, "step_db": 1},
    "mc-verify": {"snr_db": 0, "zeta": 0.1, "n": 8, "trials": 30},
    "scaling": {"n_list": [9, 17]},
    "spacing": {"snr_db": 0, "points": 3},
    "density": {"snr_db": 0, "points": 3},
    "energy": {"et_list": [1e4, 1e5]},
    "optimal-density": {"L": 2, "et": 50, "alpha": 100, "beta": 1, "e0": 0.1, "nu": 2, "points": 5},
}


class TestConfigAsFlags:
    """A --config object stands for the flags it names and goes through the same parser."""

    def outputs(self, capfd, tmp_path, name, *argv, config=None):
        path = tmp_path / f"{name}.csv"
        if config is not None:
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            argv += ("--config", str(tmp_path / f"{name}.json"))
        code = main([*argv, "--output", str(path)])
        captured = capfd.readouterr()
        assert code == 0, captured.err
        meta = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
        del meta["config"]["config"], meta["config"]["output"]
        return path.read_bytes(), meta

    @pytest.mark.parametrize("command", sorted(BASE_ARGV))
    def test_config_matches_flags(self, capfd, tmp_path, command):
        typed = self.outputs(capfd, tmp_path, "typed", command, *BASE_ARGV[command])
        filed = self.outputs(capfd, tmp_path, "filed", command, config=BASE_CONFIG[command])
        assert filed == typed

    @pytest.mark.parametrize("command", sorted(BASE_ARGV))
    def test_sidecar_config_round_trips(self, capfd, tmp_path, command):
        typed = tmp_path / "typed.csv"
        assert main([command, *BASE_ARGV[command], "--output", str(typed)]) == 0
        config = json.loads((tmp_path / "typed.csv.meta.json").read_text())["config"]
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        again = tmp_path / "again.csv"
        code = main([command, "--config", str(tmp_path / "cfg.json"), "--output", str(again)])
        captured = capfd.readouterr()
        assert code == 0, captured.err
        assert again.read_bytes() == typed.read_bytes()

    def test_null_value_is_not_given(self, capfd, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(
            json.dumps({"snr_db": 0, "snr_linear": None, "zeta": 0.1, "output": None}))
        assert main(["rates", "--config", "cfg.json"]) == 0
        filed = capfd.readouterr().out
        assert main(["rates", "--snr-db", "0", "--zeta", "0.1"]) == 0
        assert filed == capfd.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_grid_key_is_unknown(self, capfd, tmp_path):
        # the rates take no quadrature knob, so a grid key is an error, not ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr_db": 0, "zeta": 0.1, "grid": 512}))
        code = main(["rates", "--config", str(cfg)])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: unknown config key(s) for rates: grid\n"

    def test_nested_config_is_one_error_line(self, capfd, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr_db": 0, "zeta": 0.1, "config": "x.json"}))
        code = main(["rates", "--config", str(cfg)])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: config file {cfg} sets config; config files do not nest\n"

    def test_switch_takes_true_or_false(self, capfd, tmp_path):
        argv = ("scaling", "--n-list", "9", "17")
        on = self.outputs(capfd, tmp_path, "on", *argv, "--fusion")
        off = self.outputs(capfd, tmp_path, "off", *argv)
        assert on != off
        assert self.outputs(capfd, tmp_path, "true", *argv, config={"fusion": True}) == on
        assert self.outputs(capfd, tmp_path, "false", *argv, config={"fusion": False}) == off

    def test_negative_value(self, capfd, tmp_path):
        typed = self.outputs(capfd, tmp_path, "typed", "rates", "--snr-db", "-5", "--zeta", "0.1")
        assert self.outputs(capfd, tmp_path, "filed", "rates",
                            config={"snr_db": -5, "zeta": 0.1}) == typed

    @pytest.mark.parametrize("key,flag", [("snr_linear", "--snr-db"), ("snr_db", "--snr-linear")])
    def test_typed_snr_leaves_file_snr_null(self, capfd, tmp_path, key, flag):
        _, meta = self.outputs(capfd, tmp_path, "out", "rates", flag, "10",
                               config={key: 2, "zeta": 0.1})
        assert meta["config"][key] is None

    @pytest.mark.parametrize("command,config,flag,reason", [
        ("scaling", {"fusion": "false"}, "--fusion", "ignored explicit argument"),
        ("scaling", {"n_list": [33.7, 65]}, "--n-list", "invalid int value"),
        ("sweep-zeta", {"snr_db": 0, "points": 2.9}, "--points", "invalid int value"),
        ("scaling", {"n_list": []}, "--n-list", "expected at least one argument"),
        ("scaling", {"n_list": ["9", "17", "--fusion"]}, "--n-list", "invalid int value"),
        ("scaling", {"measure": "bogus"}, "--measure", "invalid choice"),
    ])
    def test_bad_value_is_one_error_line(self, capfd, tmp_path, command, config, flag, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main([command, "--config", str(cfg)])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument {flag}: {reason}")
        assert captured.err.count("\n") == 1

    def test_typed_flag_error_has_no_usage_block(self, capfd):
        code = main(["rates", "--zeta", "abc"])
        captured = capfd.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: argument --zeta: invalid float value: 'abc'\n"


class TestOptimalZetaRange:
    def rows(self, capsys, tmp_path, *argv):
        path = tmp_path / "oz.csv"
        code, _, err = run(capsys, "optimal-zeta", *argv, "--output", str(path))
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
        ["optimal-zeta", "--snr-db-min", "2", "--snr-db-max", "4", "--step-db", "1"],
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
