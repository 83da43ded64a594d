"""CLI behavior: determinism, CSV and metadata output, error handling."""

import json
import math

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

    def test_threads_invariant(self, capsys, tmp_path):
        a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
        run(capsys, "sweep-zeta", "--snr-db", "3", "--points", "15",
            "--threads", "1", "--output", str(a))
        run(capsys, "sweep-zeta", "--snr-db", "3", "--points", "15",
            "--threads", "4", "--output", str(b))
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

    @pytest.mark.parametrize("key,value", [("seed", 5), ("zeta", [0.1])])
    def test_unknown_or_mistyped_key_named(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr_db": 10, "zeta": 0.1, key: value}))
        code, _, err = run(capsys, "rates", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:") and key in err


class TestFlagScope:
    SEED = {"mc-verify"}
    THREADS = {"sweep-zeta", "sweep-snr", "optimal-zeta", "scaling"}

    def test_flags_only_where_read(self):
        _, commands = build_parser()
        for name, sub in commands.items():
            flags = {opt for action in sub._actions for opt in action.option_strings}
            assert ("--seed" in flags) == (name in self.SEED), name
            assert ("--threads" in flags) == (name in self.THREADS), name

    @pytest.mark.parametrize("argv", [
        ["rates", "--snr-db", "0", "--zeta", "0.1", "--seed", "5"],
        ["sweep-zeta", "--snr-db", "0", "--points", "3", "--seed", "5"],
        ["rates", "--snr-db", "0", "--zeta", "0.1", "--threads", "2"],
    ])
    def test_unread_flag_rejected(self, capsys, argv):
        code, err = run_exit(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments" in err


class TestErrorPaths:
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

    def test_threads_env_default(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "env.csv", tmp_path / "flag.csv"
        monkeypatch.setenv("GMRFINFO_THREADS", "3")
        run(capsys, "sweep-zeta", "--snr-db", "0", "--points", "9", "--output", str(a))
        monkeypatch.delenv("GMRFINFO_THREADS")
        run(capsys, "sweep-zeta", "--snr-db", "0", "--points", "9",
            "--threads", "3", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()
