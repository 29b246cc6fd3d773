import os
import subprocess
import sys
from pathlib import Path

import pytest

import comp_noma
from comp_noma import read_results
from comp_noma.cli import main


def test_defaulted_run_writes_csv_and_plot(tmp_path):
    out = tmp_path / "results.csv"
    plot = tmp_path / "results.svg"
    code = main(["--trials", "200", "--steps", "3", "--schemes", "comp-vpnoma",
                 "--out", str(out), "--plot", str(plot)])
    assert code == 0
    rows = read_results(out)
    assert len(rows) == 3
    assert plot.read_text().count("<polyline") == 1


def test_default_output_is_results_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["--trials", "100", "--steps", "2", "--schemes", "oma"])
    assert code == 0
    assert len(read_results(tmp_path / "results.csv")) == 2


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("trials=200\nsteps=3\nschemes=oma\nseed=9\n")
    out = tmp_path / "out.csv"
    code = main(["--config", str(config), "--schemes", "oma,noma",
                 "--steps", "4", "--out", str(out)])
    assert code == 0
    rows = read_results(out)
    assert len(rows) == 8
    assert all(row.seed == 9 for row in rows)


def test_sweep_flag_selects_kind(tmp_path):
    out = tmp_path / "alpha.csv"
    code = main(["--sweep", "alpha", "--trials", "100", "--steps", "3",
                 "--schemes", "oma", "--out", str(out)])
    assert code == 0
    rows = read_results(out)
    assert [round(r.sweep_value, 4) for r in rows] == [0.05, 0.145, 0.24]


def test_configuration_error_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("alpha=0.5\n")
    assert main(["--config", str(config)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.cfg")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["oma", "noma", "vpnoma", "comp-vpnoma"])
def test_snr_that_overflows_the_sinr_terms_exits_2(tmp_path, capsys, scheme):
    out = tmp_path / "x.csv"
    assert main(["--from", "3000", "--to", "3082", "--steps", "2", "--trials",
                 "100", "--schemes", scheme, "--out", str(out)]) == 2
    assert "key 'to'" in capsys.readouterr().err
    assert not out.exists()


def test_snr_that_underflows_and_upsilon_that_overflows_exit_2(tmp_path,
                                                              capsys):
    out = tmp_path / "x.csv"
    assert main(["--from", "-5000", "--to", "10", "--steps", "2", "--trials",
                 "10", "--schemes", "oma", "--out", str(out)]) == 2
    assert "key 'from'" in capsys.readouterr().err
    config = tmp_path / "upsilon.cfg"
    config.write_text("upsilon=1e306\n")
    assert main(["--config", str(config), "--trials", "10", "--steps", "2",
                 "--schemes", "comp-vpnoma", "--out", str(out)]) == 2
    assert "key 'upsilon'" in capsys.readouterr().err
    assert not out.exists()


def test_snr_and_upsilon_that_overflow_the_closed_form_exit_2(tmp_path,
                                                             capsys):
    out = tmp_path / "x.csv"
    run = ["--steps", "2", "--trials", "10", "--out", str(out)]
    snr = ["--from", "-3100", "--to", "10"]
    config = tmp_path / "upsilon.cfg"
    config.write_text("sweep=alpha\nrho_db=-50\nupsilon=1e307\n")
    assert main(snr + run + ["--schemes", "comp-vpnoma"]) == 2
    assert "key 'from'" in capsys.readouterr().err
    assert main(["--config", str(config), "--schemes", "comp-vpnoma"] + run) == 2
    assert "key 'upsilon'" in capsys.readouterr().err
    assert not out.exists()
    # the Monte Carlo schemes run at both
    assert main(snr + run + ["--schemes", "oma"]) == 0
    assert main(["--config", str(config), "--schemes", "oma"] + run) == 0


def test_unknown_flag_value_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["--sweep", "bandwidth"])
    assert excinfo.value.code == 2


def test_runtime_error_exits_1(tmp_path, capsys):
    out = tmp_path / "no_dir" / "x.csv"
    code = main(["--trials", "50", "--steps", "2", "--schemes", "oma",
                 "--out", str(out)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_module_invocation_round_trips(tmp_path):
    out = tmp_path / "cli.csv"
    # The child imports the same package this test does, installed or not.
    package_root = str(Path(comp_noma.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "comp_noma", "--trials", "50", "--steps", "2",
         "--schemes", "oma", "--seed", "4", "--out", str(out)],
        capture_output=True, text=True, timeout=600, env=env)
    assert result.returncode == 0, result.stderr
    assert "wrote 2 rows" in result.stdout
    assert len(read_results(out)) == 2


def test_workers_flag_reproduces_serial_output(tmp_path):
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    args = ["--trials", "20000", "--steps", "2", "--schemes", "comp-vpnoma",
            "--seed", "2"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(threaded), "--workers", "8"]) == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_nonpositive_workers_exit_2(tmp_path, capsys):
    for workers in ("0", "-3"):
        assert main(["--workers", workers, "--out",
                     str(tmp_path / "x.csv")]) == 2
        assert "key 'workers'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key", ["from", "to", "steps", "schemes", "trials",
                                 "seed"])
def test_each_config_key_flag_reaches_its_key(tmp_path, capsys, key):
    out = tmp_path / "x.csv"
    assert main([f"--{key}", "bogus", "--out", str(out)]) == 2
    assert f"command line: key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_schemes_help_lists_every_scheme_token(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "comma-separated subset of " + ",".join(
        scheme.token for scheme in comp_noma.SchemeId) in help_text
