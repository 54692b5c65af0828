"""Config schema, CLI wiring, exit codes, output reproducibility."""

import gc
import json
import os
import sys

import pytest

from lorentzlab import dynamics, experiments
from lorentzlab.cli import _collect_overrides, build_parser, console_main, main
from lorentzlab.config import (
    MAX_CENTERS_PER_CELL,
    SCHEMAS,
    ConfigError,
    build_config,
    parse_config_file,
    parse_decade_ladder,
    parse_float_list,
)
from lorentzlab.dynamics import StuckParticleError
from lorentzlab.experiments import run_experiment, write_outputs


class TestConfigParsing:
    def test_key_value_lines(self):
        raw = parse_config_file("a = 1\n# comment\n\nb= two # trailing\n")
        assert raw == {"a": "1", "b": "two"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_file("just words\n")

    def test_defaults_and_overrides(self):
        cfg = build_config("scatter-table", "alpha = 0.4\n",
                           {"samples": "11"})
        assert cfg["alpha"] == 0.4
        assert cfg["samples"] == 11
        assert cfg["epsilon"] == 2.0**-6  # default
        assert cfg["out_prefix"] == "scatter-table"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config("scatter-table", "bogus = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            build_config("scatter-table", "samples = lots\n")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment 'nope'"):
            build_config("nope")

    def test_wrong_experiment_declared(self):
        with pytest.raises(ConfigError):
            build_config("scatter-table", "experiment = fick-slab\n")

    def test_validation_rules(self):
        with pytest.raises(ConfigError):
            build_config("scatter-table", "alpha = 0.9\n")
        with pytest.raises(ConfigError):
            build_config("kinetic-compare", "kmin = 9\nkmax = 6\n")
        with pytest.raises(ConfigError):
            build_config("thermalization", "initial = sideways\n")

    def test_ladders(self):
        assert parse_decade_ladder("1e-4..1e-6") == [1e-4, 1e-5, 1e-6]
        assert parse_decade_ladder("1e-6..1e-4") == [1e-4, 1e-5, 1e-6]
        assert parse_float_list("0.5, 1, 2") == [0.5, 1.0, 2.0]
        with pytest.raises(ConfigError):
            parse_decade_ladder("nope")


def _parsed(argv):
    """The overrides main passes to build_config for argv."""
    return _collect_overrides(build_parser().parse_args(argv))


class TestCLI:
    def test_success_and_outputs(self, tmp_path):
        rc = main(["scatter-table", "--alpha", "0.25", "--epsilon", "0.01",
                   "--samples", "21", "--out-dir", str(tmp_path)])
        assert rc == 0
        csv = (tmp_path / "scatter-table.csv").read_text().splitlines()
        assert csv[0] == "rho,theta,branch"
        assert len(csv) == 22
        meta = json.loads((tmp_path / "scatter-table.json").read_text())
        assert meta["experiment"] == "scatter-table"
        assert meta["config_resolved"]["samples"] == 21
        assert "duration_s" in meta

    def test_config_file_roundtrip(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("experiment = scatter-table\nsamples = 7\n")
        rc = main(["scatter-table", "--config", str(cfgfile),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        meta = json.loads((tmp_path / "scatter-table.json").read_text())
        assert meta["config_resolved"]["samples"] == 7
        assert "samples = 7" in meta["config_file_text"]

    def test_config_error_exit_code(self, capsys):
        assert main(["scatter-table", "--set", "bogus=1"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["thermalization", "--times", "0.5,abc"],
        ["thermalization", "--times", ""],
        ["b-divergence", "--eps", "garbage"],
        ["b-divergence", "--eps", "1..1e-4"],
        ["b-divergence", "--eps", "10..1e-4"],
        ["diffusion", "--B", "-1"],
        ["diffusion", "--paths", "100", "--t", "-3"],
        ["diffusion", "--paths", "100", "--set", "dt=-0.5"],
        # horizons under two steps leave the late-half MSD fit one point
        ["diffusion", "--paths", "100", "--t", "0.005", "--dt", "0.01"],
        ["diffusion", "--paths", "100", "--t", "0.01", "--dt", "0.01"],
        ["diffusion", "--paths", "100", "--t", "inf"],
        ["diffusion", "--paths", "100", "--B", "inf"],
        ["diffusive-scale", "--set", "checkpoints=3"],
        ["fick-slab", "--set", "bins=3"],
        ["fick-slab", "--injections", "1"],
        ["thermalization", "--k", "0"],
        ["pathology-scan", "--eps-ladder", "0..1"],
        ["pathology-scan", "--time", "-1"],
        ["thermalization", "--times", "-0.5"],
        ["diffusive-scale", "--time", "-1"],
        ["kinetic-compare", "--time", "0"],
        ["scatter-table", "--epsilon", "1.5"],
        ["fick-slab", "--y-period-cells", "0"],
        # an infinite mean would never finish generating a cell
        ["fick-slab", "--mu", "inf"],
        ["fick-slab", "--eta", "inf"],
        ["kinetic-compare", "--mu", "inf"],
        ["kinetic-compare", "--speed", "inf"],
        # nor would a finite one of 1e300 centers per cell
        ["fick-slab", "--mu", "1e300", "--injections", "16"],
        ["kinetic-compare", "--mu", "1e300", "--eps-ladder", "4..4",
         "--samples", "16"],
        # a one-bin chi-square has no degree of freedom
        ["thermalization", "--k", "4", "--times", "0.125", "--samples", "16",
         "--angle-bins", "1"],
    ])
    def test_bad_run_value_is_config_error(self, argv, tmp_path, capsys):
        # caught before the run starts, so nothing is written
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (["scatter-table", "--set", "samples"],
         "--set expects KEY=VALUE, got 'samples'"),
        (["pathology-scan", "--eps-ladder", "3-4"],
         "bad ladder '3-4'; expected KMIN..KMAX"),
        (["scatter-table", "--workers", "0"], "workers must be >= 1"),
    ])
    def test_bad_argument_exits_2_with_its_message(self, argv, message,
                                                   tmp_path, capsys):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("experiment,centers_per_unit_mu", [
        ("fick-slab", 16.0 * 2.0 * 2.0**-6),  # 16 mu eta eps
        ("kinetic-compare", 16.0 * 2.0**-2),  # 16 mu eps^(1 - 2 alpha), k = 4
        ("thermalization", 16.0 * 2.0**-4),   # the same at k = 8
    ])
    def test_centers_per_cell_bound(self, experiment, centers_per_unit_mu):
        # the default config's coarsest cell reaches the bound at this mu
        mu = MAX_CENTERS_PER_CELL / centers_per_unit_mu
        build_config(experiment, "", {"mu": mu * (1.0 - 1e-9)})
        with pytest.raises(ConfigError, match="centers per field cell"):
            build_config(experiment, "", {"mu": mu * (1.0 + 1e-9)})

    def test_malformed_flag_value_is_config_error(self, capsys):
        assert main(["scatter-table", "--samples", "lots"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,key", [
        (name, key) for name, schema in SCHEMAS.items() for key in schema])
    def test_every_key_is_a_flag(self, experiment, key):
        default = str(SCHEMAS[experiment][key].default)
        flag = _parsed([experiment, "--" + key.replace("_", "-"), default])
        via_set = _parsed([experiment, "--set", f"{key}={default}"])
        assert flag == {key: default}
        assert (build_config(experiment, "", flag).values
                == build_config(experiment, "", via_set).values)

    @pytest.mark.parametrize("experiment", list(SCHEMAS))
    def test_help_lists_every_key(self, experiment, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no help string is wrapped
        with pytest.raises(SystemExit):
            build_parser().parse_args([experiment, "--help"])
        out = capsys.readouterr().out
        for spec in SCHEMAS[experiment].values():
            assert spec.help in out

    def test_ladder_spellings(self):
        assert _parsed(["b-divergence", "--eps", "1e-4..1e-6"]) == {
            "eps_ladder": "1e-4..1e-6"}
        for experiment in ("kinetic-compare", "pathology-scan"):
            cfg = build_config(experiment, "", _parsed(
                [experiment, "--eps-ladder", "5..7"]))
            assert (cfg["kmin"], cfg["kmax"]) == (5, 7)

    def test_missing_config_file_exit_code(self):
        assert main(["scatter-table", "--config", "/nonexistent.cfg"]) == 2

    def test_numerical_guard_exit_code(self, tmp_path, capsys):
        # 2 eps^alpha >= speed^2 on the coarsest ladder point
        rc = main(["b-divergence", "--alpha", "0.5", "--eps", "1e-1..1e-1",
                   "--set", "speed=0.5", "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "guard" in capsys.readouterr().err

    def test_stuck_particle_exit_code(self, monkeypatch, tmp_path):
        def runner(cfg):
            raise StuckParticleError("1000001 events before reaching t = 1")

        monkeypatch.setattr(experiments, "run_scatter_table", runner)
        assert main(["scatter-table", "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stuck_particle_in_a_queued_ensemble(self, monkeypatch, tmp_path,
                                                 workers, opened):
        # the first of four queued ensembles fails (in the forked workers
        # at workers=2); the run exits 3 and leaves no worker behind
        monkeypatch.setattr(dynamics, "MAX_EVENTS", 3)
        assert main(["pathology-scan", "--eps-ladder", "4..7",
                     "--trajectories", "64", "--time", "0.5", "--workers",
                     str(workers), "--out-dir", str(tmp_path)]) == 3
        assert len(opened) == workers - 1
        assert opened.unreaped() == []

    def test_workers_need_fork(self, monkeypatch, tmp_path, capsys):
        # without os.fork a run keeps to one worker, and says so at once
        monkeypatch.delattr(os, "fork")
        argv = ["scatter-table", "--samples", "5", "--out-dir", str(tmp_path)]
        assert main([*argv, "--workers", "2"]) == 2
        assert "needs os.fork" in capsys.readouterr().err
        assert main([*argv, "--workers", "1"]) == 0

    def test_only_the_process_path_freezes_the_collector(self, monkeypatch,
                                                          tmp_path):
        # main leaves its caller's collector as it was; console_main, as
        # the process's last act, moves every object out of its reach
        argv = ["scatter-table", "--samples", "5", "--out-dir", str(tmp_path)]
        assert gc.get_freeze_count() == 0
        assert main(argv) == 0
        assert gc.get_freeze_count() == 0
        monkeypatch.setattr(sys, "argv", ["lorentz", *argv])
        try:
            assert console_main() == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_other_value_error_is_not_a_guard(self, monkeypatch, tmp_path):
        # a programming error gives a traceback, not exit 3
        def runner(cfg):
            raise ValueError("a bug")

        monkeypatch.setattr(experiments, "run_scatter_table", runner)
        with pytest.raises(ValueError, match="a bug"):
            main(["scatter-table", "--out-dir", str(tmp_path)])

    def test_set_overrides_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("samples = 7\n")
        rc = main(["scatter-table", "--config", str(cfgfile), "--set",
                   "samples=9", "--out-dir", str(tmp_path)])
        assert rc == 0
        meta = json.loads((tmp_path / "scatter-table.json").read_text())
        assert meta["config_resolved"]["samples"] == 9


class TestReproducibility:
    def test_identical_reruns_bitwise(self, tmp_path):
        cfg = build_config("kinetic-compare",
                           "kmin = 6\nkmax = 7\nsamples = 400\n"
                           "seed = 99\nout_prefix = kc\n")
        texts = []
        for run in ("a", "b"):
            out = tmp_path / run
            csv_path, _ = write_outputs(run_experiment(cfg), str(out))
            texts.append(open(csv_path, "rb").read())
        assert texts[0] == texts[1]

    def test_worker_counts_bitwise_identical(self, tmp_path):
        texts = []
        for w in (1, 3):
            cfg = build_config(
                "pathology-scan",
                f"kmin = 4\nkmax = 5\ntrajectories = 600\nworkers = {w}\n"
                "seed = 5\n",
            )
            out = tmp_path / f"w{w}"
            csv_path, _ = write_outputs(run_experiment(cfg), str(out))
            texts.append(open(csv_path, "rb").read())
        assert texts[0] == texts[1]


class TestRunnersSmoke:
    def test_b_divergence_summary(self):
        cfg = build_config("b-divergence", "eps_ladder = 1e-4..1e-8\n")
        rep = run_experiment(cfg)
        assert rep.summary["deviation_monotone_improving"] is True
        assert len(rep.rows) == 5
        # B_eps grows as eps shrinks
        bs = [r[1] for r in rep.rows]
        assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))

    def test_diffusion_routes_in_summary(self):
        cfg = build_config("diffusion", "paths = 5000\n")
        rep = run_experiment(cfg)
        s = rep.summary
        assert s["D_analytic"] == pytest.approx(0.5)
        assert s["max_route_spread"] < 0.15
        # D_running column ends at the Monte Carlo value
        assert rep.rows[-1][3] == pytest.approx(s["D_mc_vacf"])

    def test_thermalization_uniform_initial_stays_uniform(self):
        cfg = build_config(
            "thermalization",
            "samples = 1200\ntimes = 0.25\ninitial = uniform\nk = 6\n",
        )
        rep = run_experiment(cfg)
        assert rep.summary["p_values"]["0.25"] > 0.01

    def test_scatter_table_rows(self):
        cfg = build_config("scatter-table", "samples = 5\n")
        rep = run_experiment(cfg)
        rhos = [r[0] for r in rep.rows]
        assert rhos == [-1.0, -0.5, 0.0, 0.5, 1.0]
        thetas = dict((r[0], r[1]) for r in rep.rows)
        assert thetas[0.5] == -thetas[-0.5]
