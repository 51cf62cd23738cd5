"""End-to-end tests of the command-line interface."""

import csv
import json
import os

import numpy as np
import pytest

from windcal.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    load_draws_npz,
    main,
    parse_config,
)
from windcal.errors import DataValidationError


@pytest.fixture()
def dataset(tmp_path):
    """A small simulated dataset written via the simulate subcommand."""
    d = tmp_path / "data"
    code = main(["simulate", "--out-dir", str(d), "--n-stations", "5",
                 "--n-observed", "3", "--n-times", "4", "--seed", "11"])
    assert code == EXIT_OK
    return d


def write_config(path, dataset, outdir, **extra):
    lines = [
        f"stations = {dataset}/stations.csv",
        f"observed = {dataset}/observed.csv",
        f"simulated = {dataset}/simulated.csv",
        f"output_dir = {outdir}",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_outputs(self, dataset):
        for name in ("stations.csv", "observed.csv", "simulated.csv", "truth.json"):
            assert (dataset / name).exists()
        truth = json.loads((dataset / "truth.json").read_text())
        assert {"beta_y", "kappa_x", "shift_y", "seed"} <= truth.keys()

    def test_bad_station_counts(self, tmp_path):
        code = main(["simulate", "--out-dir", str(tmp_path / "z"),
                     "--n-stations", "3", "--n-observed", "5"])
        assert code == EXIT_DATA


class TestConfigParsing:
    def test_round_trip_values(self, tmp_path, dataset):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         mode="hierarchical", iterations=50, burn_in=10,
                         thinning=2, chains=1, seed=5, full_dump=1,
                         figure_days="0,2", prior_kappa_shape=2.0)
        cfg = parse_config(p)
        assert cfg.iterations == 50 and cfg.chains == 1 and cfg.full_dump
        assert cfg.figure_days == (0, 2)
        assert cfg.priors.kappa_shape == 2.0
        assert cfg.priors.kappa_rate == 0.05  # untouched default

    def test_comments_and_blank_lines(self, tmp_path, dataset):
        p = tmp_path / "run.cfg"
        p.write_text(f"# a comment\n\nstations = {dataset}/stations.csv  # inline\n"
                     f"observed = {dataset}/observed.csv\n"
                     f"simulated = {dataset}/simulated.csv\n")
        cfg = parse_config(p)
        assert cfg.stations.endswith("stations.csv")

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("not_a_key = 3\n")
        with pytest.raises(DataValidationError, match="unknown config key"):
            parse_config(p)

    def test_env_override(self, tmp_path, dataset, monkeypatch):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out")
        monkeypatch.setenv("WINDCAL_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        cfg = parse_config(p)
        assert cfg.output_dir == str(tmp_path / "elsewhere")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(DataValidationError, match="not found"):
            parse_config(tmp_path / "nope.cfg")


class TestExitCodes:
    def test_usage_error(self):
        assert main(["calibrate"]) == EXIT_USAGE
        assert main(["not-a-command", "--config", "x"]) == EXIT_USAGE

    def test_data_error(self, tmp_path, dataset):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out")
        # break the stations path
        text = p.read_text().replace("stations.csv", "missing.csv")
        p.write_text(text)
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA

    @pytest.mark.parametrize("panel, literal", [("observed", "nan"), ("simulated", "inf")])
    def test_non_finite_value_rejected_with_line(self, tmp_path, dataset, capsys,
                                                 panel, literal):
        path = dataset / f"{panel}.csv"
        lines = path.read_text().splitlines()
        sid, date, _ = lines[2].split(",")
        lines[2] = f"{sid},{date},{literal}"
        path.write_text("\n".join(lines) + "\n")
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out")
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert f"{panel}.csv line 3" in capsys.readouterr().err

    def test_figure_day_outside_panel_fails_before_fit(self, tmp_path, dataset):
        out = tmp_path / "out"
        p = write_config(tmp_path / "run.cfg", dataset, out, mode="hierarchical",
                         iterations=10, burn_in=2, thinning=1, chains=1,
                         figure_days="1,99")
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert not (out / "calibrated.csv").exists()


class TestMarginalModes:
    def test_marginal_empirical(self, tmp_path, dataset):
        out = tmp_path / "out"
        p = write_config(tmp_path / "run.cfg", dataset, out, mode="marginal-empirical")
        assert main(["calibrate", "--config", str(p)]) == EXIT_OK
        rows = read_rows(out / "calibrated.csv")
        assert {"station_id", "date", "x_sim", "x_calibrated", "pred_sd", "clamped"} \
            <= rows[0].keys()
        assert len(rows) == 5 * 4
        assert (out / "manifest.json").exists()
        assert not (out / "posterior.csv").exists()

    def test_marginal_parametric_requires_laws(self, tmp_path, dataset):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         mode="marginal-parametric")
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA

    def test_marginal_parametric(self, tmp_path, dataset):
        out = tmp_path / "out"
        p = write_config(tmp_path / "run.cfg", dataset, out,
                         mode="marginal-parametric",
                         source_delta=60.0, source_xi=-0.08, source_kappa=18.0,
                         target_delta=55.0, target_xi=-0.07, target_kappa=5.0)
        assert main(["calibrate", "--config", str(p)]) == EXIT_OK
        rows = read_rows(out / "calibrated.csv")
        vals = [float(r["x_calibrated"]) for r in rows]
        assert all(0.0 <= v <= 55.0 for v in vals)


class TestHierarchicalPipeline:
    @pytest.fixture()
    def run_dir(self, tmp_path, dataset):
        out = tmp_path / "out"
        p = write_config(tmp_path / "run.cfg", dataset, out,
                         mode="hierarchical", iterations=30, burn_in=10,
                         thinning=2, chains=2, seed=3, figure_days="1")
        assert main(["fit", "--config", str(p)]) == EXIT_OK
        return out

    def test_outputs_exist(self, run_dir):
        for name in ("calibrated.csv", "posterior.csv", "summary.csv",
                      "acceptance.csv", "logposterior.csv", "draws.npz",
                      "manifest.json", "day001_kde.csv", "day001_stations.csv",
                      "sigma_boxplot.csv"):
            assert (run_dir / name).exists(), name

    def test_posterior_csv_contents(self, run_dir):
        rows = read_rows(run_dir / "posterior.csv")
        per_chain = len(range(0, 20, 2))
        assert len(rows) == 2 * per_chain
        assert {"beta_y", "kappa_x", "alpha", "delta_y_mean", "chain"} <= rows[0].keys()
        assert {r["chain"] for r in rows} == {"0", "1"}

    def test_summary_csv_contents(self, run_dir):
        rows = read_rows(run_dir / "summary.csv")
        assert [r["parameter"] for r in rows] == [
            "alpha", "beta_y", "beta_x", "kappa_y", "kappa_x",
            "tau_w", "tau_z", "xi_y", "xi_x"]
        for r in rows:
            assert float(r["q2.5"]) <= float(r["median"]) <= float(r["q97.5"])

    def test_manifest_contents(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["iterations"] == 30
        assert "windcal" in manifest["versions"]
        assert "acceptance" in manifest and "wall_time_s" in manifest

    def test_draws_npz_roundtrip(self, run_dir):
        draws = load_draws_npz(run_dir / "draws.npz")
        assert draws.n_draws == 20
        assert draws.w.ndim == 2 and draws.delta_x.ndim == 3

    def test_summarize_subcommand(self, run_dir, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["summarize", "--draws", str(run_dir / "draws.npz"),
                     "--out", str(out)]) == EXIT_OK
        assert len(read_rows(out)) == 9

    def test_export_figures_subcommand(self, run_dir):
        assert main(["export-figures", "--run-dir", str(run_dir), "--day", "2"]) == EXIT_OK
        assert (run_dir / "day002_kde.csv").exists()
        assert (run_dir / "day002_stations.csv").exists()

    def test_export_figures_needs_manifest(self, tmp_path):
        os.makedirs(tmp_path / "empty", exist_ok=True)
        assert main(["export-figures", "--run-dir", str(tmp_path / "empty"),
                     "--day", "0"]) == EXIT_DATA


class TestDeterminism:
    def test_identical_runs_bit_identical(self, tmp_path, dataset):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"out_{tag}"
            p = write_config(tmp_path / f"run_{tag}.cfg", dataset, out,
                             mode="hierarchical", iterations=25, burn_in=5,
                             thinning=2, chains=2, seed=7)
            assert main(["fit", "--config", str(p)]) == EXIT_OK
            outs.append(out)
        for name in ("posterior.csv", "calibrated.csv", "summary.csv"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, name

    def test_different_seed_changes_output(self, tmp_path, dataset):
        payloads = []
        for seed in (1, 2):
            out = tmp_path / f"out_{seed}"
            p = write_config(tmp_path / f"run_{seed}.cfg", dataset, out,
                             mode="hierarchical", iterations=25, burn_in=5,
                             thinning=2, chains=1, seed=seed)
            assert main(["fit", "--config", str(p)]) == EXIT_OK
            payloads.append((out / "posterior.csv").read_bytes())
        assert payloads[0] != payloads[1]
