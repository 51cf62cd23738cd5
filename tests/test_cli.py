"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from windcal import BLAS_THREAD_ENV, cli
from windcal import model as windcal_model
from windcal.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    load_draws_npz,
    main,
    parse_config,
)
from windcal.data import SyntheticTruth, load_field, load_network, load_panel
from windcal.draws import ARRAYS, SCALAR_NAMES, STATE_ARRAYS, PosteriorDraws, save_draws_npz
from windcal.errors import DataValidationError, NumericalError, RuleError
from windcal.model import HierarchicalModel, McmcConfig, MwgSampler, chain_workers
from windcal.predictive import day_densities


@pytest.fixture()
def dataset(tmp_path):
    """A small simulated dataset written via the simulate subcommand."""
    d = tmp_path / "data"
    code = main(["simulate", "--out-dir", str(d), "--n-stations", "5",
                 "--n-observed", "3", "--n-times", "4", "--seed", "11"])
    assert code == EXIT_OK
    return d


def write_config(path, dataset, outdir, **extra):
    """A config of the three inputs and ``outdir``, then ``extra``; an extra key
    that names one of those four replaces its value on its line."""
    keys = {"stations": f"{dataset}/stations.csv", "observed": f"{dataset}/observed.csv",
            "simulated": f"{dataset}/simulated.csv", "output_dir": outdir, **extra}
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def loaded_modules(args):
    """The modules a fresh interpreter holds after ``cli.main(args)`` returns."""
    script = ("import sys\nfrom windcal import cli\ncode = cli.main(sys.argv[1:])\n"
              "print(*sorted(sys.modules))\nsys.exit(code)")
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def strict_json(path):
    """``path`` parsed as strict JSON, as jq or JSON.parse would: NaN and Infinity raise."""
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


class TestSimulate:
    def test_outputs(self, dataset):
        for name in ("stations.csv", "observed.csv", "simulated.csv", "truth.json"):
            assert (dataset / name).exists()
        # exactly the 11 parameters, at SyntheticTruth()'s values, then the run's seed
        # and missing rate; no realized field or endpoint
        truth = json.loads((dataset / "truth.json").read_text(encoding="utf-8"))
        params = (*SCALAR_NAMES, "shift_y", "shift_x")
        assert truth.keys() == {*params, "seed", "missing_rate"}
        assert {k: truth[k] for k in params} == {k: getattr(SyntheticTruth(), k) for k in params}
        assert (truth["seed"], truth["missing_rate"]) == (11, 0.0)

    def test_bad_station_counts(self, tmp_path):
        code = main(["simulate", "--out-dir", str(tmp_path / "z"),
                     "--n-stations", "3", "--n-observed", "5"])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("n_times", ["0", "-1"])
    def test_bad_day_count(self, tmp_path, capsys, n_times):
        code = main(["simulate", "--out-dir", str(tmp_path / "z"), "--n-times", n_times])
        assert code == EXIT_DATA
        assert "n-times" in capsys.readouterr().err


    def test_negative_seed(self, tmp_path, capsys):
        code = main(["simulate", "--out-dir", str(tmp_path / "z"), "--seed", "-1"])
        assert code == EXIT_DATA
        assert "need seed >= 0" in capsys.readouterr().err
        assert not (tmp_path / "z").exists()


class TestConfigParsing:
    def test_round_trip_values(self, tmp_path, dataset):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         mode="hierarchical", iterations=50, burn_in=10,
                         thinning=2, chains=1, seed=5, prior_kappa_shape=2.0)
        cfg = parse_config(p)
        assert cfg.mcmc == McmcConfig(iterations=50, burn_in=10, thinning=2, chains=1, seed=5)
        assert cfg.seed == 5
        assert cfg.priors.kappa_shape == 2.0
        assert cfg.priors.kappa_rate == 0.05  # untouched default
        # a chain key the file leaves out keeps McmcConfig's default
        assert parse_config(write_config(tmp_path / "bare.cfg", dataset, tmp_path / "out")
                            ).mcmc == McmcConfig()

    def test_comments_and_blank_lines(self, tmp_path, dataset):
        p = tmp_path / "run.cfg"
        p.write_text(f"# a comment\n\nstations = {dataset}/stations.csv  # inline\n"
                     f"observed = {dataset}/observed.csv\n"
                     f"simulated = {dataset}/simulated.csv\n")
        cfg = parse_config(p)
        assert cfg.stations.endswith("stations.csv")

    def test_hash_inside_a_value_is_kept(self, tmp_path, dataset):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "run#1",
                         iterations="2000  # inline comment", seed="5\t# tab before it")
        cfg = parse_config(p)
        assert cfg.output_dir == str(tmp_path / "run#1")
        assert cfg.mcmc.iterations == 2000 and cfg.mcmc.seed == 5

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

    def test_key_set_twice(self, tmp_path, dataset):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         iterations=10, seed=1)
        p.write_text(p.read_text() + "iterations = 0\n")
        with pytest.raises(DataValidationError,
                           match=f"^{re.escape(str(p))} line 7: iterations set again "
                           r"\(first on line 5\)$"):
            parse_config(p)

    @pytest.mark.parametrize("key", ["stations", "observed", "simulated"])
    def test_input_not_set(self, tmp_path, dataset, capsys, key):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out")
        p.write_text("".join(line for line in p.read_text().splitlines(keepends=True)
                             if not line.startswith(key)))
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert f"{p}: {key} not set" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["stations", "observed", "simulated"])
    def test_empty_input_rejected_by_the_record(self, dataset, key):
        # built from Python, run() would fail in open('') and name no setting
        inputs = {k: str(dataset / f"{k}.csv") for k in ("stations", "observed", "simulated")}
        with pytest.raises(RuleError, match=f"^{key} not set$"):
            RunConfig(**{**inputs, key: ""})

    def test_bad_value_named_before_an_unset_input(self, tmp_path, dataset, capsys):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out", chains=0)
        p.write_text(p.read_text().split("\n", 1)[1])  # drop the stations line
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert f"{p} line 4: chains = '0' must be >= 1" in capsys.readouterr().err

    def test_type_error_named_before_a_bad_word(self, tmp_path, dataset, capsys):
        # keys and types are read in file order, then RunConfig checks its words
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         mode="bogus", iterations="abc")
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert f"{p} line 6: iterations = 'abc' is not a valid int" in capsys.readouterr().err

    def test_empty_output_dir_rejected_by_the_record(self, dataset):
        # built from Python, as well as from a config line, so run() never
        # reads an input for a run it cannot write
        with pytest.raises(RuleError, match="^output_dir must not be empty$"):
            RunConfig(stations=str(dataset / "stations.csv"),
                      observed=str(dataset / "observed.csv"),
                      simulated=str(dataset / "simulated.csv"), output_dir="")

    @pytest.mark.parametrize("key, rule", [
        ("mode", "must be one of marginal-empirical/marginal-parametric/hierarchical"),
        ("correlation_family", "must be one of disc/spherical/exponential")])
    def test_unknown_word_rejected_by_the_record(self, dataset, key, rule):
        # a marginal run would never read the family, so the record must name it
        with pytest.raises(RuleError, match=f"^{key} {rule}$"):
            RunConfig(stations=str(dataset / "stations.csv"),
                      observed=str(dataset / "observed.csv"),
                      simulated=str(dataset / "simulated.csv"),
                      **{"mode": "marginal-empirical", key: "foo"})

    def test_line_without_equals_sign(self, tmp_path, dataset):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out")
        p.write_text(p.read_text() + "iterations 20\n")
        with pytest.raises(DataValidationError,
                           match=f"^{re.escape(str(p))} line 5: expected key = value$"):
            parse_config(p)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(DataValidationError, match="not found"):
            parse_config(tmp_path / "nope.cfg")


class TestExitCodes:
    def test_usage_error(self):
        assert main(["calibrate"]) == EXIT_USAGE
        assert main(["not-a-command", "--config", "x"]) == EXIT_USAGE

    def test_numerical_failure_exits_3(self, tmp_path, dataset, capsys, monkeypatch):
        def fail(*args):
            raise NumericalError("chain diverged")

        monkeypatch.setattr(cli, "run_mcmc", fail)
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out", iterations=4,
                         burn_in=1, thinning=1)
        assert main(["fit", "--config", str(p)]) == EXIT_NUMERIC
        assert "windcal: numerical failure: chain diverged" in capsys.readouterr().err

    def test_numerical_failure_in_a_chain_worker_exits_3(self, tmp_path, dataset, capsys,
                                                         monkeypatch):
        caller, real = os.getpid(), windcal_model.run_chain

        def run_chain(model, cfg, rng, chain_index=0):
            if chain_index == 1 and os.getpid() != caller:
                raise NumericalError("chain 1 diverged in its worker")
            return real(model, cfg, rng, chain_index)

        monkeypatch.setattr(windcal_model, "_usable_cores", lambda: 2)
        monkeypatch.setattr(windcal_model, "run_chain", run_chain)
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out", iterations=4,
                         burn_in=1, thinning=1, chains=2)
        assert main(["fit", "--config", str(p)]) == EXIT_NUMERIC
        assert "windcal: numerical failure: chain 1 diverged in its worker" in \
            capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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

    @pytest.mark.parametrize("name", ["observed", "stations"])
    def test_short_row_rejected_with_line(self, tmp_path, dataset, capsys, name):
        # line 3 loses its last field: the value, or the observed flag
        path = dataset / f"{name}.csv"
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out")
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert f"{path} line 3" in capsys.readouterr().err

    # each bad value and the rule its line must name
    BAD_VALUES = [
        ("iterations", "abc", "is not a valid int"),
        ("prior_tau_rate", "x", "is not a valid float"),
        ("prior_tau_rate", "-1", "must be finite and > 0"),
        ("prior_tau_rate", "nan", "must be finite and > 0"),
        ("prior_beta_precision", "0", "must be finite and > 0"),
        ("prior_kappa_shape", "0", "must be finite and > 0"),
        ("prior_xi_high", "0.3", "must satisfy -inf < xi_low < xi_high <= 0"),
        ("prior_alpha_low", "-0.2", "must satisfy 0 < alpha_low < alpha_high < inf"),
        ("mode", "bogus", "must be one of marginal-empirical/marginal-parametric/hierarchical"),
        ("correlation_family", "foo", "must be one of disc/spherical/exponential"),
        ("seed", "-3", "must be >= 0"), ("thinning", "0", "must be >= 1"),
        ("chains", "0", "must be >= 1"),
        ("iterations", "0", "must satisfy 0 <= burn_in < iterations, or both 0"),
        ("burn_in", "5000", "must satisfy 0 <= burn_in < iterations, or both 0"),
        ("iterations", "-5", "must be >= 0"),
        ("output_dir", "", "must not be empty"),
        *((key, "", "not set") for key in ("stations", "observed", "simulated"))]

    @pytest.mark.parametrize("key, literal, rule", BAD_VALUES,
                             ids=[f"{key}-{literal}" for key, literal, _ in BAD_VALUES])
    def test_bad_number_in_config_rejected_with_line(self, tmp_path, dataset, capsys,
                                                     monkeypatch, key, literal, rule):
        # run from tmp_path, where an empty output_dir would write the run's files
        monkeypatch.chdir(tmp_path)
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out", **{key: literal})
        before = sorted(tmp_path.rglob("*"))
        assert main(["fit", "--config", str(p)]) == EXIT_DATA
        line = p.read_text().splitlines().index(f"{key} = {literal}") + 1
        assert capsys.readouterr().err == (
            f"windcal: data validation error: {p} line {line}: {key} = {literal!r} {rule}\n")
        assert not (tmp_path / "out").exists()
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("key, literal", [("figure_days", "0"), ("full_dump", "1")])
    def test_removed_key_rejected_with_line(self, tmp_path, dataset, capsys, key, literal):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out", **{key: literal})
        assert main(["fit", "--config", str(p)]) == EXIT_DATA
        assert f"run.cfg line 5: unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spelling", ["20130102", "2013-W01-3"])
    def test_date_not_in_canonical_form_rejected_with_line(self, tmp_path, dataset, capsys,
                                                           spelling):
        # both spellings name 2013-01-02, which would sort after every other date
        path = dataset / "simulated.csv"
        text = path.read_text()
        line = next(n for n, row in enumerate(text.splitlines(), 1) if "2013-01-02" in row)
        path.write_text(text.replace("2013-01-02", spelling, 1))
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         mode="marginal-empirical")
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert f"{path} line {line}: date {spelling!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unobserved_station_in_observed_panel(self, tmp_path, dataset, capsys):
        net = load_network(dataset / "stations.csv")
        sid = next(s for s, flag in zip(net.ids, net.observed) if not flag)
        path = dataset / "observed.csv"
        path.write_text(path.read_text() + f"{sid},2013-01-01,1.0\n")
        line = len(path.read_text().splitlines())
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         mode="marginal-empirical")
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert (f"{path} line {line}: station {sid!r} is not an observed station in "
                f"{dataset}/stations.csv") in capsys.readouterr().err


class TestInputEncoding:
    """Inputs are UTF-8 text, with or without a byte-order mark."""

    OUTPUTS = ("calibrated.csv", "posterior.csv", "summary.csv", "acceptance.csv",
               "logposterior.csv", "sigma_boxplot.csv", "draws.npz")

    def test_byte_order_marks_change_no_output(self, tmp_path, dataset):
        marked = tmp_path / "marked"
        marked.mkdir()
        for name in ("stations.csv", "observed.csv", "simulated.csv"):
            (marked / name).write_bytes(b"\xef\xbb\xbf" + (dataset / name).read_bytes())
        runs = {}
        for tag, data in (("plain", dataset), ("marked", marked)):
            p = write_config(tmp_path / f"{tag}.cfg", data, tmp_path / tag, iterations=12,
                             burn_in=4, thinning=2, chains=2, seed=5)
            if tag == "marked":
                p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
            assert main(["fit", "--config", str(p)]) == EXIT_OK
            runs[tag] = tmp_path / tag
        for name in self.OUTPUTS:
            assert (runs["marked"] / name).read_bytes() == (runs["plain"] / name).read_bytes()

    def test_latin1_csv_exits_2(self, tmp_path, dataset, capsys):
        path = dataset / "stations.csv"
        line = next(n for n, row in enumerate(path.read_text().splitlines(), 1)
                    if row.startswith("st000,"))
        path.write_bytes(path.read_bytes().replace(b"st000", "Z\u00fcrich".encode("latin-1")))
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out")
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"windcal: data validation error: {path} line {line}: not UTF-8 text\n")

    def test_latin1_config_exits_2(self, tmp_path, dataset, capsys):
        # the Latin-1 text is in a comment, which is still read
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out")
        p.write_bytes(p.read_bytes() + "# Z\u00fcrich\n".encode("latin-1"))
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"windcal: data validation error: {p} line 5: not UTF-8 text\n")

    def test_config_faults_named_in_file_order_with_latin1_text(self, tmp_path, dataset):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out")
        latin1 = "site = Z\u00fcrich\n".encode("latin-1")
        p.write_bytes(p.read_bytes() + b"chains 2\n" + latin1)
        with pytest.raises(DataValidationError, match=r"run\.cfg line 5: expected key = value$"):
            parse_config(p)
        p.write_bytes(b"\xef\xbb\xbf" + latin1 + b"chains 2\n")
        with pytest.raises(DataValidationError, match=r"run\.cfg line 1: not UTF-8 text$"):
            parse_config(p)

    def test_no_text_file_opened_in_the_locale_encoding(self, tmp_path):
        # every command of a run, in a fresh interpreter that turns the warning for an
        # open() without an encoding into an error
        d = tmp_path
        write_config(d / "fit.cfg", d / "data", d / "fit", iterations=6, burn_in=2,
                     thinning=1, chains=2)
        write_config(d / "marginal.cfg", d / "data", d / "marginal", mode="marginal-empirical")
        runs = [["simulate", "--out-dir", d / "data", "--n-stations", "5", "--n-observed", "3",
                 "--n-times", "4", "--seed", "2"],
                ["fit", "--config", d / "fit.cfg"],
                ["summarize", "--draws", d / "fit" / "draws.npz", "--out", d / "summary.csv"],
                ["export-figures", "--run-dir", d / "fit", "--day", "1"],
                ["calibrate", "--config", d / "marginal.cfg"]]
        script = ("import json, sys\nfrom windcal import cli\n"
                  "for args in json.loads(sys.argv[1]):\n"
                  "    assert cli.main(args) == 0, args\n")
        done = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-c", script,
                               json.dumps([list(map(str, args)) for args in runs])],
                              env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        for path in ("data/truth.json", "fit/manifest.json", "fit/day001_stations.csv",
                     "summary.csv", "marginal/manifest.json"):
            assert (d / path).stat().st_size > 0, path

    def test_oversized_field_exits_2_with_its_line(self, tmp_path, dataset, capsys):
        path = dataset / "simulated.csv"
        lines = path.read_text().splitlines()
        sid, date, _ = lines[2].split(",")
        lines[2] = f'{sid},{date},"{"1" * 200_000}"'
        path.write_text("\n".join(lines) + "\n")
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out")
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert capsys.readouterr().err == ("windcal: data validation error: "
                                           f"{path} line 3: field larger than field limit "
                                           "(131072)\n")


class TestStartState:
    # the chain starts at xi = -0.1 and alpha = 0.3 unless the prior box leaves them out
    @pytest.mark.parametrize("key, value", [("prior_xi_low", "-0.05"), ("prior_xi_high", "-0.2"),
                                            ("prior_alpha_low", "0.35"),
                                            ("prior_alpha_high", "0.2")])
    def test_box_without_fixed_start_value_fits(self, tmp_path, key, value):
        d = tmp_path / "data"
        assert main(["simulate", "--out-dir", str(d), "--n-stations", "6", "--n-observed", "4",
                     "--n-times", "5", "--seed", "1"]) == EXIT_OK
        out = tmp_path / "out"
        p = write_config(tmp_path / "run.cfg", d, out, iterations=20, burn_in=5, thinning=1,
                         **{key: value})
        assert main(["fit", "--config", str(p)]) == EXIT_OK
        assert (out / "posterior.csv").exists()


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

    LAWS = {"source_delta": 60.0, "source_xi": -0.08, "source_kappa": 18.0,
            "target_delta": 55.0, "target_xi": -0.07, "target_kappa": 5.0}

    def test_header_only_panels_rejected(self, tmp_path, dataset, capsys):
        for panel in ("observed", "simulated"):
            (dataset / f"{panel}.csv").write_text("station_id,date,value\n")
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         mode="marginal-empirical")
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert f"{dataset}/simulated.csv: no data rows" in capsys.readouterr().err

    def test_header_only_stations_rejected(self, tmp_path, dataset, capsys):
        (dataset / "stations.csv").write_text("station_id,x_km,y_km,observed\n")
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         mode="marginal-empirical")
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert f"{dataset}/stations.csv: no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["marginal-empirical", "hierarchical"])
    def test_header_only_observed_rejected(self, tmp_path, dataset, capsys, mode):
        (dataset / "observed.csv").write_text("station_id,date,value\n")
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out", mode=mode)
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert f"{dataset}/observed.csv: no data rows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_marginal_parametric_reads_no_observation(self, tmp_path, dataset):
        (dataset / "observed.csv").write_text("station_id,date,value\n")
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         mode="marginal-parametric", **self.LAWS)
        assert main(["calibrate", "--config", str(p)]) == EXIT_OK

    def test_marginal_parametric_on_network_without_observed_station(self, tmp_path, dataset):
        lines = (dataset / "stations.csv").read_text().splitlines()
        (dataset / "stations.csv").write_text(
            "\n".join([lines[0], *(line.rsplit(",", 1)[0] + ",0" for line in lines[1:])]) + "\n")
        (dataset / "observed.csv").write_text("station_id,date,value\n")
        out = tmp_path / "out"
        p = write_config(tmp_path / "run.cfg", dataset, out,
                         mode="marginal-parametric", **self.LAWS)
        assert main(["calibrate", "--config", str(p)]) == EXIT_OK
        assert len(read_rows(out / "calibrated.csv")) == 5 * 4

    def test_marginal_parametric_requires_laws(self, tmp_path, dataset, capsys):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         mode="marginal-parametric")
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        assert (f"{p} line 5: mode = 'marginal-parametric' needs both laws: "
                "source_ and target_ delta, xi and kappa") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_marginal_parametric_without_laws_rejected_by_the_record(self, dataset):
        with pytest.raises(RuleError, match="^mode needs both laws"):
            RunConfig(stations=str(dataset / "stations.csv"),
                      observed=str(dataset / "observed.csv"),
                      simulated=str(dataset / "simulated.csv"), mode="marginal-parametric")

    # each bad law value and the rule its line must name
    BAD_LAWS = [("source_xi", "0.3", "must be finite and < 0 (endpoint form)"),
                ("source_kappa", "-1", "must be finite and > 0"),
                ("target_delta", "0", "must be finite and > 0"),
                ("target_xi", "nan", "must be finite and < 0 (endpoint form)"),
                ("target_kappa", "inf", "must be finite and > 0")]

    @pytest.mark.parametrize("key, literal, rule", BAD_LAWS,
                             ids=[f"{key}-{literal}" for key, literal, _ in BAD_LAWS])
    def test_bad_law_rejected_with_line(self, tmp_path, dataset, capsys, key, literal, rule):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         mode="marginal-parametric", **{**self.LAWS, key: literal})
        assert main(["calibrate", "--config", str(p)]) == EXIT_DATA
        line = p.read_text().splitlines().index(f"{key} = {literal}") + 1
        assert capsys.readouterr().err == (
            f"windcal: data validation error: {p} line {line}: {key} = {literal!r} {rule}\n")
        assert not (tmp_path / "out").exists()

    def test_marginal_parametric(self, tmp_path, dataset):
        out = tmp_path / "out"
        p = write_config(tmp_path / "run.cfg", dataset, out,
                         mode="marginal-parametric", **self.LAWS)
        assert main(["calibrate", "--config", str(p)]) == EXIT_OK
        rows = read_rows(out / "calibrated.csv")
        vals = [float(r["x_calibrated"]) for r in rows]
        assert all(0.0 <= v <= 55.0 for v in vals)

    @pytest.mark.parametrize("command, laws, line, missing", [
        # a law has no default field: one or two of its keys do not make it
        ("calibrate", {"source_delta": 60, "target_delta": 55}, 6,
         "source_delta = '60' needs source_xi and source_kappa set too"),
        ("calibrate", {**LAWS, "target_delta": None}, 10,
         "target_kappa = '5.0' needs target_delta set too"),
        ("fit", {"target_xi": -0.07}, 6, "target_xi = '-0.07' needs target_delta and "
                                         "target_kappa set too"),
        # fit runs hierarchical, but the config's own rules still hold
        ("fit", {}, 5, "mode = 'marginal-parametric' needs both laws")],
        ids=["deltas-only", "two-keys", "fit", "fit-no-law"])
    def test_partial_law_rejected_with_line(self, tmp_path, dataset, capsys, command, laws,
                                            line, missing):
        laws = {key: value for key, value in laws.items() if value is not None}
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out",
                         mode="marginal-parametric", **laws)
        assert main([command, "--config", str(p)]) == EXIT_DATA
        assert f"run.cfg line {line}: {missing}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_echoes_both_laws(self, tmp_path, dataset):
        out = tmp_path / "out"
        p = write_config(tmp_path / "run.cfg", dataset, out,
                         mode="marginal-parametric", **self.LAWS)
        assert main(["calibrate", "--config", str(p)]) == EXIT_OK
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["source"] == {"delta": 60.0, "xi": -0.08, "kappa": 18.0}
        assert config["target"] == {"delta": 55.0, "xi": -0.07, "kappa": 5.0}
        assert not any(key.startswith(("source_", "target_")) for key in config)


class TestInputsAFitCannotUse:
    """A fit that fails on its inputs exits 2 before it creates output_dir."""

    @pytest.fixture()
    def data(self, tmp_path):
        d = tmp_path / "data"
        assert main(["simulate", "--out-dir", str(d), "--n-stations", "6", "--n-observed", "4",
                     "--n-times", "5", "--seed", "1"]) == EXIT_OK
        return d

    @staticmethod
    def set_value(path, line, value):
        """Give the row on ``line`` of a panel file ``value``; return its station and date."""
        lines = path.read_text().splitlines()
        sid, date, _ = lines[line - 1].split(",")
        lines[line - 1] = f"{sid},{date},{value}"
        path.write_text("\n".join(lines) + "\n")
        return sid, date

    def fit(self, tmp_path, data, **extra):
        p = write_config(tmp_path / "run.cfg", data, tmp_path / "out", iterations=20, burn_in=5,
                         thinning=1, **extra)
        return main(["fit", "--config", str(p)])

    @pytest.mark.parametrize("panel, value", [("observed", "0"), ("simulated", "0.0")])
    def test_zero_value_names_its_station_and_date(self, tmp_path, data, capsys, panel, value):
        # a calm day: the panel schema takes values >= 0, the EGPD support is (0, delta)
        sid, date = self.set_value(data / f"{panel}.csv", 3, value)
        assert self.fit(tmp_path, data) == EXIT_DATA
        assert (f"{panel} panel: station {sid!r} on {date} has value 0.0; the hierarchical "
                "model needs values > 0") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, laws", [("marginal-empirical", {}),
                                            ("marginal-parametric", TestMarginalModes.LAWS)])
    def test_marginal_modes_take_zero_values(self, tmp_path, data, mode, laws):
        for panel in ("observed", "simulated"):
            self.set_value(data / f"{panel}.csv", 3, "0")
        p = write_config(tmp_path / "run.cfg", data, tmp_path / "out", mode=mode, **laws)
        assert main(["calibrate", "--config", str(p)]) == EXIT_OK

    def test_constant_observed_panel(self, tmp_path, data, capsys):
        path = data / "observed.csv"
        for line in range(2, len(path.read_text().splitlines()) + 1):
            self.set_value(path, line, "5.0")
        assert self.fit(tmp_path, data) == EXIT_DATA
        assert ("observed panel: every value is 5.0; a constant panel cannot initialize"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_constant_simulated_panel(self, tmp_path, data, capsys):
        path = data / "simulated.csv"
        for line in range(2, len(path.read_text().splitlines()) + 1):
            self.set_value(path, line, "7.5")
        assert self.fit(tmp_path, data) == EXIT_DATA
        assert ("simulated panel: every value is 7.5; a constant panel cannot initialize"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @staticmethod
    def put_on_one_point(path):
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *(f"{row.split(',')[0]},1.0,1.0,{row[-1]}"
                                             for row in rows)]) + "\n")

    def test_stations_on_one_point(self, tmp_path, data, capsys):
        path = data / "stations.csv"
        self.put_on_one_point(path)
        assert self.fit(tmp_path, data) == EXIT_DATA
        assert (f"{path}: needs at least two distinct station locations"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, laws", [("marginal-empirical", {}),
                                            ("marginal-parametric", TestMarginalModes.LAWS)])
    def test_marginal_modes_take_stations_on_one_point(self, tmp_path, data, mode, laws):
        # a marginal map reads no distance
        self.put_on_one_point(data / "stations.csv")
        p = write_config(tmp_path / "run.cfg", data, tmp_path / "out", mode=mode, **laws)
        assert main(["calibrate", "--config", str(p)]) == EXIT_OK

    def test_unwritable_output_dir_fails_before_the_fit(self, tmp_path, data, monkeypatch):
        monkeypatch.setattr(cli, "run_mcmc", lambda *args: pytest.fail("the chains ran"))
        (tmp_path / "a_file").write_text("")
        p = write_config(tmp_path / "run.cfg", data, tmp_path / "a_file" / "out")
        assert main(["fit", "--config", str(p)]) == EXIT_DATA


class TestHierarchicalPipeline:
    @pytest.fixture()
    def run_dir(self, tmp_path, dataset):
        out = tmp_path / "out"
        p = write_config(tmp_path / "run.cfg", dataset, out,
                         mode="hierarchical", iterations=30, burn_in=10,
                         thinning=2, chains=2, seed=3)
        assert main(["fit", "--config", str(p)]) == EXIT_OK
        return out

    def test_outputs_exist(self, run_dir):
        names = {"calibrated.csv", "posterior.csv", "summary.csv", "acceptance.csv",
                 "logposterior.csv", "draws.npz", "manifest.json", "sigma_boxplot.csv"}
        assert {path.name for path in run_dir.iterdir()} == names

    def test_posterior_csv_contents(self, run_dir):
        rows = read_rows(run_dir / "posterior.csv")
        per_chain = len(range(0, 20, 2))
        assert len(rows) == 2 * per_chain
        assert {"beta_y", "kappa_x", "alpha", "delta_y_mean", "chain"} <= rows[0].keys()
        assert {r["chain"] for r in rows} == {"0", "1"}

    def test_outputs_follow_the_model_state_order(self, run_dir):
        # ModelState declares the unknowns once; the names are read off its fields
        # and every output lists them in that order
        assert SCALAR_NAMES == ("beta_y", "beta_x", "kappa_y", "kappa_x",
                                "xi_y", "xi_x", "alpha", "tau_w", "tau_z")
        assert STATE_ARRAYS == ("w", "z", "delta_y", "delta_x")
        with open(run_dir / "posterior.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["draw", "chain", *SCALAR_NAMES,
                                            "delta_y_mean", "delta_x_mean"]
        with np.load(run_dir / "draws.npz") as data:
            assert data.files[:len(STATE_ARRAYS)] == list(STATE_ARRAYS)
            assert data.files[-len(SCALAR_NAMES):] == [f"scalar_{n}" for n in SCALAR_NAMES]
        assert [r["block"] for r in read_rows(run_dir / "acceptance.csv")] == \
            [*SCALAR_NAMES, *STATE_ARRAYS]

    def test_summary_csv_contents(self, run_dir):
        rows = read_rows(run_dir / "summary.csv")
        assert [r["parameter"] for r in rows] == [
            "alpha", "beta_y", "beta_x", "kappa_y", "kappa_x",
            "tau_w", "tau_z", "xi_y", "xi_x"]
        for r in rows:
            assert float(r["q2.5"]) <= float(r["median"]) <= float(r["q97.5"])

    def test_manifest_contents(self, run_dir, dataset):
        manifest = strict_json(run_dir / "manifest.json")
        assert manifest["seed"] == 3
        assert manifest["config"]["mcmc"] == {"iterations": 30, "burn_in": 10, "thinning": 2,
                                              "chains": 2, "seed": 3}
        assert "windcal" in manifest["versions"]
        assert "acceptance" in manifest and "wall_time_s" in manifest
        assert manifest["chain_workers"] == chain_workers(2)
        # the BLAS thread variables as the run saw them: importing windcal sets one if none is
        assert manifest["blas_threads_env"] == {name: os.environ.get(name)
                                                for name in BLAS_THREAD_ENV}
        assert any(manifest["blas_threads_env"].values())
        # a mode that reads no law echoes none
        assert manifest["config"]["source"] is None and manifest["config"]["target"] is None
        # acceptance.csv reports the sampler's blocks in sweep order; the manifest
        # reports the same blocks, its keys sorted
        net = load_network(dataset / "stations.csv")
        panel = load_panel(dataset / "observed.csv", dataset / "simulated.csv", net)
        model = HierarchicalModel(panel.y, panel.x, net)
        sampler = MwgSampler(model, model.initialize_state(), np.random.default_rng(0))
        blocks = [name for name, *_ in sampler.blocks]
        assert [r["block"] for r in read_rows(run_dir / "acceptance.csv")] == blocks
        assert manifest["acceptance"].keys() == set(blocks)

    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, dataset, monkeypatch):
        outs = {}
        for cores in (1, 2):
            monkeypatch.setattr(windcal_model, "_usable_cores", lambda: cores)
            out = tmp_path / f"cores-{cores}"
            p = write_config(tmp_path / f"cores-{cores}.cfg", dataset, out, iterations=30,
                             burn_in=10, thinning=2, chains=2, seed=3)
            assert main(["fit", "--config", str(p)]) == EXIT_OK
            assert strict_json(out / "manifest.json")["chain_workers"] == cores
            outs[cores] = out
        for name in ("calibrated.csv", "posterior.csv", "summary.csv", "acceptance.csv",
                     "logposterior.csv", "sigma_boxplot.csv", "draws.npz"):
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name

    def test_zero_iteration_fit_writes_strict_json(self, tmp_path, dataset):
        # no block made a proposal: acceptance.csv holds nan, the manifest null
        out = tmp_path / "zero"
        p = write_config(tmp_path / "zero.cfg", dataset, out, iterations=0, burn_in=0,
                         thinning=1, chains=1)
        assert main(["fit", "--config", str(p)]) == EXIT_OK
        acceptance = strict_json(out / "manifest.json")["acceptance"]
        assert acceptance and all(v is None for v in acceptance.values())
        rows = read_rows(out / "acceptance.csv")
        assert {r["block"] for r in rows} == acceptance.keys()
        assert all(r["acceptance_rate"] == "nan" for r in rows)

    @pytest.fixture()
    def saved_draws(self, tmp_path, dataset, monkeypatch):
        """A fit's output dir and the in-memory draws it saved to draws.npz."""
        saved = []
        save = cli._save_draws_npz

        def save_and_keep(path, draws):
            saved.append(draws)
            save(path, draws)

        monkeypatch.setattr(cli, "_save_draws_npz", save_and_keep)
        out = tmp_path / "saved"
        p = write_config(tmp_path / "saved.cfg", dataset, out, iterations=30, burn_in=10,
                         thinning=2, chains=2, seed=3)
        assert main(["fit", "--config", str(p)]) == EXIT_OK
        return out, saved[0]

    def test_draws_npz_keys(self, run_dir):
        # the archive format: archives already written must keep loading
        with np.load(run_dir / "draws.npz") as data:
            assert data.files == [
                "w", "z", "delta_y", "delta_x", "chain", "log_posterior",
                "shift_y", "shift_x", "acceptance_keys", "acceptance_vals",
                "scalar_beta_y", "scalar_beta_x", "scalar_kappa_y", "scalar_kappa_x",
                "scalar_xi_y", "scalar_xi_x", "scalar_alpha", "scalar_tau_w", "scalar_tau_z"]

    def test_draws_npz_roundtrip(self, saved_draws):
        out, draws = saved_draws
        back = load_draws_npz(out / "draws.npz")
        assert back.n_draws == 20
        # every array, scalar, acceptance rate and shift, NaN equal to NaN
        np.testing.assert_equal(dataclasses.asdict(back), dataclasses.asdict(draws))
        assert list(back.scalars) == list(draws.scalars)
        assert list(back.acceptance) == list(draws.acceptance)

    def test_compressed_draws_npz_still_loads(self, saved_draws, tmp_path, monkeypatch):
        # the archive earlier versions wrote: the same arrays, deflated
        out, draws = saved_draws
        with monkeypatch.context() as m:
            m.setattr(np, "savez", np.savez_compressed)
            cli._save_draws_npz(tmp_path / "compressed.npz", draws)
        assert (tmp_path / "compressed.npz").stat().st_size < (out / "draws.npz").stat().st_size
        back = load_draws_npz(tmp_path / "compressed.npz")
        np.testing.assert_equal(dataclasses.asdict(back), dataclasses.asdict(draws))
        tables = []
        for archive in (tmp_path / "compressed.npz", out / "draws.npz"):
            table = tmp_path / f"{archive.stem}.csv"
            assert main(["summarize", "--draws", str(archive), "--out", str(table)]) == EXIT_OK
            tables.append(table.read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("case", ["csv", "no_z", "truncated"])
    def test_bad_draws_file_exits_2(self, saved_draws, tmp_path, dataset, capsys, case):
        out, _ = saved_draws
        bad = tmp_path / "bad.npz"
        if case == "csv":
            bad = dataset / "stations.csv"
        elif case == "no_z":
            with np.load(out / "draws.npz") as data:
                np.savez(bad, **{k: data[k] for k in data.files if k != "z"})
        else:
            raw = (out / "draws.npz").read_bytes()
            bad.write_bytes(raw[:len(raw) // 2])
        assert main(["summarize", "--draws", str(bad), "--out", str(tmp_path / "t.csv")]) \
            == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err
        assert ("'z'" in err) == (case == "no_z")

    def test_archive_without_draws_exits_2(self, saved_draws, tmp_path, capsys):
        _, draws = saved_draws
        empty = tmp_path / "empty.npz"
        save_draws_npz(empty, dataclasses.replace(
            draws, scalars={k: v[:0] for k, v in draws.scalars.items()},
            **{name: getattr(draws, name)[:0] for name in ARRAYS}))
        assert main(["summarize", "--draws", str(empty), "--out", str(tmp_path / "t.csv")]) \
            == EXIT_DATA
        assert f"{empty}: no draws in the archive" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_run_writes_the_values_behind_it(self, run_dir, dataset):
        draws = load_draws_npz(run_dir / "draws.npz")
        rows = read_rows(run_dir / "posterior.csv")
        assert list(rows[0]) == ["draw", "chain", *SCALAR_NAMES, "delta_y_mean", "delta_x_mean"]
        assert len(rows) == draws.n_draws
        for d, row in enumerate(rows):
            assert int(row["chain"]) == draws.chain[d]
            assert [float(row[name]) for name in SCALAR_NAMES] == \
                [draws.scalars[name][d] for name in SCALAR_NAMES]
        net = load_network(dataset / "stations.csv")
        panel = load_panel(dataset / "observed.csv", dataset / "simulated.csv", net)
        cal = read_rows(run_dir / "calibrated.csv")
        assert [(r["station_id"], r["date"]) for r in cal] == \
            [(sid, date) for sid in net.ids for date in panel.dates]
        assert [float(r["x_sim"]) for r in cal] == panel.x.ravel().tolist()
        assert {r["clamped"] for r in cal} <= {"0", "1"}
        box = read_rows(run_dir / "sigma_boxplot.csv")
        assert [(r["day"], r["panel"]) for r in box] == \
            [(str(j), name) for j in range(4) for name in ("y", "x")]

    def test_scale_boxplot_written_without_figure_days(self, saved_draws):
        out, draws = saved_draws
        box = read_rows(out / "sigma_boxplot.csv")
        assert len(box) == 2 * draws.delta_x.shape[2]
        assert not list(out.glob("day*"))

    def test_scale_boxplot_computed_once_per_run(self, tmp_path, dataset, monkeypatch):
        calls = []
        mean_sigma = PosteriorDraws.mean_sigma
        monkeypatch.setattr(PosteriorDraws, "mean_sigma",
                            lambda self: calls.append(1) or mean_sigma(self))
        out = tmp_path / "out"
        p = write_config(tmp_path / "run.cfg", dataset, out, iterations=10,
                         burn_in=2, thinning=1, chains=1)
        assert main(["fit", "--config", str(p)]) == EXIT_OK
        assert main(["export-figures", "--run-dir", str(out), "--day", "0", "3"]) == EXIT_OK
        assert len(calls) == 1
        assert len(read_rows(out / "sigma_boxplot.csv")) == 2 * 4

    def test_summarize_subcommand(self, run_dir, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["summarize", "--draws", str(run_dir / "draws.npz"),
                     "--out", str(out)]) == EXIT_OK
        assert len(read_rows(out)) == 9

    def test_export_figures_subcommand(self, run_dir):
        assert main(["export-figures", "--run-dir", str(run_dir), "--day", "2"]) == EXIT_OK
        assert (run_dir / "day002_kde.csv").exists()
        assert (run_dir / "day002_stations.csv").exists()

    def test_export_figures_writes_several_days(self, run_dir):
        assert main(["export-figures", "--run-dir", str(run_dir), "--day", "0", "3"]) == EXIT_OK
        assert sorted(path.name for path in run_dir.glob("day*")) == [
            "day000_kde.csv", "day000_stations.csv", "day003_kde.csv", "day003_stations.csv"]

    def test_export_figures_day_outside_panel_writes_nothing(self, run_dir, capsys):
        assert main(["export-figures", "--run-dir", str(run_dir), "--day", "0", "99"]) \
            == EXIT_DATA
        assert "--day 99 outside the days 0..3" in capsys.readouterr().err
        assert not list(run_dir.glob("day*"))

    def test_export_figures_matches_the_runs_figure_day(self, run_dir, dataset):
        # the day's tables are day_densities and the day's column of the run's
        # calibrated.csv, with no draws.npz read
        (run_dir / "draws.npz").unlink()
        assert main(["export-figures", "--run-dir", str(run_dir), "--day", "1"]) == EXIT_OK
        net = load_network(dataset / "stations.csv")
        panel = load_panel(dataset / "observed.csv", dataset / "simulated.csv", net)
        values = load_field(run_dir / "calibrated.csv", "x_calibrated", net, panel.dates)
        y_full = np.full(panel.x.shape, np.nan)
        y_full[net.observed_indices] = panel.y
        grid, *densities = day_densities(values, y_full, panel.x, 1)
        kde = read_rows(run_dir / "day001_kde.csv")
        assert list(kde[0]) == ["value", "dens_observed", "dens_simulated", "dens_calibrated"]
        assert [[float(r[c]) for r in kde] for c in kde[0]] == \
            [grid.tolist(), *(d.tolist() for d in densities)]
        stations = read_rows(run_dir / "day001_stations.csv")
        assert [(r["station_id"], float(r["simulated"]), float(r["calibrated"]))
                for r in stations] == list(zip(net.ids, panel.x[:, 1], values[:, 1]))
        assert [r["observed"] and float(r["observed"]) for r in stations] == \
            [v if v == v else "" for v in y_full[:, 1]]

    def test_export_figures_svg_needs_matplotlib_first(self, run_dir, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "matplotlib", None)  # import raises ImportError
        assert main(["export-figures", "--run-dir", str(run_dir), "--day", "1", "--svg"]) \
            == EXIT_DATA
        assert "requires matplotlib" in capsys.readouterr().err
        assert not list(run_dir.glob("day*"))

    def test_export_figures_on_a_marginal_run(self, tmp_path, dataset):
        out = tmp_path / "marginal"
        p = write_config(tmp_path / "run.cfg", dataset, out, mode="marginal-empirical")
        assert main(["calibrate", "--config", str(p)]) == EXIT_OK
        assert main(["export-figures", "--run-dir", str(out), "--day", "3"]) == EXIT_OK
        cal = read_rows(out / "calibrated.csv")
        day3 = sorted({r["date"] for r in cal})[3]
        stations = read_rows(out / "day003_stations.csv")
        assert [(r["station_id"], r["calibrated"]) for r in stations] == \
            [(r["station_id"], r["x_calibrated"]) for r in cal if r["date"] == day3]

    @pytest.mark.parametrize("case", ["dropped_row", "extra_date"])
    def test_export_figures_rejects_a_calibrated_csv_off_the_panel(self, run_dir, capsys, case):
        path = run_dir / "calibrated.csv"
        lines = path.read_text().splitlines()
        if case == "dropped_row":
            del lines[3]
        else:
            sid, _, *rest = lines[1].split(",")
            lines.append(",".join([sid, "2031-01-01", *rest]))
        path.write_text("\n".join(lines) + "\n")
        assert main(["export-figures", "--run-dir", str(run_dir), "--day", "1"]) == EXIT_DATA
        assert str(path) in capsys.readouterr().err

    def test_export_figures_rejects_a_header_only_calibrated_csv(self, run_dir, capsys):
        path = run_dir / "calibrated.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        assert main(["export-figures", "--run-dir", str(run_dir), "--day", "1"]) == EXIT_DATA
        assert capsys.readouterr().err == f"windcal: data validation error: {path}: no data rows\n"

    @pytest.mark.parametrize("case", ["truncated", "no_config"])
    def test_export_figures_rejects_a_bad_manifest(self, run_dir, capsys, case):
        path = run_dir / "manifest.json"
        text = path.read_text()
        if case == "truncated":
            path.write_text(text[:len(text) // 2])
        else:
            manifest = json.loads(text)
            del manifest["config"]
            path.write_text(json.dumps(manifest))
        assert main(["export-figures", "--run-dir", str(run_dir), "--day", "1"]) == EXIT_DATA
        assert str(path) in capsys.readouterr().err

    def test_export_figures_from_another_directory(self, tmp_path, dataset, monkeypatch):
        # the fit reads its inputs through paths relative to where it ran
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "run.cfg", os.path.relpath(dataset), "fitrun",
                     iterations=10, burn_in=2, thinning=1, chains=1)
        assert main(["fit", "--config", "run.cfg"]) == EXIT_OK
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert main(["export-figures", "--run-dir", str(tmp_path / "fitrun"),
                     "--day", "1"]) == EXIT_OK
        assert (tmp_path / "fitrun" / "day001_kde.csv").exists()

    def test_export_figures_needs_manifest(self, tmp_path):
        os.makedirs(tmp_path / "empty", exist_ok=True)
        assert main(["export-figures", "--run-dir", str(tmp_path / "empty"),
                     "--day", "0"]) == EXIT_DATA


class TestDayWithoutObservation:
    """Few stations, many missing observations: some days have none."""

    @pytest.fixture()
    def run_dir(self, tmp_path):
        d = tmp_path / "data"
        assert main(["simulate", "--out-dir", str(d), "--n-stations", "6", "--n-observed", "3",
                     "--n-times", "20", "--seed", "2", "--missing-rate", "0.6"]) == EXIT_OK
        net = load_network(d / "stations.csv")
        assert np.isnan(load_panel(d / "observed.csv", d / "simulated.csv", net).y[:, 1]).all()
        out = tmp_path / "out"
        p = write_config(tmp_path / "run.cfg", d, out, mode="marginal-empirical")
        assert main(["calibrate", "--config", str(p)]) == EXIT_OK
        return out

    def test_observed_density_written_empty(self, run_dir):
        assert main(["export-figures", "--run-dir", str(run_dir), "--day", "1"]) == EXIT_OK
        kde = read_rows(run_dir / "day001_kde.csv")
        assert len(kde) > 1 and all(row["dens_observed"] == "" for row in kde)
        assert all(float(row["dens_simulated"]) >= 0 for row in kde)
        assert all(row["observed"] == "" for row in read_rows(run_dir / "day001_stations.csv"))

    def test_svg_leaves_out_the_observed_curve(self, run_dir, monkeypatch):
        # a stand-in pyplot that records each curve's label
        labels = []

        def ignore(*args, **kwargs):
            pass

        axes = types.SimpleNamespace(plot=lambda x, y, label: labels.append(label),
                                     set_xlabel=ignore, set_ylabel=ignore, legend=ignore)
        figure = types.SimpleNamespace(savefig=lambda path: open(path, "w").close())
        pyplot = types.SimpleNamespace(subplots=lambda figsize: (figure, axes), close=ignore)
        monkeypatch.setitem(sys.modules, "matplotlib",
                            types.SimpleNamespace(use=ignore, pyplot=pyplot))
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
        assert main(["export-figures", "--run-dir", str(run_dir), "--day", "1", "0",
                     "--svg"]) == EXIT_OK
        assert labels == ["simulated", "calibrated", "observed", "simulated", "calibrated"]
        assert (run_dir / "day001_kde.svg").exists()


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


class TestImportFootprint:
    """No command loads scipy, and a marginal calibrate, whose writer gets no masked
    column, loads no numpy.ma."""

    @pytest.fixture()
    def fitted(self, tmp_path, dataset):
        out = tmp_path / "out"
        p = write_config(tmp_path / "run.cfg", dataset, out, mode="hierarchical",
                         iterations=6, burn_in=2, thinning=1, chains=1)
        return loaded_modules(["fit", "--config", p]), out

    def test_simulate_loads_no_scipy(self, tmp_path):
        assert "scipy" not in loaded_modules(
            ["simulate", "--out-dir", tmp_path / "d", "--n-stations", "4",
             "--n-observed", "2", "--n-times", "3", "--seed", "1"])

    @pytest.mark.parametrize("mode, laws", [("marginal-empirical", {}),
                                            ("marginal-parametric", TestMarginalModes.LAWS)])
    def test_marginal_calibrate_loads_no_scipy(self, tmp_path, dataset, mode, laws):
        p = write_config(tmp_path / "run.cfg", dataset, tmp_path / "out", mode=mode, **laws)
        modules = loaded_modules(["calibrate", "--config", p])
        assert "scipy" not in modules
        assert "numpy.ma" not in modules

    def test_fit_and_hierarchical_calibrate_load_no_scipy(self, fitted, tmp_path, dataset):
        modules, _ = fitted
        assert "scipy" not in modules
        p = write_config(tmp_path / "cal.cfg", dataset, tmp_path / "cal", mode="hierarchical",
                         iterations=6, burn_in=2, thinning=1, chains=1)
        assert "scipy" not in loaded_modules(["calibrate", "--config", p])

    def test_reading_a_fit_back_loads_no_scipy(self, fitted, tmp_path):
        _, out = fitted
        for args in (["summarize", "--draws", out / "draws.npz", "--out", tmp_path / "t.csv"],
                     ["export-figures", "--run-dir", out, "--day", "1"]):
            assert "scipy" not in loaded_modules(args), args[0]


class TestBlasThreadPin:
    """Importing windcal pins OpenBLAS to one thread unless the user set a thread count."""

    # the interpreter's OS threads after numpy's and scipy's OpenBLAS have loaded
    SCRIPT = ("import os\nimport windcal.cli\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
              "import scipy.linalg\n"
              "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
              "else 'unknown')")

    @staticmethod
    def child_env(**env):
        # this process imported windcal, so its own environment already holds the pin
        base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_ENV}
        return {**base, "PYTHONPATH": SRC, **env}

    def fresh_import(self, **env):
        done = subprocess.run([sys.executable, "-c", self.SCRIPT], env=self.child_env(**env),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_unset_pins_one_thread(self):
        value, threads = self.fresh_import()
        assert value == "1"
        if threads == "unknown":
            pytest.skip("no /proc/self/task to count threads")
        assert threads == "1"

    @pytest.mark.parametrize("name", BLAS_THREAD_ENV)
    def test_user_thread_count_wins(self, name):
        value, _ = self.fresh_import(**{name: "2"})
        assert value == ("2" if name == "OPENBLAS_NUM_THREADS" else "None")

    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        d = tmp_path / "data"
        assert main(["simulate", "--out-dir", str(d), "--n-stations", "8", "--n-observed", "5",
                     "--n-times", "10", "--seed", "1", "--missing-rate", "0.2"]) == EXIT_OK
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"run-{threads}"
            p = write_config(tmp_path / f"run-{threads}.cfg", d, out, iterations=20, burn_in=5,
                             thinning=1, chains=2)
            done = subprocess.run([sys.executable, "-m", "windcal.cli", "fit", "--config", str(p)],
                                  env=self.child_env(OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, text=True)
            assert done.returncode == EXIT_OK, done.stderr
            assert json.loads((out / "manifest.json").read_text())["blas_threads_env"] == {
                "OPENBLAS_NUM_THREADS": threads, "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}
            runs[threads] = out
        for name in ("calibrated.csv", "posterior.csv", "logposterior.csv"):
            assert (runs["1"] / name).read_bytes() == (runs["2"] / name).read_bytes(), name
