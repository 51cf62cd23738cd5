"""Command-line entry point and run orchestration.

Subcommands: simulate, calibrate, fit, summarize, export-figures.
Exit codes: 0 ok, 1 usage, 2 data validation, 3 numerical failure.

Config files are flat ``key = value`` text; ``#`` starts a comment at the
start of a line or after whitespace, so a value may hold ``#``.  The path
keys (stations, observed, simulated, output_dir) can be overridden by
environment variables WINDCAL_STATIONS, WINDCAL_OBSERVED, WINDCAL_SIMULATED,
WINDCAL_OUTPUT_DIR.  ``RunConfig`` holds every run rule; an input key left
unset fails its rule.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import BLAS_THREAD_ENV, __version__
from .calibration import CalibrationMap, EmpiricalCdf, conditional_map
from .data import (
    PanelData,
    SyntheticTruth,
    generate_synthetic,
    load_field,
    load_network,
    load_panel,
    text_lines,
    write_long_csv,
    write_network_csv,
    write_panel_csv,
    write_table,
)
from .draws import SCALAR_NAMES, PosteriorDraws, load_draws_npz, save_draws_npz
from .egpd import EgpdParams
from .errors import (DataValidationError, DomainError, NumericalError, RuleError, WindcalError,
                     check_rules)
from .latent import CORRELATION_FAMILIES, StationNetwork
from .model import HierarchicalModel, McmcConfig, PriorSpec, chain_workers, run_mcmc
from .predictive import (SUMMARY_COLUMNS, CalibratedField, calibrate_field, day_densities,
                         sigma_boxes, summarize_posterior)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

MODES = ("marginal-empirical", "marginal-parametric", "hierarchical")

_INPUT_KEYS = ("stations", "observed", "simulated")
_PATH_KEYS = (*_INPUT_KEYS, "output_dir")
# a '#' at the start of a line or after whitespace, and the rest of the line
_COMMENT = re.compile(r"(^|\s)#.*")

# the words each word-valued key accepts
_CHOICES = {"mode": MODES, "correlation_family": CORRELATION_FAMILIES}

# RunConfig fields built from prefixed keys: (record, key prefix)
_RECORDS = {"priors": (PriorSpec, "prior_"),
            "source": (EgpdParams, "source_"),
            "target": (EgpdParams, "target_"),
            "mcmc": (McmcConfig, "")}


@dataclass
class RunConfig:
    stations: str = ""
    observed: str = ""
    simulated: str = ""
    output_dir: str = "out"
    mode: str = "hierarchical"
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    correlation_family: str = "disc"
    priors: PriorSpec = field(default_factory=PriorSpec)
    source: EgpdParams | None = None  # the marginal-parametric mode's two laws
    target: EgpdParams | None = None

    def __post_init__(self):
        # the run's rules, in the order a config error names them: a bad value
        # before an unset input
        check_rules([*(((k,), f"must be one of {'/'.join(w)}", getattr(self, k) in w)
                       for k, w in _CHOICES.items()),
                     (("output_dir",), "must not be empty", bool(self.output_dir)),
                     (("mode",), "needs both laws: source_ and target_ delta, xi and kappa",
                      self.mode != "marginal-parametric" or None not in (self.source, self.target)),
                     *(((k,), "not set", bool(getattr(self, k))) for k in _INPUT_KEYS)])

    @property
    def seed(self) -> int:  # the benchmark's setup probe (benchmarks/probe.py) reads it
        return self.mcmc.seed


# each config key and its field's type, which the key's text is read as
_KINDS = {prefix + f.name: {"str": str, "int": int, "float": float}[f.type]
          for record, prefix in [(RunConfig, ""), *_RECORDS.values()]
          for f in dataclasses.fields(record) if f.name not in _RECORDS}


def _bad(where: str, key: str, text: str, rule: str) -> DataValidationError:
    return DataValidationError(f"{where}: {key} = {text!r} {rule}")


def _broken(path, raw: dict, prefix: str, exc: RuleError) -> DataValidationError:
    """``exc`` naming the last of its rule's keys that the config sets, and that key's line;
    the config file itself when it sets none of them."""
    if not (keys := [k for k in raw if k in {prefix + f for f in exc.fields}]):
        return DataValidationError(f"{path}: {exc}")
    return _bad(raw[keys[-1]][1], keys[-1], raw[keys[-1]][0], exc.rule)


def parse_config(path) -> RunConfig:
    if not os.path.exists(path):
        raise DataValidationError(f"config file not found: {path}")
    raw = {}  # key -> (value, where it was set)
    first = {}  # key -> its line in the file
    # utf-8-sig: a UTF-8 file may start with a byte-order mark
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(text_lines(path, fh), start=1):
            line = _COMMENT.sub("", line, count=1).strip()
            if not line:
                continue
            if "=" not in line:
                raise DataValidationError(f"{path} line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in first:
                raise DataValidationError(
                    f"{path} line {lineno}: {key} set again (first on line {first[key]})")
            first[key] = lineno
            raw[key] = (value, f"{path} line {lineno}")
    for key in _PATH_KEYS:
        if env := os.environ.get(f"WINDCAL_{key.upper()}"):
            raw[key] = (env, f"WINDCAL_{key.upper()}")
    values = {}
    for key, (value, where) in raw.items():
        if key not in _KINDS:
            raise DataValidationError(f"{where}: unknown config key {key!r}")
        try:
            values[key] = _KINDS[key](value)
        except ValueError:
            raise _bad(where, key, value, f"is not a valid {_KINDS[key].__name__}") from None
    for name, (record, prefix) in _RECORDS.items():
        fields = {f.name: values.pop(prefix + f.name, f.default)
                  for f in dataclasses.fields(record)}
        # a field with no default needs its key: a law takes all of its keys or none
        missing = [prefix + f for f, value in fields.items() if value is dataclasses.MISSING]
        if len(missing) == len(fields):
            continue
        try:
            if missing:
                raise RuleError(fields, f"needs {' and '.join(missing)} set too")
            values[name] = record(**fields)
        except RuleError as exc:
            raise _broken(path, raw, prefix, exc) from None
    try:
        return RunConfig(**values)
    except RuleError as exc:
        raise _broken(path, raw, "", exc) from None


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _write_calibrated_csv(path, net, panel: PanelData, field_: CalibratedField):
    write_long_csv(path, net.ids, panel.dates,
                   {"x_sim": panel.x, "x_calibrated": field_.values,
                    "pred_sd": field_.sd, "clamped": field_.clamped})


def _write_posterior_csv(path, draws: PosteriorDraws):
    means = [np.array([delta.mean() for delta in panel])
             for panel in (draws.delta_y, draws.delta_x)]
    write_table(path, ["draw", "chain", *SCALAR_NAMES, "delta_y_mean", "delta_x_mean"],
                [[np.arange(draws.n_draws), draws.chain,
                  *(draws.scalars[name] for name in SCALAR_NAMES), *means]])


def _write_summary_csv(path, table: dict):
    write_table(path, ["parameter", *SUMMARY_COLUMNS],
                [[list(table), *(np.array([row[c] for row in table.values()])
                                 for c in SUMMARY_COLUMNS)]])


def _write_diagnostics(outdir, draws: PosteriorDraws, iterations: int):
    write_table(os.path.join(outdir, "acceptance.csv"), ["block", "acceptance_rate"],
                [[list(draws.acceptance), np.array(list(draws.acceptance.values()))]])
    chain, iteration = np.divmod(np.arange(len(draws.log_posterior)), max(iterations, 1))
    write_table(os.path.join(outdir, "logposterior.csv"), ["chain", "iteration", "log_posterior"],
                [[chain, iteration, draws.log_posterior]])


def _save_draws_npz(path, draws: PosteriorDraws):
    save_draws_npz(path, draws)  # a seam of its own, so a traced run times the write


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _point_field(values, clamped) -> CalibratedField:
    """A marginal map's field: one value per cell, no predictive spread."""
    return CalibratedField(values=values, sd=np.zeros_like(values),
                           clamp_fraction=clamped.astype(float))


def _marginal_empirical_field(panel: PanelData, net) -> CalibratedField:
    """Station-wise empirical maps; pooled map for simulator-only stations."""
    obs_idx = net.observed_indices
    pooled_y = EmpiricalCdf.from_sample(panel.y)
    pooled_x = EmpiricalCdf.from_sample(panel.x[obs_idx])
    values = np.empty_like(panel.x)
    clamped = np.zeros(panel.x.shape, dtype=bool)
    row_of = {int(s): r for r, s in enumerate(obs_idx)}
    for i in range(net.n_total):
        r = row_of.get(i)
        if r is not None and np.sum(~np.isnan(panel.y[r])) >= 2:
            src = EmpiricalCdf.from_sample(panel.x[i])
            tgt = EmpiricalCdf.from_sample(panel.y[r])
        else:
            src, tgt = pooled_x, pooled_y
        values[i] = CalibrationMap(src, tgt)(panel.x[i])
        clamped[i] = panel.x[i] > src.values.max()
    return _point_field(values, clamped)


def _marginal_parametric_field(panel: PanelData, cfg: RunConfig) -> CalibratedField:
    # each law's fields in conditional_map's order: delta, xi, kappa
    laws = (*dataclasses.astuple(cfg.source), *dataclasses.astuple(cfg.target))
    return _point_field(*conditional_map(panel.x, *laws))


def run(cfg: RunConfig) -> int:
    """Execute the configured pipeline: ingest -> fit/calibrate -> export."""
    t_start = time.perf_counter()
    net = load_network(cfg.stations)
    panel = load_panel(cfg.observed, cfg.simulated, net)
    # of the modes only marginal-parametric reads no observation
    if cfg.mode != "marginal-parametric" and np.isnan(panel.y).all():
        raise DataValidationError(f"{cfg.observed}: no data rows")
    if cfg.mode == "hierarchical":
        model = HierarchicalModel(panel.y, panel.x, net, priors=cfg.priors,
                                  correlation_family=cfg.correlation_family, dates=panel.dates)
        model.initialize_state()  # inputs a chain cannot start from fail before output_dir exists
    os.makedirs(cfg.output_dir, exist_ok=True)

    draws = None
    if cfg.mode == "marginal-empirical":
        field_ = _marginal_empirical_field(panel, net)
    elif cfg.mode == "marginal-parametric":
        field_ = _marginal_parametric_field(panel, cfg)
    else:
        draws = run_mcmc(model, cfg.mcmc)
        field_ = calibrate_field(draws, panel, net.observed_indices)

    _write_calibrated_csv(os.path.join(cfg.output_dir, "calibrated.csv"), net, panel, field_)
    manifest = {
        # absolute input paths, so export-figures reads them from any directory
        "config": dataclasses.asdict(dataclasses.replace(
            cfg, **{key: os.path.abspath(getattr(cfg, key)) for key in _INPUT_KEYS})),
        "versions": {"windcal": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "seed": cfg.mcmc.seed,
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_THREAD_ENV},
        "n_clamped_cells": int(field_.clamped.sum()),
        "missing_fraction_per_station": [float(v) for v in panel.missing_fraction()],
    }
    if draws is not None:
        _write_posterior_csv(os.path.join(cfg.output_dir, "posterior.csv"), draws)
        _write_summary_csv(os.path.join(cfg.output_dir, "summary.csv"),
                           summarize_posterior(draws))
        _write_diagnostics(cfg.output_dir, draws, cfg.mcmc.iterations)
        _save_draws_npz(os.path.join(cfg.output_dir, "draws.npz"), draws)
        # null for a block that made no proposal (a zero-iteration run)
        manifest["acceptance"] = {k: None if np.isnan(v) else float(v)
                                  for k, v in draws.acceptance.items()}
        manifest["chain_workers"] = chain_workers(cfg.mcmc.chains)
        _export_sigma_boxplot(cfg.output_dir, draws)
    manifest["wall_time_s"] = time.perf_counter() - t_start
    with open(os.path.join(cfg.output_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
    return EXIT_OK


def _export_sigma_boxplot(outdir, draws: PosteriorDraws):
    box_y, box_x = sigma_boxes(draws)
    n_days = box_y.shape[0]
    # one y row, then one x row, per day
    boxes = np.stack([box_y, box_x], axis=1).reshape(2 * n_days, -1)
    write_table(os.path.join(outdir, "sigma_boxplot.csv"),
                ["day", "panel", "min", "q1", "median", "q3", "max"],
                [[np.repeat(np.arange(n_days), 2), ["y", "x"] * n_days, *boxes.T]])


def _export_day(outdir, net, panel, values, day, plt=None):
    """Write one day's density and per-station tables of ``values``, and its plot given pyplot."""
    y_full = np.full(panel.x.shape, np.nan)
    y_full[net.observed_indices] = panel.y
    grid, *curves = day_densities(values, y_full, panel.x, day)
    prefix = os.path.join(outdir, f"day{day:03d}")
    # a day with no observation gets an empty observed density field
    write_table(prefix + "_kde.csv",
                ["value", "dens_observed", "dens_simulated", "dens_calibrated"],
                [[grid, *map(np.ma.masked_invalid, curves)]])
    # a station with no observation that day gets an empty observed field
    observed = np.ma.masked_invalid(y_full[:, day])
    write_table(prefix + "_stations.csv", ["station_id", "observed", "simulated", "calibrated"],
                [[net.ids, observed, panel.x[:, day], values[:, day]]])
    if plt is not None:
        fig, ax = plt.subplots(figsize=(6, 4))
        for dens, label in zip(curves, ("observed", "simulated", "calibrated")):
            if not np.isnan(dens).all():
                ax.plot(grid, dens, label=label)
        ax.set_xlabel("value")
        ax.set_ylabel("density")
        ax.legend()
        fig.savefig(prefix + "_kde.svg")
        plt.close(fig)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="windcal",
                     description="Quantile-matching calibration of simulated fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="run the configured calibration pipeline")
    p_cal.add_argument("--config", required=True)

    p_fit = sub.add_parser("fit", help="run the hierarchical MCMC fit (forces hierarchical mode)")
    p_fit.add_argument("--config", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--n-stations", type=int, default=16)
    p_sim.add_argument("--n-observed", type=int, default=10)
    p_sim.add_argument("--n-times", type=int, default=20)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--missing-rate", type=float, default=0.0)

    p_sum = sub.add_parser("summarize", help="summary table from a posterior draws file")
    p_sum.add_argument("--draws", required=True, help="draws.npz from a fit")
    p_sum.add_argument("--out", required=True)

    p_fig = sub.add_parser("export-figures", help="figure-ready CSVs for one or more days")
    p_fig.add_argument("--run-dir", required=True, help="output dir of a calibrate or fit run")
    p_fig.add_argument("--day", type=int, nargs="+", required=True)
    p_fig.add_argument("--svg", action="store_true")
    return parser


def _cmd_simulate(args) -> int:
    n_s, n_obs = args.n_stations, args.n_observed
    if not 1 <= n_obs <= n_s:
        raise DataValidationError("need 1 <= n-observed <= n-stations")
    if args.n_times < 1:
        raise DataValidationError("need n-times >= 1")
    if args.seed < 0:
        raise DataValidationError("need seed >= 0")
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xC0FFEE)))
    coords = rng.uniform(0.0, 300.0, size=(n_s, 2))
    observed = np.zeros(n_s, dtype=bool)
    observed[rng.choice(n_s, size=n_obs, replace=False)] = True
    net = StationNetwork.from_coords([f"st{i:03d}" for i in range(n_s)], coords, observed)
    truth = SyntheticTruth()
    panel, _ = generate_synthetic(truth, net, args.n_times,
                                  seed=args.seed, missing_rate=args.missing_rate)
    os.makedirs(args.out_dir, exist_ok=True)
    write_network_csv(os.path.join(args.out_dir, "stations.csv"), net)
    obs_ids = [net.ids[i] for i in net.observed_indices]
    write_panel_csv(os.path.join(args.out_dir, "observed.csv"), panel.y, obs_ids, panel.dates)
    write_panel_csv(os.path.join(args.out_dir, "simulated.csv"), panel.x, net.ids, panel.dates)
    record = {**dataclasses.asdict(truth), "seed": args.seed, "missing_rate": args.missing_rate}
    with open(os.path.join(args.out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return EXIT_OK


def _cmd_summarize(args) -> int:
    draws = load_draws_npz(args.draws)
    _write_summary_csv(args.out, summarize_posterior(draws))
    return EXIT_OK


def _cmd_export_figures(args) -> int:
    plt = None
    if args.svg:  # before any file is written
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            raise DataValidationError("SVG rendering requires matplotlib") from None
    manifest_path = os.path.join(args.run_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise DataValidationError(f"no manifest.json in {args.run_dir}")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            inputs = json.load(fh)["config"]
        stations, observed, simulated = (inputs[key] for key in _INPUT_KEYS)
    except (ValueError, KeyError, TypeError) as exc:
        raise DataValidationError(f"{manifest_path}: not a run manifest ({exc!r})") from None
    net = load_network(stations)
    panel = load_panel(observed, simulated, net)
    bad_days = " ".join(str(day) for day in args.day if not 0 <= day < panel.n_times)
    if bad_days:
        raise DataValidationError(f"--day {bad_days} outside the days 0..{panel.n_times - 1}")
    values = load_field(os.path.join(args.run_dir, "calibrated.csv"), "x_calibrated",
                        net, panel.dates)
    for day in args.day:
        _export_day(args.run_dir, net, panel, values, day, plt)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "summarize":
            return _cmd_summarize(args)
        if args.command == "export-figures":
            return _cmd_export_figures(args)
        cfg = parse_config(args.config)
        if args.command == "fit":
            cfg = dataclasses.replace(cfg, mode="hierarchical")
        return run(cfg)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (DataValidationError, DomainError, OSError) as exc:
        print(f"windcal: data validation error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"windcal: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except WindcalError as exc:
        print(f"windcal: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
