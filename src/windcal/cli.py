"""Command-line entry point and run orchestration.

Subcommands: simulate, calibrate, fit, summarize, export-figures.
Exit codes: 0 ok, 1 usage, 2 data validation, 3 numerical failure.

Config files are flat ``key = value`` text (# comments allowed); the path
keys (stations, observed, simulated, output_dir) can be overridden by
environment variables WINDCAL_STATIONS, WINDCAL_OBSERVED, WINDCAL_SIMULATED,
WINDCAL_OUTPUT_DIR.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .calibration import CalibrationMap, EmpiricalCdf, marginal_calibrate
from .data import (
    PanelData,
    SyntheticTruth,
    generate_synthetic,
    load_network,
    load_panel,
    write_network_csv,
    write_panel_csv,
)
from .draws import SCALAR_NAMES, PosteriorDraws
from .egpd import EgpdParams
from .errors import DataValidationError, DomainError, NumericalError, WindcalError
from .model import HierarchicalModel, McmcConfig, PriorSpec, run_mcmc
from .predictive import CalibratedField, calibrate_field, export_figures, summarize_posterior

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

MODES = ("marginal-empirical", "marginal-parametric", "hierarchical")

_PATH_KEYS = ("stations", "observed", "simulated", "output_dir")


@dataclass
class RunConfig:
    stations: str = ""
    observed: str = ""
    simulated: str = ""
    output_dir: str = "out"
    mode: str = "hierarchical"
    seed: int = 0
    iterations: int = 4000
    burn_in: int = 1000
    thinning: int = 5
    chains: int = 2
    correlation_family: str = "disc"
    full_dump: bool = False
    figure_days: tuple = ()
    priors: PriorSpec = field(default_factory=PriorSpec)
    # marginal-parametric source/target laws
    source_delta: float = 0.0
    source_xi: float = -0.1
    source_kappa: float = 1.0
    target_delta: float = 0.0
    target_xi: float = -0.1
    target_kappa: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise DataValidationError(f"mode must be one of {MODES}, got {self.mode!r}")

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["priors"] = dataclasses.asdict(self.priors)
        d["figure_days"] = list(self.figure_days)
        return d


def parse_config(path) -> RunConfig:
    if not os.path.exists(path):
        raise DataValidationError(f"config file not found: {path}")
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataValidationError(f"{path} line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    for key in _PATH_KEYS:
        env = os.environ.get(f"WINDCAL_{key.upper()}")
        if env:
            raw[key] = env
    prior_kwargs = {}
    cfg_kwargs = {}
    field_types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    prior_fields = {f.name for f in dataclasses.fields(PriorSpec)}
    for key, value in raw.items():
        if key.startswith("prior_") and key[len("prior_"):] in prior_fields:
            prior_kwargs[key[len("prior_"):]] = float(value)
            continue
        if key not in field_types:
            raise DataValidationError(f"unknown config key {key!r}")
        if key in ("seed", "iterations", "burn_in", "thinning", "chains"):
            cfg_kwargs[key] = int(value)
        elif key == "full_dump":
            cfg_kwargs[key] = value.strip() in ("1", "true", "yes")
        elif key == "figure_days":
            cfg_kwargs[key] = tuple(int(v) for v in value.split(",") if v.strip())
        elif key.startswith(("source_", "target_")):
            cfg_kwargs[key] = float(value)
        else:
            cfg_kwargs[key] = value
    if prior_kwargs:
        cfg_kwargs["priors"] = PriorSpec(**prior_kwargs)
    return RunConfig(**cfg_kwargs)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _write_calibrated_csv(path, net, panel: PanelData, field_: CalibratedField):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "date", "x_sim", "x_calibrated", "pred_sd", "clamped"])
        for i, sid in enumerate(net.ids):
            for j, date in enumerate(panel.dates):
                writer.writerow([sid, date, repr(float(panel.x[i, j])),
                                 repr(float(field_.values[i, j])),
                                 repr(float(field_.sd[i, j])),
                                 int(field_.clamped[i, j])])


def _write_posterior_csv(path, draws: PosteriorDraws, full_dump: bool):
    header = ["draw", "chain"] + list(SCALAR_NAMES) + ["delta_y_mean", "delta_x_mean"]
    if full_dump:
        n_s = draws.w.shape[1]
        n_t = draws.z.shape[1]
        header += [f"w_{i}" for i in range(n_s)] + [f"z_{j}" for j in range(n_t)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for d in range(draws.n_draws):
            row = [d, int(draws.chain[d])]
            row += [repr(float(draws.scalars[name][d])) for name in SCALAR_NAMES]
            row += [repr(float(draws.delta_y[d].mean())), repr(float(draws.delta_x[d].mean()))]
            if full_dump:
                row += [repr(float(v)) for v in draws.w[d]]
                row += [repr(float(v)) for v in draws.z[d]]
            writer.writerow(row)


def _write_summary_csv(path, table: dict):
    from .predictive import SUMMARY_COLUMNS

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter"] + list(SUMMARY_COLUMNS))
        for name, row in table.items():
            writer.writerow([name] + [repr(row[c]) for c in SUMMARY_COLUMNS])


def _write_diagnostics(outdir, draws: PosteriorDraws, iterations: int, chains: int):
    with open(os.path.join(outdir, "acceptance.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "acceptance_rate"])
        for block, rate in draws.acceptance.items():
            writer.writerow([block, repr(float(rate))])
    per_chain = max(iterations, 1)
    with open(os.path.join(outdir, "logposterior.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "iteration", "log_posterior"])
        for idx, lp in enumerate(draws.log_posterior):
            writer.writerow([idx // per_chain, idx % per_chain, repr(float(lp))])


def _save_draws_npz(path, draws: PosteriorDraws):
    np.savez_compressed(
        path,
        w=draws.w, z=draws.z, delta_y=draws.delta_y, delta_x=draws.delta_x,
        chain=draws.chain, log_posterior=draws.log_posterior,
        shift_y=draws.shift_y, shift_x=draws.shift_x,
        acceptance_keys=np.array(list(draws.acceptance.keys())),
        acceptance_vals=np.array(list(draws.acceptance.values())),
        **{f"scalar_{k}": v for k, v in draws.scalars.items()},
    )


def load_draws_npz(path) -> PosteriorDraws:
    with np.load(path, allow_pickle=False) as data:
        scalars = {k[len("scalar_"):]: data[k] for k in data.files if k.startswith("scalar_")}
        return PosteriorDraws(
            scalars=scalars, w=data["w"], z=data["z"],
            delta_y=data["delta_y"], delta_x=data["delta_x"],
            chain=data["chain"], log_posterior=data["log_posterior"],
            acceptance=dict(zip(data["acceptance_keys"].tolist(),
                                data["acceptance_vals"].tolist())),
            shift_y=float(data["shift_y"]), shift_x=float(data["shift_x"]),
        )


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

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
        values[i] = marginal_calibrate(panel.x[i], CalibrationMap(src, tgt))
        clamped[i] = panel.x[i] > src.values.max()
    return CalibratedField(values=values, sd=np.zeros_like(values),
                           clamped=clamped, clamp_fraction=clamped.astype(float))


def _marginal_parametric_field(panel: PanelData, cfg: RunConfig) -> CalibratedField:
    if cfg.source_delta <= 0 or cfg.target_delta <= 0:
        raise DataValidationError(
            "marginal-parametric mode needs source_/target_ delta, xi, kappa in the config")
    src = EgpdParams(cfg.source_delta, cfg.source_xi, cfg.source_kappa)
    tgt = EgpdParams(cfg.target_delta, cfg.target_xi, cfg.target_kappa)
    from .calibration import conditional_calibrate_flagged

    values, clamped = conditional_calibrate_flagged(panel.x, src, tgt)
    return CalibratedField(values=values, sd=np.zeros_like(values),
                           clamped=clamped, clamp_fraction=clamped.astype(float))


def run(cfg: RunConfig) -> int:
    """Execute the configured pipeline: ingest -> fit/calibrate -> export."""
    t_start = time.time()
    net = load_network(cfg.stations)
    panel = load_panel(cfg.observed, cfg.simulated, net)
    bad_days = [day for day in cfg.figure_days if not 0 <= day < panel.n_times]
    if bad_days:
        raise DataValidationError(
            f"figure_days {bad_days} outside the panel's days 0..{panel.n_times - 1}")
    os.makedirs(cfg.output_dir, exist_ok=True)

    draws = None
    if cfg.mode == "marginal-empirical":
        field_ = _marginal_empirical_field(panel, net)
    elif cfg.mode == "marginal-parametric":
        field_ = _marginal_parametric_field(panel, cfg)
    else:
        model = HierarchicalModel(panel.y, panel.x, net, priors=cfg.priors,
                                  correlation_family=cfg.correlation_family)
        mcfg = McmcConfig(iterations=cfg.iterations, burn_in=cfg.burn_in,
                          thinning=cfg.thinning, chains=cfg.chains, seed=cfg.seed)
        draws = run_mcmc(model, mcfg)
        field_ = calibrate_field(draws, panel.x, net.observed_indices, seed=cfg.seed)

    _write_calibrated_csv(os.path.join(cfg.output_dir, "calibrated.csv"), net, panel, field_)
    manifest = {
        "config": cfg.as_dict(),
        "versions": {"windcal": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "seed": cfg.seed,
        "n_clamped_cells": int(field_.clamped.sum()),
        "missing_fraction_per_station": [float(v) for v in panel.missing_fraction()],
    }
    if draws is not None:
        _write_posterior_csv(os.path.join(cfg.output_dir, "posterior.csv"),
                             draws, cfg.full_dump)
        _write_summary_csv(os.path.join(cfg.output_dir, "summary.csv"),
                           summarize_posterior(draws))
        _write_diagnostics(cfg.output_dir, draws, cfg.iterations, cfg.chains)
        _save_draws_npz(os.path.join(cfg.output_dir, "draws.npz"), draws)
        manifest["acceptance"] = {k: float(v) for k, v in draws.acceptance.items()}
        for day in cfg.figure_days:
            _export_day(cfg.output_dir, net, panel, draws, field_, day)
    manifest["wall_time_s"] = time.time() - t_start
    with open(os.path.join(cfg.output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return EXIT_OK


def _expand_y(panel: PanelData, net) -> np.ndarray:
    y_full = np.full(panel.x.shape, np.nan)
    y_full[net.observed_indices] = panel.y
    return y_full


def _export_day(outdir, net, panel, draws, field_, day, svg=False):
    bundle = export_figures(field_, _expand_y(panel, net), panel.x, draws,
                            net.ids, day)
    prefix = os.path.join(outdir, f"day{day:03d}")
    with open(prefix + "_kde.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "dens_observed", "dens_simulated", "dens_calibrated"])
        for k in range(bundle.kde_grid.size):
            writer.writerow([repr(float(bundle.kde_grid[k])),
                             repr(float(bundle.kde_observed[k])),
                             repr(float(bundle.kde_simulated[k])),
                             repr(float(bundle.kde_calibrated[k]))])
    with open(prefix + "_stations.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "observed", "simulated", "calibrated"])
        for i, sid in enumerate(bundle.station_ids):
            obs = bundle.observed[i]
            writer.writerow([sid, "" if np.isnan(obs) else repr(float(obs)),
                             repr(float(bundle.simulated[i])),
                             repr(float(bundle.calibrated[i]))])
    with open(os.path.join(outdir, "sigma_boxplot.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "panel", "min", "q1", "median", "q3", "max"])
        for j in range(bundle.sigma_y_box.shape[0]):
            writer.writerow([j, "y"] + [repr(float(v)) for v in bundle.sigma_y_box[j]])
            writer.writerow([j, "x"] + [repr(float(v)) for v in bundle.sigma_x_box[j]])
    if svg:
        _render_svg(prefix, bundle)


def _render_svg(prefix, bundle):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise DataValidationError("SVG rendering requires matplotlib")
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(bundle.kde_grid, bundle.kde_observed, label="observed")
    ax.plot(bundle.kde_grid, bundle.kde_simulated, label="simulated")
    ax.plot(bundle.kde_grid, bundle.kde_calibrated, label="calibrated")
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

    p_fig = sub.add_parser("export-figures", help="figure-ready CSVs for one day")
    p_fig.add_argument("--run-dir", required=True, help="output dir of a hierarchical run")
    p_fig.add_argument("--day", type=int, required=True)
    p_fig.add_argument("--svg", action="store_true")
    return parser


def _cmd_simulate(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xC0FFEE)))
    from .latent import StationNetwork

    n_s, n_obs = args.n_stations, args.n_observed
    if not 1 <= n_obs <= n_s:
        raise DataValidationError("need 1 <= n-observed <= n-stations")
    coords = rng.uniform(0.0, 300.0, size=(n_s, 2))
    observed = np.zeros(n_s, dtype=bool)
    observed[rng.choice(n_s, size=n_obs, replace=False)] = True
    net = StationNetwork.from_coords([f"st{i:03d}" for i in range(n_s)], coords, observed)
    panel, truth = generate_synthetic(SyntheticTruth(), net, args.n_times,
                                      seed=args.seed, missing_rate=args.missing_rate)
    os.makedirs(args.out_dir, exist_ok=True)
    write_network_csv(os.path.join(args.out_dir, "stations.csv"), net)
    obs_ids = [net.ids[i] for i in net.observed_indices]
    write_panel_csv(os.path.join(args.out_dir, "observed.csv"), panel.y, obs_ids, panel.dates)
    write_panel_csv(os.path.join(args.out_dir, "simulated.csv"), panel.x, net.ids, panel.dates)
    record = {k: getattr(truth, k) for k in SCALAR_NAMES + ("shift_y", "shift_x")}
    record["seed"] = args.seed
    record["missing_rate"] = args.missing_rate
    with open(os.path.join(args.out_dir, "truth.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return EXIT_OK


def _cmd_summarize(args) -> int:
    draws = load_draws_npz(args.draws)
    _write_summary_csv(args.out, summarize_posterior(draws))
    return EXIT_OK


def _cmd_export_figures(args) -> int:
    manifest_path = os.path.join(args.run_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise DataValidationError(f"no manifest.json in {args.run_dir}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    cfg_dict = manifest["config"]
    net = load_network(cfg_dict["stations"])
    panel = load_panel(cfg_dict["observed"], cfg_dict["simulated"], net)
    draws_path = os.path.join(args.run_dir, "draws.npz")
    if not os.path.exists(draws_path):
        raise DataValidationError("export-figures needs a hierarchical run (draws.npz missing)")
    draws = load_draws_npz(draws_path)
    field_ = calibrate_field(draws, panel.x, net.observed_indices, seed=cfg_dict["seed"])
    _export_day(args.run_dir, net, panel, draws, field_, args.day, svg=args.svg)
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
