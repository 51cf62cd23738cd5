"""Workload definitions and input generation.

Inputs are generated the way ``windcal simulate`` generates them: random
station coordinates, a random observed subset, and ``generate_synthetic``
panels written with the package's own CSV writers.  The program under test
sees only the CSV files and a config file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# Default workload seed, and the held-out seed that a later gain claim is
# confirmed on (inputs not looked at while the change was written).
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009

# The temporal field is a sum-to-zero RW1, whose spread grows with
# n_times / tau_z.  The generator's default tau_z suits the 20-day acceptance
# size; at 365 days it gives panels whose values reach 1e10 to 1e20, and
# initialize_state then fails on about one seed in twelve.  Workloads keep
# n_times / tau_z at its acceptance-size value instead.
ACCEPTANCE_DAYS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # windcal subcommand: "fit" or "calibrate"
    n_stations: int
    n_observed: int
    n_times: int
    missing_rate: float
    mode: str             # config "mode" key
    iterations: int
    burn_in: int
    thinning: int
    chains: int

    @property
    def fits(self) -> bool:
        return self.command == "fit"

    @property
    def draws_per_chain(self) -> int:
        return math.ceil((self.iterations - self.burn_in) / self.thinning)

    @property
    def n_draws(self) -> int:
        return self.chains * self.draws_per_chain


# Why each workload exists is recorded in BENCHMARK.json.  Chain lengths keep
# one process near 4 s (fit-small) and 7 s (fit-large) on a 2-core Xeon, so a
# 30 s run holds several samples.
WORKLOADS = {
    w.name: w for w in (
        Workload("fit-small", "fit", 16, 10, 20, 0.0, "hierarchical",
                 iterations=400, burn_in=100, thinning=2, chains=2),
        Workload("fit-large", "fit", 200, 100, 365, 0.1, "hierarchical",
                 iterations=6, burn_in=2, thinning=1, chains=2),
        Workload("calibrate-large", "calibrate", 200, 100, 365, 0.1,
                 "marginal-empirical", iterations=0, burn_in=0, thinning=1, chains=1),
    )
}


def truth(workload: Workload):
    """Generator parameters: the defaults, with tau_z scaled (see ACCEPTANCE_DAYS)."""
    # windcal is importable only once the caller has put the checkout's src on the path
    from windcal.data import SyntheticTruth

    return SyntheticTruth(tau_z=SyntheticTruth.tau_z * workload.n_times / ACCEPTANCE_DAYS)


def make_inputs(workload: Workload, seed: int, directory: str) -> dict:
    """Write stations/observed/simulated CSVs for ``seed``; return their paths."""
    from windcal.data import generate_synthetic, write_network_csv, write_panel_csv
    from windcal.latent import StationNetwork

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    n_s, n_obs = workload.n_stations, workload.n_observed
    coords = rng.uniform(0.0, 300.0, size=(n_s, 2))
    observed = np.zeros(n_s, dtype=bool)
    observed[rng.choice(n_s, size=n_obs, replace=False)] = True
    net = StationNetwork.from_coords([f"st{i:03d}" for i in range(n_s)], coords, observed)
    panel, _ = generate_synthetic(truth(workload), net, workload.n_times, seed=seed,
                                  missing_rate=workload.missing_rate)
    os.makedirs(directory, exist_ok=True)
    paths = {key: os.path.join(directory, f"{key}.csv")
             for key in ("stations", "observed", "simulated")}
    write_network_csv(paths["stations"], net)
    obs_ids = [net.ids[i] for i in net.observed_indices]
    write_panel_csv(paths["observed"], panel.y, obs_ids, panel.dates)
    write_panel_csv(paths["simulated"], panel.x, net.ids, panel.dates)
    return paths


def write_config(workload: Workload, seed: int, inputs: dict, output_dir: str, path: str):
    lines = [f"stations = {inputs['stations']}",
             f"observed = {inputs['observed']}",
             f"simulated = {inputs['simulated']}",
             f"output_dir = {output_dir}",
             f"mode = {workload.mode}",
             f"seed = {seed}"]
    if workload.fits:
        lines += [f"iterations = {workload.iterations}",
                  f"burn_in = {workload.burn_in}",
                  f"thinning = {workload.thinning}",
                  f"chains = {workload.chains}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
