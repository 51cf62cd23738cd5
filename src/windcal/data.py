"""Panel data: CSV ingestion, validation, and forward simulation.

CSV schemas:
  stations file   station_id,x_km,y_km,observed      (observed in {0,1})
  panel files     station_id,date,value              (long form, YYYY-MM-DD;
                                                      finite values only;
                                                      missing = absent row,
                                                      observed panel only)
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, replace

import numpy as np

from .egpd import egpd_draw
from .errors import DataValidationError, DomainError
from .latent import (
    StationNetwork,
    cholesky_correlation,
    sample_rw1_constrained,
    sample_spatial_field,
    spatial_correlation,
)
from .model import rates


@dataclass
class PanelData:
    """Observed (N x T, NaN-missing) and simulated (N_s x T, complete) panels."""

    y: np.ndarray
    x: np.ndarray
    dates: tuple

    def __post_init__(self):
        if np.any(np.isnan(self.x)):
            raise DataValidationError("simulated panel must have no missing cells")
        y_clean = self.y[~np.isnan(self.y)]
        if np.any(y_clean < 0) or self.x.min() < 0:
            raise DataValidationError("panel values must be nonnegative")
        if self.y.shape[1] != self.x.shape[1] or len(self.dates) != self.x.shape[1]:
            raise DataValidationError("panels and date axis must share the time dimension")

    @property
    def n_times(self) -> int:
        return self.x.shape[1]

    def missing_fraction(self) -> np.ndarray:
        """Per-station share of missing observed cells."""
        return np.isnan(self.y).mean(axis=1)


def load_network(path) -> StationNetwork:
    ids, coords, observed = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"station_id", "x_km", "y_km", "observed"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataValidationError(f"stations file needs columns {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            ids.append(row["station_id"])
            try:
                coords.append((float(row["x_km"]), float(row["y_km"])))
                flag = int(row["observed"])
            except ValueError as exc:
                raise DataValidationError(f"stations file line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, coords[-1])):
                raise DataValidationError(f"stations file line {lineno}: non-finite coordinate")
            if flag not in (0, 1):
                raise DataValidationError(f"stations file line {lineno}: observed must be 0 or 1")
            observed.append(bool(flag))
    if len(set(ids)) != len(ids):
        raise DataValidationError("duplicate station ids in stations file")
    return StationNetwork.from_coords(ids, np.array(coords), np.array(observed))


def _read_long_panel(path, valid_ids):
    """Read station_id,date,value rows; returns {(id, date): value} and date set."""
    cells, dates = {}, set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"station_id", "date", "value"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataValidationError(f"panel file {path} needs columns {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            sid = row["station_id"]
            if sid not in valid_ids:
                raise DataValidationError(
                    f"{path} line {lineno}: station {sid!r} not in the network")
            try:
                dt.date.fromisoformat(row["date"])
                val = float(row["value"])
            except ValueError as exc:
                raise DataValidationError(f"{path} line {lineno}: {exc}") from exc
            if not math.isfinite(val):
                raise DataValidationError(f"{path} line {lineno}: non-finite value {val}")
            if val < 0:
                raise DataValidationError(f"{path} line {lineno}: negative value {val}")
            key = (sid, row["date"])
            if key in cells:
                raise DataValidationError(f"{path} line {lineno}: duplicate row for {key}")
            cells[key] = val
            dates.add(row["date"])
    return cells, dates


def load_panel(observed_path, simulated_path, net: StationNetwork) -> PanelData:
    """Load and align the two long-form panel CSVs against the network."""
    all_ids = set(net.ids)
    obs_ids = {net.ids[i] for i in net.observed_indices}
    y_cells, _ = _read_long_panel(observed_path, obs_ids)
    x_cells, x_dates = _read_long_panel(simulated_path, all_ids)
    dates = tuple(sorted(x_dates))
    n_times = len(dates)
    x = np.full((net.n_total, n_times), np.nan)
    for i, sid in enumerate(net.ids):
        for j, date in enumerate(dates):
            if (sid, date) in x_cells:
                x[i, j] = x_cells[(sid, date)]
    if np.any(np.isnan(x)):
        raise DataValidationError("simulated panel is not a complete station-by-date rectangle")
    y = np.full((net.n_observed, n_times), np.nan)
    obs_order = [net.ids[i] for i in net.observed_indices]
    for r, sid in enumerate(obs_order):
        for j, date in enumerate(dates):
            if (sid, date) in y_cells:
                y[r, j] = y_cells[(sid, date)]
    stray = {d for (_, d) in y_cells} - set(dates)
    if stray:
        raise DataValidationError(f"observed panel has dates outside the simulated range: {sorted(stray)}")
    return PanelData(y=y, x=x, dates=dates)


def write_panel_csv(path, values, ids, dates):
    """Write a long-form panel CSV; NaN cells are omitted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "date", "value"])
        for i, sid in enumerate(ids):
            for j, date in enumerate(dates):
                v = values[i, j]
                if not np.isnan(v):
                    writer.writerow([sid, date, repr(float(v))])


def write_network_csv(path, net: StationNetwork):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "x_km", "y_km", "observed"])
        for i, sid in enumerate(net.ids):
            writer.writerow([sid, repr(float(net.coords[i, 0])),
                             repr(float(net.coords[i, 1])), int(net.observed[i])])


@dataclass
class SyntheticTruth:
    """Generator parameters plus the realized latent fields and endpoints."""

    beta_y: float = -1.09
    beta_x: float = -0.85
    kappa_y: float = 5.3
    kappa_x: float = 18.6
    xi_y: float = -0.07
    xi_x: float = -0.08
    alpha: float = 0.45
    tau_w: float = 4.2
    tau_z: float = 0.4
    shift_y: float = 30.0
    shift_x: float = 30.0
    w: np.ndarray | None = None
    z: np.ndarray | None = None
    delta_y: np.ndarray | None = None
    delta_x: np.ndarray | None = None


def default_dates(n_times: int, start: str = "2013-01-01") -> tuple:
    d0 = dt.date.fromisoformat(start)
    return tuple((d0 + dt.timedelta(days=j)).isoformat() for j in range(n_times))


def generate_synthetic(truth: SyntheticTruth, net: StationNetwork, n_times: int,
                       seed: int = 0, missing_rate: float = 0.0,
                       correlation_family: str = "disc"):
    """Forward simulation of the full generative model.

    Returns (PanelData, SyntheticTruth) with the realized latent fields and
    per-cell endpoints filled in.  ``missing_rate`` removes observed cells
    completely at random.
    """
    if not 0.0 <= missing_rate < 1.0:
        raise DomainError("missing_rate must be in [0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    corr = spatial_correlation(net.scaled_distances, truth.alpha, correlation_family)
    factor = cholesky_correlation(corr, alpha_label=truth.alpha)
    w = sample_spatial_field(factor, truth.tau_w, rng)
    z = sample_rw1_constrained(n_times, truth.tau_z, rng)
    obs = net.observed_indices
    delta_y = truth.shift_y + rng.exponential(1.0 / rates(truth.beta_y, w[obs], z))
    delta_x = truth.shift_x + rng.exponential(1.0 / rates(truth.beta_x, w, z))
    y = egpd_draw(rng, delta_y, truth.xi_y, truth.kappa_y)
    x = egpd_draw(rng, delta_x, truth.xi_x, truth.kappa_x)
    if missing_rate > 0:
        drop = rng.uniform(size=y.shape) < missing_rate
        # keep at least one observation per station so empirical baselines work
        for r in range(y.shape[0]):
            if drop[r].all():
                drop[r, rng.integers(y.shape[1])] = False
        y = np.where(drop, np.nan, y)
    panel = PanelData(y=y, x=x, dates=default_dates(n_times))
    filled = replace(truth, w=w, z=z, delta_y=delta_y, delta_x=delta_x)
    return panel, filled
