"""Posterior draws -> calibrated fields, summary tables, figure-ready exports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import conditional_map
from .draws import PosteriorDraws
from .errors import DomainError
from .model import rates

SUMMARY_COLUMNS = ("mean", "sd", "q2.5", "median", "q97.5", "min", "max")
SUMMARY_ROW_ORDER = ("alpha", "beta_y", "beta_x", "kappa_y", "kappa_x",
                     "tau_w", "tau_z", "xi_y", "xi_x")


@dataclass
class CalibratedField:
    """Predictive-mean calibrated panel with per-cell uncertainty and clamp flags."""

    values: np.ndarray    # (N_s, T)
    sd: np.ndarray        # (N_s, T) predictive standard deviation
    clamped: np.ndarray   # (N_s, T) bool, clamped in at least one draw
    clamp_fraction: np.ndarray  # (N_s, T) share of draws that clamped


def calibrate_field(draws: PosteriorDraws, x, obs_idx, seed: int = 0) -> CalibratedField:
    """Predictive-mean quantile-matching map applied cell by cell.

    For stations with observations the target law of a cell uses that
    station's sampled endpoint; simulator-only stations get target endpoints
    drawn from the shifted-exponential prior under the shared latent fields
    (one draw per posterior draw, from a dedicated RNG stream).
    """
    if draws.n_draws == 0:
        raise DomainError("empty posterior draws")
    x = np.asarray(x, dtype=float)
    n_total, n_times = x.shape
    if draws.delta_x.shape[1:] != (n_total, n_times):
        raise DomainError("panel shape does not match the draws")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    obs_idx = np.asarray(obs_idx, dtype=int)

    # full-grid target endpoints per draw: observed rows from the chain,
    # simulator-only rows from the endpoint prior given the latents
    nd = draws.n_draws
    delta_y_full = np.empty((nd, n_total, n_times))
    sim_only = np.setdiff1d(np.arange(n_total), obs_idx)
    beta_y = draws.scalars["beta_y"]
    for d in range(nd):
        delta_y_full[d, obs_idx] = draws.delta_y[d]
        if sim_only.size:
            lam = rates(beta_y[d], draws.w[d, sim_only], draws.z[d])
            delta_y_full[d, sim_only] = draws.shift_y + rng.exponential(1.0 / lam)

    acc = np.zeros((n_total, n_times))
    acc2 = np.zeros((n_total, n_times))
    clamp_count = np.zeros((n_total, n_times))
    for d in range(nd):
        xs, clamped = conditional_map(
            x, draws.delta_x[d], draws.scalars["xi_x"][d], draws.scalars["kappa_x"][d],
            delta_y_full[d], draws.scalars["xi_y"][d], draws.scalars["kappa_y"][d])
        acc += xs
        acc2 += xs ** 2
        clamp_count += clamped
    mean = acc / nd
    var = np.maximum(acc2 / nd - mean ** 2, 0.0)
    return CalibratedField(values=mean, sd=np.sqrt(var),
                           clamped=clamp_count > 0,
                           clamp_fraction=clamp_count / nd)


def summarize_posterior(draws: PosteriorDraws) -> dict:
    """Per-scalar summary: mean, sd, 2.5%/50%/97.5% (type-7), min, max."""
    if draws.n_draws == 0:
        raise DomainError("empty posterior draws")
    table = {}
    for name in SUMMARY_ROW_ORDER:
        v = draws.scalars[name]
        q = np.quantile(v, [0.025, 0.5, 0.975])  # type-7 linear interpolation
        table[name] = {
            "mean": float(v.mean()),
            "sd": float(v.std(ddof=1)) if v.size > 1 else 0.0,
            "q2.5": float(q[0]),
            "median": float(q[1]),
            "q97.5": float(q[2]),
            "min": float(v.min()),
            "max": float(v.max()),
        }
    return table


def gaussian_kde_1d(sample, grid, bandwidth: float | None = None):
    """Gaussian KDE with Silverman's rule of thumb.

    h = 0.9 * min(sd, IQR/1.34) * n**(-1/5); falls back to 1.0 data unit
    when the sample is a single point or degenerate.
    """
    sample = np.asarray(sample, dtype=float)
    sample = sample[~np.isnan(sample)]
    if sample.size == 0:
        raise DomainError("KDE needs at least one value")
    if bandwidth is None:
        sd = sample.std(ddof=1) if sample.size > 1 else 0.0
        iqr = float(np.subtract(*np.quantile(sample, [0.75, 0.25]))) if sample.size > 1 else 0.0
        spread = min(sd, iqr / 1.34) if iqr > 0 else sd
        bandwidth = 0.9 * spread * sample.size ** (-0.2)
        if not bandwidth > 0:
            bandwidth = 1.0
    grid = np.asarray(grid, dtype=float)
    zs = (grid[:, None] - sample[None, :]) / bandwidth
    dens = np.exp(-0.5 * zs ** 2).sum(axis=1) / (sample.size * bandwidth * math.sqrt(2 * math.pi))
    return dens, bandwidth


@dataclass
class FigureBundle:
    """Figure-ready arrays for one day plus the panel-wide scale boxplot data."""

    day: int
    kde_grid: np.ndarray
    kde_observed: np.ndarray
    kde_simulated: np.ndarray
    kde_calibrated: np.ndarray
    station_ids: tuple
    observed: np.ndarray      # (N_s,) NaN where no observation
    simulated: np.ndarray
    calibrated: np.ndarray
    sigma_y_box: np.ndarray   # (T, 5) five-number summaries per day
    sigma_x_box: np.ndarray


def _five_number(values_2d):
    """Per-column five-number summaries (min, q1, median, q3, max)."""
    qs = np.quantile(values_2d, [0.0, 0.25, 0.5, 0.75, 1.0], axis=0)
    return qs.T


def export_figures(field: CalibratedField, y_full, x, draws: PosteriorDraws,
                   station_ids, day: int, n_grid: int = 256) -> FigureBundle:
    """Figure-ready data for one day: KDEs, station triplets, scale boxplots.

    ``y_full`` is the observed panel expanded to all stations (NaN rows for
    simulator-only stations).
    """
    x = np.asarray(x, dtype=float)
    y_full = np.asarray(y_full, dtype=float)
    n_times = x.shape[1]
    if not 0 <= day < n_times:
        raise DomainError(f"day {day} outside 0..{n_times - 1}")
    obs_day = y_full[:, day]
    sim_day = x[:, day]
    cal_day = field.values[:, day]
    top = max(np.nanmax(obs_day) if np.any(~np.isnan(obs_day)) else 0.0,
              sim_day.max(), cal_day.max())
    grid = np.linspace(0.0, 1.3 * top + 1e-9, n_grid)
    kde_obs, _ = gaussian_kde_1d(obs_day, grid)
    kde_sim, _ = gaussian_kde_1d(sim_day, grid)
    kde_cal, _ = gaussian_kde_1d(cal_day, grid)

    sig_y = draws.sigma_y().mean(axis=0)   # (N, T) posterior means
    sig_x = draws.sigma_x().mean(axis=0)   # (N_s, T)
    return FigureBundle(
        day=day, kde_grid=grid,
        kde_observed=kde_obs, kde_simulated=kde_sim, kde_calibrated=kde_cal,
        station_ids=tuple(station_ids),
        observed=obs_day, simulated=sim_day, calibrated=cal_day,
        sigma_y_box=_five_number(sig_y),
        sigma_x_box=_five_number(sig_x),
    )
