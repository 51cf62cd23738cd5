"""Posterior draws -> calibrated fields, summary tables, figure-ready exports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import conditional_map
from .draws import SCALAR_NAMES, PosteriorDraws
from .errors import DomainError
from .model import endpoint_draw, rates

KDE_GRID_POINTS = 256  # where each day's densities are evaluated
SUMMARY_COLUMNS = ("mean", "sd", "q2.5", "median", "q97.5", "min", "max")
# scalars grouped by parameter, groups in alphabetical order
SUMMARY_ROW_ORDER = tuple(sorted(SCALAR_NAMES, key=lambda name: name.split("_")[0]))


@dataclass
class CalibratedField:
    """Predictive-mean calibrated panel with per-cell uncertainty and clamp flags."""

    values: np.ndarray    # (N_s, T)
    sd: np.ndarray        # (N_s, T) predictive standard deviation
    clamp_fraction: np.ndarray  # (N_s, T) share of draws that clamped

    @property
    def clamped(self) -> np.ndarray:
        """(N_s, T) bool, clamped in at least one draw."""
        return self.clamp_fraction > 0


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

    # Welford's running mean and sum of squared deviations: E[x^2] - E[x]^2
    # cancels catastrophically when the draws nearly agree
    nd = draws.n_draws
    mean = np.zeros((n_total, n_times))
    sq_dev = np.zeros((n_total, n_times))
    clamp_count = np.zeros((n_total, n_times))
    # target endpoints of one draw: observed rows from the chain,
    # simulator-only rows from the endpoint prior given the latents
    delta_y = np.empty((n_total, n_times))
    sim_only = np.setdiff1d(np.arange(n_total), obs_idx)
    beta_y = draws.scalars["beta_y"]
    for d in range(nd):
        delta_y[obs_idx] = draws.delta_y[d]
        if sim_only.size:
            lam = rates(beta_y[d], draws.w[d, sim_only], draws.z[d])
            delta_y[sim_only] = endpoint_draw(rng, draws.shift_y, lam)
        xs, clamped = conditional_map(
            x, draws.delta_x[d], draws.scalars["xi_x"][d], draws.scalars["kappa_x"][d],
            delta_y, draws.scalars["xi_y"][d], draws.scalars["kappa_y"][d])
        dev = xs - mean
        mean += dev / (d + 1)
        sq_dev += dev * (xs - mean)
        clamp_count += clamped
    return CalibratedField(values=mean, sd=np.sqrt(sq_dev / nd),
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


def gaussian_kde_1d(sample, grid):
    """Gaussian KDE with Silverman's rule of thumb; returns (density, bandwidth).

    h = 0.9 * min(sd, IQR/1.34) * n**(-1/5); falls back to 1.0 data unit
    when the sample is a single point or degenerate.
    """
    sample = np.asarray(sample, dtype=float)
    sample = sample[~np.isnan(sample)]
    if sample.size == 0:
        raise DomainError("KDE needs at least one value")
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


def sigma_boxes(draws: PosteriorDraws) -> tuple:
    """Per-day five-number summaries (min, q1, median, q3, max) of the
    posterior-mean scales over stations: (T, 5) for y, then for x."""
    return tuple(np.quantile(sigma, [0.0, 0.25, 0.5, 0.75, 1.0], axis=0).T
                 for sigma in draws.mean_sigma())


def day_densities(values, y_full, x, day: int) -> tuple:
    """KDEs of one day's observed, simulated and calibrated values on a shared grid.

    ``values`` is the calibrated panel and ``y_full`` the observed panel
    expanded to all stations (NaN rows for simulator-only stations).
    Returns (grid, dens_observed, dens_simulated, dens_calibrated); on a day
    with no observation dens_observed is all NaN.
    """
    n_times = np.shape(x)[1]
    if not 0 <= day < n_times:
        raise DomainError(f"day {day} outside 0..{n_times - 1}")
    obs_day, sim_day, cal_day = (np.asarray(a, dtype=float)[:, day] for a in (y_full, x, values))
    observed = np.any(~np.isnan(obs_day))
    top = max(np.nanmax(obs_day) if observed else 0.0, sim_day.max(), cal_day.max())
    grid = np.linspace(0.0, 1.3 * top + 1e-9, KDE_GRID_POINTS)
    dens_observed = gaussian_kde_1d(obs_day, grid)[0] if observed else np.full(grid.shape, np.nan)
    return (grid, dens_observed, *(gaussian_kde_1d(sample, grid)[0]
                                   for sample in (sim_day, cal_day)))
