"""Unit tests for calibrated fields, posterior summaries, and figure exports."""

import numpy as np
import pytest

from windcal.calibration import conditional_calibrate, conditional_map
from windcal.cli import _marginal_empirical_field
from windcal.data import PanelData, SyntheticTruth, generate_synthetic
from windcal.draws import PosteriorDraws, SCALAR_NAMES
from windcal.egpd import EgpdParams
from windcal.errors import DomainError
from windcal.latent import StationNetwork
from windcal.model import HierarchicalModel, McmcConfig, run_mcmc
from windcal.predictive import (
    SUMMARY_COLUMNS,
    SUMMARY_ROW_ORDER,
    calibrate_field,
    day_densities,
    gaussian_kde_1d,
    sigma_boxes,
    summarize_posterior,
)


def small_fit(seed=0, n_total=5, n_obs=3, n_times=4, iterations=30, missing_rate=0.0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 60.0, size=(n_total, 2))
    observed = np.zeros(n_total, dtype=bool)
    observed[:n_obs] = True
    net = StationNetwork.from_coords([f"s{i}" for i in range(n_total)], coords, observed)
    truth = SyntheticTruth(tau_z=4.0, shift_y=2.0, shift_x=2.0)
    panel, _ = generate_synthetic(truth, net, n_times, seed=seed + 50,
                                  missing_rate=missing_rate)
    model = HierarchicalModel(panel.y, panel.x, net,
                              shift_y=truth.shift_y, shift_x=truth.shift_x)
    draws = run_mcmc(model, McmcConfig(iterations=iterations, burn_in=10,
                                       thinning=2, chains=1, seed=seed))
    return net, panel, draws


def first_draws(draws, n):
    """The first ``n`` draws of ``draws``."""
    return PosteriorDraws(
        scalars={k: v[:n] for k, v in draws.scalars.items()},
        w=draws.w[:n], z=draws.z[:n], delta_y=draws.delta_y[:n], delta_x=draws.delta_x[:n],
        chain=draws.chain[:n], log_posterior=draws.log_posterior[:n],
        acceptance=draws.acceptance, shift_y=draws.shift_y, shift_x=draws.shift_x)


def no_observation_cells(net, panel):
    """(station, day) of one simulator-only cell and of one missing observed cell."""
    sim_only = np.setdiff1d(np.arange(net.n_total), net.observed_indices)
    r, j = np.argwhere(np.isnan(panel.y))[0]
    return (int(sim_only[0]), 1), (int(net.observed_indices[r]), int(j))


def endpoint_law(draws, d, i, j):
    """Rate lambda and conditional-mean endpoint of target cell (i, j) in draw d."""
    lam = np.exp(draws.scalars["beta_y"][d] + draws.w[d, i] + draws.z[d, j])
    return lam, draws.shift_y + 1.0 / lam


def target_map(draws, d, x, i, j, delta_y):
    """conditional_map of x at cell (i, j) under draw d, with target endpoint(s) delta_y."""
    return conditional_map(x, draws.delta_x[d, i, j], draws.scalars["xi_x"][d],
                           draws.scalars["kappa_x"][d], delta_y,
                           draws.scalars["xi_y"][d], draws.scalars["kappa_y"][d])[0]


class TestCalibrateField:
    def test_shapes_and_bounds(self):
        net, panel, draws = small_fit()
        field = calibrate_field(draws, panel, net.observed_indices)
        assert field.values.shape == panel.x.shape
        assert np.all(field.values >= 0.0)
        assert np.all(field.sd >= 0.0)
        assert np.all((field.clamp_fraction >= 0) & (field.clamp_fraction <= 1))
        assert np.array_equal(field.clamped, field.clamp_fraction > 0)

    def test_single_draw_matches_conditional_map(self):
        net, panel, draws = small_fit()
        one = first_draws(draws, 1)
        field = calibrate_field(one, panel, net.observed_indices)
        # observed rows are deterministic given the draw
        r, i = 0, int(net.observed_indices[0])
        px = EgpdParams(float(one.delta_x[0, i, 2]), float(one.scalars["xi_x"][0]),
                        float(one.scalars["kappa_x"][0]))
        py = EgpdParams(float(one.delta_y[0, r, 2]), float(one.scalars["xi_y"][0]),
                        float(one.scalars["kappa_y"][0]))
        expect = conditional_calibrate(panel.x[i, 2], px, py)
        assert field.values[i, 2] == pytest.approx(expect, rel=1e-12)
        assert field.sd[i, 2] == pytest.approx(0.0, abs=1e-9)

    def test_predictive_sd_of_agreeing_draws(self):
        # every station observed, so each cell's map is a function of the draw
        net, panel, draws = small_fit(n_obs=5)
        first = {"scalars": {k: v[:1] for k, v in draws.scalars.items()},
                 "w": draws.w[:1], "z": draws.z[:1],
                 "delta_y": draws.delta_y[:1], "delta_x": draws.delta_x[:1]}

        def repeated(n, delta_x):
            return PosteriorDraws(
                scalars={k: np.repeat(v, n) for k, v in first["scalars"].items()},
                w=np.repeat(first["w"], n, axis=0), z=np.repeat(first["z"], n, axis=0),
                delta_y=np.repeat(first["delta_y"], n, axis=0), delta_x=delta_x,
                chain=np.zeros(n, dtype=int), log_posterior=np.zeros(n),
                acceptance=draws.acceptance, shift_y=draws.shift_y, shift_x=draws.shift_x)

        same = calibrate_field(repeated(7, np.repeat(first["delta_x"], 7, axis=0)),
                               panel, net.observed_indices)
        assert np.all(same.sd == 0.0)
        # source endpoints a relative 1e-3 apart: near-constant calibrated values
        wiggle = 1.0 + 1e-3 * np.sin(np.arange(7.0))[:, None, None]
        near = repeated(7, first["delta_x"] * wiggle)
        field = calibrate_field(near, panel, net.observed_indices)
        xs = np.array([conditional_map(panel.x, near.delta_x[d], near.scalars["xi_x"][d],
                                       near.scalars["kappa_x"][d], near.delta_y[d],
                                       near.scalars["xi_y"][d], near.scalars["kappa_y"][d])[0]
                       for d in range(7)])
        assert np.allclose(field.values, xs.mean(axis=0), rtol=1e-14, atol=0.0)
        assert np.allclose(field.sd, xs.std(axis=0), rtol=1e-12, atol=0.0)

    def test_no_observation_cells_take_the_endpoint_mean(self):
        # the map is linear in the target endpoint, so its mean over
        # delta_y ~ shift + Exp(lambda) is the map at shift + 1/lambda
        net, panel, draws = small_fit(missing_rate=0.5)
        one = first_draws(draws, 1)
        field = calibrate_field(one, panel, net.observed_indices)
        for i, j in no_observation_cells(net, panel):
            lam, delta_hat = endpoint_law(one, 0, i, j)
            value = target_map(one, 0, panel.x[i, j], i, j, delta_hat)
            assert field.values[i, j] == pytest.approx(value, rel=1e-12)
            # one draw: the predictive sd is the endpoint's own spread
            assert field.sd[i, j] == pytest.approx(value / delta_hat / lam, rel=1e-12)

    def test_endpoint_spread_matches_monte_carlo(self):
        net, panel, draws = small_fit(missing_rate=0.5)
        one = first_draws(draws, 1)
        field = calibrate_field(one, panel, net.observed_indices)
        n = 20_000
        for i, j in no_observation_cells(net, panel):
            lam, _ = endpoint_law(one, 0, i, j)
            delta = one.shift_y + np.random.default_rng(5).exponential(1.0 / lam, n)
            mapped = target_map(one, 0, panel.x[i, j], i, j, delta)
            mean, sd = mapped.mean(), mapped.std()
            # Monte Carlo standard errors of a sample mean and a sample sd
            se_mean = sd / np.sqrt(n)
            se_sd = np.sqrt((np.mean((mapped - mean) ** 4) - sd ** 4) / n) / (2 * sd)
            assert abs(field.values[i, j] - mean) < 4 * se_mean
            assert abs(field.sd[i, j] - sd) < 4 * se_sd

    def test_panel_shape_mismatch_rejected(self):
        net, panel, draws = small_fit()
        fewer_days = PanelData(y=panel.y[:, :2], x=panel.x[:, :2], dates=panel.dates[:2])
        fewer_observed = PanelData(y=panel.y[:2], x=panel.x, dates=panel.dates)
        for bad in (fewer_days, fewer_observed):
            with pytest.raises(DomainError, match="panel shape does not match the draws"):
                calibrate_field(draws, bad, net.observed_indices)

    def test_zero_draws_rejected(self):
        net, panel, draws = small_fit()
        with pytest.raises(DomainError, match="empty posterior draws"):
            calibrate_field(first_draws(draws, 0), panel, net.observed_indices)


def _rmse(a, b, cells):
    return float(np.sqrt(np.mean((a[cells] - b[cells]) ** 2)))


@pytest.mark.parametrize("seed", [1, 2])
def test_field_scores_against_the_true_map(seed):
    # criterion 6's geometry and truth, shifts fixed at the truth, a short fit
    rng = np.random.default_rng(seed)
    n_total, n_obs, n_times = 16, 10, 20
    coords = rng.uniform(0.0, 300.0, size=(n_total, 2))
    observed = np.zeros(n_total, dtype=bool)
    observed[rng.choice(n_total, size=n_obs, replace=False)] = True
    net = StationNetwork.from_coords([f"s{i}" for i in range(n_total)], coords, observed)
    truth = SyntheticTruth(tau_z=4.0, shift_y=2.0, shift_x=2.0)
    panel, tr = generate_synthetic(truth, net, n_times, seed=seed + 1000)
    model = HierarchicalModel(panel.y, panel.x, net, shift_y=truth.shift_y, shift_x=truth.shift_x)
    draws = run_mcmc(model, McmcConfig(iterations=2000, burn_in=500, thinning=5,
                                       chains=2, seed=seed))
    # the oracle: the map under the true laws, at simulator-only stations
    # averaged over their endpoints' law, which is the map at shift + 1/lambda
    delta_y = truth.shift_y + np.exp(-(tr.beta_y + tr.w[:, None] + tr.z[None, :]))
    delta_y[net.observed_indices] = tr.delta_y
    oracle, _ = conditional_map(panel.x, tr.delta_x, tr.xi_x, tr.kappa_x,
                                delta_y, tr.xi_y, tr.kappa_y)
    hierarchical = calibrate_field(draws, panel, net.observed_indices).values
    sim_only = ~observed
    tail = panel.x >= np.quantile(panel.x, 0.9, axis=1, keepdims=True)
    marginal = _marginal_empirical_field(panel, net).values
    assert _rmse(hierarchical, oracle, sim_only) < _rmse(marginal, oracle, sim_only)
    assert _rmse(hierarchical, oracle, tail) < _rmse(panel.x, oracle, tail)


class TestSummaries:
    def test_table_rows_and_columns(self):
        _, _, draws = small_fit()
        table = summarize_posterior(draws)
        assert tuple(table.keys()) == SUMMARY_ROW_ORDER
        for row in table.values():
            assert tuple(row.keys()) == SUMMARY_COLUMNS
            assert row["min"] <= row["q2.5"] <= row["median"] <= row["q97.5"] <= row["max"]
            assert row["sd"] >= 0.0

    def test_against_numpy(self):
        _, _, draws = small_fit()
        table = summarize_posterior(draws)
        v = draws.scalars["alpha"]
        assert table["alpha"]["mean"] == pytest.approx(v.mean())
        assert table["alpha"]["sd"] == pytest.approx(v.std(ddof=1))
        assert table["alpha"]["q2.5"] == pytest.approx(np.quantile(v, 0.025))


class TestKde:
    def test_integrates_to_one(self):
        rng = np.random.default_rng(0)
        sample = rng.normal(10.0, 2.0, 400)
        grid = np.linspace(0.0, 20.0, 2001)
        dens, h = gaussian_kde_1d(sample, grid)
        assert h > 0
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=0.01)

    def test_degenerate_sample_fallback(self):
        dens, h = gaussian_kde_1d([5.0], np.linspace(0, 10, 50))
        assert h == 1.0
        assert np.all(np.isfinite(dens))

    def test_nan_dropped(self):
        dens, _ = gaussian_kde_1d([1.0, np.nan, 2.0], np.linspace(0, 3, 10))
        assert np.all(np.isfinite(dens))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            gaussian_kde_1d([np.nan], np.linspace(0, 1, 5))


class TestExportFigures:
    def test_day_densities(self):
        net, panel, draws = small_fit()
        field = calibrate_field(draws, panel, net.observed_indices)
        y_full = np.full(panel.x.shape, np.nan)
        y_full[net.observed_indices] = panel.y
        grid, *densities = day_densities(field.values, y_full, panel.x, day=1)
        assert grid[0] == 0.0 and np.all(np.diff(grid) > 0)
        for dens, sample in zip(densities, (y_full, panel.x, field.values)):
            assert np.array_equal(dens, gaussian_kde_1d(sample[:, 1], grid)[0])

    def test_day_without_observation_has_nan_observed_density(self):
        net, panel, draws = small_fit()
        field = calibrate_field(draws, panel, net.observed_indices)
        y_full = np.full(panel.x.shape, np.nan)
        grid, dens_obs, *densities = day_densities(field.values, y_full, panel.x, day=1)
        assert grid[-1] == 1.3 * max(panel.x[:, 1].max(), field.values[:, 1].max()) + 1e-9
        assert np.isnan(dens_obs).all() and dens_obs.shape == grid.shape
        for dens, sample in zip(densities, (panel.x, field.values)):
            assert np.array_equal(dens, gaussian_kde_1d(sample[:, 1], grid)[0])

    def test_sigma_boxes(self):
        net, panel, draws = small_fit()
        box_y, box_x = sigma_boxes(draws)
        assert box_y.shape == box_x.shape == (panel.n_times, 5)
        # five-number summaries are ordered
        assert np.all(np.diff(box_y, axis=1) >= 0)
        assert np.all(np.diff(box_x, axis=1) >= 0)

    def test_day_out_of_range(self):
        net, panel, draws = small_fit()
        field = calibrate_field(draws, panel, net.observed_indices)
        y_full = np.full(panel.x.shape, np.nan)
        y_full[net.observed_indices] = panel.y
        for day in (99, -1):
            with pytest.raises(DomainError):
                day_densities(field.values, y_full, panel.x, day=day)


class TestDrawsContainer:
    def test_merge_preserves_counts_and_chain_labels(self):
        _, _, a = small_fit(seed=1)
        _, _, b = small_fit(seed=2)
        b.chain[:] = 1
        merged = PosteriorDraws.merge([a, b])
        assert merged.n_draws == a.n_draws + b.n_draws
        assert set(np.unique(merged.chain)) == {0, 1}
        for name in SCALAR_NAMES:
            assert merged.scalars[name].shape == (merged.n_draws,)
