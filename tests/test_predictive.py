"""Unit tests for calibrated fields, posterior summaries, and figure exports."""

import numpy as np
import pytest

from windcal.calibration import conditional_calibrate, conditional_map
from windcal.data import SyntheticTruth, generate_synthetic
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


def small_fit(seed=0, n_total=5, n_obs=3, n_times=4, iterations=30):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 60.0, size=(n_total, 2))
    observed = np.zeros(n_total, dtype=bool)
    observed[:n_obs] = True
    net = StationNetwork.from_coords([f"s{i}" for i in range(n_total)], coords, observed)
    truth = SyntheticTruth(tau_z=4.0, shift_y=2.0, shift_x=2.0)
    panel, _ = generate_synthetic(truth, net, n_times, seed=seed + 50)
    model = HierarchicalModel(panel.y, panel.x, net,
                              shift_y=truth.shift_y, shift_x=truth.shift_x)
    draws = run_mcmc(model, McmcConfig(iterations=iterations, burn_in=10,
                                       thinning=2, chains=1, seed=seed))
    return net, panel, draws


class TestCalibrateField:
    def test_shapes_and_bounds(self):
        net, panel, draws = small_fit()
        field = calibrate_field(draws, panel.x, net.observed_indices, seed=1)
        assert field.values.shape == panel.x.shape
        assert np.all(field.values >= 0.0)
        assert np.all(field.sd >= 0.0)
        assert np.all((field.clamp_fraction >= 0) & (field.clamp_fraction <= 1))
        assert np.array_equal(field.clamped, field.clamp_fraction > 0)

    def test_single_draw_matches_conditional_map(self):
        net, panel, draws = small_fit()
        one = PosteriorDraws(
            scalars={k: v[:1] for k, v in draws.scalars.items()},
            w=draws.w[:1], z=draws.z[:1],
            delta_y=draws.delta_y[:1], delta_x=draws.delta_x[:1],
            chain=draws.chain[:1], log_posterior=draws.log_posterior[:1],
            acceptance=draws.acceptance,
            shift_y=draws.shift_y, shift_x=draws.shift_x)
        field = calibrate_field(one, panel.x, net.observed_indices, seed=3)
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
                               panel.x, net.observed_indices)
        assert np.all(same.sd == 0.0)
        # source endpoints a relative 1e-3 apart: near-constant calibrated values
        wiggle = 1.0 + 1e-3 * np.sin(np.arange(7.0))[:, None, None]
        near = repeated(7, first["delta_x"] * wiggle)
        field = calibrate_field(near, panel.x, net.observed_indices)
        xs = np.array([conditional_map(panel.x, near.delta_x[d], near.scalars["xi_x"][d],
                                       near.scalars["kappa_x"][d], near.delta_y[d],
                                       near.scalars["xi_y"][d], near.scalars["kappa_y"][d])[0]
                       for d in range(7)])
        assert np.allclose(field.values, xs.mean(axis=0), rtol=1e-14, atol=0.0)
        assert np.allclose(field.sd, xs.std(axis=0), rtol=1e-12, atol=0.0)

    def test_simulator_only_rows_seeded(self):
        net, panel, draws = small_fit()
        a = calibrate_field(draws, panel.x, net.observed_indices, seed=7)
        b = calibrate_field(draws, panel.x, net.observed_indices, seed=7)
        c = calibrate_field(draws, panel.x, net.observed_indices, seed=8)
        assert np.array_equal(a.values, b.values)
        sim_only = np.setdiff1d(np.arange(net.n_total), net.observed_indices)
        assert not np.array_equal(a.values[sim_only], c.values[sim_only])

    def test_empty_draws_rejected(self):
        net, panel, draws = small_fit()
        with pytest.raises(DomainError):
            calibrate_field(draws, panel.x[:, :2], net.observed_indices)


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
        field = calibrate_field(draws, panel.x, net.observed_indices, seed=1)
        y_full = np.full(panel.x.shape, np.nan)
        y_full[net.observed_indices] = panel.y
        grid, *densities = day_densities(field.values, y_full, panel.x, day=1)
        assert grid[0] == 0.0 and np.all(np.diff(grid) > 0)
        for dens, sample in zip(densities, (y_full, panel.x, field.values)):
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
        field = calibrate_field(draws, panel.x, net.observed_indices, seed=1)
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
