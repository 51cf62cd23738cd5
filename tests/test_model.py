"""Unit tests for the hierarchical model and its Metropolis-within-Gibbs sampler."""

import math

import numpy as np
import pytest

from windcal.data import SyntheticTruth, generate_synthetic
from windcal.errors import DataValidationError, DomainError
from windcal.latent import StationNetwork
from windcal.model import (
    HierarchicalModel,
    McmcConfig,
    ModelState,
    MwgSampler,
    PriorSpec,
    _expit_box,
    _log_jac_box,
    _logit_box,
    run_mcmc,
)


def toy_network(n_total=5, n_obs=3, seed=0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 50.0, size=(n_total, 2))
    observed = np.zeros(n_total, dtype=bool)
    observed[:n_obs] = True
    return StationNetwork.from_coords([f"s{i}" for i in range(n_total)], coords, observed)


def toy_model(seed=0, n_total=5, n_obs=3, n_times=4, missing_rate=0.0, **kwargs):
    net = toy_network(n_total=n_total, n_obs=n_obs, seed=seed)
    truth = SyntheticTruth(tau_z=4.0, shift_y=2.0, shift_x=2.0)
    panel, _ = generate_synthetic(truth, net, n_times, seed=seed + 100,
                                  missing_rate=missing_rate)
    return HierarchicalModel(panel.y, panel.x, net,
                             shift_y=truth.shift_y, shift_x=truth.shift_x, **kwargs)


class TestConfig:
    def test_rejects_bad_burn_in(self):
        with pytest.raises(DomainError):
            McmcConfig(iterations=100, burn_in=100)
        with pytest.raises(DomainError):
            McmcConfig(iterations=0, burn_in=10)

    def test_rejects_bad_thinning_and_chains(self):
        with pytest.raises(DomainError):
            McmcConfig(thinning=0)
        with pytest.raises(DomainError):
            McmcConfig(chains=0)


class TestModelValidation:
    def test_shape_mismatches(self):
        net = toy_network()
        good_y = np.ones((3, 4))
        good_x = np.ones((5, 4))
        with pytest.raises(DataValidationError):
            HierarchicalModel(good_y, np.ones((4, 4)), net)
        with pytest.raises(DataValidationError):
            HierarchicalModel(np.ones((2, 4)), good_x, net)
        with pytest.raises(DataValidationError):
            HierarchicalModel(np.ones((3, 5)), good_x, net)

    def test_rejects_missing_simulated_cells(self):
        net = toy_network()
        x = np.ones((5, 4))
        x[0, 0] = np.nan
        with pytest.raises(DataValidationError):
            HierarchicalModel(np.ones((3, 4)), x, net)

    def test_rejects_all_missing_observed(self):
        net = toy_network()
        with pytest.raises(DataValidationError):
            HierarchicalModel(np.full((3, 4), np.nan), np.ones((5, 4)), net)

    def test_default_shifts_are_panel_maxima(self):
        net = toy_network()
        y = np.arange(12, dtype=float).reshape(3, 4)
        x = np.arange(20, dtype=float).reshape(5, 4) + 0.5
        m = HierarchicalModel(y, x, net)
        assert m.shift_y == 11.0
        assert m.shift_x == 19.5

    def test_initialize_on_panel_spanning_17_decades(self):
        net = toy_network()
        x = np.logspace(0.0, 17.0, 20).reshape(5, 4)
        m = HierarchicalModel(x[:3], x, net)
        sampler = MwgSampler(m, m.initialize_state(), np.random.default_rng(0))
        assert np.isfinite(sampler.log_posterior())

    def test_initialize_rejects_constant_panel(self):
        net = toy_network()
        m = HierarchicalModel(np.ones((3, 4)), np.ones((5, 4)) * 2, net)
        with pytest.raises(DataValidationError):
            m.initialize_state()


class TestPosteriorKernel:
    def test_prior_state_has_finite_posterior(self):
        m = toy_model(priors=PriorSpec(kappa_shape=2.0, kappa_rate=0.5))
        rng = np.random.default_rng(4)
        st = m.sample_prior_state(rng)
        y, x = m.sample_panels(st, rng)
        m.replace_data(y, x)
        assert np.isfinite(m.log_posterior(st))

    def test_out_of_box_states_rejected(self):
        m = toy_model()
        st = m.initialize_state()
        for name, bad in [("xi_y", 0.1), ("xi_y", -0.6), ("alpha", 0.05),
                          ("tau_w", -1.0), ("kappa_x", -2.0)]:
            s2 = st.copy()
            setattr(s2, name, bad)
            assert m.log_prior(s2) == -math.inf
            assert m.log_posterior(s2) == -math.inf

    def test_delta_at_or_below_shift_has_zero_prior(self):
        m = toy_model()
        st = m.initialize_state()
        s2 = st.copy()
        s2.delta_x[0, 0] = m.shift_x
        assert m.log_prior(s2) == -math.inf

    def test_datum_above_delta_kills_likelihood(self):
        m = toy_model()
        st = m.initialize_state()
        s2 = st.copy()
        s2.delta_y = np.full_like(st.delta_y, np.nanmax(m.y) * 0.5 + m.shift_y * 0.5)
        s2.delta_y = np.maximum(s2.delta_y, m.shift_y + 1e-6)
        if np.nanmax(m.y) > s2.delta_y.min():
            assert m.log_likelihood(s2) == -math.inf

    def test_missing_cells_do_not_contribute(self):
        def loglik_y_grid(model, state):
            margin = model.margins[0]
            return margin.loglik(*margin.params(state))

        m_full = toy_model(seed=3)
        st = m_full.initialize_state()
        base = loglik_y_grid(m_full, st)
        y_missing = m_full.y.copy()
        y_missing[0, 0] = np.nan
        m_miss = HierarchicalModel(y_missing, m_full.x, m_full.net,
                                   shift_y=m_full.shift_y, shift_x=m_full.shift_x)
        grid = loglik_y_grid(m_miss, st)
        assert grid[0, 0] == 0.0
        assert np.allclose(np.delete(grid, 0), np.delete(base, 0))


class TestTransforms:
    def test_logit_box_roundtrip(self):
        for x in (-0.49, -0.3, -0.001):
            t = _logit_box(x, -0.5, 0.0)
            assert _expit_box(t, -0.5, 0.0) == pytest.approx(x, abs=1e-12)

    def test_log_jacobian_matches_finite_difference(self):
        lo, hi = 0.1, 0.5
        for t in (-3.0, 0.0, 2.5):
            h = 1e-6
            num = (_expit_box(t + h, lo, hi) - _expit_box(t - h, lo, hi)) / (2 * h)
            assert _log_jac_box(t, lo, hi) == pytest.approx(math.log(num), abs=1e-8)


class TestSampler:
    def test_cache_matches_full_recompute(self):
        m = toy_model(seed=1)
        sampler = MwgSampler(m, m.initialize_state(), np.random.default_rng(0))
        for _ in range(25):
            sampler.sweep()
        assert sampler.log_posterior() == pytest.approx(
            m.log_posterior(sampler.state), abs=1e-8)
        # recomputing the cache from scratch changes nothing
        cached = sampler.log_posterior()
        sampler.refresh_cache()
        assert sampler.log_posterior() == pytest.approx(cached, abs=1e-10)

    def test_z_stays_sum_zero(self):
        m = toy_model(seed=2)
        sampler = MwgSampler(m, m.initialize_state(), np.random.default_rng(1))
        for _ in range(30):
            sampler.sweep()
        assert sampler.state.z.sum() == pytest.approx(0.0, abs=1e-9)

    def test_states_stay_in_support(self):
        m = toy_model(seed=5, missing_rate=0.2)
        sampler = MwgSampler(m, m.initialize_state(), np.random.default_rng(2))
        for _ in range(40):
            sampler.sweep()
        s = sampler.state
        p = m.priors
        assert p.xi_low < s.xi_y < p.xi_high and p.xi_low < s.xi_x < p.xi_high
        assert p.alpha_low < s.alpha < p.alpha_high
        assert s.tau_w > 0 and s.tau_z > 0 and s.kappa_y > 0 and s.kappa_x > 0
        assert np.all(s.delta_y > m.shift_y) and np.all(s.delta_x > m.shift_x)
        assert np.all(s.delta_y > np.where(m.y_mask, m.y, 0.0))
        assert np.all(s.delta_x > m.x)

    def test_adaptation_freezes_after_burn_in(self):
        m = toy_model(seed=1)
        cfg = McmcConfig(iterations=30, burn_in=10, thinning=1, seed=0)
        # run manually to inspect the sampler
        sampler = MwgSampler(m, m.initialize_state(), np.random.default_rng(0))
        for it in range(cfg.iterations):
            if it == cfg.burn_in:
                sampler.adapting = False
                frozen = dict(sampler.log_scales)
                frozen_w = sampler.log_scales["w"].copy()
            sampler.sweep()
        assert sampler.log_scales["beta_y"] == frozen["beta_y"]
        assert np.array_equal(sampler.log_scales["w"], frozen_w)

    def test_acceptance_rates_in_unit_interval(self):
        m = toy_model(seed=1)
        sampler = MwgSampler(m, m.initialize_state(), np.random.default_rng(0))
        for _ in range(20):
            sampler.sweep()
        for k, v in sampler.acceptance_rates().items():
            assert 0.0 <= v <= 1.0, k


class TestRunMcmc:
    def test_draw_count_and_shapes(self):
        m = toy_model(seed=1)
        cfg = McmcConfig(iterations=40, burn_in=10, thinning=3, chains=2, seed=9)
        d = run_mcmc(m, cfg)
        per_chain = len(range(0, 30, 3))
        assert d.n_draws == 2 * per_chain
        assert d.w.shape == (d.n_draws, m.n_total)
        assert d.z.shape == (d.n_draws, m.n_times)
        assert d.delta_y.shape == (d.n_draws, m.n_obs, m.n_times)
        assert d.delta_x.shape == (d.n_draws, m.n_total, m.n_times)
        assert set(np.unique(d.chain)) == {0, 1}

    def test_same_seed_reproduces(self):
        m = toy_model(seed=1)
        cfg = McmcConfig(iterations=20, burn_in=5, thinning=2, chains=2, seed=3)
        a = run_mcmc(m, cfg)
        b = run_mcmc(m, cfg)
        assert np.array_equal(a.scalars["beta_y"], b.scalars["beta_y"])
        assert np.array_equal(a.delta_x, b.delta_x)

    def test_different_seeds_differ(self):
        m = toy_model(seed=1)
        a = run_mcmc(m, McmcConfig(iterations=20, burn_in=5, thinning=2, seed=3))
        b = run_mcmc(m, McmcConfig(iterations=20, burn_in=5, thinning=2, seed=4))
        assert not np.array_equal(a.scalars["beta_y"], b.scalars["beta_y"])

    def test_zero_iterations_returns_initial_state(self):
        m = toy_model(seed=1)
        d = run_mcmc(m, McmcConfig(iterations=0, burn_in=0, thinning=1, seed=0))
        assert d.n_draws == 1

    def test_sigma_draws_relation(self):
        m = toy_model(seed=1)
        d = run_mcmc(m, McmcConfig(iterations=10, burn_in=2, thinning=2, seed=0))
        expect = -d.scalars["xi_y"][:, None, None] * d.delta_y
        assert np.allclose(d.sigma_y(), expect)
