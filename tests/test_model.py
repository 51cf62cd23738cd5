"""Unit tests for the hierarchical model and its Metropolis-within-Gibbs sampler."""

import dataclasses
import math
import os
import re
import signal
import time

import numpy as np
import pytest
from scipy import special, stats

from windcal import model as windcal_model
from windcal.data import SyntheticTruth, generate_synthetic
from windcal.draws import SCALAR_NAMES
from windcal.errors import DataValidationError, DomainError, NumericalError, RuleError, WindcalError
from windcal.latent import StationNetwork
from windcal.model import (
    HierarchicalModel,
    McmcConfig,
    ModelState,
    MwgSampler,
    PriorSpec,
    _expit_box,
    _gamma,
    _log_jac_box,
    _logit_box,
    chain_workers,
    prior_table,
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
        with pytest.raises(RuleError) as excinfo:
            McmcConfig(iterations=100, burn_in=100)
        assert excinfo.value.fields == ("iterations", "burn_in")
        assert str(excinfo.value) == ("iterations, burn_in must satisfy "
                                      "0 <= burn_in < iterations, or both 0")
        with pytest.raises(DomainError):
            McmcConfig(iterations=0, burn_in=10)

    def test_two_chains_by_default(self):
        assert McmcConfig().chains == 2

    def test_rejects_bad_thinning_and_chains(self):
        with pytest.raises(DomainError):
            McmcConfig(thinning=0)
        with pytest.raises(DomainError):
            McmcConfig(chains=0)


class TestPriorTable:
    # the value a scalar's chains start at when its prior's support holds it
    FAMILY_START = {"beta": 0.0, "kappa": 1.0, "xi": -0.1, "alpha": 0.3, "tau": 1.0}

    @pytest.mark.parametrize("box", [
        {}, {"beta_mean": 5.0, "kappa_shape": 3.0, "tau_rate": 9.0},
        {"xi_low": -0.05}, {"xi_high": -0.2}, {"xi_low": -0.1}, {"xi_high": -0.1},
        {"alpha_low": 0.35}, {"alpha_high": 0.2}, {"alpha_low": 0.3}, {"alpha_high": 0.3},
        {"xi_low": -7.0, "xi_high": -3.0, "alpha_low": 2.0, "alpha_high": 9.0}])
    def test_start_is_the_family_value_or_the_box_middle(self, box):
        for name, law in prior_table(PriorSpec(**box)).items():
            value = self.FAMILY_START[name.split("_")[0]]
            assert law.lo < law.start < law.hi, name
            assert law.start == (value if law.lo < value < law.hi else 0.5 * (law.lo + law.hi)), \
                name

    def test_initial_state_starts_each_scalar_at_its_law(self):
        model = toy_model(priors=PriorSpec(xi_low=-0.05, alpha_high=0.2))
        state = model.initialize_state()
        assert {n: getattr(state, n) for n in SCALAR_NAMES} == \
            {n: law.start for n, law in model.laws.items()}
        assert (state.xi_y, state.alpha) == pytest.approx((-0.025, 0.15))


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

    @pytest.mark.parametrize("bad", [dict(tau_rate=-1.0), dict(kappa_shape=0.0),
                                     dict(beta_mean=math.inf), dict(xi_high=0.3),
                                     dict(xi_low=0.0), dict(alpha_low=-0.2)])
    def test_rejects_bad_priors(self, bad):
        # the record itself rejects the values, before any model is built
        with pytest.raises(RuleError) as excinfo:
            PriorSpec(**bad)
        assert set(bad) <= set(excinfo.value.fields)

    def test_rejects_missing_simulated_cells(self):
        net = toy_network()
        x = np.ones((5, 4))
        x[0, 0] = np.nan
        with pytest.raises(DataValidationError):
            HierarchicalModel(np.ones((3, 4)), x, net)

    @pytest.mark.parametrize("panel, value", [("observed", 0.0), ("simulated", 0.0),
                                              ("observed", -1.0)])
    def test_rejects_values_outside_the_egpd_support(self, panel, value):
        # the support is (0, delta); the first bad cell is named by panel, station and day
        net = toy_network()
        y, x = np.ones((3, 4)), np.ones((5, 4))
        (y if panel == "observed" else x)[1, 2] = value
        rule = f"has value {value!r}; the hierarchical model needs values > 0"
        with pytest.raises(DataValidationError,
                           match=f"^{panel} panel: station 's1' on day 2 {re.escape(rule)}$"):
            HierarchicalModel(y, x, net)
        dates = ("2013-01-01", "2013-01-02", "2013-01-03", "2013-01-04")
        with pytest.raises(DataValidationError, match="station 's1' on 2013-01-03 has"):
            HierarchicalModel(y, x, net, dates=dates)

    def test_rejects_all_missing_observed(self):
        net = toy_network()
        with pytest.raises(DataValidationError):
            HierarchicalModel(np.full((3, 4), np.nan), np.ones((5, 4)), net)

    def test_default_shifts_are_panel_maxima(self):
        net = toy_network()
        y = np.arange(12, dtype=float).reshape(3, 4) + 1.0
        x = np.arange(20, dtype=float).reshape(5, 4) + 0.5
        m = HierarchicalModel(y, x, net)
        assert m.shift_y == 12.0
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

    @pytest.mark.parametrize("seed", [3, 8, 21, 24])
    def test_year_long_panel_starts_with_the_default_truth(self, seed):
        # 200 stations, 100 observed, 365 days, drawn as `windcal simulate`
        # draws them; these seeds failed to start while the EGPD log-density
        # lost precision next to the endpoint
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
        coords = rng.uniform(0.0, 300.0, size=(200, 2))
        observed = np.zeros(200, dtype=bool)
        observed[rng.choice(200, size=100, replace=False)] = True
        net = StationNetwork.from_coords([f"st{i:03d}" for i in range(200)], coords, observed)
        panel, _ = generate_synthetic(SyntheticTruth(), net, 365, seed=seed, missing_rate=0.1)
        HierarchicalModel(panel.y, panel.x, net).initialize_state()


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

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.5, 0.0), (0.1, 0.5)])
    def test_box_maps_match_scipy_bit_for_bit(self, lo, hi):
        # logit switches formula at p = 0.3 and p = 0.65; hit both edges and
        # their neighbours as well as a dense grid
        edges = [np.nextafter(e, d) for e in (0.3, 0.65) for d in (0.0, 0.3, 1.0)]
        p = np.concatenate([np.linspace(1e-9, 1.0 - 1e-9, 20001), edges])
        for x in lo + (hi - lo) * p:
            assert _logit_box(float(x), lo, hi) == special.logit((x - lo) / (hi - lo))
        for t in np.concatenate([np.linspace(-720.0, 720.0, 20001), [-709.8, 709.8]]):
            assert _expit_box(float(t), lo, hi) == lo + (hi - lo) * special.expit(t)

    @pytest.mark.parametrize("lo, hi", [(-0.5, 0.0), (0.1, 0.5)])
    def test_far_proposal_maps_to_box_edge(self, lo, hi):
        assert _expit_box(800.0, lo, hi) == hi
        assert _expit_box(-800.0, lo, hi) == lo

    @pytest.mark.parametrize("shape", [0.05, 0.5, 1.0, 2.5, 10.0])
    def test_gamma_logpdf_matches_scipy(self, shape):
        for rate in (0.05, 0.1, 2.0):
            law = _gamma(shape, rate)
            for x in (0.01, 0.3, 1.0, 4.0, 25.0):
                assert law.logpdf(x) == pytest.approx(
                    stats.gamma.logpdf(x, shape, scale=1.0 / rate), rel=1e-13)


def check_every_row(sampler) -> list:
    """Make each row of ``sampler.blocks`` assert, after it runs, that the
    sampler's cached log-posterior matches the model's full recompute; return
    the list the rows append their names to."""
    checked = []

    def checking(name, update):
        def run(sampler):
            update(sampler)
            assert sampler.log_posterior() == pytest.approx(
                sampler.model.log_posterior(sampler.state), abs=1e-8), name
            checked.append(name)
        return run

    sampler.blocks = [(name, checking(name, update), log_scale)
                      for name, update, log_scale in sampler.blocks]
    return checked


class TestSampler:
    def test_cache_matches_full_recompute(self):
        # a complete panel and one with missing cells, during burn-in and
        # after; the cache must match after every update block, not only at
        # the end of a sweep
        for missing_rate, n_times in ((0.0, 4), (0.2, 12)):
            m = toy_model(seed=1, n_times=n_times, missing_rate=missing_rate)
            assert np.isnan(m.y).any() == (missing_rate > 0)
            sampler = MwgSampler(m, m.initialize_state(), np.random.default_rng(0))
            checked = check_every_row(sampler)
            for adapting in (True, False):
                sampler.adapting = adapting
                for _ in range(25):
                    sampler.sweep()
                assert sampler.log_posterior() == pytest.approx(
                    m.log_posterior(sampler.state), abs=1e-8)
                # recomputing the cache from scratch changes nothing
                cached = sampler.log_posterior()
                sampler.refresh_cache()
                assert sampler.log_posterior() == pytest.approx(cached, abs=1e-10)
            # every row of the table, in order, in each of the 50 sweeps
            assert checked == [name for name, *_ in sampler.blocks] * 50

    def test_rows_read_the_panels_replace_data_swaps_in(self):
        # criterion 5 swaps fresh panels into the model before every sweep; a
        # row that kept the margin of the panels its sampler was built on
        # would compare their likelihood with the cache of the new ones
        m = toy_model(seed=0, n_total=6, n_obs=4, n_times=8, missing_rate=0.2,
                      priors=PriorSpec(kappa_shape=2.0, kappa_rate=0.5))
        rng = np.random.default_rng(3)
        state = m.sample_prior_state(rng)
        m.replace_data(*m.sample_panels(state, rng))
        sampler = MwgSampler(m, state, rng)
        checked = check_every_row(sampler)
        for _ in range(5):
            m.replace_data(*m.sample_panels(sampler.state, rng))
            sampler.refresh_cache()
            sampler.sweep()
        assert checked == [name for name, *_ in sampler.blocks] * 5

    def test_start_state_outside_endpoint_support_rejected(self):
        m = toy_model(seed=1)
        state = m.initialize_state()
        state.delta_y[0, 0] = m.shift_y
        with pytest.raises(NumericalError):
            MwgSampler(m, state, np.random.default_rng(0))

    def test_block_log_ratios_match_log_posterior(self):
        # accept every proposal, so consecutive states are (current, proposed)
        # pairs; the ratio each block builds (beta/w/z from their sums of
        # lambda * (delta - shift)) must equal the change in the full
        # posterior plus the log-Jacobian of the move: kappa and tau move on
        # log scale, xi and alpha on the logit of their box, the rest unscaled
        m = toy_model(seed=0, n_total=6, n_obs=4, n_times=12, missing_rate=0.2,
                      priors=PriorSpec(kappa_shape=2.0, kappa_rate=0.5))
        rng = np.random.default_rng(0)
        state = m.sample_prior_state(rng)
        m.replace_data(*m.sample_panels(state, rng))
        assert np.isnan(m.y).any()
        sampler = MwgSampler(m, state, rng)
        p = m.priors
        boxes = {"xi": (p.xi_low, p.xi_high), "alpha": (p.alpha_low, p.alpha_high)}

        def log_jac(name, value):
            family = name.split("_")[0]
            if family in ("kappa", "tau"):
                return math.log(value)
            if family in boxes:
                return _log_jac_box(_logit_box(value, *boxes[family]), *boxes[family])
            return 0.0

        seen = []

        def accept_all(log_ratio):
            seen.append((log_ratio, m.log_posterior(sampler.state), sampler.state.copy()))
            return True

        sampler._accept = accept_all
        # delta accepts cell by cell without _accept; every other row is checked,
        # one proposal per element of its starting log-scale
        deltas = {mg.delta for mg in m.margins}
        for name, update, log_scale in sampler.blocks:
            if name in deltas:
                continue
            seen.clear()
            update(sampler)
            assert len(seen) == np.size(log_scale), name
            after = [(lp, st) for _, lp, st in seen[1:]]
            after.append((m.log_posterior(sampler.state), sampler.state))
            for (log_ratio, lp_before, before), (lp_after, now) in zip(seen, after):
                jac = log_jac(name, getattr(now, name)) - log_jac(name, getattr(before, name))
                assert log_ratio == pytest.approx(lp_after - lp_before + jac, rel=1e-10), name

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

    def test_proposals_count_only_once_adaptation_stops(self):
        m = toy_model(seed=1, missing_rate=0.2)
        sampler = MwgSampler(m, m.initialize_state(), np.random.default_rng(0))
        for _ in range(3):
            sampler.sweep()
        assert set(sampler.proposal_counts.values()) == {0.0}
        assert set(sampler.accept_counts.values()) == {0.0}
        sampler.adapting = False
        sampler.sweep()
        per_sweep = {"w": m.n_total, "z": m.n_times,
                     "delta_y": sampler.state.delta_y.size, "delta_x": sampler.state.delta_x.size}
        assert sampler.proposal_counts == {name: per_sweep.get(name, 1)
                                           for name, _, _ in sampler.blocks}
        for name, hits in sampler.accept_counts.items():
            assert 0 <= hits <= sampler.proposal_counts[name], name

    def test_acceptance_rates_in_unit_interval(self):
        m = toy_model(seed=1)
        sampler = MwgSampler(m, m.initialize_state(), np.random.default_rng(0))
        sampler.adapting = False
        for _ in range(20):
            sampler.sweep()
        for k, v in sampler.acceptance_rates().items():
            assert 0.0 <= v <= 1.0, k


# ---------------------------------------------------------------------------
# per-row prior invariance (Geweke 2004, "Getting it right"; Talts et al. 2018)
# ---------------------------------------------------------------------------

# criterion 5's tightened priors, which keep forward-simulated data in float64
INVARIANCE_PRIORS = PriorSpec(beta_precision=1.0, kappa_shape=2.0, kappa_rate=0.5,
                              tau_shape=2.0, tau_rate=0.5)
INVARIANCE_CHAINS = 250  # per row, each of INVARIANCE_STEPS steps
INVARIANCE_STEPS = 10
PRIOR_DRAWS = 4000


def invariance_model():
    """4 stations, 3 of them observed, 6 days, shifts of 2; the panels are placeholders
    that every step replaces with a draw given the state."""
    net = toy_network(n_total=4, n_obs=3, seed=0)
    return HierarchicalModel(np.full((3, 6), 1.0), np.full((4, 6), 1.0), net,
                             priors=INVARIANCE_PRIORS, shift_y=2.0, shift_x=2.0)


def own_statistics(model, state) -> dict:
    """Each block row's name -> {label: value} of the variables that row updates.

    A row whose name is not here fails the check with a KeyError: a new row
    must name the statistics it is checked on.
    """
    out = {name: {name: getattr(state, name)} for name in SCALAR_NAMES}
    out["w"] = {"w[0]": state.w[0], "mean(w)": state.w.mean()}
    out["z"] = {"z[0]": state.z[0], "z[T-1] - z[0]": state.z[-1] - state.z[0]}
    for mg in model.margins:
        delta = getattr(state, mg.delta)
        out[mg.delta] = {f"{mg.delta}[0,0]": delta[0, 0],
                         "mean log gap": np.log(delta - mg.shift).mean()}
    return out


_TOY = toy_model()
ROW_NAMES = [name for name, _, _ in MwgSampler(
    _TOY, _TOY.initialize_state(), np.random.default_rng(0)).blocks]
PILOT_SS, PRIOR_SS, *ROW_SS = np.random.SeedSequence(20261020).spawn(2 + len(ROW_NAMES))


@pytest.fixture(scope="module")
def invariance_reference():
    """(pilot log-scales, {row name: {label: forward prior draws}})."""
    model = invariance_model()
    # the pilot tunes the scales; the checked chains run with adaptation
    # frozen, since an adaptive kernel need not preserve its target exactly
    rng = np.random.default_rng(PILOT_SS)
    state = model.sample_prior_state(rng)
    model.replace_data(*model.sample_panels(state, rng))
    pilot = MwgSampler(model, state, rng)
    for _ in range(300):
        model.replace_data(*model.sample_panels(pilot.state, rng))
        pilot.refresh_cache()
        pilot.sweep()
    rng = np.random.default_rng(PRIOR_SS)
    draws = [own_statistics(model, model.sample_prior_state(rng)) for _ in range(PRIOR_DRAWS)]
    return pilot.log_scales, {row: {label: np.array([d[row][label] for d in draws])
                                    for label in draws[0][row]} for row in draws[0]}


@pytest.mark.parametrize("row", ROW_NAMES)
def test_each_row_alone_keeps_the_prior(invariance_reference, row):
    # a step draws panels given the state and runs one row on them; if the
    # row leaves its target invariant, every state stays an exact prior draw,
    # so each chain's last state is one independent prior sample
    log_scales, reference = invariance_reference
    index = ROW_NAMES.index(row)
    model = invariance_model()
    kept = {label: [] for label in reference[row]}
    for ss in ROW_SS[index].spawn(INVARIANCE_CHAINS):
        rng = np.random.default_rng(ss)
        state = model.sample_prior_state(rng)
        model.replace_data(*model.sample_panels(state, rng))  # panels the sampler can start on
        sampler = MwgSampler(model, state, rng)
        sampler.adapting = False
        sampler.log_scales = {k: np.copy(v) if isinstance(v, np.ndarray) else v
                              for k, v in log_scales.items()}
        update = sampler.blocks[index][1]
        for _ in range(INVARIANCE_STEPS):
            model.replace_data(*model.sample_panels(sampler.state, rng))
            sampler.refresh_cache()
            update(sampler)
        for label, value in own_statistics(model, sampler.state)[row].items():
            kept[label].append(value)
    pvalues = {label: stats.ks_2samp(values, reference[row][label]).pvalue
               for label, values in kept.items()}
    assert min(pvalues.values()) > 0.001, pvalues


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
        d = run_mcmc(m, McmcConfig(iterations=0, burn_in=0, thinning=1, chains=1, seed=0))
        assert d.n_draws == 1

    def test_mean_sigma_is_the_mean_over_draws(self):
        m = toy_model(seed=1)
        d = run_mcmc(m, McmcConfig(iterations=40, burn_in=2, thinning=1, seed=0))
        expect = [(-d.scalars[xi][:, None, None] * delta).mean(axis=0)
                  for xi, delta in (("xi_y", d.delta_y), ("xi_x", d.delta_x))]
        got = d.mean_sigma()
        assert len(got) == 2
        for g, e in zip(got, expect):
            assert np.array_equal(g, e)


def assert_same_draws(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, dict):
            assert list(x) == list(y), f.name
            x, y = list(x.values()), list(y.values())
        assert np.array_equal(x, y, equal_nan=True), f.name


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestChainWorkers:
    """run_mcmc runs chain c in worker c mod W: worker 0 is the caller, the rest forked children."""

    @pytest.fixture()
    def cores(self, monkeypatch):
        def set_cores(n):
            monkeypatch.setattr(windcal_model, "_usable_cores", lambda: n)
        return set_cores

    @pytest.fixture()
    def chain_runner(self, monkeypatch):
        """Replace run_chain by ``fn(chain_index, in_caller)``, falling back to the real chain."""
        caller, real = os.getpid(), windcal_model.run_chain

        def install(fn):
            def run_chain(model, cfg, rng, chain_index=0):
                fn(chain_index, os.getpid() == caller)
                return real(model, cfg, rng, chain_index)
            monkeypatch.setattr(windcal_model, "run_chain", run_chain)
        return install

    def test_worker_count(self, cores):
        cores(2)
        assert [chain_workers(c) for c in (1, 2, 3)] == [1, 2, 2]
        cores(1)
        assert chain_workers(3) == 1

    # chains = 3 puts chain 2 in worker 0 after chain 0; 400 kept draws pickle to
    # more than a pipe's 64 KiB buffer
    @pytest.mark.parametrize("chains, iterations, thinning",
                             [(2, 20, 2), (3, 20, 2), (2, 0, 1), (2, 405, 1)])
    def test_draws_do_not_depend_on_the_worker_count(self, cores, chains, iterations, thinning):
        m = toy_model(seed=1, missing_rate=0.3)
        cfg = McmcConfig(iterations=iterations, burn_in=5 if iterations else 0,
                         thinning=thinning, chains=chains, seed=5)
        runs = []
        for n in (1, 2):
            cores(n)
            runs.append(run_mcmc(m, cfg))
            assert_no_child_left()
        assert_same_draws(*runs)
        assert np.array_equal(np.unique(runs[1].chain), np.arange(chains))
        assert np.all(np.diff(runs[1].chain) >= 0)

    @pytest.mark.parametrize("error", [NumericalError("chain 1 diverged"),
                                       RuleError(("alpha",), "must be > 0")],
                             ids=lambda e: type(e).__name__)
    def test_a_worker_error_reaches_the_caller(self, cores, chain_runner, error):
        def fail_in_worker(c, in_caller):
            if c == 1 and not in_caller:
                raise error

        cores(2)
        chain_runner(fail_in_worker)
        with pytest.raises(type(error)) as excinfo:
            run_mcmc(toy_model(seed=1), McmcConfig(iterations=10, burn_in=2, thinning=1))
        assert str(excinfo.value) == str(error)
        assert getattr(excinfo.value, "fields", None) == getattr(error, "fields", None)
        assert_no_child_left()

    def test_a_worker_that_dies_is_named(self, cores, chain_runner):
        def die_in_worker(c, in_caller):
            if not in_caller:
                os.kill(os.getpid(), signal.SIGKILL)

        cores(2)
        chain_runner(die_in_worker)
        with pytest.raises(WindcalError,
                           match=r"^the worker of chain 1 ended without a result \(wait status 9\)$"):
            run_mcmc(toy_model(seed=1), McmcConfig(iterations=10, burn_in=2, thinning=1, chains=3))
        assert_no_child_left()

    @pytest.mark.parametrize("error", [NumericalError("caller's chain failed"), KeyboardInterrupt()],
                             ids=lambda e: type(e).__name__)
    def test_no_worker_outlives_a_failed_caller(self, cores, chain_runner, error):
        def fail_in_caller(c, in_caller):
            if in_caller:
                raise error
            time.sleep(60)  # outlives the test unless the caller kills it

        cores(2)
        chain_runner(fail_in_caller)
        start = time.perf_counter()
        with pytest.raises(type(error)):
            run_mcmc(toy_model(seed=1), McmcConfig(iterations=10, burn_in=2, thinning=1))
        assert time.perf_counter() - start < 30
        assert_no_child_left()
