"""Unit tests for the endpoint-form EGPD distribution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from windcal.egpd import (
    EgpdParams,
    GpdParams,
    XI_EXP_SWITCH,
    egpd_cdf,
    egpd_logpdf,
    egpd_quantile,
    egpd_sample,
    gpd_cdf,
)
from windcal.errors import DomainError, RuleError

# Independently computed with 50-digit arithmetic and frozen.
CDF_ORACLE = 0.99512671493448490168  # egpd_cdf(5.0; delta=10, xi=-0.1, kappa=5)

deltas = st.floats(0.5, 200.0)
xis = st.floats(-0.45, -0.01)
kappas = st.floats(0.1, 30.0)


def params(delta=10.0, xi=-0.1, kappa=5.0):
    return EgpdParams(delta=delta, xi=xi, kappa=kappa)


class TestParams:
    def test_sigma_endpoint_relation(self):
        p = params(delta=12.0, xi=-0.25)
        assert p.sigma == pytest.approx(0.25 * 12.0)
        assert p.to_gpd().endpoint == pytest.approx(12.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            EgpdParams(delta=-1.0, xi=-0.1, kappa=2.0)
        with pytest.raises(RuleError) as excinfo:
            EgpdParams(delta=1.0, xi=0.1, kappa=2.0)
        assert excinfo.value.fields == ("xi",)
        assert excinfo.value.rule == "must be finite and < 0 (endpoint form)"
        with pytest.raises(DomainError):
            EgpdParams(delta=1.0, xi=-0.1, kappa=0.0)
        with pytest.raises(DomainError):
            GpdParams(sigma=0.0, xi=-0.1)

    @pytest.mark.parametrize("sigma, xi, field", [(0.0, -0.1, "sigma"), (math.inf, 0.1, "sigma"),
                                                  (1.0, math.nan, "xi"), (1.0, -math.inf, "xi")])
    def test_gpd_rule_names_its_field(self, sigma, xi, field):
        with pytest.raises(RuleError) as excinfo:
            GpdParams(sigma=sigma, xi=xi)
        assert excinfo.value.fields == (field,)

    def test_gpd_endpoint_infinite_for_nonnegative_shape(self):
        assert GpdParams(sigma=1.0, xi=0.0).endpoint == math.inf


class TestCdf:
    def test_pinned_value(self):
        assert egpd_cdf(5.0, params()) == pytest.approx(CDF_ORACLE, abs=1e-14)

    def test_boundaries(self):
        p = params()
        assert egpd_cdf(0.0, p) == 0.0
        assert egpd_cdf(p.delta, p) == 1.0
        assert egpd_cdf(p.delta * 3, p) == 1.0

    def test_scalar_and_array_agree(self):
        p = params()
        ys = np.array([0.0, 1.0, 5.0, 9.9, 12.0])
        arr = egpd_cdf(ys, p)
        assert arr.shape == ys.shape
        for y, v in zip(ys, arr):
            assert egpd_cdf(float(y), p) == pytest.approx(float(v), abs=0.0)

    def test_kappa_one_reduces_to_gpd(self):
        p = params(kappa=1.0)
        gpd = p.to_gpd()
        ys = np.linspace(0.0, p.delta, 41)
        assert np.max(np.abs(egpd_cdf(ys, p) - gpd_cdf(ys, gpd))) < 1e-12

    def test_matches_scipy_genpareto_at_kappa_one(self):
        p = params(delta=8.0, xi=-0.2, kappa=1.0)
        ys = np.linspace(0.0, 7.99, 50)
        ref = stats.genpareto.cdf(ys, c=p.xi, scale=p.sigma)
        assert np.allclose(egpd_cdf(ys, p), ref, atol=1e-12)

    def test_exponential_branch_continuity(self):
        sigma = 2.0
        ys = np.linspace(0.0, 10.0, 30)
        near = gpd_cdf(ys, GpdParams(sigma=sigma, xi=XI_EXP_SWITCH * 1.5))
        at = gpd_cdf(ys, GpdParams(sigma=sigma, xi=0.0))
        assert np.allclose(near, at, atol=1e-7)

    def test_rejects_negative_or_nonfinite_data(self):
        with pytest.raises(DomainError):
            egpd_cdf(-1.0, params())
        with pytest.raises(DomainError):
            egpd_cdf(np.nan, params())

    @given(deltas, xis, kappas)
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_y(self, delta, xi, kappa):
        p = EgpdParams(delta=delta, xi=xi, kappa=kappa)
        ys = np.linspace(0.0, delta, 31)
        vals = egpd_cdf(ys, p)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


class TestQuantile:
    def test_roundtrip(self):
        p = params()
        us = np.linspace(0.001, 0.999, 99)
        back = egpd_cdf(egpd_quantile(us, p), p)
        assert np.max(np.abs(back - us)) < 1e-10

    def test_edges(self):
        p = params()
        assert egpd_quantile(0.0, p) == 0.0
        assert egpd_quantile(1.0, p) == pytest.approx(p.delta, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            egpd_quantile(1.5, params())
        with pytest.raises(DomainError):
            egpd_quantile(-0.1, params())

    @given(deltas, xis, kappas, st.floats(0.0, 1.0))
    @settings(max_examples=120, deadline=None)
    def test_range_and_roundtrip_property(self, delta, xi, kappa, u):
        p = EgpdParams(delta=delta, xi=xi, kappa=kappa)
        q = egpd_quantile(u, p)
        assert 0.0 <= q <= delta
        # the roundtrip is only well conditioned when the quantile sits a
        # few ulps inside the support; at the edges 1 - q/delta rounds away
        # the information regardless of how the CDF is computed
        if 1e-6 < u < 1 - 1e-6 and 1e-8 * delta < q < (1 - 1e-8) * delta:
            assert egpd_cdf(q, p) == pytest.approx(u, abs=1e-8)


class TestLogpdf:
    def test_integrates_to_one(self):
        for p in (params(), params(delta=3.0, xi=-0.4, kappa=0.7),
                  params(delta=50.0, xi=-0.05, kappa=18.0)):
            total, err = integrate.quad(
                lambda y: math.exp(egpd_logpdf(y, p)), 0.0, p.delta, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_matches_cdf_derivative(self):
        p = params(delta=10.0, xi=-0.12, kappa=4.0)
        ys = np.linspace(0.5, 9.0, 18)
        h = 1e-6
        num = (egpd_cdf(ys + h, p) - egpd_cdf(ys - h, p)) / (2 * h)
        assert np.allclose(np.exp(egpd_logpdf(ys, p)), num, rtol=1e-5)

    def test_outside_support(self):
        p = params()
        assert egpd_logpdf(0.0, p) == -math.inf
        assert egpd_logpdf(p.delta, p) == -math.inf
        assert egpd_logpdf(p.delta + 1.0, p) == -math.inf

    @pytest.mark.parametrize("ratio", [1e3, 1e15, 1e17])
    def test_precise_when_y_is_tiny_against_delta(self, ratio):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        y, delta, xi, kappa = 1.0, ratio, -0.1, 2.0
        base = 1 - mpmath.mpf(y) / delta
        ref = (mpmath.log(kappa) - mpmath.log(-mpmath.mpf(xi) * delta)
               + (-1 / mpmath.mpf(xi) - 1) * mpmath.log(base)
               + (kappa - 1) * mpmath.log(1 - base ** (-1 / mpmath.mpf(xi))))
        got = egpd_logpdf(y, EgpdParams(delta=delta, xi=xi, kappa=kappa))
        assert got == pytest.approx(float(ref), rel=1e-13)

    def test_no_warnings_outside_support(self):
        p = params()
        with np.errstate(all="raise"):
            egpd_logpdf(np.array([0.0, 5.0, 20.0]), p)


class TestSample:
    def test_ks_against_cdf(self):
        p = params(delta=20.0, xi=-0.08, kappa=6.0)
        draws = egpd_sample(20000, p, np.random.default_rng(7))
        stat = stats.kstest(draws, lambda y: egpd_cdf(y, p)).statistic
        assert stat < 0.012

    def test_within_support(self):
        p = params()
        draws = egpd_sample(5000, p, np.random.default_rng(1))
        assert draws.min() >= 0.0 and draws.max() <= p.delta

    def test_seed_reproducible(self):
        p = params()
        a = egpd_sample(100, p, 42)
        b = egpd_sample(100, p, 42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("law, n, seed", [
        ((20.0, -0.08, 6.0), 20000, 7), ((10.0, -0.1, 5.0), 5000, 1),
        ((10.0, -0.1, 5.0), 100, 42), ((20.0, -0.08, 18.0), 100_000, 42)])
    def test_draws_are_the_quantiles_of_the_uniforms(self, law, n, seed):
        # egpd_draw keeps a draw inside (0, delta); on these laws and seeds
        # (this class's and acceptance criterion 2's) no draw needs it
        p = params(*law)
        u = np.random.default_rng(seed).uniform(size=n)
        assert np.array_equal(egpd_sample(n, p, seed), egpd_quantile(u, p))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(DomainError):
            egpd_sample(0, params(), np.random.default_rng(0))
