"""Unit tests for quantile-matching calibration maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from windcal.calibration import (
    CalibrationMap,
    EmpiricalCdf,
    conditional_calibrate,
    conditional_calibrate_flagged,
    marginal_calibrate,
)
from windcal.egpd import EgpdParams, egpd_sample
from windcal.errors import DomainError

# Independently computed with 50-digit arithmetic and frozen:
# x = 10 mapped from EGPD(20, -0.08, 18) to EGPD(25, -0.07, 5).
COND_ORACLE = 10.090155475900533997

PX = EgpdParams(delta=20.0, xi=-0.08, kappa=18.0)
PY = EgpdParams(delta=25.0, xi=-0.07, kappa=5.0)


class TestEmpiricalCdf:
    def test_positions_are_hazen(self):
        ecdf = EmpiricalCdf.from_sample([3.0, 1.0, 2.0, 4.0])
        assert np.allclose(ecdf.positions, [0.125, 0.375, 0.625, 0.875])

    def test_nan_dropped_and_counted(self):
        ecdf = EmpiricalCdf.from_sample([1.0, np.nan, 2.0, np.nan])
        assert ecdf.n_missing == 2
        assert np.array_equal(ecdf.values, [1.0, 2.0])

    def test_all_nan_rejected(self):
        with pytest.raises(DomainError):
            EmpiricalCdf.from_sample([np.nan, np.nan])

    def test_cdf_quantile_roundtrip_interior(self):
        rng = np.random.default_rng(3)
        ecdf = EmpiricalCdf.from_sample(rng.gamma(2.0, 3.0, size=200))
        us = np.linspace(0.01, 0.99, 50)
        assert np.allclose(ecdf.cdf(ecdf.quantile(us)), us, atol=1e-12)

    def test_quantile_rejects_out_of_range(self):
        ecdf = EmpiricalCdf.from_sample([1.0, 2.0])
        with pytest.raises(DomainError):
            ecdf.quantile(1.2)


class TestIdentityLaw:
    def test_parametric_identity(self):
        x = np.linspace(0.05, PX.delta - 0.05, 400)
        out = conditional_calibrate(x, PX, PX)
        assert np.max(np.abs(out - x)) < 1e-8

    def test_empirical_identity(self):
        rng = np.random.default_rng(11)
        sample = rng.gamma(3.0, 2.0, size=500)
        ecdf = EmpiricalCdf.from_sample(sample)
        cal = CalibrationMap(source=ecdf, target=ecdf)
        inside = np.linspace(sample.min(), sample.max(), 100)
        assert np.max(np.abs(cal(inside) - inside)) < 1e-8

    @given(st.floats(0.1, 19.9))
    @settings(max_examples=60, deadline=None)
    def test_identity_property(self, x):
        assert conditional_calibrate(x, PX, PX) == pytest.approx(x, abs=1e-8)


class TestDistributionTransfer:
    def test_calibrated_sample_has_target_law(self):
        draws = egpd_sample(100_000, PX, np.random.default_rng(5))
        cal = conditional_calibrate(draws, PX, PY)
        from windcal.egpd import egpd_cdf

        stat = stats.kstest(cal, lambda y: egpd_cdf(y, PY)).statistic
        assert stat < 0.01

    def test_normal_to_student_t(self):
        # source N(0,1) -> target t(3) via empirical maps on large samples
        rng = np.random.default_rng(19)
        src = rng.standard_normal(100_000)
        tgt = rng.standard_t(3, 100_000)
        cal = CalibrationMap(source=EmpiricalCdf.from_sample(src),
                             target=EmpiricalCdf.from_sample(tgt))
        fresh = rng.standard_normal(20_000)
        pval = stats.kstest(cal(fresh), stats.t(df=3).cdf).pvalue
        assert pval > 0.01


class TestConditionalCalibrate:
    def test_pinned_value(self):
        assert conditional_calibrate(10.0, PX, PY) == pytest.approx(COND_ORACLE, abs=1e-12)

    def test_clamp_above_source_endpoint(self):
        value, clamped = conditional_calibrate_flagged(PX.delta + 5.0, PX, PY)
        assert clamped
        assert value == pytest.approx(PY.delta, abs=1e-9)

    def test_flag_vector(self):
        x = np.array([1.0, PX.delta + 1.0, 5.0])
        value, clamped = conditional_calibrate_flagged(x, PX, PY)
        assert clamped.tolist() == [False, True, False]
        assert value.shape == x.shape

    def test_monotone(self):
        x = np.linspace(0.01, PX.delta, 500)
        out = conditional_calibrate(x, PX, PY)
        assert np.all(np.diff(out) >= 0.0)

    def test_range_within_target_support(self):
        x = np.linspace(0.0, PX.delta + 10.0, 200)
        out = conditional_calibrate(x, PX, PY)
        assert out.min() >= 0.0 and out.max() <= PY.delta + 1e-12


class TestMarginalCalibrate:
    def test_nan_propagates(self):
        cal = CalibrationMap(source=PX, target=PY)
        x = np.array([[1.0, np.nan], [10.0, 3.0]])
        out = marginal_calibrate(x, cal)
        assert np.isnan(out[0, 1])
        assert out[1, 0] == pytest.approx(COND_ORACLE, abs=1e-12)

    def test_all_nan_input(self):
        cal = CalibrationMap(source=PX, target=PY)
        out = marginal_calibrate(np.full(3, np.nan), cal)
        assert np.all(np.isnan(out))

    def test_mixed_laws(self):
        rng = np.random.default_rng(2)
        ecdf = EmpiricalCdf.from_sample(egpd_sample(5000, PY, rng))
        cal = CalibrationMap(source=PX, target=ecdf)
        out = marginal_calibrate(np.array([2.0, 8.0, 15.0]), cal)
        assert np.all(np.isfinite(out))
        assert np.all(np.diff(out) > 0)
