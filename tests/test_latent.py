"""Unit tests for the latent spatial and temporal Gaussian fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from windcal.errors import DataValidationError, DomainError
from windcal.latent import (
    CORRELATION_FAMILIES,
    StationNetwork,
    cholesky_correlation,
    rw1_eigenvalues,
    rw1_logdensity,
    rw1_structure,
    sample_rw1_constrained,
    sample_spatial_field,
    spatial_correlation,
    spatial_logdensity,
)

# Independently computed with 50-digit arithmetic and frozen:
# disc correlation at d = alpha (h = 1/2).
DISC_AT_ALPHA = 0.39100221895577064191


def toy_network(n=6, seed=0, n_obs=4):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 100.0, size=(n, 2))
    observed = np.zeros(n, dtype=bool)
    observed[:n_obs] = True
    return StationNetwork.from_coords([f"s{i}" for i in range(n)], coords, observed)


class TestStationNetwork:
    def test_basic_properties(self):
        net = toy_network()
        assert net.n_total == 6
        assert net.n_observed == 4
        assert np.array_equal(net.observed_indices, [0, 1, 2, 3])
        assert net.scaled_distances.max() == pytest.approx(1.0)

    def test_distance_matrix_matches_euclid(self):
        net = toy_network()
        i, j = 1, 4
        expect = math.dist(net.coords[i], net.coords[j])
        assert net.distances[i, j] == pytest.approx(expect)

    def test_rejects_misaligned_inputs(self):
        with pytest.raises(DataValidationError):
            StationNetwork.from_coords(["a"], np.zeros((2, 2)), np.array([True, False]))

    def test_degenerate_coordinates(self):
        net = StationNetwork.from_coords(["a", "b"], np.zeros((2, 2)),
                                         np.array([True, True]))
        with pytest.raises(DataValidationError):
            net.scaled_distances


class TestSpatialCorrelation:
    def test_disc_pinned_value(self):
        assert spatial_correlation(0.3, 0.3, "disc") == pytest.approx(
            DISC_AT_ALPHA, abs=1e-14)

    def test_unit_diagonal_and_compact_support(self):
        d = np.array([[0.0, 0.5, 2.0], [0.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
        for family in CORRELATION_FAMILIES:
            c = spatial_correlation(d, 0.4, family)
            assert np.allclose(np.diag(c), 1.0)
        disc = spatial_correlation(d, 0.4, "disc")
        assert disc[0, 2] == 0.0  # beyond twice the range
        sph = spatial_correlation(d, 0.4, "spherical")
        assert sph[0, 2] == 0.0  # beyond the range

    def test_exponential_never_zero(self):
        assert spatial_correlation(5.0, 0.2, "exponential") > 0.0

    def test_unknown_family_and_bad_alpha(self):
        with pytest.raises(DomainError):
            spatial_correlation(0.1, 0.3, "gaussian")
        with pytest.raises(DomainError):
            spatial_correlation(0.1, 0.0, "disc")

    @given(st.floats(0.0, 2.0), st.floats(0.05, 0.6))
    @settings(max_examples=100, deadline=None)
    def test_disc_in_unit_interval_and_decreasing(self, d, alpha):
        v = spatial_correlation(d, alpha, "disc")
        assert 0.0 <= v <= 1.0
        assert spatial_correlation(d + 0.01, alpha, "disc") <= v + 1e-12


class TestCholeskyAndDensity:
    def test_positive_definite_no_jitter(self):
        net = toy_network()
        c = spatial_correlation(net.scaled_distances, 0.45, "exponential")
        f = cholesky_correlation(c)
        assert f.jitter == 0.0
        assert np.allclose(f.lower @ f.lower.T, c, atol=1e-12)
        sign, logdet = np.linalg.slogdet(c)
        assert sign > 0 and f.logdet == pytest.approx(logdet)

    def test_jitter_escalation_on_singular_matrix(self):
        c = np.ones((3, 3))  # rank one
        f = cholesky_correlation(c)
        assert 0.0 < f.jitter <= 1e-6

    def test_logdensity_matches_scipy(self):
        net = toy_network()
        d = net.scaled_distances
        alpha, tau = 0.35, 2.5
        rng = np.random.default_rng(8)
        w = rng.standard_normal(net.n_total)
        c = spatial_correlation(d, alpha, "disc")
        ref = stats.multivariate_normal(mean=np.zeros(net.n_total),
                                        cov=c / tau).logpdf(w)
        assert spatial_logdensity(w, alpha, tau, d) == pytest.approx(ref, abs=1e-9)

    def test_sample_covariance(self):
        net = toy_network()
        c = spatial_correlation(net.scaled_distances, 0.4, "disc")
        f = cholesky_correlation(c)
        rng = np.random.default_rng(0)
        tau = 4.0
        draws = np.array([sample_spatial_field(f, tau, rng) for _ in range(20000)])
        emp = np.cov(draws.T)
        assert np.max(np.abs(emp - c / tau)) < 0.02

    def test_rejects_nonpositive_tau(self):
        net = toy_network()
        with pytest.raises(DomainError):
            spatial_logdensity(np.zeros(6), 0.3, 0.0, net.scaled_distances)


class TestRw1:
    def test_structure_matrix(self):
        k = rw1_structure(4)
        expect = np.array([[1, -1, 0, 0], [-1, 2, -1, 0],
                           [0, -1, 2, -1], [0, 0, -1, 1]], dtype=float)
        assert np.array_equal(k, expect)

    def test_eigenvalues_match_structure(self):
        n = 7
        lam = np.sort(np.linalg.eigvalsh(rw1_structure(n)))
        assert lam[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(np.sort(rw1_eigenvalues(n)), lam[1:], atol=1e-12)

    def test_constrained_sample_sums_to_zero(self):
        rng = np.random.default_rng(3)
        z = sample_rw1_constrained(12, 1.7, rng)
        assert z.sum() == pytest.approx(0.0, abs=1e-10)

    def test_sample_covariance_matches_pseudoinverse(self):
        n, tau = 6, 2.0
        rng = np.random.default_rng(1)
        draws = np.array([sample_rw1_constrained(n, tau, rng) for _ in range(40000)])
        emp = np.cov(draws.T)
        expect = np.linalg.pinv(tau * rw1_structure(n))
        assert np.max(np.abs(emp - expect)) < 0.05

    def test_logdensity_is_normalized(self):
        # integrate exp(logdensity) over the sum-to-zero subspace (n = 3:
        # two free coordinates via an orthonormal basis)
        n, tau = 3, 1.3
        k = np.arange(1, n)
        j = np.arange(n)
        basis = (np.cos(math.pi * np.outer(k, j + 0.5) / n) * math.sqrt(2.0 / n)).T
        from scipy import integrate

        def dens(a, b):
            z = basis @ np.array([a, b])
            return math.exp(rw1_logdensity(z, tau))

        total, _ = integrate.dblquad(dens, -8, 8, -8, 8, epsabs=1e-9)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_single_point_chain(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(sample_rw1_constrained(1, 1.0, rng), [0.0])

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(DomainError):
            rw1_logdensity(np.zeros(5), -1.0)
