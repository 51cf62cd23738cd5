"""Latent Gaussian fields: spatial MVN over stations and temporal RW1 over days.

The spatial field uses a distance-decay correlation with unit diagonal;
tau parameters are precisions, so covariance = correlation / tau.  The
temporal field is an intrinsic first-order random walk made proper by a
sum-to-zero constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataValidationError, DomainError, NumericalError

CORRELATION_FAMILIES = ("disc", "spherical", "exponential")

_JITTER_START = 1e-10
_JITTER_MAX = 1e-6

# rows per diagonal block of the forward substitution in _solve_lower
_SOLVE_BLOCK = 32


@dataclass(frozen=True)
class StationNetwork:
    """Station ids, planar km coordinates, and the observed-station mask.

    ``observed`` marks the N <= N_s stations that carry observations.
    Distances are Euclidean, derived from the coordinates, and rescaled by
    the maximum pairwise distance before the correlation range alpha
    (supported on (0.1, 0.5)) is applied.
    """

    ids: tuple
    coords: np.ndarray          # (N_s, 2), km
    observed: np.ndarray        # (N_s,) bool
    source: str = "the station network"  # the file it was read from, named in messages

    @classmethod
    def from_coords(cls, ids, coords, observed, source=source) -> "StationNetwork":
        coords = np.asarray(coords, dtype=float)
        observed = np.asarray(observed, dtype=bool)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise DataValidationError("coords must be (N_s, 2)")
        if len(ids) != coords.shape[0] or observed.shape[0] != coords.shape[0]:
            raise DataValidationError("ids, coords and observed mask must align")
        return cls(ids=tuple(ids), coords=coords, observed=observed, source=source)

    @cached_property
    def distances(self) -> np.ndarray:
        """(N_s, N_s) pairwise Euclidean distances, km."""
        diff = self.coords[:, None, :] - self.coords[None, :, :]
        return np.sqrt((diff ** 2).sum(axis=-1))

    @property
    def n_total(self) -> int:
        return len(self.ids)

    @property
    def n_observed(self) -> int:
        return int(self.observed.sum())

    @property
    def observed_indices(self) -> np.ndarray:
        return np.flatnonzero(self.observed)

    @property
    def scaled_distances(self) -> np.ndarray:
        """Distances divided by the max pairwise distance, so alpha in (0.1, 0.5) is meaningful."""
        dmax = self.distances.max()
        if dmax <= 0:
            raise DataValidationError(
                f"{self.source}: needs at least two distinct station locations")
        return self.distances / dmax


def spatial_correlation(d, alpha: float, family: str = "disc") -> np.ndarray:
    """Distance-decay correlation matrix with unit diagonal.

    The default "disc" family is the normalized overlap area of two discs
    of radius alpha centred at the two sites; it is compactly supported
    (zero beyond 2*alpha).
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    d = np.asarray(d, dtype=float)
    if family == "disc":
        h = np.clip(d / (2.0 * alpha), 0.0, 1.0)
        out = (2.0 / math.pi) * (np.arccos(h) - h * np.sqrt(1.0 - h ** 2))
    elif family == "spherical":
        h = np.clip(d / alpha, 0.0, 1.0)
        out = 1.0 - 1.5 * h + 0.5 * h ** 3
    elif family == "exponential":
        out = np.exp(-d / alpha)
    else:
        raise DomainError(f"unknown correlation family {family!r}")
    return out


@dataclass
class CholFactor:
    """Lower Cholesky factor of a correlation matrix plus its log-determinant."""

    lower: np.ndarray
    logdet: float  # log det of the correlation matrix
    jitter: float

    def quad_form(self, w: np.ndarray) -> float:
        v = _solve_lower(self.lower, w)
        return float(v @ v)

    @cached_property
    def precision(self) -> np.ndarray:
        """Inverse of the (jittered) correlation matrix, from this factor; built on first use."""
        inv_lower = _solve_lower(self.lower)
        return inv_lower.T @ inv_lower


def _solve_lower(lower: np.ndarray, rhs: np.ndarray | None = None) -> np.ndarray:
    """x with lower @ x = rhs, for lower triangular ``lower``, by blocked forward substitution.

    With no ``rhs``, x is the inverse of ``lower``.  numpy has no triangular
    solve, and np.linalg.solve on the whole factor is an O(n^3) LU.  Each
    diagonal block is solved by np.linalg.solve and the rows below it are
    updated by one matrix product, so a vector costs
    O(n^2 + n * _SOLVE_BLOCK^2) in n / _SOLVE_BLOCK steps.
    """
    n = lower.shape[0]
    x = np.eye(n) if rhs is None else np.array(rhs, dtype=float)
    for i in range(0, n, _SOLVE_BLOCK):
        j = min(i + _SOLVE_BLOCK, n)
        # the inverse is lower triangular: in these rows and below, its
        # columns from j on stay zero
        cols = (slice(j),) if rhs is None else ()
        head, below = (slice(i, j), *cols), (slice(j, None), *cols)
        x[head] = np.linalg.solve(lower[i:j, i:j], x[head])
        x[below] -= lower[j:, i:j] @ x[head]
    return x


def cholesky_correlation(corr: np.ndarray, alpha: float) -> CholFactor:
    """Cholesky with escalating jitter (1e-10, x10 steps, up to 1e-6); a failure names alpha."""
    jitter = 0.0
    step = _JITTER_START
    while True:
        try:
            # the first try factors corr itself: adding 0 * I copies it for nothing
            lower = np.linalg.cholesky(corr + jitter * np.eye(corr.shape[0]) if jitter else corr)
            logdet = 2.0 * float(np.sum(np.log(np.diag(lower))))
            return CholFactor(lower=lower, logdet=logdet, jitter=jitter)
        except np.linalg.LinAlgError:
            if step > _JITTER_MAX:
                raise NumericalError(f"correlation matrix not positive definite "
                                     f"after jitter {_JITTER_MAX} (alpha={alpha})")
            jitter = step
            step *= 10.0


def spatial_logdensity(w, alpha: float, tau_w: float, d, family: str = "disc") -> float:
    """Exact MVN(0, corr/tau_w) log-density including the normalizing constant."""
    w = np.asarray(w, dtype=float)
    if tau_w <= 0:
        raise DomainError(f"tau_w must be positive, got {tau_w}")
    factor = cholesky_correlation(spatial_correlation(d, alpha, family), alpha)
    return spatial_logdensity_from_quad(w.size, tau_w, factor.logdet, factor.quad_form(w))


def spatial_logdensity_from_quad(n: int, tau_w: float, logdet: float, quad: float) -> float:
    """MVN(0, corr/tau_w) log-density of an n-vector w from log det(corr) and w' corr^-1 w."""
    return -0.5 * n * math.log(2.0 * math.pi) + 0.5 * n * math.log(tau_w) \
        - 0.5 * logdet - 0.5 * tau_w * quad


def sample_spatial_field(factor: CholFactor, tau_w: float, rng) -> np.ndarray:
    """Draw w ~ MVN(0, corr/tau_w) using a precomputed Cholesky factor."""
    eps = rng.standard_normal(factor.lower.shape[0])
    return (factor.lower @ eps) / math.sqrt(tau_w)


def rw1_structure(n: int) -> np.ndarray:
    """Tridiagonal RW1 structure matrix K = D'D (row sums zero, rank n-1)."""
    diff = np.diff(np.eye(n), axis=0)
    return diff.T @ diff


def rw1_eigenvalues(n: int) -> np.ndarray:
    """Nonzero eigenvalues of the RW1 structure matrix: 2 - 2 cos(pi k / n), k=1..n-1."""
    k = np.arange(1, n)
    return 2.0 - 2.0 * np.cos(math.pi * k / n)


def rw1_quad_form(z) -> float:
    """RW1 quadratic form z' K z = sum of squared first differences."""
    return float(np.sum(np.diff(z) ** 2))


def rw1_logdensity(z, tau_z: float) -> float:
    """Sum-to-zero constrained intrinsic RW1 log-density (normalized).

    Expects z already centred; the density lives on the (n-1)-dimensional
    sum-to-zero subspace.
    """
    z = np.asarray(z, dtype=float)
    if tau_z <= 0:
        raise DomainError(f"tau_z must be positive, got {tau_z}")
    return rw1_logdensity_from_quad(z.size, tau_z, rw1_quad_form(z))


def rw1_logdensity_from_quad(n: int, tau_z: float, quad: float) -> float:
    """Constrained RW1 log-density of a centred n-vector z from its quadratic form.

    The nonzero eigenvalues of the path-graph Laplacian K multiply to exactly
    n (matrix-tree theorem), so its log pseudo-determinant is log(n).
    """
    return 0.5 * (n - 1) * math.log(tau_z / (2.0 * math.pi)) + 0.5 * math.log(n) \
        - 0.5 * tau_z * quad


def sample_rw1_constrained(n: int, tau_z: float, rng) -> np.ndarray:
    """Exact draw from the sum-to-zero constrained RW1 via the spectral basis."""
    if n == 1:
        return np.zeros(1)
    k = np.arange(1, n)
    lam = rw1_eigenvalues(n)
    # orthonormal DCT-II style eigenvectors of the RW1 structure matrix
    j = np.arange(n)
    vecs = np.cos(math.pi * np.outer(k, j + 0.5) / n) * math.sqrt(2.0 / n)
    eps = rng.standard_normal(n - 1)
    z = vecs.T @ (eps / np.sqrt(tau_z * lam))
    return z - z.mean()  # numerical tidy-up; already sums to ~0
