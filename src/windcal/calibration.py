"""Quantile-matching calibration maps, one per law family.

A calibration map sends a value through the source CDF and back out through
the target quantile function, so calibrated data inherits the target
distribution.  Empirical laws map through ``CalibrationMap``; fitted EGPD
laws map through ``conditional_map``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .egpd import EgpdParams, gpd_isf, gpd_log_sf
from .errors import DomainError


@dataclass(frozen=True)
class EmpiricalCdf:
    """Piecewise-linear empirical CDF on the (k - 0.5)/n plotting positions.

    NaNs in the input sample are dropped (and counted) before sorting.
    """

    values: np.ndarray
    n_missing: int = 0

    @classmethod
    def from_sample(cls, sample) -> "EmpiricalCdf":
        sample = np.asarray(sample, dtype=float).ravel()
        n_missing = int(np.isnan(sample).sum())
        clean = np.sort(sample[~np.isnan(sample)])
        if clean.size == 0:
            raise DomainError("empirical CDF needs at least one non-missing value")
        return cls(values=clean, n_missing=n_missing)

    @property
    def positions(self) -> np.ndarray:
        n = self.values.size
        return (np.arange(1, n + 1) - 0.5) / n

    def cdf(self, x):
        out = np.interp(x, self.values, self.positions)
        return out

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if np.any((u < 0) | (u > 1)):
            raise DomainError("u must lie in [0, 1]")
        out = np.interp(u, self.positions, self.values)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class CalibrationMap:
    """Monotone empirical map x -> F_target^{-1}(F_source(x)); NaN stays NaN."""

    source: EmpiricalCdf
    target: EmpiricalCdf

    def __call__(self, x):
        return self.target.quantile(self.source.cdf(x))


def conditional_calibrate(x, px: EgpdParams, py: EgpdParams):
    """Values of ``conditional_map`` from law ``px`` to law ``py``; float for scalar x."""
    value, _ = conditional_map(np.asarray(x, dtype=float), px.delta, px.xi, px.kappa,
                               py.delta, py.xi, py.kappa)
    return value if value.ndim else float(value)


def conditional_map(x, delta_x, xi_x, kappa_x, delta_y, xi_y, kappa_y):
    """Per-cell map from source EGPD (x) to target EGPD (y) laws, and clamp flags.

    Broadcasts over all arguments.  Values above the source endpoint are
    clamped to it.  The map is computed in a fused expm1/log1p form rather
    than by composing egpd_cdf and egpd_quantile, which keeps full precision
    near the endpoints (in particular identical laws give back x to ~1e-15
    relative).
    """
    clamped = x > delta_x
    s = np.exp(gpd_log_sf(np.minimum(x, delta_x), delta_x, xi_x))  # 1 - H_x(x)
    with np.errstate(divide="ignore"):
        t = -np.expm1((kappa_x / kappa_y) * np.log1p(-s))  # 1 - u**(1/kappa_y)
    return np.clip(gpd_isf(t, delta_y, xi_y), 0.0, delta_y), clamped
