"""Quantile-matching calibration maps.

A calibration map sends a value through the source CDF and back out through
the target quantile function, so calibrated data inherits the target
distribution.  Source and target laws may each be a fitted EGPD or an
empirical CDF built from a sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .egpd import EgpdParams, egpd_cdf, egpd_quantile, gpd_isf, gpd_log_sf
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


Law = EgpdParams | EmpiricalCdf


def _law_cdf(x, law: Law):
    if isinstance(law, EgpdParams):
        # values past the fitted endpoint are clamped to it (flag handled
        # by callers that track clamping)
        return egpd_cdf(np.minimum(x, law.delta), law)
    return law.cdf(x)


def _law_quantile(u, law: Law):
    if isinstance(law, EgpdParams):
        return egpd_quantile(u, law)
    return law.quantile(u)


@dataclass(frozen=True)
class CalibrationMap:
    """Monotone map x -> F_target^{-1}(F_source(x))."""

    source: Law
    target: Law

    def __call__(self, x):
        if isinstance(self.source, EgpdParams) and isinstance(self.target, EgpdParams):
            return conditional_calibrate(x, self.source, self.target)
        return _law_quantile(_law_cdf(x, self.source), self.target)


def marginal_calibrate(x, cal_map: CalibrationMap) -> np.ndarray:
    """Apply a calibration map elementwise; NaN inputs stay NaN."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, np.nan)
    ok = ~np.isnan(x)
    if np.any(ok):
        out[ok] = cal_map(x[ok])
    return out


def conditional_calibrate(x, px: EgpdParams, py: EgpdParams):
    """Per-cell parametric map egpd_quantile(egpd_cdf(x, px), py).

    Values above the source endpoint are clamped to it first.
    """
    value, _ = conditional_calibrate_flagged(x, px, py)
    return value


def conditional_calibrate_flagged(x, px: EgpdParams, py: EgpdParams):
    """Like conditional_calibrate but also returns the clamp indicator(s)."""
    x = np.asarray(x, dtype=float)
    value, clamped = conditional_map(x, px.delta, px.xi, px.kappa, py.delta, py.xi, py.kappa)
    if x.ndim == 0:
        return float(value), bool(clamped)
    return np.asarray(value), clamped


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
