"""Extended Generalized Pareto distribution in upper-endpoint form.

The family composes a power transform G(u) = u**kappa with a GPD whose
shape is negative, so the law has a finite upper endpoint delta = -sigma/xi
and an extra lower-tail shape kappa.  The public functions taking
EgpdParams validate their inputs and accept scalars or numpy arrays for the
data argument.  The kernels (egpd_logpdf_kernel, egpd_quantile_kernel,
gpd_log_sf, gpd_isf, egpd_draw) skip validation and broadcast over per-cell parameters;
they are the only copies of these formulas in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_rules

# Below this |xi| the GPD CDF switches to the exponential branch to avoid
# catastrophic cancellation in (1 + xi*y/sigma)**(-1/xi).
XI_EXP_SWITCH = 1e-8


@dataclass(frozen=True)
class GpdParams:
    """Generalized Pareto parameters: scale sigma > 0, shape xi."""

    sigma: float
    xi: float

    def __post_init__(self):
        check_rules([(("sigma",), "must be finite and > 0", 0.0 < self.sigma < math.inf),
                     (("xi",), "must be finite", -math.inf < self.xi < math.inf)])

    @property
    def endpoint(self) -> float:
        """Upper support endpoint -sigma/xi; +inf when xi >= 0."""
        if self.xi < 0:
            return -self.sigma / self.xi
        return math.inf


@dataclass(frozen=True)
class EgpdParams:
    """Endpoint-form EGPD: endpoint delta > 0, shape xi < 0, lower-tail kappa > 0."""

    delta: float
    xi: float
    kappa: float

    def __post_init__(self):
        check_rules([(("delta",), "must be finite and > 0", 0.0 < self.delta < math.inf),
                     (("xi",), "must be finite and < 0 (endpoint form)",
                      -math.inf < self.xi < 0.0),
                     (("kappa",), "must be finite and > 0", 0.0 < self.kappa < math.inf)])

    @property
    def sigma(self) -> float:
        """Implied GPD scale sigma = -xi * delta."""
        return -self.xi * self.delta

    def to_gpd(self) -> GpdParams:
        return GpdParams(sigma=self.sigma, xi=self.xi)


def _check_data(y, name="y"):
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError(f"{name} must be finite")
    if np.any(y < 0):
        raise DomainError(f"{name} must be nonnegative")
    return y


def gpd_cdf(y, p: GpdParams):
    """GPD CDF, exponential branch when |xi| < XI_EXP_SWITCH."""
    y = _check_data(y)
    if abs(p.xi) < XI_EXP_SWITCH:
        out = -np.expm1(-y / p.sigma)
    else:
        base = np.maximum(1.0 + p.xi * y / p.sigma, 0.0)
        out = 1.0 - base ** (-1.0 / p.xi)
    return np.clip(out, 0.0, 1.0) if out.ndim else float(np.clip(out, 0.0, 1.0))


def egpd_cdf(y, p: EgpdParams):
    """EGPD CDF (1 - (1 - y/delta)_+**(-1/xi))**kappa; 1 for y >= delta."""
    y = _check_data(y)
    # the expm1 form keeps full precision when the GPD survival is close to 1
    h = -np.expm1(gpd_log_sf(y, p.delta, p.xi))
    out = np.clip(h, 0.0, 1.0) ** p.kappa
    return out if out.ndim else float(out)


def gpd_log_sf(y, delta, xi):
    """Log survival of the endpoint-form GPD, log((1 - y/delta)_+**(-1/xi)).

    The positive-part clamp gives -inf (survival 0) at and beyond delta
    rather than NaN.  Broadcasts over all arguments.
    """
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(1.0 - y / delta, 0.0)) * (-1.0 / xi)


def egpd_quantile(u, p: EgpdParams):
    """Inverse EGPD CDF: delta * (1 - (1 - u**(1/kappa))**(-xi))."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)) or np.any(u < 0) or np.any(u > 1):
        raise DomainError("u must lie in [0, 1]")
    out = np.clip(egpd_quantile_kernel(u, p.delta, p.xi, p.kappa), 0.0, p.delta)
    return out if out.ndim else float(out)


def egpd_quantile_kernel(u, delta, xi, kappa):
    """Unchecked inverse CDF, broadcasting over all arguments."""
    # expm1/log forms avoid cancellation in 1 - u**(1/kappa) near both ends
    with np.errstate(divide="ignore"):
        return gpd_isf(-np.expm1(np.log(u) / kappa), delta, xi)


def gpd_isf(tail, delta, xi):
    """Endpoint-form GPD value whose survival probability is ``tail``.

    delta * (1 - tail**(-xi)) in expm1/log form; broadcasts over all arguments.
    """
    with np.errstate(divide="ignore"):
        return delta * -np.expm1(np.log(tail) * (-xi))


def egpd_logpdf(y, p: EgpdParams):
    """Log density of the EGPD; -inf outside the open support (0, delta)."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DomainError("y must be finite")
    out = egpd_logpdf_kernel(y, p.delta, p.xi, p.kappa)
    return out if out.ndim else float(out)


def egpd_logpdf_kernel(y, delta, xi, kappa):
    """Unchecked log density, broadcasting over all arguments; -inf off support."""
    inside = (y > 0.0) & (y < delta)
    # log(1 - y/delta) via log1p keeps full precision when y/delta is tiny;
    # 0.5 is a placeholder outside the support
    log_base = np.log1p(-np.where(inside, y / delta, 0.5))
    # GPD density in endpoint form: h(y) = (1/sigma) * (1 - y/delta)**(-1/xi - 1)
    log_h = -np.log(-xi * delta) + (-1.0 / xi - 1.0) * log_base
    # log H(y) = log(1 - (1 - y/delta)**(-1/xi))
    log_big_h = np.log(-np.expm1(log_base * (-1.0 / xi)))
    return np.where(inside, np.log(kappa) + log_h + (kappa - 1.0) * log_big_h, -np.inf)


def egpd_draw(rng, delta, xi, kappa):
    """One draw per cell of ``delta``, kept strictly inside the open support (0, delta)."""
    vals = egpd_quantile_kernel(rng.random(np.shape(delta)), delta, xi, kappa)
    # rounding can otherwise land exactly on 0 or the endpoint and zero out
    # the likelihood
    return np.clip(vals, delta * 1e-12, delta * (1.0 - 1e-12))


def egpd_sample(n: int, p: EgpdParams, rng) -> np.ndarray:
    """n i.i.d. draws of the law ``p`` through egpd_draw.

    ``rng`` is a numpy Generator or a seed acceptable to default_rng.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return egpd_draw(np.random.default_rng(rng), np.full(n, p.delta), p.xi, p.kappa)
