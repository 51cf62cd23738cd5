"""Joint Bayesian model for observed and simulated panels with EGPD margins.

Per-cell upper endpoints follow shifted-exponential laws whose rates are
log-linear in a shared spatial field over stations and a shared RW1
temporal field over days.  Inference is adaptive Metropolis-within-Gibbs
with a fixed update order and Robbins-Monro scale tuning frozen after
burn-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit, gammaln, logit

from .draws import SCALAR_NAMES, PosteriorDraws
from .egpd import egpd_draw, egpd_logpdf_kernel
from .errors import DataValidationError, DomainError, NumericalError
from .latent import (
    CholFactor,
    cholesky_correlation,
    rw1_logdensity_from_quad,
    rw1_quad_form,
    sample_rw1_constrained,
    sample_spatial_field,
    spatial_correlation,
    spatial_logdensity_from_quad,
    StationNetwork,
)

TARGET_ACCEPT = 0.44


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of every prior; Gamma is shape-rate."""

    beta_mean: float = 0.0
    beta_precision: float = 0.01
    kappa_shape: float = 0.05
    kappa_rate: float = 0.05
    xi_low: float = -0.5
    xi_high: float = 0.0
    tau_shape: float = 1.0
    tau_rate: float = 0.1
    alpha_low: float = 0.1
    alpha_high: float = 0.5


@dataclass(frozen=True)
class McmcConfig:
    iterations: int = 4000
    burn_in: int = 1000
    thinning: int = 5
    chains: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.thinning < 1:
            raise DomainError("thinning must be >= 1")
        if self.iterations == 0:
            if self.burn_in != 0:
                raise DomainError("zero-iteration run requires zero burn-in")
        elif not 0 <= self.burn_in < self.iterations:
            raise DomainError("burn-in must satisfy 0 <= burn_in < iterations")
        if self.chains < 1:
            raise DomainError("need at least one chain")


@dataclass
class ModelState:
    """One point in the posterior."""

    beta_y: float
    beta_x: float
    kappa_y: float
    kappa_x: float
    xi_y: float
    xi_x: float
    alpha: float
    tau_w: float
    tau_z: float
    w: np.ndarray        # (N_s,)
    z: np.ndarray        # (T,)
    delta_y: np.ndarray  # (N, T)
    delta_x: np.ndarray  # (N_s, T)

    def copy(self) -> "ModelState":
        return replace(self, w=self.w.copy(), z=self.z.copy(),
                       delta_y=self.delta_y.copy(), delta_x=self.delta_x.copy())


@dataclass(frozen=True, eq=False)
class Margin:
    """One panel of the joint model and the ModelState slots of its EGPD margin.

    The observed panel ("y") covers the observed stations and may miss
    cells; the simulated panel ("x") is complete and covers every station.
    """

    name: str
    data: np.ndarray          # panel values, a placeholder in missing cells
    mask: np.ndarray | None   # True where a value exists; None for a complete panel
    shift: float              # start of the shifted-exponential endpoint prior
    rows: np.ndarray          # station index of each panel row
    beta: str
    kappa: str
    xi: str
    delta: str

    @classmethod
    def of(cls, name: str, values, shift: float, rows) -> "Margin":
        missing = np.isnan(values)
        mask = ~missing if missing.any() else None
        data = values if mask is None else np.where(mask, values, 0.5)
        return cls(name, data, mask, shift, rows,
                   f"beta_{name}", f"kappa_{name}", f"xi_{name}", f"delta_{name}")

    def params(self, state: ModelState):
        """(delta, xi, kappa) of this margin in ``state``."""
        return getattr(state, self.delta), getattr(state, self.xi), getattr(state, self.kappa)

    def loglik(self, delta, xi, kappa):
        """Per-cell EGPD log-likelihood; 0 in missing cells."""
        grid = egpd_logpdf_kernel(self.data, delta, xi, kappa)
        return grid if self.mask is None else np.where(self.mask, grid, 0.0)


def rates(beta, w_rows, z):
    """Endpoint-prior rates lambda(i, j) = exp(beta + w_i + z_j) for the given station rows."""
    eta = beta + w_rows[:, None] + z[None, :]
    with np.errstate(over="ignore"):
        return np.exp(eta)


def _gamma_logpdf(x, shape, rate):
    if x <= 0:
        return -np.inf
    return shape * math.log(rate) - gammaln(shape) + (shape - 1.0) * math.log(x) - rate * x


def _normal_logpdf(x, mean, precision):
    return 0.5 * math.log(precision / (2.0 * math.pi)) - 0.5 * precision * (x - mean) ** 2


class HierarchicalModel:
    """Posterior kernel for one (observed panel, simulated panel, network) triple.

    Shifts of the endpoint priors default to the respective panel maxima;
    they can be fixed explicitly, which the simulation-based tests rely on.
    """

    def __init__(self, y, x, net: StationNetwork, priors: PriorSpec = PriorSpec(),
                 correlation_family: str = "disc",
                 shift_y: float | None = None, shift_x: float | None = None):
        y = np.asarray(y, dtype=float)
        x = np.asarray(x, dtype=float)
        if x.shape[0] != net.n_total:
            raise DataValidationError("simulated panel must cover all stations")
        if y.shape[0] != net.n_observed:
            raise DataValidationError("observed panel must cover exactly the observed stations")
        if y.shape[1] != x.shape[1]:
            raise DataValidationError("panels must share the time axis")
        if np.any(np.isnan(x)):
            raise DataValidationError("simulated panel must be complete")
        if np.any(y[~np.isnan(y)] < 0) or np.min(x) < 0:
            raise DataValidationError("panel values must be nonnegative")
        if np.all(np.isnan(y)):
            raise DataValidationError("observed panel has no data")

        self.net = net
        # defaulted shifts sit at the panel maxima; explicit shifts may be
        # below them (the likelihood still enforces delta > every datum)
        self.shift_y = float(np.nanmax(y)) if shift_y is None else float(shift_y)
        self.shift_x = float(np.max(x)) if shift_x is None else float(shift_x)
        self.priors = priors
        self.family = correlation_family
        self.d = net.scaled_distances
        self.obs_idx = net.observed_indices
        self.n_obs, self.n_total = y.shape[0], x.shape[0]
        self.n_times = y.shape[1]
        self.replace_data(y, x)

    def replace_data(self, y, x) -> None:
        """Swap the panels in place, keeping the shifts.

        The caller guarantees the new data respects the fixed shifts.
        """
        self.y = np.asarray(y, dtype=float)
        self.x = np.asarray(x, dtype=float)
        self.y_mask = ~np.isnan(self.y)
        self.margins = (Margin.of("y", self.y, self.shift_y, self.obs_idx),
                        Margin.of("x", self.x, self.shift_x, np.arange(self.n_total)))

    # -- correlation factor ------------------------------------------------

    def chol_factor(self, alpha: float) -> CholFactor:
        corr = spatial_correlation(self.d, alpha, self.family)
        return cholesky_correlation(corr, alpha_label=alpha)

    def delta_prior_grid(self, lam, delta, shift):
        """Shifted-exponential log-densities per cell; -inf where delta <= shift."""
        gap = delta - shift
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(gap > 0, np.log(lam) - lam * gap, -np.inf)
        return out

    # -- likelihood / prior / posterior --------------------------------------

    def log_likelihood(self, state: ModelState) -> float:
        if not self._in_box(state):
            return -np.inf
        return float(sum(mg.loglik(*mg.params(state)).sum() for mg in self.margins))

    def _in_box(self, state: ModelState) -> bool:
        p = self.priors
        return (all(getattr(state, mg.kappa) > 0 and p.xi_low < getattr(state, mg.xi) < p.xi_high
                    for mg in self.margins)
                and p.alpha_low < state.alpha < p.alpha_high
                and state.tau_w > 0 and state.tau_z > 0)

    def log_prior(self, state: ModelState) -> float:
        if not self._in_box(state):
            return -np.inf
        factor = self.chol_factor(state.alpha)
        grids = [self.delta_prior_grid(rates(getattr(state, mg.beta), state.w[mg.rows], state.z),
                                       getattr(state, mg.delta), mg.shift)
                 for mg in self.margins]
        return self.prior_terms(state, factor.logdet, factor.quad_form(state.w),
                                rw1_quad_form(state.z), grids)

    def prior_terms(self, state: ModelState, logdet_w, quad_w, quad_z, endpoint_grids) -> float:
        """Log-prior of an in-box state given its latent-field pieces.

        ``logdet_w`` and ``quad_w`` are log det(R) and w' R^-1 w for the
        spatial correlation R; ``quad_z`` is the RW1 quadratic form and
        ``endpoint_grids`` the per-margin endpoint-prior grids.  log_prior
        computes them from scratch, the sampler passes its cached ones.
        """
        p = self.priors
        out = 0.0
        for mg in self.margins:
            out += _normal_logpdf(getattr(state, mg.beta), p.beta_mean, p.beta_precision)
        for mg in self.margins:
            out += _gamma_logpdf(getattr(state, mg.kappa), p.kappa_shape, p.kappa_rate)
        out -= len(self.margins) * math.log(p.xi_high - p.xi_low)
        out += _gamma_logpdf(state.tau_w, p.tau_shape, p.tau_rate)
        out += _gamma_logpdf(state.tau_z, p.tau_shape, p.tau_rate)
        out -= math.log(p.alpha_high - p.alpha_low)
        out += spatial_logdensity_from_quad(state.w.size, state.tau_w, logdet_w, quad_w)
        out += rw1_logdensity_from_quad(state.z.size, state.tau_z, quad_z)
        out += float(sum(grid.sum() for grid in endpoint_grids))
        return out

    def log_posterior(self, state: ModelState) -> float:
        lp = self.log_prior(state)
        if not np.isfinite(lp):
            return -np.inf
        return lp + self.log_likelihood(state)

    # -- forward simulation ---------------------------------------------------

    def sample_prior_state(self, rng) -> ModelState:
        """Forward draw of every unknown given the fixed shifts."""
        p = self.priors
        draw = {}
        for mg in self.margins:
            draw[mg.beta] = rng.normal(p.beta_mean, 1.0 / math.sqrt(p.beta_precision))
        for mg in self.margins:
            draw[mg.kappa] = rng.gamma(p.kappa_shape, 1.0 / p.kappa_rate)
        for mg in self.margins:
            draw[mg.xi] = rng.uniform(p.xi_low, p.xi_high)
        alpha = rng.uniform(p.alpha_low, p.alpha_high)
        tau_w = rng.gamma(p.tau_shape, 1.0 / p.tau_rate)
        tau_z = rng.gamma(p.tau_shape, 1.0 / p.tau_rate)
        w = sample_spatial_field(self.chol_factor(alpha), tau_w, rng)
        z = sample_rw1_constrained(self.n_times, tau_z, rng)
        for mg in self.margins:
            lam = rates(draw[mg.beta], w[mg.rows], z)
            draw[mg.delta] = mg.shift + rng.exponential(1.0 / lam)
        return ModelState(alpha=alpha, tau_w=tau_w, tau_z=tau_z, w=w, z=z, **draw)

    def sample_panels(self, state: ModelState, rng):
        """Draw (y, x) panels from the EGPD cells of the given state."""
        y, x = (egpd_draw(rng, *mg.params(state)) for mg in self.margins)
        return np.where(self.y_mask, y, np.nan), x

    # -- initialization ---------------------------------------------------------

    def initialize_state(self, seed=None) -> ModelState:
        sd_y = float(np.nanstd(self.y))
        sd_x = float(np.std(self.x))
        if sd_y <= 0 or sd_x <= 0:
            raise DataValidationError("degenerate (constant) panel; cannot initialize")
        state = ModelState(
            beta_y=0.0, beta_x=0.0, kappa_y=1.0, kappa_x=1.0,
            xi_y=-0.1, xi_x=-0.1, alpha=0.3, tau_w=1.0, tau_z=1.0,
            w=np.zeros(self.n_total), z=np.zeros(self.n_times),
            delta_y=np.full((self.n_obs, self.n_times),
                            max(self.shift_y, float(np.nanmax(self.y))) + sd_y),
            delta_x=np.full((self.n_total, self.n_times),
                            max(self.shift_x, float(np.max(self.x))) + sd_x),
        )
        lp = self.log_posterior(state)
        if not np.isfinite(lp):
            raise NumericalError("initial state has non-finite log-posterior")
        return state


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

def _logit_box(x, lo, hi):
    return logit((x - lo) / (hi - lo))


def _expit_box(t, lo, hi):
    return lo + (hi - lo) * expit(t)


def _log_jac_box(t, lo, hi):
    # |dx/dt| = (hi - lo) * p * (1 - p) for p = expit(t)
    return math.log(hi - lo) - t - 2.0 * math.log1p(math.exp(-t)) if t > 0 else \
        math.log(hi - lo) + t - 2.0 * math.log1p(math.exp(t))


class MwgSampler:
    """Adaptive single-site Metropolis-within-Gibbs over a HierarchicalModel.

    Update order per sweep is fixed: betas, kappas, xis (each y then x),
    alpha, taus, each spatial site, each day (with recentring), then both
    endpoint panels in one vectorized block each.
    """

    def __init__(self, model: HierarchicalModel, state: ModelState, rng):
        self.model = model
        self.state = state.copy()
        self.rng = rng
        self.adapting = True
        self.iteration = 0
        self.log_scales = {name: math.log(0.1) for name in SCALAR_NAMES}
        self.log_scales["w"] = np.full(model.n_total, math.log(0.3))
        self.log_scales["z"] = np.full(model.n_times, math.log(0.3))
        for mg in model.margins:
            self.log_scales[mg.delta] = math.log(1.0)
        self.accept_counts = {k: 0.0 for k in self.log_scales}
        self.proposal_counts = {k: 0.0 for k in self.log_scales}
        self.refresh_cache()

    # cached pieces of the log-posterior, per margin name; every update
    # maintains them
    def refresh_cache(self):
        m, s = self.model, self.state
        self.factor = m.chol_factor(s.alpha)
        self.quad_w = self.factor.quad_form(s.w)
        self.quad_z = rw1_quad_form(s.z)
        self.lam, self.prior, self.ll = {}, {}, {}
        for mg in m.margins:
            k = mg.name
            self.lam[k] = rates(getattr(s, mg.beta), s.w[mg.rows], s.z)
            self.prior[k] = m.delta_prior_grid(self.lam[k], getattr(s, mg.delta), mg.shift)
            self.ll[k] = mg.loglik(*mg.params(s))
            if not (np.isfinite(self.prior[k].sum()) and np.isfinite(self.ll[k].sum())):
                raise NumericalError("non-finite log-posterior component at sampler start")

    def log_posterior(self) -> float:
        margins = self.model.margins
        out = self.model.prior_terms(self.state, self.factor.logdet, self.quad_w, self.quad_z,
                                     [self.prior[mg.name] for mg in margins])
        return out + float(sum(self.ll[mg.name].sum() for mg in margins))

    # -- bookkeeping ------------------------------------------------------------

    def _adapt(self, name, accepted, idx=None):
        self.proposal_counts[name] += 1 if np.isscalar(accepted) else np.size(accepted)
        self.accept_counts[name] += float(np.sum(accepted))
        if not self.adapting:
            return
        gamma = (self.iteration + 1) ** -0.6
        move = gamma * (float(np.mean(accepted)) - TARGET_ACCEPT)
        if idx is None:
            if isinstance(self.log_scales[name], np.ndarray):
                self.log_scales[name] += move
            else:
                self.log_scales[name] = float(np.clip(self.log_scales[name] + move, -15.0, 10.0))
        else:
            self.log_scales[name][idx] = np.clip(self.log_scales[name][idx] + move, -15.0, 10.0)

    def _accept(self, log_ratio) -> bool:
        if not np.isfinite(log_ratio):
            return False
        return math.log(self.rng.uniform()) < log_ratio

    # -- scalar updates -----------------------------------------------------------

    def _update_beta(self, mg: Margin):
        m, s = self.model, self.state
        p = m.priors
        cur = getattr(s, mg.beta)
        prop = cur + math.exp(self.log_scales[mg.beta]) * self.rng.standard_normal()
        lam_new = rates(prop, s.w[mg.rows], s.z)
        prior_new = m.delta_prior_grid(lam_new, getattr(s, mg.delta), mg.shift)
        log_ratio = prior_new.sum() - self.prior[mg.name].sum() \
            + _normal_logpdf(prop, p.beta_mean, p.beta_precision) \
            - _normal_logpdf(cur, p.beta_mean, p.beta_precision)
        acc = self._accept(log_ratio)
        if acc:
            setattr(s, mg.beta, prop)
            self.lam[mg.name], self.prior[mg.name] = lam_new, prior_new
        self._adapt(mg.beta, acc)

    def _update_kappa(self, mg: Margin):
        m, s = self.model, self.state
        p = m.priors
        cur = getattr(s, mg.kappa)
        prop = cur * math.exp(math.exp(self.log_scales[mg.kappa]) * self.rng.standard_normal())
        if prop <= 0 or not np.isfinite(prop):
            self._adapt(mg.kappa, False)
            return
        delta, xi, _ = mg.params(s)
        ll_new = mg.loglik(delta, xi, prop)
        log_ratio = ll_new.sum() - self.ll[mg.name].sum() \
            + _gamma_logpdf(prop, p.kappa_shape, p.kappa_rate) \
            - _gamma_logpdf(cur, p.kappa_shape, p.kappa_rate) \
            + math.log(prop) - math.log(cur)  # log-scale Jacobian
        acc = self._accept(log_ratio)
        if acc:
            setattr(s, mg.kappa, prop)
            self.ll[mg.name] = ll_new
        self._adapt(mg.kappa, acc)

    def _update_xi(self, mg: Margin):
        m, s = self.model, self.state
        p = m.priors
        cur = getattr(s, mg.xi)
        t_cur = _logit_box(cur, p.xi_low, p.xi_high)
        t_prop = t_cur + math.exp(self.log_scales[mg.xi]) * self.rng.standard_normal()
        prop = _expit_box(t_prop, p.xi_low, p.xi_high)
        if not (p.xi_low < prop < p.xi_high):
            self._adapt(mg.xi, False)
            return
        delta, _, kappa = mg.params(s)
        ll_new = mg.loglik(delta, prop, kappa)
        log_ratio = ll_new.sum() - self.ll[mg.name].sum() \
            + _log_jac_box(t_prop, p.xi_low, p.xi_high) \
            - _log_jac_box(t_cur, p.xi_low, p.xi_high)
        acc = self._accept(log_ratio)
        if acc:
            setattr(s, mg.xi, prop)
            self.ll[mg.name] = ll_new
        self._adapt(mg.xi, acc)

    def _update_alpha(self):
        m, s = self.model, self.state
        p = m.priors
        t_cur = _logit_box(s.alpha, p.alpha_low, p.alpha_high)
        t_prop = t_cur + math.exp(self.log_scales["alpha"]) * self.rng.standard_normal()
        prop = _expit_box(t_prop, p.alpha_low, p.alpha_high)
        if not (p.alpha_low < prop < p.alpha_high):
            self._adapt("alpha", False)
            return
        try:
            factor_new = m.chol_factor(prop)
        except NumericalError:
            self._adapt("alpha", False)
            return
        quad_new = factor_new.quad_form(s.w)
        log_ratio = -0.5 * (factor_new.logdet - self.factor.logdet) \
            - 0.5 * s.tau_w * (quad_new - self.quad_w) \
            + _log_jac_box(t_prop, p.alpha_low, p.alpha_high) \
            - _log_jac_box(t_cur, p.alpha_low, p.alpha_high)
        acc = self._accept(log_ratio)
        if acc:
            s.alpha = prop
            self.factor = factor_new
            self.quad_w = quad_new
        self._adapt("alpha", acc)

    def _update_tau(self, which: str):
        m, s = self.model, self.state
        p = m.priors
        cur = getattr(s, which)
        prop = cur * math.exp(math.exp(self.log_scales[which]) * self.rng.standard_normal())
        if prop <= 0 or not np.isfinite(prop):
            self._adapt(which, False)
            return
        # (degrees of freedom, quadratic form) of the field this precision scales
        n_eff, quad = {"tau_w": (s.w.size, self.quad_w),
                       "tau_z": (s.z.size - 1, self.quad_z)}[which]
        log_ratio = 0.5 * n_eff * (math.log(prop) - math.log(cur)) \
            - 0.5 * quad * (prop - cur) \
            + _gamma_logpdf(prop, p.tau_shape, p.tau_rate) \
            - _gamma_logpdf(cur, p.tau_shape, p.tau_rate) \
            + math.log(prop) - math.log(cur)
        acc = self._accept(log_ratio)
        if acc:
            setattr(s, which, prop)
        self._adapt(which, acc)

    # -- latent field updates ------------------------------------------------------

    def _update_w(self):
        m, s = self.model, self.state
        row_of = [(mg, {int(site): r for r, site in enumerate(mg.rows)}) for mg in m.margins]
        for i in range(m.n_total):
            step = math.exp(self.log_scales["w"][i]) * self.rng.standard_normal()
            w_new = s.w.copy()
            w_new[i] += step
            quad_new = self.factor.quad_form(w_new)
            log_ratio = -0.5 * s.tau_w * (quad_new - self.quad_w)
            new_rows = []
            for mg, rows in row_of:
                r = rows.get(i)
                if r is None:
                    continue
                lam_row = rates(getattr(s, mg.beta), w_new[i:i + 1], s.z)[0]
                prior_row = m.delta_prior_grid(lam_row[None, :], getattr(s, mg.delta)[r:r + 1],
                                               mg.shift)[0]
                log_ratio += prior_row.sum() - self.prior[mg.name][r].sum()
                new_rows.append((mg.name, r, lam_row, prior_row))
            acc = self._accept(log_ratio)
            if acc:
                s.w = w_new
                self.quad_w = quad_new
                for k, r, lam_row, prior_row in new_rows:
                    self.lam[k][r] = lam_row
                    self.prior[k][r] = prior_row
            self._adapt("w", acc, idx=i)

    def _update_z(self):
        # proposal direction e_j - 1/T keeps sum(z) = 0 and is symmetric
        m, s = self.model, self.state
        t = m.n_times
        for j in range(t):
            eps = math.exp(self.log_scales["z"][j]) * self.rng.standard_normal()
            dz = np.full(t, -eps / t)
            dz[j] += eps
            z_new = s.z + dz
            quad_new = rw1_quad_form(z_new)
            scale = np.exp(dz)
            log_ratio = -0.5 * s.tau_z * (quad_new - self.quad_z)
            lam_new, prior_new = {}, {}
            for mg in m.margins:
                k = mg.name
                lam_new[k] = self.lam[k] * scale[None, :]
                prior_new[k] = m.delta_prior_grid(lam_new[k], getattr(s, mg.delta), mg.shift)
                log_ratio = log_ratio + prior_new[k].sum() - self.prior[k].sum()
            acc = self._accept(log_ratio)
            if acc:
                s.z = z_new
                self.quad_z = quad_new
                self.lam, self.prior = lam_new, prior_new
            self._adapt("z", acc, idx=j)

    # -- endpoint panels -------------------------------------------------------------

    def _update_delta(self, mg: Margin):
        m, s = self.model, self.state
        k = mg.name
        delta, xi, kappa = mg.params(s)
        lam, ll, prior = self.lam[k], self.ll[k], self.prior[k]
        v = np.log(delta - mg.shift)
        v_new = v + math.exp(self.log_scales[mg.delta]) * self.rng.standard_normal(v.shape)
        gap_new = np.exp(v_new)
        ok = gap_new > 0  # reject proposals that underflow the shift gap
        delta_new = mg.shift + gap_new
        ll_new = mg.loglik(delta_new, xi, kappa)
        prior_new = m.delta_prior_grid(lam, delta_new, mg.shift)
        with np.errstate(invalid="ignore"):
            log_ratio = (ll_new - ll) + (prior_new - prior) + (v_new - v)
        log_u = np.log(self.rng.uniform(size=v.shape))
        acc = ok & np.isfinite(log_ratio) & (log_u < log_ratio)
        setattr(s, mg.delta, np.where(acc, delta_new, delta))
        self.ll[k] = np.where(acc, ll_new, ll)
        self.prior[k] = np.where(acc, prior_new, prior)
        self._adapt(mg.delta, acc)

    # -- one sweep --------------------------------------------------------------------

    def sweep(self):
        margins = self.model.margins
        for update in (self._update_beta, self._update_kappa, self._update_xi):
            for mg in margins:
                update(mg)
        self._update_alpha()
        self._update_tau("tau_w")
        self._update_tau("tau_z")
        self._update_w()
        self._update_z()
        for mg in margins:
            self._update_delta(mg)
        self.iteration += 1

    def acceptance_rates(self) -> dict:
        return {k: (self.accept_counts[k] / self.proposal_counts[k]
                    if self.proposal_counts[k] else float("nan"))
                for k in self.accept_counts}


def run_chain(model: HierarchicalModel, cfg: McmcConfig, rng,
              init: ModelState | None = None, chain_index: int = 0) -> PosteriorDraws:
    """Run one chain and return the thinned post-burn-in draws."""
    state = model.initialize_state() if init is None else init
    sampler = MwgSampler(model, state, rng)
    kept, logpost = [], []
    if cfg.iterations == 0:
        kept.append(sampler.state.copy())
        logpost.append(sampler.log_posterior())
    for it in range(cfg.iterations):
        if it == cfg.burn_in:
            sampler.adapting = False
            # acceptance statistics restart post burn-in
            for k in sampler.accept_counts:
                sampler.accept_counts[k] = 0.0
                sampler.proposal_counts[k] = 0.0
        sampler.sweep()
        logpost.append(sampler.log_posterior())
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thinning == 0:
            kept.append(sampler.state.copy())
    return PosteriorDraws.from_states(
        kept, chain_index=chain_index, log_posterior=np.asarray(logpost),
        acceptance=sampler.acceptance_rates(),
        shift_y=model.shift_y, shift_x=model.shift_x)


def run_mcmc(model: HierarchicalModel, cfg: McmcConfig) -> PosteriorDraws:
    """Run cfg.chains independent chains (split RNG streams) and merge draws."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)
    parts = [run_chain(model, cfg, np.random.default_rng(ss), chain_index=c)
             for c, ss in enumerate(seeds)]
    return PosteriorDraws.merge(parts)
