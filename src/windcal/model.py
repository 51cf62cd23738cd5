"""Joint Bayesian model for observed and simulated panels with EGPD margins.

Per-cell upper endpoints follow shifted-exponential laws whose rates are
log-linear in a shared spatial field over stations and a shared RW1
temporal field over days.  Inference is adaptive Metropolis-within-Gibbs
with a fixed update order and Robbins-Monro scale tuning frozen after
burn-in.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from contextlib import suppress
from dataclasses import dataclass
from operator import methodcaller
from typing import Callable, NamedTuple

import numpy as np

from .draws import SCALAR_NAMES, ModelState, PosteriorDraws
from .egpd import egpd_draw, egpd_logpdf_kernel
from .errors import DataValidationError, NumericalError, WindcalError, check_rules
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

    def __post_init__(self):
        # each box lies inside the range its scalar may take: xi < 0 for the
        # endpoint form, alpha > 0 for a correlation range
        check_rules([*(((f,), "must be finite and > 0", 0.0 < getattr(self, f) < math.inf)
                       for f in ("beta_precision", "kappa_shape", "kappa_rate",
                                 "tau_shape", "tau_rate")),
                     (("beta_mean",), "must be finite", math.isfinite(self.beta_mean)),
                     (("xi_low", "xi_high"), "must satisfy -inf < xi_low < xi_high <= 0",
                      -math.inf < self.xi_low < self.xi_high <= 0.0),
                     (("alpha_low", "alpha_high"),
                      "must satisfy 0 < alpha_low < alpha_high < inf",
                      0.0 < self.alpha_low < self.alpha_high < math.inf)])


class Law(NamedTuple):
    """Prior of one scalar; its family fixes every field."""

    logpdf: Callable  # log-density
    draw: Callable    # rng -> one forward draw
    lo: float         # the support is the open interval (lo, hi)
    hi: float
    start: float      # where a chain starts: the family's value, or the middle of a
                      # prior box that leaves that value out
    move: Callable    # (x, step) -> (proposal, log-Jacobian of the move) for a random-walk
                      # step on the prior's scale: identity, log, or logit of the box


def _normal(mean, precision) -> Law:
    const = 0.5 * math.log(precision / (2.0 * math.pi))
    return Law(lambda x: const - 0.5 * precision * (x - mean) ** 2,
               lambda rng: rng.normal(mean, 1.0 / math.sqrt(precision)),
               -math.inf, math.inf, 0.0, lambda x, step: (x + step, 0.0))


def _gamma(shape, rate) -> Law:
    const = shape * math.log(rate) - math.lgamma(shape)
    return Law(lambda x: const + (shape - 1.0) * math.log(x) - rate * x,
               lambda rng: rng.gamma(shape, 1.0 / rate), 0.0, math.inf, 1.0,
               lambda x, step: (x * math.exp(step), step))


def _uniform(lo, hi, start) -> Law:
    def move(x, step):
        t = _logit_box(x, lo, hi)
        t_prop = t + step
        return _expit_box(t_prop, lo, hi), _log_jac_box(t_prop, lo, hi) - _log_jac_box(t, lo, hi)

    return Law(lambda x: -math.log(hi - lo), lambda rng: rng.uniform(lo, hi), lo, hi,
               start if lo < start < hi else 0.5 * (lo + hi), move)


# The two box maps repeat scipy.special's logit and expit operation for
# operation, so they agree bit for bit without importing scipy.special.

def _logit_box(x, lo, hi):
    p = (x - lo) / (hi - lo)
    if 0.3 <= p <= 0.65:
        # log(p / (1 - p)) loses precision near p = 0.5
        s = 2.0 * (p - 0.5)
        return math.log1p(s) - math.log1p(-s)
    return math.log(p / (1.0 - p))


def _expit_box(t, lo, hi):
    # exp overflows for t below about -709.78: such a far proposal maps to lo,
    # and the support check in _metropolis rejects it
    try:
        p = 1.0 / (1.0 + math.exp(-t))
    except OverflowError:
        p = 0.0
    return lo + (hi - lo) * p


def _log_jac_box(t, lo, hi):
    # |dx/dt| = (hi - lo) * p * (1 - p) for p = expit(t)
    return math.log(hi - lo) - t - 2.0 * math.log1p(math.exp(-t)) if t > 0 else \
        math.log(hi - lo) + t - 2.0 * math.log1p(math.exp(t))


def prior_table(p: PriorSpec) -> dict:
    """The Law of every scalar in SCALAR_NAMES, in that order."""
    family = {"beta": _normal(p.beta_mean, p.beta_precision),
              "kappa": _gamma(p.kappa_shape, p.kappa_rate),
              "xi": _uniform(p.xi_low, p.xi_high, -0.1),
              "alpha": _uniform(p.alpha_low, p.alpha_high, 0.3),
              "tau": _gamma(p.tau_shape, p.tau_rate)}
    return {name: family[name.split("_")[0]] for name in SCALAR_NAMES}


@dataclass(frozen=True)
class McmcConfig:
    iterations: int = 4000
    burn_in: int = 1000
    thinning: int = 5
    chains: int = 2
    seed: int = 0

    def __post_init__(self):
        # a zero-iteration run keeps only the initial state, so it takes no burn-in
        check_rules([(("iterations",), "must be >= 0", self.iterations >= 0),
                     (("iterations", "burn_in"),
                      "must satisfy 0 <= burn_in < iterations, or both 0",
                      self.burn_in == 0 or 0 < self.burn_in < self.iterations),
                     (("thinning",), "must be >= 1", self.thinning >= 1),
                     (("chains",), "must be >= 1", self.chains >= 1),
                     (("seed",), "must be >= 0", self.seed >= 0)])


@dataclass(frozen=True, eq=False)
class Margin:
    """One panel of the joint model and the ModelState slots of its EGPD margin.

    The observed panel ("y") covers the observed stations and may miss
    cells; the simulated panel ("x") is complete and covers every station.
    """

    name: str
    data: np.ndarray          # panel values, NaN in missing cells
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
        return cls(name, values, mask, shift, rows,
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


def _expm1(x: float) -> float:
    """math.expm1 that overflows to inf instead of raising."""
    return math.expm1(x) if x < 709.0 else math.inf


class HierarchicalModel:
    """Posterior kernel for one (observed panel, simulated panel, network) triple.

    Shifts of the endpoint priors default to the respective panel maxima;
    they can be fixed explicitly, which the simulation-based tests rely on.
    ``dates`` names the days in messages; without it a day is its index.
    """

    def __init__(self, y, x, net: StationNetwork, priors: PriorSpec = PriorSpec(),
                 correlation_family: str = "disc",
                 shift_y: float | None = None, shift_x: float | None = None, dates=None):
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
        # every value must lie in the EGPD support (0, delta)
        for name, panel, rows in (("observed", y, net.observed_indices),
                                  ("simulated", x, range(net.n_total))):
            if (cells := np.argwhere(panel <= 0)).size:
                i, j = cells[0]
                day = dates[j] if dates is not None else f"day {j}"
                raise DataValidationError(
                    f"{name} panel: station {net.ids[rows[i]]!r} on {day} has value "
                    f"{float(panel[i, j])!r}; the hierarchical model needs values > 0")
        if np.all(np.isnan(y)):
            raise DataValidationError("observed panel has no data")

        self.net = net
        # defaulted shifts sit at the panel maxima; explicit shifts may be
        # below them (the likelihood still enforces delta > every datum)
        self.shift_y = float(np.nanmax(y)) if shift_y is None else float(shift_y)
        self.shift_x = float(np.max(x)) if shift_x is None else float(shift_x)
        self.priors = priors
        self.laws = prior_table(priors)
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
        return cholesky_correlation(corr, alpha)

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
        return all(law.lo < getattr(state, name) < law.hi for name, law in self.laws.items())

    def log_prior(self, state: ModelState) -> float:
        if not self._in_box(state):
            return -np.inf
        factor = self.chol_factor(state.alpha)
        endpoint = 0.0
        for mg in self.margins:
            lam = rates(getattr(state, mg.beta), state.w[mg.rows], state.z)
            endpoint += self.delta_prior_grid(lam, getattr(state, mg.delta), mg.shift).sum()
        return self.prior_terms(state, factor.logdet, factor.quad_form(state.w),
                                rw1_quad_form(state.z), float(endpoint))

    def prior_terms(self, state: ModelState, logdet_w, quad_w, quad_z, endpoint) -> float:
        """Log-prior of an in-box state given its latent-field pieces.

        ``logdet_w`` and ``quad_w`` are log det(R) and w' R^-1 w for the
        spatial correlation R; ``quad_z`` is the RW1 quadratic form and
        ``endpoint`` the summed endpoint-prior log-density of both margins.
        log_prior computes them from scratch, the sampler from its caches.
        """
        out = 0.0
        for name, law in self.laws.items():
            out += law.logpdf(getattr(state, name))
        out += spatial_logdensity_from_quad(state.w.size, state.tau_w, logdet_w, quad_w)
        out += rw1_logdensity_from_quad(state.z.size, state.tau_z, quad_z)
        return out + endpoint

    def log_posterior(self, state: ModelState) -> float:
        lp = self.log_prior(state)
        if not np.isfinite(lp):
            return -np.inf
        return lp + self.log_likelihood(state)

    # -- forward simulation ---------------------------------------------------

    def sample_prior_state(self, rng) -> ModelState:
        """Forward draw of every unknown given the fixed shifts."""
        return self.sample_latents({name: law.draw(rng) for name, law in self.laws.items()}, rng)

    def sample_latents(self, scalars: dict, rng) -> ModelState:
        """Forward draw of w, z and each margin's endpoints given the nine scalars."""
        draw = dict(scalars)
        w = sample_spatial_field(self.chol_factor(draw["alpha"]), draw["tau_w"], rng)
        z = sample_rw1_constrained(self.n_times, draw["tau_z"], rng)
        for mg in self.margins:
            draw[mg.delta] = mg.shift + rng.exponential(1.0 / rates(draw[mg.beta], w[mg.rows], z))
        return ModelState(w=w, z=z, **draw)

    def sample_panels(self, state: ModelState, rng):
        """Draw (y, x) panels from the EGPD cells of the given state."""
        y, x = (egpd_draw(rng, *mg.params(state)) for mg in self.margins)
        return np.where(self.y_mask, y, np.nan), x

    # -- initialization ---------------------------------------------------------

    def initialize_state(self) -> ModelState:
        start = {name: law.start for name, law in self.laws.items()}
        for mg, panel, name in zip(self.margins, (self.y, self.x), ("observed", "simulated")):
            sd, top = float(np.nanstd(panel)), float(np.nanmax(panel))
            if sd <= 0:
                raise DataValidationError(
                    f"{name} panel: every value is {top!r}; a constant panel cannot initialize")
            start[mg.delta] = np.full(panel.shape, max(mg.shift, top) + sd)
        state = ModelState(w=np.zeros(self.n_total), z=np.zeros(self.n_times), **start)
        lp = self.log_posterior(state)
        if not np.isfinite(lp):
            raise NumericalError("initial state has non-finite log-posterior")
        return state


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

class MwgSampler:
    """Adaptive single-site Metropolis-within-Gibbs over a HierarchicalModel.

    A sweep runs ``blocks``, the one ordered table of (name, update(sampler),
    starting log-scale) rows; the adaptation state and the acceptance report
    follow its rows.  w and z update site by site, each endpoint panel as one block.

    The endpoint prior log(lambda) - lambda * G, lambda = exp(beta + w_i + z_j)
    and G = delta - shift, is read only through _rate_factors: beta, w and z
    leave G fixed, so their blocks use sums of lambda * G (per margin, station,
    day); the delta blocks leave lambda fixed, so their prior ratio is
    -lambda * (G' - G); log_posterior sums log(lambda) in closed form.
    """

    def __init__(self, model: HierarchicalModel, state: ModelState, rng):
        self.model = model
        self.state = state.copy()
        self.rng = rng
        self.adapting = True
        self.iteration = 0
        # a row's update takes the sampler, so the table holds no reference to
        # it and a finished chain's sampler is freed as soon as it is dropped;
        # a margin's rows hold its index in model.margins and look the margin
        # up when they run, so they read the panels replace_data swaps in
        margins, scalar, site = list(enumerate(model.margins)), math.log(0.1), math.log(0.3)
        self.blocks = [
            *((getattr(mg, slot), methodcaller(f"_update_{slot}", k), scalar)
              for slot in ("beta", "kappa", "xi") for k, mg in margins),
            ("alpha", methodcaller("_update_alpha"), scalar),
            *((name, methodcaller("_update_tau", name), scalar) for name in ("tau_w", "tau_z")),
            ("w", methodcaller("_update_w"), np.full(model.n_total, site)),
            ("z", methodcaller("_update_z"), np.full(model.n_times, site)),
            *((mg.delta, methodcaller("_update_delta", k), 0.0) for k, mg in margins)]
        self.log_scales, self.accept_counts, self.proposal_counts = {}, {}, {}
        for name, _, log_scale in self.blocks:
            self.log_scales[name] = log_scale
            self.accept_counts[name] = self.proposal_counts[name] = 0.0
        self.refresh_cache()

    # cached pieces of the log-posterior, each current after every block
    def refresh_cache(self):
        m, s = self.model, self.state
        if not np.isfinite(m.log_posterior(s)):
            raise NumericalError("non-finite log-posterior at sampler start")
        self.factor = m.chol_factor(s.alpha)
        self.quad_w = self.factor.quad_form(s.w)
        self.quad_z = rw1_quad_form(s.z)
        self.ll = {mg.name: mg.loglik(*mg.params(s)) for mg in m.margins}

    def log_posterior(self) -> float:
        s = self.state
        endpoint = 0.0
        for mg in self.model.margins:
            # sum of log(lambda) - lambda * G over the margin's n x T cells
            e_beta, e_w, e_z, gap = self._rate_factors(mg)
            n, t = gap.shape
            endpoint += n * t * getattr(s, mg.beta) + t * s.w[mg.rows].sum() + n * s.z.sum() \
                - e_beta * (e_w @ gap @ e_z)
        out = self.model.prior_terms(s, self.factor.logdet, self.quad_w, self.quad_z,
                                     float(endpoint))
        return out + float(sum(self.ll[mg.name].sum() for mg in self.model.margins))

    def _rate_factors(self, mg: Margin):
        """exp(beta), exp(w[rows]), exp(z) and G = delta - shift of a margin.

        lambda * G is exp(beta) * outer(exp(w[rows]), exp(z)) * G; only the
        delta block forms lambda, the rest reduce by matrix-vector products.
        """
        s = self.state
        with np.errstate(over="ignore"):
            return (np.exp(getattr(s, mg.beta)), np.exp(s.w[mg.rows]), np.exp(s.z),
                    getattr(s, mg.delta) - mg.shift)

    # -- bookkeeping ------------------------------------------------------------

    def _adapt(self, name, accepted):
        """While adapting, tune a block's log-scale; once adaptation stops, count its outcomes.

        ``accepted`` is one outcome or an array of them.  A scalar scale
        moves by the block's acceptance rate; a per-site scale array (w, z)
        moves elementwise, one outcome per site.  Outcomes reach
        ``acceptance_rates`` only with ``adapting`` False, whatever drives the sampler.
        """
        if isinstance(accepted, np.ndarray):
            n, hits = accepted.size, float(np.count_nonzero(accepted))
        else:
            n, hits = 1, float(accepted)
        if not self.adapting:
            self.proposal_counts[name] += n
            self.accept_counts[name] += hits
            return
        gamma = (self.iteration + 1) ** -0.6
        scale = self.log_scales[name]
        if isinstance(scale, np.ndarray):
            self.log_scales[name] = np.clip(scale + gamma * (accepted - TARGET_ACCEPT),
                                            -15.0, 10.0)
        else:
            self.log_scales[name] = min(max(scale + gamma * (hits / n - TARGET_ACCEPT),
                                            -15.0), 10.0)

    def _accept(self, log_ratio) -> bool:
        if not math.isfinite(log_ratio):
            return False
        return math.log(self.rng.random()) < log_ratio

    # -- scalar updates -----------------------------------------------------------

    def _metropolis(self, name, term):
        """One random-walk Metropolis step for scalar ``name`` on its prior's scale.

        ``term(prop)`` returns the block's own part of the log-ratio and a
        payload, or None to reject the proposal outright.  The step adds the
        prior ratio and the move's log-Jacobian, and returns the payload if it
        accepts, else None.
        """
        law = self.model.laws[name]
        cur = getattr(self.state, name)
        prop, log_jac = law.move(cur, math.exp(self.log_scales[name]) * self.rng.standard_normal())
        own = term(prop) if law.lo < prop < law.hi else None
        acc = own is not None and self._accept(
            own[0] + law.logpdf(prop) - law.logpdf(cur) + log_jac)
        if acc:
            setattr(self.state, name, prop)
        self._adapt(name, acc)
        return own[1] if acc else None

    def _update_beta(self, k: int):
        # beta -> beta + d scales every lambda of the margin by e^d
        mg = self.model.margins[k]
        cur = getattr(self.state, mg.beta)
        e_beta, e_w, e_z, gap = self._rate_factors(mg)
        lam_gap = e_beta * (e_w @ gap @ e_z)
        self._metropolis(mg.beta, lambda prop: (
            gap.size * (prop - cur) - _expm1(prop - cur) * lam_gap, None))

    def _update_kappa(self, k: int):
        mg = self.model.margins[k]
        delta, xi, _ = mg.params(self.state)
        self._margin_step(mg, mg.kappa, lambda kappa: mg.loglik(delta, xi, kappa))

    def _update_xi(self, k: int):
        mg = self.model.margins[k]
        delta, _, kappa = mg.params(self.state)
        self._margin_step(mg, mg.xi, lambda xi: mg.loglik(delta, xi, kappa))

    def _margin_step(self, mg: Margin, name, loglik):
        """Metropolis step for a scalar of one EGPD margin, given its per-cell log-likelihood."""
        def term(prop):
            ll_new = loglik(prop)
            return ll_new.sum() - self.ll[mg.name].sum(), ll_new

        ll_new = self._metropolis(name, term)
        if ll_new is not None:
            self.ll[mg.name] = ll_new

    def _update_alpha(self):
        def term(alpha):
            try:
                factor = self.model.chol_factor(alpha)
            except NumericalError:
                return None
            quad = factor.quad_form(self.state.w)
            return -0.5 * (factor.logdet - self.factor.logdet) \
                - 0.5 * self.state.tau_w * (quad - self.quad_w), (factor, quad)

        accepted = self._metropolis("alpha", term)
        if accepted is not None:
            self.factor, self.quad_w = accepted

    def _update_tau(self, which: str):
        s = self.state
        cur = getattr(s, which)
        # (degrees of freedom, quadratic form) of the field this precision scales
        n_eff, quad = {"tau_w": (s.w.size, self.quad_w),
                       "tau_z": (s.z.size - 1, self.quad_z)}[which]
        self._metropolis(which, lambda tau: (
            0.5 * n_eff * (math.log(tau) - math.log(cur)) - 0.5 * quad * (tau - cur), None))

    # -- latent field updates ------------------------------------------------------

    def _update_w(self):
        # w_i -> w_i + step moves the spatial quadratic form by
        # 2 step (Q w)_i + step^2 Q_ii, Q the inverse correlation, and scales
        # lambda on station i's rows by e^step; station i's sum of lambda * G
        # depends on no other site and is read once, so it is not updated
        m, s = self.model, self.state
        q = self.factor.precision
        q_w = q @ s.w
        q_diag = np.diagonal(q).tolist()
        lam_gap = np.zeros(m.n_total)
        n_cells = np.zeros(m.n_total)
        for mg in m.margins:
            e_beta, e_w, e_z, gap = self._rate_factors(mg)
            lam_gap[mg.rows] += e_beta * e_w * (gap @ e_z)
            n_cells[mg.rows] += m.n_times
        lam_gap, n_cells = lam_gap.tolist(), n_cells.tolist()
        log_scales = self.log_scales["w"].tolist()
        tau = s.tau_w
        acc = np.zeros(m.n_total, dtype=bool)
        for i in range(m.n_total):
            step = math.exp(log_scales[i]) * self.rng.standard_normal()
            log_ratio = -0.5 * tau * (2.0 * step * q_w[i] + step * step * q_diag[i]) \
                + n_cells[i] * step - _expm1(step) * lam_gap[i]
            if self._accept(log_ratio):
                s.w[i] += step
                q_w += step * q[:, i]
                acc[i] = True
        self.quad_w = float(s.w @ q_w)
        self._adapt("w", acc)

    def _update_z(self):
        # proposal direction e_j - 1/T keeps sum(z) = 0 and is symmetric; it
        # leaves sum(log lambda) alone, scales day k's lambdas by e^dz_k and
        # changes only the two first differences next to day j
        m, s = self.model, self.state
        t = m.n_times
        lam_gap = sum(e_beta * (e_w @ gap) * e_z
                      for e_beta, e_w, e_z, gap in map(self._rate_factors, m.margins))
        total = float(lam_gap.sum())
        log_scales = self.log_scales["z"].tolist()
        tau = s.tau_z
        acc = np.zeros(t, dtype=bool)
        for j in range(t):
            eps = math.exp(log_scales[j]) * self.rng.standard_normal()
            recentre = -eps / t
            d_quad = 0.0
            if j > 0:
                d_quad += 2.0 * eps * (s.z[j] - s.z[j - 1]) + eps * eps
            if j < t - 1:
                d_quad += -2.0 * eps * (s.z[j + 1] - s.z[j]) + eps * eps
            c_j = lam_gap[j]
            log_ratio = -0.5 * tau * d_quad - _expm1(recentre + eps) * c_j \
                - _expm1(recentre) * (total - c_j)
            if self._accept(log_ratio):
                dz = np.full(t, recentre)
                dz[j] += eps
                s.z = s.z + dz
                lam_gap *= np.exp(dz)
                total = float(lam_gap.sum())
                acc[j] = True
        self.quad_z = rw1_quad_form(s.z)
        self._adapt("z", acc)

    # -- endpoint panels -------------------------------------------------------------

    def _update_delta(self, k: int):
        # a random walk on log(G) per cell; v_new - v is its log-Jacobian
        mg = self.model.margins[k]
        s = self.state
        delta, xi, kappa = mg.params(s)
        e_beta, e_w, e_z, gap = self._rate_factors(mg)
        ll = self.ll[mg.name]
        v = np.log(gap)
        v_new = v + math.exp(self.log_scales[mg.delta]) * self.rng.standard_normal(v.shape)
        delta_new = mg.shift + np.exp(v_new)
        gap_new = delta_new - mg.shift
        ok = gap_new > 0  # reject proposals whose gap underflows or rounds away
        ll_new = mg.loglik(delta_new, xi, kappa)
        with np.errstate(invalid="ignore", over="ignore"):
            log_ratio = (ll_new - ll) - e_beta * np.outer(e_w, e_z) * (gap_new - gap) \
                + (v_new - v)
        log_u = np.log(self.rng.random(v.shape))
        acc = ok & np.isfinite(log_ratio) & (log_u < log_ratio)
        setattr(s, mg.delta, np.where(acc, delta_new, delta))
        self.ll[mg.name] = np.where(acc, ll_new, ll)
        self._adapt(mg.delta, acc)

    # -- one sweep --------------------------------------------------------------------

    def sweep(self):
        for _, update, _ in self.blocks:
            update(self)
        self.iteration += 1

    def acceptance_rates(self) -> dict:
        return {k: (self.accept_counts[k] / self.proposal_counts[k]
                    if self.proposal_counts[k] else float("nan"))
                for k in self.accept_counts}


def run_chain(model: HierarchicalModel, cfg: McmcConfig, rng,
              chain_index: int = 0) -> PosteriorDraws:
    """Run one chain from the model's initial state; return the thinned post-burn-in draws."""
    sampler = MwgSampler(model, model.initialize_state(), rng)
    kept, logpost = [], []
    if cfg.iterations == 0:
        kept.append(sampler.state.copy())
        logpost.append(sampler.log_posterior())
    for it in range(cfg.iterations):
        if it == cfg.burn_in:
            sampler.adapting = False
        sampler.sweep()
        logpost.append(sampler.log_posterior())
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thinning == 0:
            kept.append(sampler.state.copy())
    return PosteriorDraws.from_states(
        kept, chain_index=chain_index, log_posterior=np.asarray(logpost),
        acceptance=sampler.acceptance_rates(),
        shift_y=model.shift_y, shift_x=model.shift_x)


def _usable_cores() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def chain_workers(chains: int) -> int:
    """Processes that run_mcmc spreads ``chains`` chains over: one per usable core, at most."""
    return min(chains, _usable_cores())


def _fork_worker(job):
    """Fork a child that runs ``job()``; return its pid and the read end of its pipe.

    The child pickles ("ok", result) or ("err", exception) to the pipe and
    leaves by os._exit, so it never returns into the caller's stack, atexit
    hooks or buffered output.  It writes nothing if the pickling fails.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                result = ("ok", job())
            except BaseException as exc:  # interrupts too: the caller re-raises it
                result = ("err", exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _worker_result(payload: bytes, status: int, chains):
    """A reaped worker's chains; its exception is raised unchanged."""
    if status != 0:
        # killed, or its result could not be pickled: the worker exits 0 only once written
        named = ", ".join(map(str, chains))
        raise WindcalError(f"the worker of chain{'s' if len(chains) > 1 else ''} {named} "
                           f"ended without a result (wait status {status})")
    kind, value = pickle.loads(payload)
    if kind == "err":
        raise value
    return value


def run_mcmc(model: HierarchicalModel, cfg: McmcConfig) -> PosteriorDraws:
    """Run cfg.chains independent chains (split RNG streams) and merge draws.

    Chain c runs in worker c mod W, W = chain_workers(cfg.chains).  Worker 0
    is the calling process; the others are forked before it starts its own
    chains.  Each chain draws from its own SeedSequence child, so the draws do
    not depend on W.
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)
    n_workers = chain_workers(cfg.chains)

    def chains_of(k):
        return range(k, cfg.chains, n_workers)

    def run_worker(k):
        return [run_chain(model, cfg, np.random.default_rng(seeds[c]), chain_index=c)
                for c in chains_of(k)]

    forked = []  # (worker, pid, read end of its pipe) of each child not yet reaped
    try:
        for k in range(1, n_workers):
            forked.append((k, *_fork_worker(lambda k=k: run_worker(k))))
        parts = [run_worker(0)]  # each worker's chains, by worker
        while forked:
            k, pid, pipe = forked[0]
            # read to EOF before waiting: a result larger than the pipe's
            # buffer keeps the child blocked in its write until it is read
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del forked[0]
            parts.append(_worker_result(payload, status, chains_of(k)))
            del payload  # the pickle is not kept alive through the merge
    finally:
        # a chain failed or the caller was interrupted: stop and reap every worker left
        for _, pid, pipe in forked:
            pipe.close()
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return PosteriorDraws.merge([parts[c % n_workers][c // n_workers]
                                 for c in range(cfg.chains)])
