"""Rank-normalised split-chain bulk ESS and split-R-hat.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for assessing
convergence of MCMC", Bayesian Analysis 16(2).  Input is an array of shape
(chains, draws); every chain is split in half before anything is computed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def split_chains(x) -> np.ndarray:
    """(chains, draws) -> (2 * chains, draws // 2); an odd middle draw is dropped."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half:]], axis=0)


def rank_normalize(x) -> np.ndarray:
    """Normal scores of the pooled ranks, with the (r - 3/8) / (S + 1/4) offset."""
    x = np.asarray(x, dtype=float)
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def _rhat(x) -> float:
    """Classic potential scale reduction of already split chains."""
    n = x.shape[1]
    within = x.var(axis=1, ddof=1).mean()
    between = n * x.mean(axis=1).var(ddof=1)
    if within == 0:
        return float("nan")
    return float(np.sqrt(((n - 1) / n * within + between / n) / within))


def split_rhat(x) -> float:
    """Rank-normalised split-R-hat: the larger of the bulk and folded (tail) values."""
    s = split_chains(x)
    if s.shape[1] < 2:
        return float("nan")
    bulk = _rhat(rank_normalize(s))
    tail = _rhat(rank_normalize(np.abs(s - np.median(s))))
    return max(bulk, tail)


def _autocovariance(x) -> np.ndarray:
    """Biased autocovariance of each row, by FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spec * np.conjugate(spec), n=size, axis=1)[:, :n] / n


def ess(x) -> float:
    """Effective sample size of chains that are already split (and normalised).

    Autocorrelations are combined across chains and truncated by Geyer's
    initial monotone sequence of pair sums.
    """
    m, n = x.shape
    if n < 4:
        return float("nan")
    acov = _autocovariance(x)
    within = acov[:, 0].mean() * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if var_plus == 0:
        return float("nan")
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # pair sums P_k = rho[2k] + rho[2k+1], kept while positive, made monotone
    n_pairs = n // 2
    pairs = rho[:2 * n_pairs].reshape(n_pairs, 2).sum(axis=1)
    positive = pairs > 0
    keep = n_pairs if positive.all() else int(np.argmin(positive))
    pairs = np.minimum.accumulate(pairs[:keep])
    tau = -1.0 + 2.0 * pairs.sum()
    tau = max(tau, 1.0 / np.log10(m * n))
    return float(m * n / tau)


def ess_bulk(x) -> float:
    """Bulk ESS: ESS of the rank-normalised split chains."""
    return ess(rank_normalize(split_chains(x)))


def diagnose(draws_by_name: dict) -> dict:
    """Per-parameter bulk ESS and split-R-hat for {name: (chains, draws)}."""
    return {name: {"ess_bulk": ess_bulk(x), "rhat": split_rhat(x)}
            for name, x in draws_by_name.items()}
