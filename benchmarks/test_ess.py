"""Checks of the benchmark's ESS and split-R-hat estimator against known answers."""

import numpy as np
import pytest

from ess import ess_bulk, split_rhat


def _ar1(phi, chains, n, rng):
    eps = rng.standard_normal((chains, n))
    x = np.empty((chains, n))
    x[:, 0] = eps[:, 0] / np.sqrt(1.0 - phi ** 2)
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + eps[:, t]
    return x


def test_iid_draws_give_ess_near_total():
    x = np.random.default_rng(0).standard_normal((4, 2000))
    assert ess_bulk(x) == pytest.approx(x.size, rel=0.1)
    assert split_rhat(x) < 1.01


@pytest.mark.parametrize("phi", [0.5, 0.9])
def test_ar1_chain_gives_textbook_ess(phi):
    x = _ar1(phi, 4, 5000, np.random.default_rng(1))
    assert ess_bulk(x) == pytest.approx(x.size * (1 - phi) / (1 + phi), rel=0.15)


def test_rhat_flags_chains_that_disagree():
    x = np.random.default_rng(2).standard_normal((4, 1000))
    x[0] += 3.0
    assert split_rhat(x) > 1.1


def test_rhat_flags_a_trend_within_one_chain():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 1000)) + np.linspace(0.0, 6.0, 1000)
    assert split_rhat(x) > 1.1
