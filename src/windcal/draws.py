"""Thinned MCMC output: the posterior-draws record and its draws.npz archive."""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DataValidationError, DomainError


@dataclass
class ModelState:
    """One point in the posterior: the nine scalars, then the latent fields and endpoints."""

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
        return replace(self, **{name: getattr(self, name).copy() for name in STATE_ARRAYS})


# the annotations are strings (postponed evaluation), so a scalar's type reads "float"
SCALAR_NAMES = tuple(f.name for f in fields(ModelState) if f.type == "float")
# the record's arrays: those stacked from the sampler states, then the rest
STATE_ARRAYS = tuple(f.name for f in fields(ModelState) if f.type != "float")
ARRAYS = (*STATE_ARRAYS, "chain", "log_posterior")
# the arrays of a draws.npz archive, in the order they are written
ARCHIVE_KEYS = (*ARRAYS, "shift_y", "shift_x", "acceptance_keys", "acceptance_vals",
                *(f"scalar_{name}" for name in SCALAR_NAMES))


@dataclass
class PosteriorDraws:
    """Posterior sample storage; arrays are indexed draw-first."""

    scalars: dict                 # name -> (n_draws,)
    w: np.ndarray                 # (n_draws, N_s)
    z: np.ndarray                 # (n_draws, T)
    delta_y: np.ndarray           # (n_draws, N, T)
    delta_x: np.ndarray           # (n_draws, N_s, T)
    chain: np.ndarray             # (n_draws,)
    log_posterior: np.ndarray     # per-iteration trace (concatenated over chains)
    acceptance: dict              # block -> post-burn-in acceptance rate
    shift_y: float
    shift_x: float

    @classmethod
    def from_states(cls, states, chain_index, log_posterior, acceptance,
                    shift_y, shift_x) -> "PosteriorDraws":
        if not states:
            raise DomainError("no retained draws")
        return cls(
            scalars={name: np.array([getattr(s, name) for s in states])
                     for name in SCALAR_NAMES},
            **{name: np.stack([getattr(s, name) for s in states]) for name in STATE_ARRAYS},
            chain=np.full(len(states), chain_index, dtype=int),
            log_posterior=np.asarray(log_posterior),
            acceptance=dict(acceptance),
            shift_y=shift_y,
            shift_x=shift_x,
        )

    @classmethod
    def merge(cls, parts) -> "PosteriorDraws":
        if not parts:
            raise DomainError("nothing to merge")
        first = parts[0]
        return cls(
            scalars={name: np.concatenate([p.scalars[name] for p in parts])
                     for name in SCALAR_NAMES},
            **{name: np.concatenate([getattr(p, name) for p in parts]) for name in ARRAYS},
            acceptance={k: float(np.mean([p.acceptance[k] for p in parts]))
                        for k in first.acceptance},
            shift_y=first.shift_y,
            shift_x=first.shift_x,
        )

    @property
    def n_draws(self) -> int:
        return self.w.shape[0]

    def mean_sigma(self) -> tuple:
        """Posterior means of the scales -xi * delta: (N, T) for y, (N_s, T) for x.

        Summed draw by draw in the order ``.mean(axis=0)`` sums, so the bits are
        the same and no (n_draws, N, T) array is built.
        """
        xis = (self.scalars["xi_y"], self.scalars["xi_x"])
        return tuple(sum((-xi[d] * delta[d] for d in range(1, self.n_draws)), -xi[0] * delta[0])
                     / self.n_draws for xi, delta in zip(xis, (self.delta_y, self.delta_x)))


def save_draws_npz(path, draws: PosteriorDraws):
    """Write ``draws`` to an .npz archive of the arrays ARCHIVE_KEYS names."""
    # uncompressed: deflating the draws took longer than the fit at 200x365
    np.savez(path, **{name: getattr(draws, name) for name in ARRAYS},
             shift_y=draws.shift_y, shift_x=draws.shift_x,
             acceptance_keys=np.array(list(draws.acceptance.keys())),
             acceptance_vals=np.array(list(draws.acceptance.values())),
             **{f"scalar_{name}": draws.scalars[name] for name in SCALAR_NAMES})


def load_draws_npz(path) -> PosteriorDraws:
    """Read a draws.npz archive, compressed or not."""
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise DataValidationError(f"{path}: an .npy array, not a draws.npz archive")
        with data:
            missing = [k for k in ARCHIVE_KEYS if k not in data.files]
            if missing:
                raise DataValidationError(f"{path}: no {missing[0]!r} array in the archive")
            arrays = {k: data[k] for k in ARCHIVE_KEYS}
    # a text or pickle file, an empty file, a truncated or corrupt archive
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise DataValidationError(f"{path}: not a readable draws.npz archive") from exc
    if arrays["chain"].size == 0:
        raise DataValidationError(f"{path}: no draws in the archive")
    return PosteriorDraws(
        scalars={name: arrays[f"scalar_{name}"] for name in SCALAR_NAMES},
        **{name: arrays[name] for name in ARRAYS},
        acceptance=dict(zip(arrays["acceptance_keys"].tolist(),
                            arrays["acceptance_vals"].tolist())),
        shift_y=float(arrays["shift_y"]), shift_x=float(arrays["shift_x"]),
    )
