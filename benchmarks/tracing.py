"""Spans around the calls into each windcal layer, and the per-layer numbers.

The wrappers live here, not in the package: they are installed on module
attributes and class methods for one traced run and removed afterwards.
A span records its name, start, end, parent span and the run id; spans stay
in memory (flat arrays, so a run of a few hundred thousand costs a few MB)
and are written out once, when the run ends.

Layers are the package modules.  ``egpd`` has no call on any CLI path (the
hierarchical model evaluates its own grid density), so it gets no span.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("data", "latent", "model", "draws", "predictive", "calibration", "cli")
UNMEASURED = {"egpd": "no call into windcal.egpd on any CLI path: the hierarchical "
                      "model uses model._egpd_logpdf_grid, and the marginal modes "
                      "call calibration/cli code only"}
BLOCK_PREFIX = "_update_"


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(*args)`` gives work done per call."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents, starts, ends, counts = (
            self.name_ids, self.parents, self.starts, self.ends, self.counts)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            counts.append(count(*args, **kwargs) if count is not None else 0.0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def save(self, path):
        n = len(self.starts)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_ids, np.int32),
            parent=np.frombuffer(self.parents, np.int32), start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends), count=np.frombuffer(self.counts),
            run_id=np.full(n, self.run_id))


def _cells(_model, lam, delta, _shift):
    return float(np.broadcast(lam, delta).size)


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap the calls into each layer for the duration of the block."""
    import windcal.cli as cli
    import windcal.model as model
    from windcal.draws import PosteriorDraws
    from windcal.latent import CholFactor

    patches = []  # (owner, attribute, original)

    def patch(owner, attr, name, count=None, kind=None):
        original = owner.__dict__[attr]
        fn = original.__func__ if kind is not None else original
        wrapped = recorder.wrap(name, fn, count)
        patches.append((owner, attr, original))
        setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)

    patch(cli, "load_network", "data.load_network")
    patch(cli, "load_panel", "data.load_panel")
    patch(cli, "run_mcmc", "model.run_mcmc")
    patch(cli, "calibrate_field", "predictive.calibrate_field")
    patch(cli, "summarize_posterior", "predictive.summarize")
    patch(cli, "_marginal_empirical_field", "calibration.marginal_field")
    patch(cli, "_save_draws_npz", "cli.save_npz")
    for attr in [a for a in vars(cli) if a.startswith("_write_")]:
        patch(cli, attr, "cli." + attr[1:].removesuffix("_csv"))
    patch(model, "cholesky_correlation", "latent.cholesky")
    patch(model.MwgSampler, "sweep", "model.sweep")
    patch(model.MwgSampler, "_adapt", "model.adapt")
    for attr in [a for a in vars(model.MwgSampler) if a.startswith(BLOCK_PREFIX)]:
        patch(model.MwgSampler, attr, "model." + attr[len(BLOCK_PREFIX):])
    patch(model.HierarchicalModel, "delta_prior_grid", "model.prior_grid", count=_cells)
    patch(model.HierarchicalModel, "initialize_state", "model.init")
    patch(CholFactor, "quad_form", "latent.quad_form")
    patch(PosteriorDraws, "from_states", "draws.from_states", kind=classmethod)
    patch(PosteriorDraws, "merge", "draws.merge", kind=classmethod)
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def load_spans(path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def self_times(parent, duration) -> np.ndarray:
    """Each span's duration minus the time covered by its direct children."""
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered


def _under(parent, flag) -> np.ndarray:
    """True for spans that have an ancestor for which ``flag`` is true."""
    out = np.zeros(parent.size, dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        out[live] |= flag[anc[live]]
        anc[live] = parent[anc[live]]
    return out


def analyze(spans: dict) -> tuple[dict, dict]:
    """Per-layer metrics and a per-span-name table from one traced run.

    Sampler numbers count only spans inside ``model.sweep``, so one-off work
    at sampler start (the first Cholesky factor, the first grids) is left out.
    """
    names = [str(n) for n in spans["names"]]
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    self_t = self_times(parent, dur)
    id_of = {n: i for i, n in enumerate(names)}

    def mask(name):
        return nid == id_of.get(name, -1)

    table = {}
    for i, name in enumerate(names):
        m = nid == i
        table[name] = {"calls": int(m.sum()), "total_s": float(dur[m].sum()),
                       "self_s": float(self_t[m].sum())}

    metrics = {}

    def total(name, where=None):
        m = mask(name) if where is None else mask(name) & where
        return float(dur[m].sum()), int(m.sum())

    for layer in LAYERS:
        in_layer = np.array([n.split(".", 1)[0] == layer for n in names], dtype=bool)
        metrics[f"{layer}.self_s"] = float(self_t[in_layer[nid]].sum()) if nid.size else 0.0

    sweep = mask("model.sweep")
    sweep_total, n_sweeps = total("model.sweep")
    if n_sweeps:
        in_sweep = _under(parent, sweep)
        metrics["model.sweep_ms"] = 1e3 * sweep_total / n_sweeps
        metrics["model.sweep.self_share"] = float(self_t[sweep].sum()) / sweep_total
        # the update blocks are the sweep's direct children, so their shares
        # plus the sweep's self share add up to 1
        block = np.zeros(nid.size, dtype=bool)
        block[parent >= 0] = sweep[parent[parent >= 0]]
        for i in np.unique(nid[block]):
            m = block & (nid == i)
            t, calls = float(dur[m].sum()), int(m.sum())
            metrics[f"{names[i]}.us_per_call"] = 1e6 * t / calls
            metrics[f"{names[i]}.share_of_sweep"] = t / sweep_total
            metrics[f"{names[i]}.calls_per_sweep"] = calls / n_sweeps
        for name, key in (("model.adapt", "model.adapt"), ("latent.quad_form", "latent.quad_form")):
            t, calls = total(name, in_sweep)
            metrics[f"{key}.calls_per_sweep"] = calls / n_sweeps
            metrics[f"{key}.us_per_call"] = 1e6 * t / calls if calls else 0.0
        metrics["latent.cholesky.calls_per_sweep"] = total("latent.cholesky", in_sweep)[1] / n_sweeps
        cells = spans["count"][mask("model.prior_grid") & in_sweep].sum()
        metrics["model.prior_grid.cells_per_sweep"] = float(cells) / n_sweeps
    for name, key in (("model.init", "model.init_s"),
                      ("data.load_network", "data.load_network_s"),
                      ("data.load_panel", "data.load_panel_s"),
                      ("predictive.calibrate_field", "predictive.calibrate_field_s"),
                      ("predictive.summarize", "predictive.summarize_s"),
                      ("calibration.marginal_field", "calibration.marginal_field_s"),
                      ("cli.main", "cli.main_s")):
        metrics[key] = total(name)[0]
    for name in names:
        if name.startswith(("cli.write_", "cli.save_")):
            metrics[f"{name}_s"] = total(name)[0]
    metrics["draws.store_s"] = total("draws.from_states")[0] + total("draws.merge")[0]
    return metrics, {"spans": int(nid.size), "sweeps": n_sweeps, "by_name": table}
