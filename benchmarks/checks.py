"""Checks of one CLI run's output directory, and its output fingerprints."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

SCALARS = ("alpha", "beta_x", "beta_y", "kappa_x", "kappa_y", "tau_w", "tau_z", "xi_x", "xi_y")
FINGERPRINTED = ("calibrated.csv", "posterior.csv")


def _rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_calibrated(path, n_cells) -> list[str]:
    n_rows = 0
    with open(path, newline="") as fh:
        for n_rows, row in enumerate(csv.DictReader(fh), start=1):
            try:
                value, sd = float(row["x_calibrated"]), float(row["pred_sd"])
            except (KeyError, TypeError, ValueError) as exc:
                return [f"calibrated.csv line {n_rows + 1}: {exc!r}"]
            if not (math.isfinite(value) and value >= 0 and math.isfinite(sd) and sd >= 0
                    and row["clamped"] in ("0", "1")):
                return [f"calibrated.csv line {n_rows + 1}: bad row {row}"]
    if n_rows != n_cells:
        return [f"calibrated.csv has {n_rows} rows, expected {n_cells}"]
    return []


def check_outputs(out_dir, workload) -> list[str]:
    """Problems found in one run's outputs; an empty list means the run passed."""
    problems = []

    def path(name):
        return os.path.join(out_dir, name)

    try:
        problems += _check_calibrated(path("calibrated.csv"),
                                      workload.n_stations * workload.n_times)
        with open(path("manifest.json")) as fh:
            json.load(fh)
        if workload.fits:
            n_post = len(_rows(path("posterior.csv")))
            if n_post != workload.n_draws:
                problems.append(f"posterior.csv has {n_post} rows, expected {workload.n_draws}")
            params = sorted(row["parameter"] for row in _rows(path("summary.csv")))
            if params != sorted(SCALARS):
                problems.append(f"summary.csv parameters are {params}")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def fingerprints(out_dir) -> dict:
    """sha256 of each fingerprinted output that exists."""
    out = {}
    for name in FINGERPRINTED:
        p = os.path.join(out_dir, name)
        if os.path.exists(p):
            with open(p, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def output_mb(out_dir) -> float:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)) / 1e6
