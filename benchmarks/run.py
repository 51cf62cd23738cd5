"""Layered benchmark of the windcal CLI.

    python3 benchmarks/run.py --workload fit-small [--seed 0] [--seconds 30] [--trace 0]

Run from the root of a source checkout.  The benchmark generates the
workload's CSV inputs from ``--seed``, then runs the real CLI
(``python3 -m windcal.cli``) from the checkout's ``src`` as one fresh
process per sample, one process at a time (a closed loop with one client).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (spawn to exit of
one CLI process, median over the samples), ``peak_rss_mb`` (its peak
resident set, from ``os.wait4``, median) and ``setup_s`` (median over
several fresh processes that only import, ingest and, for fits, build the
model, its initial state and the sampler).  Failed samples over attempted
samples is printed as ``error_rate``; it is not a reported metric because
it is 0 on a correct program.

``--trace 1`` reports per-layer metrics: a few untraced samples (for the
tracing overhead, acceptance and ESS) and then traced runs of
``windcal.cli.main`` with spans around the calls into each layer.

Every sample's outputs are checked, and the sha256 of ``calibrated.csv``
and ``posterior.csv`` must agree across the samples of one run.

The default seed is 0.  Seed 1009 is held out: a gain measured on seed 0
is confirmed on it before it is claimed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy
import scipy

from checks import check_outputs, fingerprints, output_mb
from ess import diagnose
from tracing import UNMEASURED, analyze, load_spans
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, make_inputs, truth, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
MIN_SAMPLES = 3
PROCESS_TIMEOUT_S = 60.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Spawner:
    """Client of spawner.py, which starts every measured process (see there why)."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROCESS_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, cmd, env, log_path):
        """Run ``cmd`` to completion; return (exit code, wall seconds, peak RSS in MB)."""
        request = {"cmd": cmd, "env": env, "cwd": ROOT, "log": log_path,
                   "timeout": PROCESS_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = json.loads(self.proc.stdout.readline())
        return answer["exit_code"], answer["wall_s"], answer["peak_rss_mb"]


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("WINDCAL_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _commit():
    """HEAD's commit when the checkout is a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[len("ref: "):])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "windcal", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _count_rows(path):
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _median(values):
    return statistics.median(values) if values else 0.0


def _passed(samples):
    return [s for s in samples if s["exit_code"] == 0 and not s["problems"]]


class Run:
    """One benchmark invocation: inputs, samples, checks and metrics."""

    def __init__(self, workload, seed, seconds, work_dir, spawner):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.dir = work_dir
        self.spawn = spawner.run
        self.env = _child_env()
        self.inputs = make_inputs(workload, seed, os.path.join(work_dir, "inputs"))
        self.configs = {}
        for kind in ("plain", "traced"):
            cfg = os.path.join(work_dir, f"{kind}.cfg")
            write_config(workload, seed, self.inputs, os.path.join(work_dir, f"out-{kind}"), cfg)
            self.configs[kind] = cfg
        self.attempted = 0
        self.failures = []
        self.samples = []
        self.reference = None   # fingerprints of the first checked sample

    def out_dir(self, kind):
        return os.path.join(self.dir, f"out-{kind}")

    def _record(self, label, code, problems):
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"] + problems
        if problems:
            self.failures.append({"sample": label, "problems": problems})
        return not problems

    def _check(self, kind):
        out = self.out_dir(kind)
        problems = check_outputs(out, self.workload)
        prints = fingerprints(out)
        if self.reference is None:
            self.reference = prints
        elif prints != self.reference:
            problems.append(f"output fingerprints {prints} differ from {self.reference}")
        return problems

    def setup_sample(self):
        """One set-up-only process; returns its wall time, or None if it failed."""
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), "setup",
               "--config", self.configs["plain"], "--command", self.workload.command]
        code, wall, _ = self.spawn(cmd, self.env, os.path.join(self.dir, "setup.log"))
        return wall if self._record("setup", code, []) else None

    def cli_sample(self):
        """One untraced CLI process; returns its sample record."""
        out = self.out_dir("plain")
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, "-m", "windcal.cli", self.workload.command,
               "--config", self.configs["plain"]]
        code, wall, rss = self.spawn(cmd, self.env, os.path.join(self.dir, "cli.log"))
        problems = self._check("plain") if code == 0 else []
        sample = {"wall_s": wall, "peak_rss_mb": rss, "exit_code": code, "problems": problems}
        self._record(f"cli-{len(self.samples)}", code, problems)
        self.samples.append(sample)
        return sample

    def traced_sample(self, index):
        out = self.out_dir("traced")
        shutil.rmtree(out, ignore_errors=True)
        spans_path = os.path.join(self.dir, "spans.npz")
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), "trace",
               "--config", self.configs["traced"], "--command", self.workload.command,
               "--spans", spans_path, "--run-id", f"{self.workload.name}-{self.seed}-{index}"]
        code, wall, rss = self.spawn(cmd, self.env, os.path.join(self.dir, "trace.log"))
        problems = self._check("traced") if code == 0 else []
        if not self._record(f"traced-{index}", code, problems):
            return None
        metrics, detail = analyze(load_spans(spans_path))
        detail.update(wall_s=wall, peak_rss_mb=rss, output_mb=output_mb(out))
        return metrics, detail


def _acceptance(out_dir):
    with open(os.path.join(out_dir, "acceptance.csv"), newline="") as fh:
        return {row["block"]: float(row["acceptance_rate"]) for row in csv.DictReader(fh)}


def _convergence(out_dir):
    """Bulk ESS and split-R-hat of the nine global scalars from draws.npz."""
    with numpy.load(os.path.join(out_dir, "draws.npz"), allow_pickle=False) as data:
        chain = data["chain"]
        by_name = {k[len("scalar_"):]: numpy.stack([data[k][chain == c] for c in numpy.unique(chain)])
                   for k in data.files if k.startswith("scalar_")}
    return diagnose(by_name)


def end_to_end(run: Run):
    # set-up probes are spread evenly over the window, between CLI samples,
    # so that both medians see the same stretch of machine load
    setup, setups_run = [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if setups_run < min(SETUP_REPEATS, 1 + SETUP_REPEATS * elapsed / run.seconds):
            setups_run += 1
            wall = run.setup_sample()
            if wall is not None:
                setup.append(wall)
        elif len(run.samples) < MIN_SAMPLES or elapsed < run.seconds:
            run.cli_sample()
        else:
            break
    ok = _passed(run.samples)
    metrics = {
        "wall_s": _median([s["wall_s"] for s in ok]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in ok]),
    }
    return metrics, {"setup_s_samples": setup}


def per_layer(run: Run):
    w = run.workload
    accept, convergence = {}, {}
    start = time.perf_counter()
    while not run.samples or time.perf_counter() - start < run.seconds / 2:
        sample = run.cli_sample()
        if len(run.samples) == 1 and w.fits and sample["exit_code"] == 0:
            accept = _acceptance(run.out_dir("plain"))
            if w.draws_per_chain // 2 >= 4:
                convergence = _convergence(run.out_dir("plain"))
    traced = []
    while not traced or time.perf_counter() - start < run.seconds:
        result = run.traced_sample(len(traced))
        if result is None:
            break
        traced.append(result)

    notes = []
    metrics = {}
    if traced:
        names = set().union(*(m for m, _ in traced))
        metrics = {k: _median([m[k] for m, _ in traced if k in m]) for k in sorted(names)}
        metrics["cli.output_mb"] = traced[-1][1]["output_mb"]
        load_s = metrics["data.load_network_s"] + metrics["data.load_panel_s"]
        rows = sum(_count_rows(p) for p in run.inputs.values())
        metrics["data.ingest_rows_per_s"] = rows / load_s if load_s > 0 else 0.0
        if w.fits:
            metrics["predictive.calibrate_field_us_per_draw"] = (
                1e6 * metrics["predictive.calibrate_field_s"] / w.n_draws)
        untraced = _median([s["wall_s"] for s in _passed(run.samples)])
        traced_wall = _median([d["wall_s"] for _, d in traced])
        metrics["trace.overhead_s"] = traced_wall - untraced
        metrics["trace.overhead_share"] = (traced_wall - untraced) / untraced if untraced else 0.0
    for block, rate in accept.items():
        metrics[f"model.accept.{block}"] = rate
    ess = [v["ess_bulk"] for v in convergence.values() if math.isfinite(v["ess_bulk"])]
    rhat = [v["rhat"] for v in convergence.values() if math.isfinite(v["rhat"])]
    if ess and rhat:
        metrics["model.ess_bulk_median"] = statistics.median(ess)
        metrics["model.ess_bulk_min"] = min(ess)
        metrics["model.rhat_max"] = max(rhat)
        metrics["model.ess_per_s"] = statistics.median(ess) / run.samples[0]["wall_s"]
    elif w.fits:
        notes.append("no ESS or R-hat: they need at least 4 draws per split chain and a "
                     f"chain that moves; this workload keeps {w.draws_per_chain} per chain")
    detail = {
        "traced_runs": [{k: v for k, v in d.items() if k != "by_name"} for _, d in traced],
        "spans_by_name": traced[-1][1]["by_name"] if traced else {},
        "convergence": convergence,
        "notes": notes,
    }
    return metrics, detail


def _metadata(run: Run, trace: int, why: str):
    w = run.workload
    return {
        "workload": w.name, "why": why, "seed": run.seed, "mcmc_seed": run.seed,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "trace": trace, "seconds": run.seconds,
        "loop": "closed loop, one client: one CLI process at a time, chains run serially",
        "commit": _commit(), "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "panel": {"stations": w.n_stations, "observed_stations": w.n_observed,
                  "days": w.n_times, "missing_rate": w.missing_rate,
                  "generator_tau_z": truth(w).tau_z,
                  "observed_cells": _count_rows(run.inputs["observed"])},
        "input_bytes": {k: os.path.getsize(p) for k, p in run.inputs.items()},
        "chain": ({"iterations": w.iterations, "burn_in": w.burn_in, "thinning": w.thinning,
                   "chains": w.chains, "draws": w.n_draws} if w.fits else None),
        "command": f"windcal {w.command} (mode = {w.mode})",
        "unmeasured_layers": UNMEASURED,
        "fingerprints": run.reference,
        "samples": run.samples,
        "failures": run.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of the windcal CLI.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HELD_OUT_SEED} is held out for confirming gains")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "windcal", "cli.py")):
        print(f"benchmark: no windcal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload, "")

    work_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    with Spawner() as spawner:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, work_dir, spawner)
        metrics, detail = (per_layer if args.trace else end_to_end)(run)
    failed = len(run.failures)
    error_rate = failed / run.attempted

    meta = _metadata(run, args.trace, why)
    meta.update(detail)
    meta["not_applicable"] = sorted(set(declared) - set(metrics))
    meta["undeclared"] = {k: v for k, v in metrics.items() if k not in declared}
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)

    print(json.dumps({"meta": meta}, sort_keys=True))
    table = dict(metrics, error_rate=error_rate)
    units = dict(declared, error_rate="ratio")
    for name, value in table.items():
        print(f"{args.workload:16s} {name:44s} {value:14.6g} {units.get(name, '')}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
