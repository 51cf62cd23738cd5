"""The traced benchmark finds its seams by name: each one must still exist."""

import argparse
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from windcal import cli  # noqa: E402
from windcal.draws import PosteriorDraws  # noqa: E402


def test_every_traced_name_exists_and_is_restored():
    before = (cli._save_draws_npz, PosteriorDraws.__dict__["from_states"])
    # installing looks up each patched name, so a missing one raises KeyError
    with tracing.installed(tracing.SpanRecorder("seams")):
        assert cli._save_draws_npz is not before[0]
    assert (cli._save_draws_npz, PosteriorDraws.__dict__["from_states"]) == before


@pytest.mark.parametrize("workload, command", [("fit-small", "fit"),
                                               ("calibrate-large", "calibrate")])
def test_setup_probe_reads_names_that_exist(tmp_path, workload, command):
    # the untraced benchmark times this probe; the traced run never starts it
    data = tmp_path / "data"
    assert cli.main(["simulate", "--out-dir", str(data), "--n-stations", "8",
                     "--n-observed", "5", "--n-times", "10"]) == cli.EXIT_OK
    inputs = {key: str(data / f"{key}.csv") for key in ("stations", "observed", "simulated")}
    config = tmp_path / "run.cfg"
    workloads.write_config(workloads.WORKLOADS[workload], 0, inputs, str(tmp_path / "out"),
                           str(config))
    assert probe.setup(argparse.Namespace(config=str(config), command=command)) == 0
