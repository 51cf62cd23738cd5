"""The traced benchmark finds its seams by name: each one must still exist."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402
from windcal import cli  # noqa: E402
from windcal.draws import PosteriorDraws  # noqa: E402


def test_every_traced_name_exists_and_is_restored():
    before = (cli._save_draws_npz, PosteriorDraws.__dict__["from_states"])
    # installing looks up each patched name, so a missing one raises KeyError
    with tracing.installed(tracing.SpanRecorder("seams")):
        assert cli._save_draws_npz is not before[0]
    assert (cli._save_draws_npz, PosteriorDraws.__dict__["from_states"]) == before
