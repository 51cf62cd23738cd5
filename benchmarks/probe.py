"""Child-process entry points of the benchmark.

    probe.py setup --config CFG --command fit|calibrate
        Does only the work before the main loop: import windcal.cli, read the
        config, load_network and load_panel; for ``fit`` also build the
        HierarchicalModel, its initial state and an MwgSampler.

    probe.py trace --config CFG --command fit|calibrate --spans OUT.npz --run-id ID
        Runs ``windcal.cli.main`` in this process with spans installed around
        the calls into each layer, then writes the spans to OUT.npz.

The parent puts the checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import sys


def setup(args) -> int:
    import numpy as np

    import windcal.cli as cli
    from windcal.model import HierarchicalModel, MwgSampler

    cfg = cli.parse_config(args.config)
    net = cli.load_network(cfg.stations)
    panel = cli.load_panel(cfg.observed, cfg.simulated, net)
    if args.command == "fit":
        model = HierarchicalModel(panel.y, panel.x, net, priors=cfg.priors,
                                  correlation_family=cfg.correlation_family)
        MwgSampler(model, model.initialize_state(), np.random.default_rng(cfg.seed))
    return 0


def trace(args) -> int:
    import windcal.cli as cli
    from tracing import SpanRecorder, installed

    recorder = SpanRecorder(args.run_id)
    with installed(recorder):
        code = recorder.wrap("cli.main", cli.main)([args.command, "--config", args.config])
    recorder.save(args.spans)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("setup", "trace"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--command", required=True, choices=("fit", "calibrate"))
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()
    return setup(args) if args.action == "setup" else trace(args)


if __name__ == "__main__":
    sys.exit(main())
