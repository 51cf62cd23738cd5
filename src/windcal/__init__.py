"""windcal: quantile-matching calibration of simulated environmental fields.

Simulated panels (e.g. daily-maximum wind speed from a numerical weather
simulator) are brought in line with sparse station observations via
conditional quantile matching under a bounded-tail extended Generalized
Pareto model whose per-cell endpoints share latent spatial and temporal
Gaussian fields, fitted by MCMC.
"""

import os

# The sampler's matrix products are small, so OpenBLAS's own threads cost more than they
# save: at 200x100x365 on 2 cores, two threads took 34.6 ms per sweep against 19.6 with one.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# OpenBLAS reads its thread count once, when numpy loads it: before the imports below
if not any(name in os.environ for name in BLAS_THREAD_ENV):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .calibration import CalibrationMap, EmpiricalCdf, conditional_calibrate
from .data import PanelData, SyntheticTruth, generate_synthetic, load_network, load_panel
from .draws import PosteriorDraws
from .egpd import (
    EgpdParams,
    GpdParams,
    egpd_cdf,
    egpd_logpdf,
    egpd_quantile,
    egpd_sample,
    gpd_cdf,
)
from .errors import DataValidationError, DomainError, NumericalError, RuleError, WindcalError
from .latent import StationNetwork, rw1_logdensity, spatial_correlation, spatial_logdensity
from .model import HierarchicalModel, McmcConfig, ModelState, MwgSampler, PriorSpec, run_mcmc
from .predictive import CalibratedField, calibrate_field, day_densities, summarize_posterior
