"""Message-passing data fusion for distributed binary detection.

A workbench for cooperative detection on pairwise Markov random fields:
local log-likelihood sensing (coherent and energy detectors), max-product /
sum-product / linearized message passing, a continuous quadratic relaxation
that exposes the fusion weights behind the max-product decision variables,
closed-form performance evaluation, and the coefficient/weight optimizers
built on top of it.
"""

__version__ = "0.1.0"

from . import config, discrete, graph, optimizer, performance, pipeline
from . import quadratic, rng, scenario, sensing

__all__ = [
    "config",
    "discrete",
    "graph",
    "optimizer",
    "performance",
    "pipeline",
    "quadratic",
    "rng",
    "scenario",
    "sensing",
    "__version__",
]
