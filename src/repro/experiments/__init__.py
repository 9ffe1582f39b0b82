"""Experiment drivers reproducing every table and figure of the paper.

Each module regenerates one artifact:

==================  ====================================================
``table1``          Table 1 -- application/optimization inventory
``figure5``         Figure 5 -- execution-time breakdown, N vs L
``figure6``         Figure 6(a,b) -- miss counts and bandwidth
``figure7``         Figure 7 -- prefetching x locality at 32 B lines
``figure10``        Figure 10(a-d) -- SMV forwarding overhead
``ablations``       design-choice sweeps beyond the paper's figures
==================  ====================================================

Every module exposes ``run(runner, scale) -> result`` (with a
``render()`` method) and a ``main()`` CLI entry, e.g.::

    python -m repro.experiments.figure5
"""

from repro.experiments.config import (
    APP_SEEDS,
    BH_LINE_SIZES,
    DEFAULT_LINE_SIZES,
    FIGURE7_LINE_SIZE,
    experiment_config,
    line_sizes_for,
)
from repro.experiments.runner import ExperimentRunner

__all__ = [
    "APP_SEEDS",
    "BH_LINE_SIZES",
    "DEFAULT_LINE_SIZES",
    "FIGURE7_LINE_SIZE",
    "ExperimentRunner",
    "experiment_config",
    "line_sizes_for",
]
