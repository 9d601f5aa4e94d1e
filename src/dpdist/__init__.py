"""Simulator and audit toolkit for distributed differentially private protocols.

Honest-but-curious parties compute binary sums, gap thresholds, and windowed
minima through local-model and point-to-point protocols; an audit engine
measures their privacy/accuracy trade-offs exactly where alphabets are
finite and statistically elsewhere.
"""

from .core import (
    GapParams,
    as_bits,
    min_window_weight,
    min_window_weight_gridded,
)
from .mechanisms import (
    FlipParams,
    LaplaceParams,
    SensitivitySpec,
    flip,
    flip_bias_for,
    flip_output_prob,
    laplace_mechanism,
    sample_laplace,
)
from .seeding import derive_rng

__version__ = "0.1.0"
