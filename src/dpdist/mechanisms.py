"""Noise primitives and single-party sanitizing maps.

The Laplace sampler, the randomized-response bit flip with its exact
output-probability oracle, and the global-sensitivity Laplace mechanism.
Every sampler takes an explicit ``numpy.random.Generator``; there is no
ambient global randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import _check_bits

__all__ = [
    "LaplaceParams",
    "FlipParams",
    "SensitivitySpec",
    "sample_laplace",
    "flip_bias_for",
    "flip",
    "flip_output_prob",
    "laplace_mechanism",
]


@dataclass(frozen=True)
class LaplaceParams:
    """Scale parameter of the Laplace distribution."""

    lam: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("scale must be finite and positive")


@dataclass(frozen=True)
class FlipParams:
    """Bias of the randomized-response flip: keep the bit w.p. 0.5 + flip_bias.

    Named ``flip_bias`` to keep it distinct from the density of the planted
    input distribution used by the audit module.
    """

    flip_bias: float

    def __post_init__(self):
        if not 0.0 < self.flip_bias < 0.5:
            raise ValueError("flip_bias must lie strictly between 0 and 0.5")

    @property
    def keep_prob(self) -> float:
        return 0.5 + self.flip_bias


@dataclass(frozen=True)
class SensitivitySpec:
    """Global sensitivity: max |f(x) - f(x')| over neighboring inputs."""

    gs: float

    def __post_init__(self):
        if not 0 < self.gs < math.inf:
            raise ValueError("global sensitivity must be finite and positive")


def sample_laplace(
    p: LaplaceParams,
    rng: np.random.Generator,
    size: Optional[Union[int, tuple]] = None,
) -> Union[float, np.ndarray]:
    """Sample from the Laplace distribution with scale ``p.lam``.

    Uses inverse-CDF on a single uniform draw per sample: for u uniform on
    [-0.5, 0.5), the sample is -lam * sign(u) * ln(1 - 2|u|).  Mean 0,
    variance 2*lam^2, and P[|Y| > k*lam] = e^-k.
    """
    u = rng.random(size) - 0.5
    # 1 - 2|u| = 0 only when the uniform draw is exactly 0; clamp to the
    # smallest positive double instead of returning inf.
    q = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(float).tiny)
    return -p.lam * np.sign(u) * np.log(q)


def flip_bias_for(eps: float) -> FlipParams:
    """Flip bias eps / (4 + 2*eps), giving exact output ratio 1 + eps."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return FlipParams(eps / (4.0 + 2.0 * eps))


def flip(x: Union[int, np.ndarray], p: FlipParams, rng: np.random.Generator) -> np.ndarray:
    """Randomized response: return x w.p. 0.5 + flip_bias, else 1 - x.

    Flips a bit array elementwise with one independent uniform per element
    and returns uint8 of the same shape; a scalar bit is a 0-d array, so it
    draws one uniform and returns a numpy ``uint8``.  An element outside
    {0, 1} raises ``ValueError`` before any draw.
    """
    arr = np.asarray(x)
    _check_bits(arr)  # the XOR below would map 2 to 2 or 3, not to 1 - x
    keep = rng.random(arr.shape) < p.keep_prob
    return arr.astype(np.uint8, copy=False) ^ ~keep


def flip_output_prob(x: int, out: int, p: FlipParams) -> float:
    """Exact probability that flip(x) = out."""
    if x not in (0, 1) or out not in (0, 1):
        raise ValueError("bits must be 0 or 1")
    return p.keep_prob if x == out else 1.0 - p.keep_prob


def laplace_mechanism(
    f_value: float,
    s: SensitivitySpec,
    eps: float,
    rng: np.random.Generator,
    size: Optional[Union[int, tuple]] = None,
) -> Union[float, np.ndarray]:
    """Add Laplace noise with scale gs/eps to a function value."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return f_value + sample_laplace(LaplaceParams(s.gs / eps), rng, size)
